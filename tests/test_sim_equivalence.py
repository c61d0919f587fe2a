"""Property test: the batched engine is bit-identical to classic.

The acceptance bar for ``repro.sim.simulate_grid`` is exact equality
with the per-cell reference engine -- across random stream shapes,
geometry grids, and chunk sizes small enough to force fetch spans to be
split at chunk boundaries (the trickiest carry path).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheGeometry
from repro.ir import INSTRUCTION_BYTES
from repro.sim import direct_mapped_misses, iter_chunks, simulate_grid
from repro.sim.icache import span_lines


def reference_grid(streams, sizes, lines):
    grid = {}
    for size in sizes:
        for line in lines:
            geometry = CacheGeometry(size, line, 1)
            grid[(size, line)] = sum(
                direct_mapped_misses(s, c, geometry)
                for s, c in streams
            )
    return grid


@st.composite
def stream_lists(draw):
    n_streams = draw(st.integers(min_value=1, max_value=3))
    streams = []
    for _ in range(n_streams):
        n_spans = draw(st.integers(min_value=0, max_value=60))
        starts = draw(
            st.lists(
                st.integers(min_value=0, max_value=4096),
                min_size=n_spans, max_size=n_spans,
            )
        )
        counts = draw(
            st.lists(
                st.integers(min_value=0, max_value=48),
                min_size=n_spans, max_size=n_spans,
            )
        )
        streams.append((
            np.asarray(starts, dtype=np.int64) * INSTRUCTION_BYTES,
            np.asarray(counts, dtype=np.int64),
        ))
    return streams


@st.composite
def geometry_grids(draw):
    # 96KB-style non-power-of-two sizes exercise the argsort fallback
    # (set counts that are not power-of-two multiples of each other).
    sizes = draw(
        st.lists(
            st.sampled_from([512, 1024, 1536, 2048, 4096, 8192]),
            min_size=1, max_size=4, unique=True,
        )
    )
    lines = draw(
        st.lists(
            st.sampled_from([16, 32, 64, 128]),
            min_size=1, max_size=3, unique=True,
        )
    )
    return sizes, lines


class TestBatchedEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        streams=stream_lists(),
        grid=geometry_grids(),
        chunk=st.integers(min_value=1, max_value=700),
    )
    def test_bit_identical_to_classic(self, streams, grid, chunk):
        sizes, lines = grid
        if all(int(c.sum()) == 0 for _, c in streams):
            return  # simulate_grid requires streams; zero-work is fine
        batched = simulate_grid(
            streams, sizes, lines, chunk_instructions=chunk, jobs=1
        )
        assert batched == reference_grid(streams, sizes, lines)

    def test_span_splitting_boundary(self):
        # One long span forced across many chunk boundaries: the
        # boundary line is fetched by both halves and must collapse.
        streams = [(
            np.array([0, 64], dtype=np.int64),
            np.array([1000, 500], dtype=np.int64),
        )]
        sizes, lines = (1024, 2048), (32, 64)
        for chunk in (1, 3, 7, 100, 999, 1001):
            got = simulate_grid(
                streams, sizes, lines, chunk_instructions=chunk, jobs=1
            )
            assert got == reference_grid(streams, sizes, lines), chunk


class TestIterChunks:
    @settings(max_examples=40, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2048),
                st.integers(min_value=0, max_value=64),
            ),
            max_size=40,
        ),
        chunk=st.integers(min_value=1, max_value=300),
        line=st.sampled_from([16, 32, 64]),
    )
    def test_chunks_preserve_the_line_sequence(self, spans, chunk, line):
        starts = np.asarray(
            [s * INSTRUCTION_BYTES for s, _ in spans], dtype=np.int64
        )
        counts = np.asarray([c for _, c in spans], dtype=np.int64)
        whole, _ = span_lines(starts[counts > 0], counts[counts > 0], line)
        pieces = [
            span_lines(cs, cc, line)[0]
            for cs, cc in iter_chunks(starts, counts, chunk)
        ]
        rejoined = (
            np.concatenate(pieces) if pieces else np.zeros(0, np.int64)
        )

        def collapse(lines_arr):
            if len(lines_arr) == 0:
                return lines_arr
            keep = np.empty(len(lines_arr), dtype=bool)
            keep[0] = True
            keep[1:] = lines_arr[1:] != lines_arr[:-1]
            return lines_arr[keep]

        assert np.array_equal(collapse(rejoined), collapse(whole))

    @settings(max_examples=40, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2048),
                st.integers(min_value=1, max_value=64),
            ),
            min_size=1, max_size=40,
        ),
        chunk=st.integers(min_value=1, max_value=300),
    )
    def test_chunks_respect_the_budget(self, spans, chunk):
        starts = np.asarray(
            [s * INSTRUCTION_BYTES for s, _ in spans], dtype=np.int64
        )
        counts = np.asarray([c for _, c in spans], dtype=np.int64)
        total = 0
        for cs, cc in iter_chunks(starts, counts, chunk):
            assert int(cc.sum()) <= chunk
            assert (cc > 0).all()
            total += int(cc.sum())
        assert total == int(counts.sum())

    def test_chunk_budget_must_be_positive(self):
        from repro.errors import SimulationError

        starts = np.array([0], dtype=np.int64)
        counts = np.array([4], dtype=np.int64)
        with pytest.raises(SimulationError, match="chunk_instructions"):
            list(iter_chunks(starts, counts, 0))
