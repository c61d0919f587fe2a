"""Property tests: expand_line_runs against a naive reference model."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import expand_line_runs
from repro.ir import INSTRUCTION_BYTES


def reference_line_runs(starts, counts, line_bytes):
    """Word-at-a-time reference: one run per (span, line) pair."""
    words_per_line = line_bytes // INSTRUCTION_BYTES
    runs = []
    for span_idx, (start, count) in enumerate(zip(starts, counts)):
        if count <= 0:
            continue
        current_line = None
        for word_index in range(count):
            addr = start + word_index * INSTRUCTION_BYTES
            line = addr // line_bytes
            word = (addr // INSTRUCTION_BYTES) % words_per_line
            if line != current_line:
                runs.append([line, word, word, span_idx])
                current_line = line
            else:
                runs[-1][2] = word
    return runs


@st.composite
def span_streams(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    starts = draw(st.lists(
        st.integers(min_value=0, max_value=5000), min_size=n, max_size=n))
    counts = draw(st.lists(
        st.integers(min_value=0, max_value=70), min_size=n, max_size=n))
    line_bytes = draw(st.sampled_from([16, 32, 64, 128, 256]))
    return (
        np.array(starts, dtype=np.int64) * INSTRUCTION_BYTES,
        np.array(counts, dtype=np.int64),
        line_bytes,
    )


class TestExpandLineRunsReference:
    @settings(max_examples=120, deadline=None)
    @given(span_streams())
    def test_matches_reference(self, stream):
        starts, counts, line_bytes = stream
        lines, lo, hi, span = expand_line_runs(starts, counts, line_bytes)
        got = list(zip(lines.tolist(), lo.tolist(), hi.tolist(), span.tolist()))
        want = [tuple(r) for r in reference_line_runs(starts, counts, line_bytes)]
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(span_streams())
    def test_words_conserved(self, stream):
        """Total words across runs equals total instructions fetched."""
        starts, counts, line_bytes = stream
        _, lo, hi, _ = expand_line_runs(starts, counts, line_bytes)
        total_words = int((hi - lo + 1).sum()) if len(lo) else 0
        assert total_words == int(counts[counts > 0].sum())
