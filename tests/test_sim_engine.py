"""The repro.sim facade: hierarchy composition, result shapes, engines."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import obs
from repro.cache import CacheGeometry
from repro.errors import SimulationError
from repro.sim import (
    MemoryHierarchy,
    dcache_result,
    direct_mapped_misses,
    itlb_result,
    l2_result,
    lru_result,
    simulate,
    simulate_grid,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
L1I = CacheGeometry(1024, 64, 2)
L2 = CacheGeometry(8 * 1024, 64, 1)


def make_stream(rng, spans=200, addr_space=64 * 1024):
    starts = (rng.integers(0, addr_space // 4, size=spans) * 4).astype(np.int64)
    counts = rng.integers(1, 40, size=spans).astype(np.int64)
    return starts, counts


@pytest.fixture
def streams():
    rng = np.random.default_rng(7)
    return [make_stream(rng) for _ in range(2)]


@pytest.fixture
def data_streams(streams):
    rng = np.random.default_rng(11)
    out = []
    for starts, counts in streams:
        n = 150
        addresses = (rng.integers(0, 1 << 16, size=n) * 8).astype(np.int64)
        positions = np.sort(rng.integers(0, counts.sum(), size=n)).astype(
            np.int64
        )
        out.append((addresses, positions))
    return out


class TestHierarchy:
    def test_l1i_only(self):
        h = MemoryHierarchy.l1i_only(L1I)
        assert h.l2 is None and h.dcache is None and h.itlb_entries == 0

    def test_negative_itlb_rejected(self):
        with pytest.raises(SimulationError, match="itlb_entries"):
            MemoryHierarchy(l1i=L1I, itlb_entries=-1)

    def test_detail_with_l2_rejected(self):
        with pytest.raises(SimulationError, match="detail"):
            MemoryHierarchy(l1i=L1I, l2=L2, detail=True)

    def test_from_platform(self):
        from repro.timing import ALPHA_21164

        h = MemoryHierarchy.from_platform(ALPHA_21164)
        assert h.l1i == ALPHA_21164.icache
        assert h.l2 == ALPHA_21164.l2
        assert h.itlb_entries == ALPHA_21164.itlb_entries

    def test_str_names_the_levels(self):
        text = str(MemoryHierarchy(l1i=L1I, l2=L2, itlb_entries=48))
        assert "L1I" in text and "L2" in text and "iTLB 48e" in text


class TestFacade:
    def test_lru_path_matches_classic(self, streams):
        result = simulate(streams, MemoryHierarchy.l1i_only(L1I))
        reference = lru_result(streams, L1I)
        assert result.misses == reference.misses
        assert result.icache is not None
        assert result.icache.misses == reference.misses
        assert result.l2 is None and result.itlb is None

    def test_instructions_and_mpki(self, streams):
        result = simulate(streams, MemoryHierarchy.l1i_only(L1I))
        expected = sum(int(c.sum()) for _, c in streams)
        assert result.instructions == expected
        assert result.mpki == pytest.approx(
            1000.0 * result.misses / expected
        )

    def test_detail_flag_produces_locality_metrics(self, streams):
        result = simulate(
            [streams[0]], MemoryHierarchy.l1i_only(L1I, detail=True)
        )
        assert result.icache.locality is not None

    def test_l2_path_matches_manual_composition(self, streams, data_streams):
        from repro.sim import simulate_l1i_misses

        hierarchy = MemoryHierarchy(
            l1i=L1I, l2=L2, dcache=L1I, itlb_entries=32
        )
        result = simulate(streams, hierarchy, data_streams=data_streams)

        refills = []
        for cpu, (starts, counts) in enumerate(streams):
            addr, pos = simulate_l1i_misses(starts, counts, L1I)
            dres = dcache_result(
                data_streams[cpu][0], L1I, data_streams[cpu][1]
            )
            refills.append((
                np.concatenate([addr, dres.miss_addresses]),
                np.concatenate([pos, dres.miss_positions]),
            ))
        reference_l2 = l2_result(refills, L2)
        assert result.l2.misses_instr == reference_l2.misses_instr
        assert result.l2.misses_data == reference_l2.misses_data
        assert result.l1i_misses == sum(
            len(simulate_l1i_misses(s, c, L1I)[0]) for s, c in streams
        )
        assert result.itlb.misses == itlb_result(
            streams, entries=32
        ).misses
        assert result.dcache.misses == sum(
            dcache_result(a, L1I, p).misses for a, p in data_streams
        )

    def test_dcache_skipped_without_data_streams(self, streams):
        result = simulate(streams, MemoryHierarchy(l1i=L1I, dcache=L1I))
        assert result.dcache is None


@pytest.mark.parametrize("statement", [
    "import repro.deprecation",
    "import repro.sim.classic",
    "import repro.sim.sharedmem",
    "from repro.cache import simulate_lru",
    "import repro.cache.icache",
    "import repro.harness.parallel",
    "import repro.harness.runlog",
    "import repro.scenarios.synth",
    "from repro.pipeline import StreamHandoff",
])
def test_removed_layers_stay_removed(statement):
    with pytest.raises(ImportError):
        exec(statement, {})


class TestSimulateGrid:
    SIZES = (1024, 2048, 4096)
    LINES = (32, 64)

    def test_engines_agree(self, streams):
        batched = simulate_grid(streams, self.SIZES, self.LINES)
        classic_grid = simulate_grid(
            streams, self.SIZES, self.LINES, engine="classic"
        )
        assert batched == classic_grid

    def test_unknown_engine_rejected(self, streams):
        with pytest.raises(SimulationError, match="valid engines"):
            simulate_grid(streams, self.SIZES, self.LINES, engine="turbo")

    def test_empty_streams_rejected(self):
        with pytest.raises(SimulationError, match="no streams"):
            simulate_grid([], self.SIZES, self.LINES)

    def test_grid_covers_every_cell(self, streams):
        grid = simulate_grid(streams, self.SIZES, self.LINES)
        assert set(grid) == {
            (s, line) for s in self.SIZES for line in self.LINES
        }

    def test_matches_per_cell_reference(self, streams):
        grid = simulate_grid(streams, self.SIZES, self.LINES)
        for (size, line), misses in grid.items():
            geometry = CacheGeometry(size, line, 1)
            expected = sum(
                direct_mapped_misses(s, c, geometry)
                for s, c in streams
            )
            assert misses == expected

    def test_obs_counters_recorded(self, streams):
        chunks_before = obs.counter("sim.chunks").value
        points_before = len(obs.series("sim.batch_occupancy").points)
        simulate_grid(streams, self.SIZES, self.LINES, chunk_instructions=512)
        assert obs.counter("sim.chunks").value > chunks_before
        assert len(obs.series("sim.batch_occupancy").points) > points_before

    def test_forked_sweep_starts_no_resource_tracker(self):
        """A ``jobs=2`` sweep hands its streams to forked workers by
        plain inheritance: no shared-memory segment is created, so the
        multiprocessing resource tracker never starts."""
        script = textwrap.dedent("""
            import numpy as np
            from multiprocessing import resource_tracker

            from repro.sim import simulate_grid

            rng = np.random.default_rng(3)
            streams = [
                ((rng.integers(0, 16384, size=300) * 4).astype(np.int64),
                 rng.integers(1, 40, size=300).astype(np.int64))
                for _ in range(2)
            ]
            grid = simulate_grid(streams, (1024, 4096), (32, 64), jobs=2)
            assert resource_tracker._resource_tracker._pid is None
            assert grid == simulate_grid(
                streams, (1024, 4096), (32, 64), engine="classic"
            )
        """)
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_parallel_matches_serial(self, streams):
        serial = simulate_grid(streams, self.SIZES, self.LINES, jobs=1)
        fanned = simulate_grid(streams, self.SIZES, self.LINES, jobs=2)
        assert serial == fanned
