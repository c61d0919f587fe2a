"""End-to-end tests of the experiment harness (quick configuration)."""

import pytest

from repro.cache import CacheGeometry, direct_mapped_misses
from repro.harness import figures, quick_experiment


@pytest.fixture(scope="module")
def exp():
    experiment = quick_experiment()
    _ = experiment.profile
    _ = experiment.trace
    return experiment


class TestPipelineProducts:
    def test_profile_covers_hot_routines(self, exp):
        counts = exp.profile.proc_counts()
        # TPC-B exercises updates and history inserts...
        assert counts["sql_update@account"] > 0
        assert counts["sql_insert@history"] > 0
        assert counts["buffer_get"] > 0
        # ...but never point selects.
        assert counts["sql_select@account"] == 0

    def test_kernel_profile_nonzero(self, exp):
        assert exp.kernel_profile.total_blocks_executed > 0

    def test_profile_and_measurement_runs_differ(self, exp):
        # Different request streams: traces differ in length.
        measure_blocks = sum(c.num_blocks for c in exp.trace.cpus)
        assert measure_blocks > 0
        assert exp.profile.total_blocks_executed != measure_blocks

    def test_layouts_cached(self, exp):
        assert exp.layout("all") is exp.layout("all")

    def test_address_maps_cached(self, exp):
        assert exp.address_map("base") is exp.address_map("base")

    def test_app_streams_shapes(self, exp):
        streams = exp.streams("base", scope="app")
        assert len(streams) == exp.config.system.cpus
        for starts, counts in streams:
            assert len(starts) == len(counts)

    def test_optimization_reduces_misses(self, exp):
        geometry = CacheGeometry(32 * 1024, 128, 1)
        base = sum(
            direct_mapped_misses(s, c, geometry)
            for s, c in exp.streams("base", scope="app")
        )
        optimized = sum(
            direct_mapped_misses(s, c, geometry)
            for s, c in exp.streams("all", scope="app")
        )
        assert optimized < 0.7 * base

    def test_kernel_layout_optimization_available(self, exp):
        amap = exp.address_map("all", "all")
        assert amap is exp.address_map("all", "all")


class TestStreamsApi:
    def test_streamset_provenance(self, exp):
        streams = exp.streams("base", scope="app")
        assert (streams.scope, streams.combo, streams.kernel_combo) == \
            ("app", "base", "base")
        assert len(streams) == exp.config.system.cpus
        assert streams.instructions > 0

    def test_removed_wrappers_are_fully_deleted(self, exp):
        # The *_streams shims went warning -> error -> gone;
        # the attribute itself no longer exists.
        for legacy in (
            "app_streams", "kernel_streams",
            "combined_streams", "per_process_streams",
        ):
            assert not hasattr(exp, legacy)

    def test_combined_scope_includes_kernel(self, exp):
        from repro.osmodel import KERNEL_BASE

        for starts, _counts in exp.streams("base", scope="combined"):
            assert (starts >= KERNEL_BASE).any()

    def test_kernel_scope_all_kernel(self, exp):
        from repro.osmodel import KERNEL_BASE

        for starts, _counts in exp.streams(scope="kernel"):
            assert (starts >= KERNEL_BASE).all()

    def test_per_process_scope_one_stream_per_process(self, exp):
        streams = exp.streams("base", scope="per-process")
        assert len(streams) == len(exp.trace.per_process_app_streams())

    def test_unknown_scope_rejected(self, exp):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="per-process"):
            exp.streams("base", scope="bogus")

    def test_unknown_combo_lists_valid_names(self, exp):
        from repro.errors import LayoutError

        with pytest.raises(LayoutError, match="chain\\+split"):
            exp.streams("bogus", scope="app")
        with pytest.raises(LayoutError, match="valid combos"):
            exp.layout("nope")

    def test_combo_enum_accepted(self, exp):
        from repro.layout import Combo

        assert exp.layout(Combo.ALL) is exp.layout("all")


class TestFigureAssembly:
    def test_fig03(self, exp):
        table = figures.fig03_execution_profile(exp)
        assert table.rows
        captured = [row[1] for row in table.rows]
        assert captured == sorted(captured)

    def test_fig06(self, exp):
        table = figures.fig06_associativity(exp)
        assert len(table.rows) == len(figures.SWEEP_SIZES)

    def test_fig08(self, exp):
        summary, histogram = figures.fig08_sequences(exp)
        values = {row[0]: row[1] for row in summary.rows}
        assert values["optimized"] > values["base"]
        assert len(histogram.rows) == 33

    def test_fig12(self, exp):
        table = figures.fig12_combined(exp, "base")
        for _size, combined, app, kernel in table.rows:
            assert combined >= app
            assert combined >= kernel

    def test_fig13(self, exp):
        table = figures.fig13_interference(exp, "base")
        rows = {r[0]: (r[1], r[2]) for r in table.rows}
        assert rows["both"][0] == rows["kernel"][0] + rows["application"][0]

    def test_fig15(self, exp):
        table = figures.fig15_exec_time(exp, combos=("base", "all"))
        rows = {r[0]: r[1:] for r in table.rows}
        assert rows["base"] == [100.0, 100.0]
        assert all(v < 100.0 for v in rows["all"])

    def test_table_renders(self, exp):
        text = figures.fig03_execution_profile(exp).render()
        assert "Figure 3" in text
        assert "note:" in text
