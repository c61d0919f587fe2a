"""End-to-end wiring of the repro.check analyses: the optimizer's
opt-in verification, the AdaptiveRelayout swap gate, and the
every-combo property test."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.check import check_all, gate_layout, verify_layout
from repro.errors import LayoutError
from repro.ir import assign_addresses
from repro.layout import ALL_COMBOS, SpikeOptimizer
from repro.online.relayout import AdaptiveRelayout, RelayoutResult
from repro.profiles import PixieProfiler
from repro.progen import AppCodeConfig, build_app_program


@pytest.fixture(scope="module")
def program():
    return build_app_program(
        AppCodeConfig(scale=0.5, filler_routines=10, filler_instructions=2_000)
    )


@pytest.fixture(scope="module")
def profile(program):
    from repro.db.instrument import CallEvent
    from repro.execution import CfgWalker
    from repro.osmodel import KernelCodeConfig, build_kernel_program

    kernel = build_kernel_program(
        KernelCodeConfig(scale=0.5, filler_routines=2, filler_instructions=500)
    )
    walker = CfgWalker(program, kernel)
    out = []
    for salt in range(200):
        walker.walk_event(CallEvent("txn_begin", {"salt": salt}), out)
    blocks = np.asarray(out, dtype=np.int64)
    profiler = PixieProfiler(program.binary)
    profiler.add_stream(blocks[blocks < walker.kernel_offset])
    return profiler.profile()


def corrupt(layout):
    """Drop one block from a multi-block unit (fails LAY001)."""
    units = list(layout.units)
    victim = next(u for u in units if len(u.block_ids) > 1)
    units[units.index(victim)] = dataclasses.replace(
        victim, block_ids=victim.block_ids[1:]
    )
    return dataclasses.replace(layout, units=units)


class TestOptimizerVerification:
    def test_verifying_optimizer_builds_every_combo(self, program, profile):
        optimizer = SpikeOptimizer(program.binary, profile, verify=True)
        for combo in ALL_COMBOS:
            optimizer.layout(combo)  # raises LayoutError on any defect

    @settings(max_examples=len(ALL_COMBOS))
    @given(combo=st.sampled_from(ALL_COMBOS))
    def test_every_combo_lints_clean(self, program, profile, combo):
        optimizer = SpikeOptimizer(program.binary, profile)
        layout = optimizer.layout(combo)
        amap = assign_addresses(program.binary, layout)
        report = check_all(
            program.binary, profile, layout, amap, target=combo
        )
        assert not report.errors, report.render()


class TestRelayoutGate:
    def test_corrupt_fresh_layout_returns_fallback(
        self, program, profile, monkeypatch
    ):
        bad = corrupt(SpikeOptimizer(program.binary, profile).layout("all"))
        monkeypatch.setattr(SpikeOptimizer, "layout", lambda self, combo: bad)
        sentinel = RelayoutResult(
            layout=None, address_map=None, optimizer=None,
            rebuilt_procs=(), reused_chains=0, cache="off",
        )
        rejected = obs.counter("online.relayout.rejected").value
        result = AdaptiveRelayout(program.binary).rebuild(
            profile, fallback=sentinel
        )
        assert result is sentinel
        assert obs.counter("online.relayout.rejected").value == rejected + 1

    def test_corrupt_fresh_layout_without_fallback_raises(
        self, program, profile, monkeypatch
    ):
        bad = corrupt(SpikeOptimizer(program.binary, profile).layout("all"))
        monkeypatch.setattr(SpikeOptimizer, "layout", lambda self, combo: bad)
        with pytest.raises(LayoutError, match="integrity"):
            AdaptiveRelayout(program.binary).rebuild(profile)

    def test_corrupt_cached_layout_treated_as_miss(
        self, program, profile, tmp_path
    ):
        from repro.harness.store import ArtifactStore, save_layout

        store = ArtifactStore(tmp_path)
        bad = corrupt(SpikeOptimizer(program.binary, profile).layout("all"))
        save_layout(
            bad,
            store.prepare(profile.fingerprint(), "online-layout-all.json"),
        )
        rejected = obs.counter("online.relayout.rejected_cache").value
        result = AdaptiveRelayout(program.binary, store=store).rebuild(profile)
        assert obs.counter("online.relayout.rejected_cache").value == rejected + 1
        # The rebuilt replacement is genuinely clean.
        verify_layout(program.binary, result.layout, result.address_map)

    def test_gate_off_defers_failure_to_address_assignment(
        self, program, profile, monkeypatch
    ):
        bad = corrupt(SpikeOptimizer(program.binary, profile).layout("all"))
        monkeypatch.setattr(SpikeOptimizer, "layout", lambda self, combo: bad)
        rejected = obs.counter("online.relayout.rejected").value
        with pytest.raises(LayoutError, match="places"):
            AdaptiveRelayout(program.binary, verify=False).rebuild(profile)
        assert obs.counter("online.relayout.rejected").value == rejected


class TestGateLayout:
    def test_clean_layout_runs_structure_and_address_checks(
        self, program, profile
    ):
        layout = SpikeOptimizer(program.binary, profile).layout("all")
        runs = obs.counter("check.runs").value
        report = gate_layout(program.binary, layout, target="gate")
        assert report.ok, report.render()
        # Structure runner, then the address runner alone.
        assert obs.counter("check.runs").value == runs + 2
        assert report.address_map is not None

    def test_corrupt_layout_is_reported_not_raised(self, program, profile):
        bad = corrupt(SpikeOptimizer(program.binary, profile).layout("all"))
        report = gate_layout(program.binary, bad, target="gate")
        assert "LAY001" in report.codes()
        assert {d.target for d in report.errors} == {"gate"}
        assert report.address_map is None

    @pytest.mark.parametrize("combo", ["base", "all"])
    @pytest.mark.parametrize("broken", [False, True])
    def test_diagnostics_equal_the_two_full_runs(
        self, program, profile, combo, broken
    ):
        # The former gate ran the structure passes twice: once alone,
        # then again with the address passes.
        from repro.check import check_layout

        layout = SpikeOptimizer(program.binary, profile).layout(combo)
        if broken:
            layout = corrupt(layout)
        want = check_layout(program.binary, layout, target="gate")
        if want.ok:
            want = check_layout(
                program.binary, layout,
                assign_addresses(program.binary, layout), target="gate",
            )
        got = gate_layout(program.binary, layout, target="gate")
        assert got.render() == want.render()
        assert got.to_json() == want.to_json()
        if not broken:
            placed = assign_addresses(program.binary, layout)
            assert np.array_equal(got.address_map.addr, placed.addr)
