"""End-to-end wiring of the repro.check analyses: every layout pass
held to its contract, the one layout gate (``check_all``) and its
callers' equivalence with placing first, the AdaptiveRelayout swap
gate, and the every-combo property test."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.check import (
    check_all,
    verify_chaining,
    verify_split_units,
    verify_unit_permutation,
)
from repro.errors import LayoutError
from repro.ir import assign_addresses
from repro.layout import ALL_COMBOS, SpikeOptimizer
from repro.layout import spike as spike_module
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


@pytest.fixture(scope="module")
def quick_binaries():
    """``(label, binary, profile)`` for the quick experiment's app and
    kernel: the two binaries ``repro lint`` checks every combo of."""
    from repro.harness import quick_experiment

    exp = quick_experiment()
    return [
        ("app", exp.app.binary, exp.profile),
        ("kernel", exp.kernel.binary, exp.kernel_profile),
    ]


def corrupt(layout):
    """Drop one block from a multi-block unit (fails LAY001)."""
    units = list(layout.units)
    victim = next(u for u in units if len(u.block_ids) > 1)
    units[units.index(victim)] = dataclasses.replace(
        victim, block_ids=victim.block_ids[1:]
    )
    return dataclasses.replace(layout, units=units)


def out_of_range(layout, binary):
    """Append a block id the binary does not have (fails LAY003)."""
    units = list(layout.units)
    units[0] = dataclasses.replace(
        units[0], block_ids=units[0].block_ids + (binary.num_blocks + 5,)
    )
    return dataclasses.replace(layout, units=units)


def contract_checked(monkeypatch):
    """Wrap the optimizer's chaining, splitting and ordering passes so
    every output is held to its ``repro.check.structural`` contract;
    returns the per-pass call counts."""
    calls = {"chain": 0, "split": 0, "order": 0}

    def chain_blocks(proc, graph, block_counts):
        result = original["chain_blocks"](proc, graph, block_counts)
        verify_chaining(proc, result)
        calls["chain"] += 1
        return result

    def split_chains(binary, chaining):
        units = original["split_chains"](binary, chaining)
        verify_split_units(binary, chaining.proc_name, units)
        calls["split"] += 1
        return units

    def split_procedure_source_order(binary, proc_name):
        units = original["split_procedure_source_order"](binary, proc_name)
        verify_split_units(binary, proc_name, units)
        calls["split"] += 1
        return units

    def order_units(binary, units, *args, **kwargs):
        result = original["order_units"](binary, units, *args, **kwargs)
        verify_unit_permutation(units, result.units)
        calls["order"] += 1
        return result

    wrappers = {
        "chain_blocks": chain_blocks,
        "split_chains": split_chains,
        "split_procedure_source_order": split_procedure_source_order,
        "order_units": order_units,
    }
    original = {name: getattr(spike_module, name) for name in wrappers}
    for name, wrapper in wrappers.items():
        monkeypatch.setattr(spike_module, name, wrapper)
    return calls


class TestPassContracts:
    @pytest.mark.parametrize("label", ["app", "kernel"])
    def test_every_pass_of_every_combo_keeps_its_contract(
        self, quick_binaries, label, monkeypatch
    ):
        _, binary, profile = next(b for b in quick_binaries if b[0] == label)
        calls = contract_checked(monkeypatch)
        optimizer = SpikeOptimizer(binary, profile)
        for combo in ALL_COMBOS:
            layout = optimizer.layout(combo)  # a broken contract raises
            report = check_all(binary, layout=layout, target=combo)
            assert report.ok, report.render()
        # Each wrapped pass really ran: chaining once per procedure
        # (cached), splitting once per procedure for each of split,
        # chain+split and all, ordering once per ordered combo.
        procs = len(binary.proc_order())
        assert calls == {"chain": procs, "split": 3 * procs, "order": 4}


class TestOptimizerVerification:

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
        # The rebuilt replacement is genuinely clean, and replaces the
        # corrupt entry: the next rebuild is a clean hit.
        assert check_all(
            program.binary, layout=result.layout,
            address_map=result.address_map,
        ).ok
        again = AdaptiveRelayout(program.binary, store=store).rebuild(profile)
        assert again.cache == "hit"
        assert obs.counter("online.relayout.rejected_cache").value == rejected + 1

    def test_corrupt_fresh_layout_is_not_persisted(
        self, program, profile, monkeypatch, tmp_path
    ):
        from repro.harness.store import ArtifactStore

        store = ArtifactStore(tmp_path)
        bad = corrupt(SpikeOptimizer(program.binary, profile).layout("all"))
        monkeypatch.setattr(SpikeOptimizer, "layout", lambda self, combo: bad)
        with pytest.raises(LayoutError, match="integrity"):
            AdaptiveRelayout(program.binary, store=store).rebuild(profile)
        assert not store.has(profile.fingerprint(), "online-layout-all.json")

    def test_unknown_combo_is_not_a_gate_refusal(self, program, profile):
        sentinel = RelayoutResult(
            layout=None, address_map=None, optimizer=None,
            rebuilt_procs=(), reused_chains=0, cache="off",
        )
        rejected = obs.counter("online.relayout.rejected").value
        with pytest.raises(LayoutError, match="unknown optimization"):
            AdaptiveRelayout(program.binary, combo="nope").rebuild(
                profile, fallback=sentinel
            )
        assert obs.counter("online.relayout.rejected").value == rejected


class TestGateLayout:
    def test_clean_layout_runs_structure_and_address_checks(
        self, program, profile
    ):
        layout = SpikeOptimizer(program.binary, profile).layout("all")
        runs = obs.counter("check.runs").value
        report = check_all(program.binary, layout=layout, target="gate")
        assert report.ok, report.render()
        # Structure runner, then the address runner alone.
        assert obs.counter("check.runs").value == runs + 2
        assert report.address_map is not None

    def test_corrupt_layout_is_reported_not_raised(self, program, profile):
        bad = corrupt(SpikeOptimizer(program.binary, profile).layout("all"))
        report = check_all(program.binary, layout=bad, target="gate")
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
        got = check_all(program.binary, layout=layout, target="gate")
        assert got.render() == want.render()
        assert got.to_json() == want.to_json()
        if not broken:
            placed = assign_addresses(program.binary, layout)
            assert np.array_equal(got.address_map.addr, placed.addr)

    def test_out_of_range_block_is_reported_not_raised(self, program, profile):
        layout = SpikeOptimizer(program.binary, profile).layout("all")
        report = check_all(
            program.binary, profile, out_of_range(layout, program.binary),
            target="gate",
        )
        assert "LAY003" in report.codes()
        assert report.address_map is None

    @pytest.mark.parametrize("label", ["app", "kernel"])
    def test_gate_equals_placing_first_for_every_combo(
        self, quick_binaries, label
    ):
        # Before the one gate, callers placed a layout themselves and
        # handed the map in; the gate must say and place the same.
        _, binary, profile = next(b for b in quick_binaries if b[0] == label)
        optimizer = SpikeOptimizer(binary, profile)
        for combo in ALL_COMBOS:
            layout = optimizer.layout(combo)
            target = f"{label}/{combo}"
            placed = assign_addresses(binary, layout)
            want = check_all(binary, profile, layout, placed, target=target)
            got = check_all(binary, profile, layout, target=target)
            assert got.render() == want.render()
            assert got.to_json() == want.to_json()
            for field, value in vars(placed).items():
                mine = getattr(got.address_map, field)
                if isinstance(value, np.ndarray):
                    assert np.array_equal(mine, value), (combo, field)
                    assert mine.dtype == value.dtype, (combo, field)
                elif field in ("binary", "layout"):
                    assert mine is value, (combo, field)
                else:
                    assert mine == value, (combo, field)
