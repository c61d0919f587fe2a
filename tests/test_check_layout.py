"""Mutation tests: every LAY* code fires on a purposely corrupted
layout or address map, and clean layouts pass."""

import dataclasses

import numpy as np
import pytest

from repro.errors import LayoutError
from repro.check import (
    check_all,
    check_layout,
)
from repro.check.layout_checks import decode_layout
from repro.harness.store import layout_to_dict
from repro.ir import assign_addresses
from repro.layout import SpikeOptimizer
from repro.layout.chaining import ChainingResult
from repro.profiles import PixieProfiler
from repro.progen import AppCodeConfig, build_app_program
from tests.layout_contracts import (
    verify_chaining,
    verify_split_units,
    verify_unit_permutation,
)
from tests.layout_reference import to_layout, to_units


@pytest.fixture(scope="module")
def program():
    return build_app_program(
        AppCodeConfig(scale=0.5, filler_routines=10, filler_instructions=2_000)
    )


@pytest.fixture(scope="module")
def optimizer(program):
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
    return SpikeOptimizer(program.binary, profiler.profile())


def rebuild(binary, layout, units):
    return to_layout(binary, units, alignment=layout.alignment, name=layout.name)


def codes_of(binary, layout, with_amap=False):
    amap = assign_addresses(binary, layout) if with_amap else None
    return check_layout(binary, layout, amap).codes()


class TestLayoutMutations:
    def test_clean_layouts_pass(self, optimizer):
        for combo in ("base", "all", "hotcold"):
            layout = optimizer.layout(combo)
            amap = assign_addresses(optimizer.binary, layout)
            report = check_layout(optimizer.binary, layout, amap)
            assert report.ok, report.render()

    def test_lay001_missing_block(self, optimizer):
        layout = optimizer.layout("all")
        units = to_units(layout)
        victim = next(u for u in units if len(u.block_ids) > 1)
        units[units.index(victim)] = dataclasses.replace(
            victim, block_ids=victim.block_ids[1:]
        )
        assert "LAY001" in codes_of(optimizer.binary, rebuild(optimizer.binary, layout, units))

    def test_lay002_duplicate_block(self, optimizer):
        layout = optimizer.layout("all")
        units = to_units(layout)
        victim = units[0]
        units[0] = dataclasses.replace(
            victim, block_ids=victim.block_ids + (victim.block_ids[0],)
        )
        assert "LAY002" in codes_of(optimizer.binary, rebuild(optimizer.binary, layout, units))

    def test_lay003_foreign_block(self, optimizer):
        layout = optimizer.layout("base")
        units = to_units(layout)
        # An id beyond the binary plus a block owned by another unit's
        # procedure both count as foreign.
        units[0] = dataclasses.replace(
            units[0], block_ids=units[0].block_ids + (10**6,)
        )
        assert "LAY003" in codes_of(optimizer.binary, rebuild(optimizer.binary, layout, units))

    def test_lay004_entry_unit_lost(self, optimizer):
        # Entry flags are derived; only a document can spell a wrong one.
        document = layout_to_dict(optimizer.layout("base"))
        for unit in document["units"]:
            unit["is_entry"] = False
        layout, findings = decode_layout(optimizer.binary, document)
        assert layout is None
        assert {d.code for d in findings} == {"LAY004"}

    def test_lay007_dangling_branch_target(self, optimizer):
        binary = optimizer.binary
        layout = optimizer.layout("all")
        # Remove a unit whose blocks other placed blocks branch to.
        targeted = {dst for b in binary.blocks() for dst in b.succs}
        units = to_units(layout)
        victim = next(
            u for u in units
            if all(bid in targeted for bid in u.block_ids) and not u.is_entry
        )
        units.remove(victim)
        codes = codes_of(binary, rebuild(binary, layout, units))
        assert "LAY007" in codes
        assert "LAY001" in codes  # the blocks are also unplaced

    def test_lay009_fused_segments(self, optimizer):
        layout = optimizer.layout("all")
        units = to_units(layout)
        first = next(
            i for i in range(len(units) - 1)
            if units[i].proc_name == units[i + 1].proc_name
        )
        fused = dataclasses.replace(
            units[first],
            block_ids=units[first].block_ids + units[first + 1].block_ids,
            is_entry=units[first].is_entry or units[first + 1].is_entry,
        )
        units[first:first + 2] = [fused]
        assert "LAY009" in codes_of(optimizer.binary, rebuild(optimizer.binary, layout, units))

    def test_lay009_not_applied_to_hotcold(self, optimizer):
        # hotcold halves legitimately contain interior returns.
        layout = optimizer.layout("hotcold")
        report = check_layout(optimizer.binary, layout)
        assert "LAY009" not in report.codes()


class TestAddressMapMutations:
    """LAY005/006/008 need a tampered address map -- assign_addresses
    always produces self-consistent ones."""

    def test_lay005_overlap(self, optimizer):
        layout = optimizer.layout("all")
        amap = assign_addresses(optimizer.binary, layout)
        second = layout.blocks(1)[0]
        amap.addr[second] = int(amap.addr[layout.blocks(0)[0]])
        codes = check_layout(optimizer.binary, layout, amap).codes()
        assert "LAY005" in codes

    def test_lay006_misaligned_unit(self, optimizer):
        layout = optimizer.layout("base")  # 16-byte procedure alignment
        amap = assign_addresses(optimizer.binary, layout)
        amap.unit_starts = amap.unit_starts.copy()
        amap.unit_starts[1] += 2
        codes = check_layout(optimizer.binary, layout, amap).codes()
        assert "LAY006" in codes

    def test_lay008_fixup_dropped(self, optimizer):
        layout = optimizer.layout("all")
        amap = assign_addresses(optimizer.binary, layout)
        victim = next(iter(amap.appended_branches))
        amap.appended_branches.discard(victim)
        codes = check_layout(optimizer.binary, layout, amap).codes()
        assert "LAY008" in codes

    def test_gate_reports_corrupt_address_map(self, optimizer):
        layout = optimizer.layout("all")
        amap = assign_addresses(optimizer.binary, layout)
        amap.appended_branches.clear()
        report = check_all(optimizer.binary, layout=layout, address_map=amap)
        assert not report.ok and "LAY008" in report.codes()
        assert report.address_map is amap


class TestStructuralVerifiers:
    def test_verify_chaining_accepts_real_result(self, optimizer):
        name = optimizer.binary.proc_order()[0]
        result = optimizer.chainings()[name]
        verify_chaining(optimizer.binary.proc(name), result)

    def test_verify_chaining_rejects_dropped_block(self, optimizer):
        name = optimizer.binary.proc_order()[0]
        good = optimizer.chainings()[name]
        chains = [list(c) for c in good.chains]
        chains[-1] = chains[-1][:-1] if len(chains[-1]) > 1 else chains[-1]
        if chains == [list(c) for c in good.chains]:
            chains = chains[:-1]
        bad = ChainingResult(proc_name=name, chains=chains)
        with pytest.raises(LayoutError, match="permutation"):
            verify_chaining(optimizer.binary.proc(name), bad)

    def test_verify_split_units_rejects_fused_segment(self, optimizer):
        from repro.ir import SEGMENT_ENDING

        layout = optimizer.layout("chain+split")
        verify_split_units(optimizer.binary, layout)
        units = to_units(layout)
        # Fuse across a boundary created by an unconditional transfer
        # (a chain-tail segment may legitimately end without one).
        first = next(
            i for i in range(len(units) - 1)
            if optimizer.binary.block(units[i].block_ids[-1]).terminator
            in SEGMENT_ENDING
            and units[i].proc_name == units[i + 1].proc_name
        )
        fused = dataclasses.replace(
            units[first],
            block_ids=units[first].block_ids + units[first + 1].block_ids,
            is_entry=units[first].is_entry or units[first + 1].is_entry,
        )
        tampered = units[:first] + [fused] + units[first + 2:]
        with pytest.raises(LayoutError):
            verify_split_units(optimizer.binary, to_layout(optimizer.binary, tampered))

    def test_verify_unit_permutation_rejects_drop(self, optimizer):
        layout = optimizer.layout("all")
        units = to_units(layout)
        dropped = to_layout(optimizer.binary, units[1:])
        with pytest.raises(LayoutError, match="permutation"):
            verify_unit_permutation(layout, dropped)

    def test_verify_unit_permutation_rejects_rewrite(self, optimizer):
        layout = optimizer.layout("all")
        units = to_units(layout)
        tampered = [dataclasses.replace(
            units[0], block_ids=tuple(reversed(units[0].block_ids))
        )] + units[1:]
        if tampered[0].block_ids == units[0].block_ids:
            pytest.skip("single-block unit cannot be rewritten by reversal")
        with pytest.raises(LayoutError, match="rewrote"):
            verify_unit_permutation(layout, to_layout(optimizer.binary, tampered))
