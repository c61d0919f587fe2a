"""Tests for the SpikeOptimizer pipelines, including layout invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LayoutError
from repro.ir import INSTRUCTION_BYTES, assign_addresses
from repro.layout import ALL_COMBOS, PAPER_COMBOS, SpikeOptimizer
from repro.profiles import PixieProfiler, Profile
from repro.progen import (
    AppCodeConfig,
    build_app_program,
    Call,
    If,
    RoutineSpec,
    Straight,
    build_binary,
)


@pytest.fixture(scope="module")
def small_program():
    return build_app_program(
        AppCodeConfig(scale=0.5, filler_routines=20, filler_instructions=5_000)
    )


@pytest.fixture(scope="module")
def profiled(small_program):
    """A synthetic profile touching a few routines."""
    from repro.execution import CfgWalker
    from repro.osmodel import KernelCodeConfig, build_kernel_program
    from repro.db.instrument import CallEvent

    kernel = build_kernel_program(KernelCodeConfig(scale=0.5, filler_routines=4,
                                                   filler_instructions=1000))
    walker = CfgWalker(small_program, kernel)
    out = []
    for salt in range(300):
        event = CallEvent("txn_begin", {"salt": salt})
        walker.walk_event(event, out)
        event = CallEvent("wal_append", {"salt": salt + 1000, "chunks": 3})
        walker.walk_event(event, out)
    blocks = np.asarray(out, dtype=np.int64)
    app_blocks = blocks[blocks < walker.kernel_offset]
    profiler = PixieProfiler(small_program.binary)
    profiler.add_stream(app_blocks)
    return SpikeOptimizer(small_program.binary, profiler.profile())


class TestPipelines:
    @pytest.mark.parametrize("combo", ALL_COMBOS)
    def test_every_combo_produces_complete_layout(self, profiled, combo):
        layout = profiled.layout(combo)
        layout.validate_against(profiled.binary)
        assert layout.name == combo

    @pytest.mark.parametrize("combo", ALL_COMBOS)
    def test_address_maps_injective(self, profiled, combo):
        amap = assign_addresses(profiled.binary, profiled.layout(combo))
        # Non-empty blocks occupy disjoint byte ranges.
        spans = [
            (int(amap.addr[b.bid]), int(amap.addr[b.bid]) +
             int(amap.n_fetch[b.bid]) * INSTRUCTION_BYTES)
            for b in profiled.binary.blocks()
            if amap.n_fetch[b.bid] > 0
        ]
        spans.sort()
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_unknown_combo_rejected(self, profiled):
        with pytest.raises(LayoutError):
            profiled.layout("turbo")

    def test_layouts_helper(self, profiled):
        layouts = profiled.layouts(("base", "chain"))
        assert set(layouts) == {"base", "chain"}

    def test_profile_binary_mismatch_rejected(self, small_program):
        other = build_binary([RoutineSpec("r", body=[Straight(1)])])
        with pytest.raises(LayoutError):
            SpikeOptimizer(small_program.binary, Profile(other.binary))

    def test_cfa_reports_overflow_for_small_cache(self, profiled):
        layout, report = profiled.cfa(cache_bytes=4096, reserved_fraction=0.25)
        layout.validate_against(profiled.binary)
        assert report.reserved_bytes == 1024

    def test_base_uses_proc_alignment(self, profiled):
        amap = assign_addresses(profiled.binary, profiled.layout("base"))
        for start in amap.unit_starts[:50].tolist():
            assert start % 16 == 0

    def test_all_packs_densely(self, profiled):
        base = assign_addresses(profiled.binary, profiled.layout("base"))
        packed = assign_addresses(profiled.binary, profiled.layout("all"))
        assert packed.total_bytes <= base.total_bytes

    def test_chain_keeps_executed_fetches_bounded(self, profiled):
        """Chaining trades branch deletions against fixups on the colder
        arms; the executed fetch count must stay essentially flat (its
        real win -- fewer stream breaks -- is asserted by the sequence
        and regression suites)."""
        base = assign_addresses(profiled.binary, profiled.layout("base"))
        chained = assign_addresses(profiled.binary, profiled.layout("chain"))
        counts = profiled.profile.block_counts

        def executed_fetches(amap):
            return int((counts * amap.n_fetch).sum())

        assert executed_fetches(chained) <= 1.02 * executed_fetches(base)


class TestLayoutProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_profiles_never_lose_code(self, profiled, seed):
        rng = np.random.default_rng(seed)
        profile = Profile(profiled.binary)
        profile.block_counts = rng.integers(
            0, 1000, size=profiled.binary.num_blocks
        ).astype(np.int64)
        optimizer = SpikeOptimizer(profiled.binary, profile)
        for combo in ("chain", "all", "hotcold"):
            layout = optimizer.layout(combo)
            layout.validate_against(profiled.binary)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_profiles_keep_entry_reachable(self, profiled, seed):
        rng = np.random.default_rng(seed)
        profile = Profile(profiled.binary)
        profile.block_counts = rng.integers(
            0, 50, size=profiled.binary.num_blocks
        ).astype(np.int64)
        optimizer = SpikeOptimizer(profiled.binary, profile)
        layout = optimizer.layout("all")
        placed_entries = {
            layout.procs[p] for p in layout.proc[layout.is_entry()].tolist()
        }
        assert placed_entries == set(profiled.binary.proc_order())
