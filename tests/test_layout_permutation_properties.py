"""Property tests: ANY permutation layout is a valid address space.

The optimizer only ever permutes code units; these properties pin the
guarantee that the address machinery (fixups included) preserves the
program under arbitrary permutations -- which is what makes the
trace-replay methodology sound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import (
    Binary,
    INSTRUCTION_BYTES,
    Procedure,
    Terminator,
    assign_addresses,
    baseline_layout,
)
from repro.progen import AppCodeConfig, build_app_program
from repro.layout.splitting import split_source_order


@pytest.fixture(scope="module")
def program():
    return build_app_program(
        AppCodeConfig(scale=0.5, filler_routines=6, filler_instructions=1_500)
    )


def permuted_layout(binary, rng, split=False, alignment=4):
    units = split_source_order(binary) if split else baseline_layout(binary)
    return units.permuted(
        rng.permutation(units.num_units), alignment=alignment, name="perm"
    )


class TestPermutationProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           split=st.booleans(),
           alignment=st.sampled_from([4, 8, 16, 32]))
    def test_blocks_never_overlap(self, program, seed, split, alignment):
        rng = np.random.default_rng(seed)
        layout = permuted_layout(program.binary, rng, split, alignment)
        amap = assign_addresses(program.binary, layout)
        spans = sorted(
            (int(amap.addr[b.bid]),
             int(amap.addr[b.bid]) + int(amap.n_fetch[b.bid]) * INSTRUCTION_BYTES)
            for b in program.binary.blocks()
            if amap.n_fetch[b.bid] > 0
        )
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 <= s2

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_unit_alignment_respected(self, program, seed):
        rng = np.random.default_rng(seed)
        layout = permuted_layout(program.binary, rng, alignment=32)
        amap = assign_addresses(program.binary, layout)
        assert (amap.unit_starts % 32 == 0).all()

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_fixups_conserve_non_branch_instructions(self, program, seed):
        """Fixups only add/remove branch instructions: every block's
        placed size differs from its source size by at most 1."""
        rng = np.random.default_rng(seed)
        layout = permuted_layout(program.binary, rng, split=True)
        amap = assign_addresses(program.binary, layout)
        for block in program.binary.blocks():
            delta = int(amap.n_fetch[block.bid]) - block.size
            assert delta in (-1, 0, 1)
            if delta == -1:
                assert block.terminator is Terminator.UNCOND_BRANCH

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_total_bytes_bounded(self, program, seed):
        """A permuted layout can shrink (deleted branches) or grow
        (appended branches + padding), but stays within one extra
        instruction + alignment pad per block/unit."""
        rng = np.random.default_rng(seed)
        layout = permuted_layout(program.binary, rng, split=False, alignment=16)
        amap = assign_addresses(program.binary, layout)
        static = program.binary.static_size * INSTRUCTION_BYTES
        slack = (program.binary.num_blocks + layout.num_units * 4) * \
            INSTRUCTION_BYTES
        assert static - slack <= amap.total_bytes <= static + slack

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_replay_equivalence_on_random_walk(self, program, seed):
        """A random executable block walk replays under any permutation
        with consistent per-transition fetch counts."""
        rng = np.random.default_rng(seed)
        binary = program.binary
        # Build a short legal walk: follow successors where possible.
        walk = []
        block = binary.proc(binary.proc_order()[0]).entry
        for _ in range(200):
            walk.append(block.bid)
            if block.succs:
                block = binary.block(int(rng.choice(block.succs)))
            else:
                proc = binary.proc(
                    binary.proc_order()[int(rng.integers(binary.num_procedures))]
                )
                block = proc.entry
        blocks = np.asarray(walk, dtype=np.int64)
        layout = permuted_layout(binary, rng)
        amap = assign_addresses(binary, layout)
        counts = amap.n_fetch[blocks]
        taken = amap.taken_succ[blocks[:-1]] == blocks[1:]
        adjusted = counts.copy()
        adjusted[:-1][taken] = amap.n_fetch_taken[blocks[:-1]][taken]
        # Fetch counts are within 1 of source sizes along the walk.
        sizes = np.array([binary.block(int(b)).size for b in blocks])
        assert (np.abs(adjusted - sizes) <= 1).all()
