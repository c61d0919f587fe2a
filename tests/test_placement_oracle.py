"""Differential tests: address assignment against its reference, and
the sealed binary's block table.

``tests/address_reference.py`` holds the per-block loop that
:func:`repro.ir.assign_addresses` replaced.  Both must produce equal
:class:`~repro.ir.AddressMap` fields -- arrays with their dtypes, the
three fix-up sets, ``unit_starts`` and ``total_bytes`` -- on every
combo layout of the quick app and kernel under each profile source,
packed at their own alignment and densely, and on random binaries
under random unit splits, orders, padding and alignments.  The example
budget follows the active hypothesis profile
(``--hypothesis-profile=deep`` raises it).
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import IRError, LayoutError
from repro.harness import quick_experiment
from repro.ir import (
    WHOLE,
    Binary,
    BlockTable,
    Layout,
    Procedure,
    Terminator,
    assign_addresses,
    baseline_layout,
)
from repro.layout import Combo, SpikeOptimizer
from tests.address_reference import reference_assign_addresses


def assert_same_map(binary, layout):
    got = assign_addresses(binary, layout)
    want = reference_assign_addresses(binary, layout)
    for name in ("addr", "n_fetch", "taken_succ", "n_fetch_taken"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    for name in ("inverted", "deleted_branches", "appended_branches"):
        assert getattr(got, name) == getattr(want, name), name
        assert all(type(bid) is int for bid in getattr(got, name)), name
    assert got.unit_starts.dtype == want.unit_starts.dtype == np.int64
    assert np.array_equal(got.unit_starts, want.unit_starts)
    assert got.total_bytes == want.total_bytes
    assert type(got.total_bytes) is int


@st.composite
def binaries(draw):
    """A sealed binary of random procedures and terminators."""
    n_procs = draw(st.integers(1, 4))
    binary = Binary("oracle")
    for p in range(n_procs):
        proc = Procedure(f"p{p}")
        labels = [f"b{k}" for k in range(draw(st.integers(1, 6)))]
        label = st.sampled_from(labels)
        for k, name in enumerate(labels):
            term = draw(st.sampled_from(list(Terminator)))
            # Successors favour the next source block, so the source
            # order keeps many of them adjacent.
            nearby = st.sampled_from(labels[k + 1:k + 2] or labels) | label
            if term is Terminator.COND_BRANCH:
                succs = (draw(label), draw(nearby))
            elif term is Terminator.RETURN:
                succs = ()
            elif term is Terminator.INDIRECT_JUMP:
                succs = tuple(draw(st.lists(label, min_size=1, max_size=3)))
            else:
                succs = (draw(nearby),)
            call_target = (
                f"p{draw(st.integers(0, n_procs - 1))}"
                if term is Terminator.CALL else None
            )
            proc.add_block(name, draw(st.integers(1, 5)), term, succs, call_target)
        binary.add_procedure(proc)
    binary.seal()
    return binary


@st.composite
def placements(draw):
    """``(binary, layout)``: every block once, in random units."""
    binary = draw(binaries())
    n = binary.num_blocks
    order = draw(st.one_of(st.just(list(range(n))), st.permutations(range(n))))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    starts = [0] + cuts
    alignment = draw(st.sampled_from([1, 2, 3, 4, 4, 8, 16, 64]))
    layout = Layout(
        procs=binary.table.names,
        ids=order,
        starts=starts,
        proc=binary.table.proc[np.array(order)[starts]],
        kind=[draw(st.integers(-3, 4)) for _ in starts],
        pad=[draw(st.sampled_from([0, 0, 0, 2, 4, 6, 16])) for _ in starts],
        alignment=alignment,
        name="random",
    )
    return binary, layout


@given(placements())
def test_random_placements_match_reference(placement):
    assert_same_map(*placement)


@pytest.fixture(scope="module")
def exp():
    experiment = quick_experiment()
    _ = experiment.trace
    return experiment


@pytest.mark.parametrize("source", ["measured", "static", "hybrid"])
@pytest.mark.parametrize("side", ["app", "kernel"])
def test_quick_layouts_match_reference(exp, side, source):
    """The 8 pinned combo layouts per side and source, each also packed
    densely so cross-unit fix-ups apply."""
    program = exp.app if side == "app" else exp.kernel
    optimizer = SpikeOptimizer(
        program.binary, exp.profile_for(source, kernel=side == "kernel")
    )
    for combo in Combo.names():
        layout = optimizer.layout(combo)
        assert_same_map(program.binary, layout)
        dense = dataclasses.replace(layout, alignment=4)
        assert_same_map(program.binary, dense)


def test_out_of_range_ids_rejected_by_both():
    binary = Binary("p")
    proc = Procedure("p")
    for k in range(4):
        proc.add_block(f"b{k}", 2, Terminator.RETURN)
    binary.add_procedure(proc)
    binary.seal()
    layout = Layout(binary.table.names, (0, 1, 2, -1), [0], [0], [WHOLE], alignment=4)
    for assign in (assign_addresses, reference_assign_addresses):
        with pytest.raises(LayoutError, match="block id -1"):
            assign(binary, layout)


class TestBlockTable:
    def test_arrays_equal_a_rebuild_from_the_blocks(self, exp):
        for binary in (exp.app.binary, exp.kernel.binary):
            table = binary.table
            blocks = list(binary.blocks())
            order = binary.proc_order()
            fixed = {
                Terminator.FALLTHROUGH: 1, Terminator.CALL: 1,
                Terminator.UNCOND_BRANCH: 1, Terminator.COND_BRANCH: 2,
            }
            assert table.size.tolist() == [b.size for b in blocks]
            assert [list(Terminator)[c] for c in table.term.tolist()] == [
                b.terminator for b in blocks
            ]
            assert table.succ0.tolist() == [
                b.succs[0] if fixed.get(b.terminator, 0) >= 1 else -1
                for b in blocks
            ]
            assert table.succ1.tolist() == [
                b.succs[1] if fixed.get(b.terminator, 0) == 2 else -1
                for b in blocks
            ]
            assert [order[i] for i in table.proc.tolist()] == [
                b.proc_name for b in blocks
            ]
            assert [order[i] if i >= 0 else None for i in table.callee.tolist()] == [
                b.call_target for b in blocks
            ]
            assert table.names == tuple(order)
            assert table.entry.tolist() == [binary.entry_bid(name) for name in order]
            assert table.size.dtype == np.int64
            assert table.proc.dtype == np.int64

    def test_arrays_are_read_only(self, exp):
        table = exp.app.binary.table
        for name in ("size", "term", "succ0", "succ1", "proc", "callee", "entry"):
            column = getattr(table, name)
            assert not column.flags.writeable, name
            with pytest.raises(ValueError):
                column[0] = column[0]

    def test_built_once_per_binary(self, exp, monkeypatch):
        copy = pickle.loads(pickle.dumps(exp.app))
        calls = []
        build = BlockTable.build.__func__
        monkeypatch.setattr(
            BlockTable, "build",
            classmethod(lambda cls, b: calls.append(b) or build(cls, b)),
        )
        first = copy.binary.table
        assert copy.binary.table is first
        for alignment in (4, 16):
            assert_same_map(copy.binary, baseline_layout(copy.binary, alignment))
        assert calls == [copy.binary]
        assert first is not exp.app.binary.table

    def test_pickle_is_equal_whether_or_not_the_table_was_built(self, exp):
        blob = pickle.dumps(exp.app, protocol=pickle.HIGHEST_PROTOCOL)
        fresh = pickle.loads(blob)
        assert "table" not in fresh.binary.__dict__
        _ = fresh.binary.table
        assert "table" in fresh.binary.__dict__
        assert pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL) == blob

    def test_unsealed_binary_has_no_table(self):
        binary = Binary("open")
        proc = Procedure("p")
        proc.add_block("b", 1, Terminator.RETURN)
        binary.add_procedure(proc)
        with pytest.raises(IRError, match="seal"):
            _ = binary.table
        binary.seal()
        assert binary.table.size.tolist() == [1]
