"""Tests for address assignment and branch fixups."""

import pickle

import pytest

from repro.errors import LayoutError
from repro.ir import (
    WHOLE,
    Binary,
    INSTRUCTION_BYTES,
    Layout,
    Procedure,
    Terminator,
    assign_addresses,
    baseline_layout,
)


def build_branchy_binary():
    """One procedure:

        entry(4): cond -> taken=cold, ft=hot
        hot(6):   uncond -> exit
        cold(3):  fallthrough -> exit
        exit(2):  return
    """
    binary = Binary()
    proc = Procedure("p")
    proc.add_block("entry", 4, Terminator.COND_BRANCH, succs=("cold", "hot"))
    proc.add_block("hot", 6, Terminator.UNCOND_BRANCH, succs=("exit",))
    proc.add_block("cold", 3, Terminator.FALLTHROUGH, succs=("exit",))
    proc.add_block("exit", 2, Terminator.RETURN)
    binary.add_procedure(proc)
    binary.seal()
    return binary


def bid(binary, proc, label):
    return binary.proc(proc).block(label).bid


def single(binary, ids, **fields):
    """A layout of one whole-procedure unit (``p``) holding ``ids``."""
    return Layout(
        procs=binary.table.names, ids=ids, starts=[0], proc=[0], kind=[WHOLE], **fields
    )


class TestBaselineLayout:
    def test_units_follow_link_order(self):
        binary = build_branchy_binary()
        layout = baseline_layout(binary)
        assert layout.names() == ["p"]
        assert layout.blocks(0).tolist() == [0, 1, 2, 3]
        assert layout.is_entry().tolist() == [True]

    def test_validate_against_detects_missing_block(self):
        binary = build_branchy_binary()
        layout = single(binary, (0, 1, 2), name="broken")
        with pytest.raises(LayoutError):
            layout.validate_against(binary)

    @pytest.mark.parametrize("ids", [(0, 1, 2, -1), (0, 1, 2, 4), (0, 1, 2, 2)])
    def test_validate_against_rejects_ids_outside_the_binary(self, ids):
        """Four distinct ids on a 4-block binary are not enough: -1
        would otherwise index block 3 and place it twice."""
        binary = build_branchy_binary()
        layout = single(binary, ids, name="broken")
        with pytest.raises(LayoutError):
            layout.validate_against(binary)
        with pytest.raises(LayoutError):
            assign_addresses(binary, layout)

    def test_pickles_without_the_binary(self):
        binary = build_branchy_binary()
        layout = single(binary, (0, 2, 1, 3), alignment=4, name="p")
        blob = pickle.dumps(layout)
        assert b"BasicBlock" not in blob and b"Binary" not in blob
        copy = pickle.loads(blob)
        assert copy.names() == ["p"] and copy.ids.tolist() == [0, 2, 1, 3]
        assert (copy.alignment, copy.name, copy.procs) == (4, "p", ("p",))
        assert not any(
            getattr(copy, field).flags.writeable
            for field in ("ids", "starts", "proc", "kind", "pad")
        )

    def test_empty_unit_rejected(self):
        binary = build_branchy_binary()
        with pytest.raises(LayoutError, match="no blocks"):
            Layout(binary.table.names, [0, 1, 2, 3], [0, 4], [0, 0], [0, 1])


class TestAddressAssignment:
    def test_source_order_addresses(self):
        binary = build_branchy_binary()
        amap = assign_addresses(binary, baseline_layout(binary, alignment=4))
        # entry at 0 (4 instr), hot at 16, cold at 40, exit at 52.
        assert amap.addr[bid(binary, "p", "entry")] == 0
        assert amap.addr[bid(binary, "p", "hot")] == 16
        # hot ends with uncond to exit, but cold is adjacent: branch kept.
        assert amap.addr[bid(binary, "p", "cold")] == 16 + 6 * 4
        assert amap.addr[bid(binary, "p", "exit")] == 40 + 3 * 4

    def test_unit_alignment_pads(self):
        binary = Binary()
        for name in ("a", "b"):
            proc = Procedure(name)
            proc.add_block("x", 1, Terminator.RETURN)
            binary.add_procedure(proc)
        binary.seal()
        amap = assign_addresses(binary, baseline_layout(binary, alignment=32))
        assert amap.addr[0] == 0
        assert amap.addr[1] == 32

    def test_fallthrough_nonadjacent_appends_branch(self):
        binary = build_branchy_binary()
        # Order: entry, cold, hot, exit.  cold falls through to exit,
        # which is no longer adjacent -> +1 instruction.
        ids = (
            bid(binary, "p", "entry"),
            bid(binary, "p", "cold"),
            bid(binary, "p", "hot"),
            bid(binary, "p", "exit"),
        )
        layout = single(binary, ids, alignment=4)
        amap = assign_addresses(binary, layout)
        cold = bid(binary, "p", "cold")
        assert cold in amap.appended_branches
        assert amap.n_fetch[cold] == 3 + 1

    def test_uncond_to_adjacent_deleted(self):
        binary = build_branchy_binary()
        # Order: entry, hot, exit, cold.  hot's uncond target (exit)
        # becomes adjacent -> branch deleted.
        ids = (
            bid(binary, "p", "entry"),
            bid(binary, "p", "hot"),
            bid(binary, "p", "exit"),
            bid(binary, "p", "cold"),
        )
        layout = single(binary, ids, alignment=4)
        amap = assign_addresses(binary, layout)
        hot = bid(binary, "p", "hot")
        assert hot in amap.deleted_branches
        assert amap.n_fetch[hot] == 5
        assert amap.is_sequential(hot, bid(binary, "p", "exit"))

    def test_cond_inversion_when_taken_adjacent(self):
        binary = build_branchy_binary()
        # Order: entry, cold (the taken target), ... -> polarity inverted.
        ids = (
            bid(binary, "p", "entry"),
            bid(binary, "p", "cold"),
            bid(binary, "p", "exit"),
            bid(binary, "p", "hot"),
        )
        layout = single(binary, ids, alignment=4)
        amap = assign_addresses(binary, layout)
        entry = bid(binary, "p", "entry")
        assert entry in amap.inverted
        assert amap.n_fetch[entry] == 4  # no size change
        assert amap.is_sequential(entry, bid(binary, "p", "cold"))
        assert not amap.is_sequential(entry, bid(binary, "p", "hot"))

    def test_cond_neither_adjacent_appends_uncond(self):
        binary = build_branchy_binary()
        # Put exit right after entry: neither hot nor cold adjacent.
        ids = (
            bid(binary, "p", "entry"),
            bid(binary, "p", "exit"),
            bid(binary, "p", "hot"),
            bid(binary, "p", "cold"),
        )
        layout = single(binary, ids, alignment=4)
        amap = assign_addresses(binary, layout)
        entry = bid(binary, "p", "entry")
        hot = bid(binary, "p", "hot")
        cold = bid(binary, "p", "cold")
        assert entry in amap.appended_branches
        # Fallthrough path executes the appended branch: 5 fetches.
        assert amap.fetched(entry, hot) == 5
        # Taken path leaves from the conditional branch: 4 fetches.
        assert amap.fetched(entry, cold) == 4

    def test_call_continuation_like_fallthrough(self):
        binary = Binary()
        proc = Procedure("caller")
        proc.add_block("c", 2, Terminator.CALL, succs=("far",), call_target="callee")
        proc.add_block("mid", 5, Terminator.RETURN)
        proc.add_block("far", 1, Terminator.RETURN)
        binary.add_procedure(proc)
        callee = Procedure("callee")
        callee.add_block("x", 1, Terminator.RETURN)
        binary.add_procedure(callee)
        binary.seal()
        amap = assign_addresses(binary, baseline_layout(binary, alignment=4))
        c = binary.proc("caller").block("c").bid
        assert c in amap.appended_branches
        assert amap.n_fetch[c] == 3

    def test_total_bytes_counts_fixups(self):
        binary = build_branchy_binary()
        amap = assign_addresses(binary, baseline_layout(binary, alignment=4))
        # base 15 instrs, no fixups in source order except none: entry's
        # ft (hot) adjacent, hot's uncond target not adjacent (kept),
        # cold->exit adjacent, exit return.  15 instrs * 4 bytes.
        assert amap.total_bytes == 15 * INSTRUCTION_BYTES

    def test_branch_only_block_can_vanish(self):
        binary = Binary()
        proc = Procedure("p")
        proc.add_block("a", 1, Terminator.UNCOND_BRANCH, succs=("b",))
        proc.add_block("b", 1, Terminator.RETURN)
        binary.add_procedure(proc)
        binary.seal()
        amap = assign_addresses(binary, baseline_layout(binary, alignment=4))
        assert amap.n_fetch[0] == 0
        assert amap.addr[1] == 0  # b aliases a's (empty) slot
