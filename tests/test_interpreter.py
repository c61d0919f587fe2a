"""Tests for the CFG interpreter (execution.interpreter)."""

import numpy as np
import pytest

from repro.db.instrument import CallEvent
from repro.errors import SimulationError
from repro.execution import CfgWalker
from repro.progen import (
    Call,
    CallSeq,
    ColdPath,
    If,
    Loop,
    RoutineSpec,
    Straight,
    SubCall,
    Syscall,
    build_binary,
)


def make_programs(app_specs, kernel_specs=None):
    app = build_binary(app_specs, "app")
    kernel_specs = kernel_specs or [RoutineSpec("k.read", body=[Straight(3)])]
    kernel = build_binary(kernel_specs, "kern")
    return CfgWalker(app, kernel)


def event(name, children=(), **bindings):
    ev = CallEvent(name, dict(bindings))
    ev.bindings.setdefault("salt", 1)
    ev.children = list(children)
    return ev


class TestBasicWalking:
    def test_straight_routine(self):
        s = Straight(5)
        walker = make_programs([RoutineSpec("r", body=[s])])
        out = walker.expand([event("r")])
        spec = walker.app.spec("r")
        assert out.tolist() == [spec.prologue_bid, s.bid, spec.epilogue_bid]

    def test_if_takes_bound_side(self):
        then_node = Straight(1)
        else_node = Straight(2)
        cond = If("hit", then=[then_node], orelse=[else_node])
        walker = make_programs([RoutineSpec("r", body=[cond])])
        hit = walker.expand([event("r", hit=True)]).tolist()
        miss = walker.expand([event("r", hit=False)]).tolist()
        assert then_node.bid in hit and else_node.bid not in hit
        assert cond.then_exit_bid in hit  # jump over the else-arm
        assert else_node.bid in miss and then_node.bid not in miss

    def test_loop_runs_bound_count(self):
        body = Straight(2)
        loop = Loop("n", body=[body])
        walker = make_programs([RoutineSpec("r", body=[loop])])
        out = walker.expand([event("r", n=3)]).tolist()
        assert out.count(body.bid) == 3
        assert out.count(loop.bid) == 4  # header tested n+1 times
        assert out.count(loop.latch_bid) == 3

    def test_loop_zero_iterations(self):
        body = Straight(2)
        loop = Loop("n", body=[body])
        walker = make_programs([RoutineSpec("r", body=[loop])])
        out = walker.expand([event("r", n=0)]).tolist()
        assert body.bid not in out
        assert out.count(loop.bid) == 1

    def test_coldpath_emits_guard_only(self):
        cold = ColdPath(20, blocks=3)
        walker = make_programs([RoutineSpec("r", body=[cold])])
        out = walker.expand([event("r")]).tolist()
        assert out.count(cold.bid) == 1
        assert len(out) == 3  # prologue, guard, epilogue


class TestCallsAndChildren:
    def test_call_consumes_child(self):
        callee_body = Straight(4)
        callee = RoutineSpec("callee", body=[callee_body])
        call = Call("callee")
        walker = make_programs([RoutineSpec("r", body=[call]), callee])
        out = walker.expand([event("r", children=[event("callee")])]).tolist()
        assert call.bid in out
        assert callee_body.bid in out
        # Callee blocks nest between call block and caller epilogue.
        assert out.index(callee_body.bid) > out.index(call.bid)

    def test_missing_child_raises(self):
        callee = RoutineSpec("callee", body=[Straight(1)])
        walker = make_programs(
            [RoutineSpec("r", body=[Call("callee")]), callee]
        )
        with pytest.raises(SimulationError):
            walker.expand([event("r")])

    def test_wrong_child_name_raises(self):
        callee = RoutineSpec("callee", body=[Straight(1)])
        other = RoutineSpec("other", body=[Straight(1)])
        walker = make_programs(
            [RoutineSpec("r", body=[Call("callee")]), callee, other]
        )
        with pytest.raises(SimulationError):
            walker.expand([event("r", children=[event("other")])])

    def test_unconsumed_children_raise(self):
        walker = make_programs([RoutineSpec("r", body=[Straight(1)]),
                                RoutineSpec("x", body=[Straight(1)])])
        with pytest.raises(SimulationError):
            walker.expand([event("r", children=[event("x")])])

    def test_table_specialization_resolution(self):
        shared = RoutineSpec("fetch", body=[Straight(1)])
        special_body = Straight(9)
        special = RoutineSpec("fetch@acct", body=[special_body], suffix="acct")
        walker = make_programs([shared, special])
        out = walker.expand([event("fetch", table="acct")]).tolist()
        assert special_body.bid in out

    def test_subcall_inherits_bindings(self):
        helper_then = Straight(3)
        helper = RoutineSpec("helper", body=[If("flag", then=[helper_then])])
        walker = make_programs(
            [RoutineSpec("r", body=[SubCall("helper")]), helper]
        )
        with_flag = walker.expand([event("r", flag=True)]).tolist()
        without = walker.expand([event("r", flag=False)]).tolist()
        assert helper_then.bid in with_flag
        assert helper_then.bid not in without

    def test_callseq_consumes_matching_run(self):
        a_body = Straight(1)
        b_body = Straight(2)
        a = RoutineSpec("a", body=[a_body])
        b = RoutineSpec("b", body=[b_body])
        seq = CallSeq(("a", "b"))
        tail = RoutineSpec("tail", body=[Straight(1)])
        walker = make_programs(
            [RoutineSpec("r", body=[seq, Call("tail")]), a, b, tail]
        )
        children = [event("a"), event("b"), event("a"), event("tail")]
        out = walker.expand([event("r", children=children)]).tolist()
        assert out.count(a_body.bid) == 2
        assert out.count(b_body.bid) == 1
        assert out.count(seq.bid) == 4  # 3 iterations + exit test
        assert out.count(seq.latch_bid) == 3


class TestKernelDispatch:
    def test_syscall_walks_kernel_with_offset(self):
        kread_body = Straight(7)
        kernel = [RoutineSpec("k.read", body=[kread_body])]
        sys_node = Syscall("k.read")
        walker = make_programs(
            [RoutineSpec("r", body=[sys_node])], kernel
        )
        out = walker.expand(
            [event("r", children=[event("k.read")])]
        )
        kernel_bids = out[out >= walker.kernel_offset]
        assert len(kernel_bids) == 3  # prologue, body, epilogue
        assert (kread_body.bid + walker.kernel_offset) in out.tolist()

    def test_syscall_rejects_app_event(self):
        other = RoutineSpec("other", body=[Straight(1)])
        walker = make_programs(
            [RoutineSpec("r", body=[Syscall("k.read")]), other]
        )
        # Build a child that matches the name check but is not kernel.
        with pytest.raises(SimulationError):
            walker.expand([event("r", children=[event("other")])])

    def test_top_level_kernel_event(self):
        kread_body = Straight(7)
        walker = make_programs(
            [RoutineSpec("r", body=[Straight(1)])],
            [RoutineSpec("k.read", body=[kread_body])],
        )
        out = walker.expand([event("k.read")])
        assert (out >= walker.kernel_offset).all()
