"""Unit and property tests for repro.staticpred: CFG analyses
(dominators, natural loops, reachability), branch heuristics, exact
integer flow propagation, and whole-binary profile synthesis.

The property tests generate random *structured* programs (seq/if/loop
trees) and compile them to CFGs -- structured control flow is reducible
by construction, so the dominator/loop invariants must hold on every
example, and every synthesized profile must pass the PRF001-PRF006
flow-conservation family with zero findings.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import check_profile
from repro.errors import ProfileError
from repro.ir import Binary, Procedure, Terminator
from repro.staticpred import (
    CfgInfo,
    apportion,
    branch_probabilities,
    hybrid_profile,
    propagate_units,
    synthesize_profile,
)

# -- structured random CFGs --------------------------------------------------

#: Random structured-program trees: a leaf is a straight-line block;
#: interior nodes sequence, branch, or loop their children.  Structured
#: programs compile to reducible CFGs, the class the analyses target.
TREES = st.recursive(
    st.just("block"),
    lambda children: st.one_of(
        st.tuples(st.just("seq"), children, children),
        st.tuples(st.just("if"), children, children),
        st.tuples(st.just("loop"), children),
    ),
    max_leaves=12,
)


def compile_tree(tree, name="p"):
    """Compile a structured tree to a Procedure ending in RETURN.

    Returns ``(proc, loop_count)``; each ``loop`` node becomes a
    conditional header with a back edge from its body's tail.
    """
    counter = itertools.count()
    pending = []
    loops = 0

    def emit(node, cont):
        nonlocal loops
        if node == "block":
            label = f"b{next(counter)}"
            pending.append((label, 2, Terminator.FALLTHROUGH, (cont,)))
            return label
        kind = node[0]
        if kind == "seq":
            return emit(node[1], emit(node[2], cont))
        if kind == "if":
            then_entry = emit(node[1], cont)
            else_entry = emit(node[2], cont)
            label = f"b{next(counter)}"
            pending.append(
                (label, 2, Terminator.COND_BRANCH, (then_entry, else_entry))
            )
            return label
        assert kind == "loop"
        loops += 1
        header = f"b{next(counter)}"
        body_entry = emit(node[1], header)  # body tail jumps back
        pending.append(
            (header, 2, Terminator.COND_BRANCH, (body_entry, cont))
        )
        return header

    entry = emit(tree, "exit")
    proc = Procedure(name)
    # The entry must be the first block added; emission is post-order.
    by_label = {row[0]: row for row in pending}
    proc.add_block(*by_label.pop(entry))
    for row in pending:
        if row[0] in by_label:
            proc.add_block(*row)
    proc.add_block("exit", 2, Terminator.RETURN)
    return proc, loops


def seal(proc):
    binary = Binary()
    binary.add_procedure(proc)
    binary.seal()
    return binary


class TestCfgInfo:
    def make_loop_proc(self):
        proc = Procedure("p")
        proc.add_block("entry", 2, Terminator.FALLTHROUGH, succs=("head",))
        proc.add_block(
            "head", 2, Terminator.COND_BRANCH, succs=("body", "exit")
        )
        proc.add_block("body", 4, Terminator.UNCOND_BRANCH, succs=("head",))
        proc.add_block("exit", 2, Terminator.RETURN)
        proc.add_block("island", 2, Terminator.RETURN)  # unreachable
        return seal(proc).proc("p")

    def test_reachability_excludes_islands(self):
        proc = self.make_loop_proc()
        info = CfgInfo(proc)
        island = proc.block("island").bid
        assert island not in info.reachable
        assert len(info.reachable) == 4
        assert island not in info.depth

    def test_dominators(self):
        proc = self.make_loop_proc()
        info = CfgInfo(proc)
        entry, head = proc.block("entry").bid, proc.block("head").bid
        body, exit_ = proc.block("body").bid, proc.block("exit").bid
        assert info.idom[head] == entry
        assert info.idom[body] == head
        assert info.idom[exit_] == head
        assert info.dominates(entry, exit_)
        assert not info.dominates(body, exit_)

    def test_natural_loop(self):
        proc = self.make_loop_proc()
        info = CfgInfo(proc)
        head, body = proc.block("head").bid, proc.block("body").bid
        assert len(info.loops) == 1
        loop = info.loops[0]
        assert loop.header == head
        assert loop.body == frozenset({head, body})
        assert loop.back_edges == ((body, head),)
        assert info.depth[head] == 1 and info.depth[body] == 1
        assert info.depth[proc.block("exit").bid] == 0
        assert info.innermost_loop(body) is loop
        assert info.innermost_loop(proc.block("entry").bid) is None

    @settings(max_examples=40, deadline=None)
    @given(tree=TREES)
    def test_structured_cfgs_are_reducible(self, tree):
        """On structured programs: every block reachable, one natural
        loop per loop construct, loop bodies dominated by their
        headers, retreating edges exactly the back edges."""
        proc, loop_count = compile_tree(tree)
        proc = seal(proc).proc("p")
        info = CfgInfo(proc)
        assert len(info.reachable) == len(list(proc.blocks))
        assert len(info.loops) == loop_count
        for loop in info.loops:
            for bid in loop.body:
                assert info.dominates(loop.header, bid)
            for src, dst in loop.back_edges:
                assert dst == loop.header and src in loop.body
        for block in proc.blocks:
            for dst in block.succs:
                if info.is_retreating(block.bid, dst):
                    assert (block.bid, dst) in info.back_edges
                    assert info.dominates(dst, block.bid)


class TestHeuristics:
    def test_probabilities_sum_to_one(self):
        proc, _ = compile_tree(("loop", ("if", "block", "block")))
        proc = seal(proc).proc("p")
        probs = branch_probabilities(proc)
        outgoing = {}
        for (src, _dst), p in probs.items():
            outgoing[src] = outgoing.get(src, 0.0) + p
        for total in outgoing.values():
            assert total == pytest.approx(1.0)

    def test_loop_branch_prefers_the_back_edge(self):
        proc = Procedure("p")
        proc.add_block(
            "head", 2, Terminator.COND_BRANCH, succs=("body", "exit")
        )
        proc.add_block("body", 4, Terminator.UNCOND_BRANCH, succs=("head",))
        proc.add_block("exit", 2, Terminator.RETURN)
        proc = seal(proc).proc("p")
        probs = branch_probabilities(proc)
        head, body = proc.block("head").bid, proc.block("body").bid
        assert probs[(head, body)] > 0.5


class TestApportion:
    def test_exact_and_deterministic(self):
        parts = apportion(10, [0.5, 0.3, 0.2])
        assert sum(parts) == 10
        assert parts == apportion(10, [0.5, 0.3, 0.2])

    def test_zero_shares_split_uniformly(self):
        assert sum(apportion(7, [0.0, 0.0])) == 7

    @settings(max_examples=50, deadline=None)
    @given(
        units=st.integers(min_value=0, max_value=10_000),
        probs=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6
        ),
    )
    def test_parts_sum_exactly(self, units, probs):
        parts = apportion(units, probs)
        assert sum(parts) == units
        assert all(part >= 0 for part in parts)


class TestPropagation:
    @settings(max_examples=40, deadline=None)
    @given(tree=TREES, units=st.integers(min_value=1, max_value=50_000))
    def test_kirchhoff_conservation(self, tree, units):
        """count == inflow == outflow at every block; all units drain
        through RETURN sinks (structured CFGs never trap flow)."""
        proc, _ = compile_tree(tree)
        proc = seal(proc).proc("p")
        probs = branch_probabilities(proc)
        flow = propagate_units(proc, probs, units)
        inflow = {}
        outflow = {}
        for (src, dst), count in flow.edges.items():
            outflow[src] = outflow.get(src, 0) + count
            inflow[dst] = inflow.get(dst, 0) + count
        entry = proc.entry.bid
        for block in proc.blocks:
            bid = block.bid
            count = flow.counts.get(bid, 0)
            seeded = units if bid == entry else 0
            assert inflow.get(bid, 0) + seeded == count
            if block.terminator is Terminator.RETURN:
                assert flow.return_units.get(bid, 0) == count
            else:
                assert outflow.get(bid, 0) == count
        assert flow.trapped == 0
        assert sum(flow.return_units.values()) == units

    def test_infinite_loop_traps_without_conservation_lies(self):
        proc = Procedure("p")
        proc.add_block("entry", 2, Terminator.FALLTHROUGH, succs=("spin",))
        proc.add_block("spin", 2, Terminator.UNCOND_BRANCH, succs=("spin",))
        proc = seal(proc).proc("p")
        flow = propagate_units(proc, branch_probabilities(proc), 100)
        assert flow.trapped == 100
        assert not flow.return_units


def make_call_binary():
    """Two-proc binary: a looping root repeatedly calling a leaf."""
    binary = Binary()
    root = Procedure("root")
    root.add_block("entry", 2, Terminator.FALLTHROUGH, succs=("head",))
    root.add_block("head", 2, Terminator.COND_BRANCH, succs=("call", "done"))
    root.add_block(
        "call", 3, Terminator.CALL, succs=("back",), call_target="leaf"
    )
    root.add_block("back", 1, Terminator.UNCOND_BRANCH, succs=("head",))
    root.add_block("done", 2, Terminator.RETURN)
    binary.add_procedure(root)
    leaf = Procedure("leaf")
    leaf.add_block("entry", 2, Terminator.COND_BRANCH, succs=("a", "b"))
    leaf.add_block("a", 4, Terminator.FALLTHROUGH, succs=("out",))
    leaf.add_block("b", 9, Terminator.FALLTHROUGH, succs=("out",))
    leaf.add_block("out", 2, Terminator.RETURN)
    binary.add_procedure(leaf)
    binary.seal()
    return binary


class TestSynthesize:
    def test_flow_conserving_across_calls(self):
        binary = make_call_binary()
        profile = synthesize_profile(binary)
        report = check_profile(binary, profile, target="static")
        assert not report.diagnostics, report.render()
        # The callee runs once per call-site execution.
        call = binary.proc("root").block("call").bid
        leaf_entry = binary.proc("leaf").entry.bid
        assert profile.count(leaf_entry) == profile.count(call) > 0

    def test_deterministic(self):
        binary = make_call_binary()
        assert (
            synthesize_profile(binary).fingerprint()
            == synthesize_profile(binary).fingerprint()
        )

    @settings(max_examples=25, deadline=None)
    @given(tree=TREES)
    def test_random_structured_binaries_pass_prf(self, tree):
        """Satellite: synthesized profiles satisfy the PRF001-PRF006
        flow-conservation family on random reducible CFGs."""
        proc, _ = compile_tree(tree)
        binary = seal(proc)
        profile = synthesize_profile(binary)
        report = check_profile(binary, profile, target="static")
        assert not report.diagnostics, report.render()
        assert profile.total_blocks_executed > 0

    def test_cold_island_roots_get_a_trickle(self):
        binary = Binary()
        main = Procedure("main")
        main.add_block(
            "head", 2, Terminator.COND_BRANCH, succs=("body", "out")
        )
        main.add_block("body", 4, Terminator.UNCOND_BRANCH, succs=("head",))
        main.add_block("out", 2, Terminator.RETURN)
        binary.add_procedure(main)
        island = Procedure("island")  # no loops, no calls, never called
        island.add_block("only", 4, Terminator.RETURN)
        binary.add_procedure(island)
        binary.seal()
        profile = synthesize_profile(binary)
        main_entry = binary.proc("main").entry.bid
        island_entry = binary.proc("island").entry.bid
        assert profile.count(island_entry) > 0  # still reachable flow
        assert profile.count(main_entry) > 64 * profile.count(island_entry)


class TestHybrid:
    def test_blend_conserves_flow(self):
        binary = make_call_binary()
        static = synthesize_profile(binary)
        heavy = synthesize_profile(binary, root_units=65_536)
        blended = hybrid_profile(heavy, static)
        report = check_profile(binary, blended, target="hybrid")
        assert not report.diagnostics, report.render()
        assert (
            blended.total_blocks_executed
            > heavy.total_blocks_executed
        )

    def test_prior_weight_bounds_the_static_share(self):
        binary = make_call_binary()
        static = synthesize_profile(binary)
        heavy = synthesize_profile(binary, root_units=1_048_576)
        blended = hybrid_profile(heavy, static, prior_weight=0.25)
        static_share = (
            blended.total_blocks_executed - heavy.total_blocks_executed
        ) / heavy.total_blocks_executed
        assert 0.1 <= static_share <= 0.5

    def test_mismatched_binaries_rejected(self):
        one, two = make_call_binary(), make_call_binary()
        with pytest.raises(ProfileError):
            hybrid_profile(synthesize_profile(one), synthesize_profile(two))

    def test_nonpositive_prior_rejected(self):
        binary = make_call_binary()
        static = synthesize_profile(binary)
        with pytest.raises(ProfileError):
            hybrid_profile(static, static, prior_weight=0.0)
