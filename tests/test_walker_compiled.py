"""Differential tests: the compiled CFG walker against the reference walker.

``repro.execution.CfgWalker`` compiles each routine into a template;
``tests/walker_reference.py`` keeps the node-by-node walker it replaced.
Both must emit the same block ids for every event tree and raise the
same exception type with the same message for every malformed one.
"""

import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.instrument import CallEvent
from repro.errors import IRError, SimulationError
from repro.execution import CfgWalker, OltpSystem
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
    eval_cond,
    eval_count,
)
from tests.walker_reference import CfgWalker as ReferenceWalker

APP_ROUTINES = ("r0", "r1", "r2", "r3")
HELPERS = ("h0", "h1", "h2")
CONDITIONS = (
    "x", "!x", "y", "!y", "never", "!never",
    "?0", "?30", "?50", "!?70", "?100", "!?100",
)
COUNTS = (0, 1, 2, 3, "n", "m")


def outcome(walker, events):
    """The block ids ``events`` expand to, or the error they raise."""
    out = []
    try:
        for event in events:
            walker.walk_event(event, out)
    except (SimulationError, IRError) as exc:
        return type(exc), str(exc)
    return out


def assert_same(app, kernel, events):
    expected = outcome(ReferenceWalker(app, kernel), events)
    assert outcome(CfgWalker(app, kernel), events) == expected
    return expected


# -- random programs ------------------------------------------------------------


@st.composite
def nodes(draw, depth, calls=(), helpers=(), syscalls=()):
    """One DSL node; ``calls``/``helpers``/``syscalls`` are its targets."""
    kinds = ["straight", "cold"]
    kinds += ["sub"] * bool(helpers) + ["call", "seq"] * bool(calls)
    kinds += ["sys"] * bool(syscalls) + ["if", "if", "loop"] * (depth > 0)
    kind = draw(st.sampled_from(kinds))
    if kind == "straight":
        return Straight(draw(st.integers(1, 6)))
    if kind == "cold":
        return ColdPath(8, blocks=draw(st.integers(1, 3)), inline=draw(st.booleans()))
    if kind == "sub":
        return SubCall(draw(st.sampled_from(helpers)))
    if kind == "call":
        return Call(draw(st.sampled_from(calls)))
    if kind == "seq":
        matches = draw(st.lists(st.sampled_from(calls), min_size=1, max_size=3))
        return CallSeq(tuple(matches))
    if kind == "sys":
        return Syscall(draw(st.sampled_from(syscalls)))
    body = st.lists(nodes(depth - 1, calls, helpers, syscalls), max_size=3)
    if kind == "loop":
        return Loop(
            draw(st.sampled_from(COUNTS)), body=draw(body),
            minus=draw(st.integers(0, 2)),
        )
    then = draw(body)
    orelse = draw(body) if then else []
    return If(draw(st.sampled_from(CONDITIONS)), then=then, orelse=orelse)


def bodies(depth=2, **targets):
    return st.lists(nodes(depth, **targets), max_size=4)


@st.composite
def programs(draw):
    """A random app (4 routines, a table variant, 3 helpers) and kernel.

    ``r_i`` calls only ``r_j`` with ``j > i`` and helpers call only later
    helpers, so every walk terminates.
    """
    app = []
    for i, name in enumerate(APP_ROUTINES):
        targets = dict(
            calls=APP_ROUTINES[i + 1:], helpers=HELPERS, syscalls=("k.a",)
        )
        app.append(RoutineSpec(name, body=draw(bodies(**targets))))
    app.append(RoutineSpec("r3@t", body=draw(bodies(helpers=HELPERS)), suffix="t"))
    for i, name in enumerate(HELPERS):
        app.append(RoutineSpec(name, body=draw(bodies(helpers=HELPERS[i + 1:]))))
    kernel = [
        RoutineSpec("k.a", body=draw(bodies(calls=("k.b",), helpers=("kh",)))),
        RoutineSpec("k.b", body=draw(bodies(helpers=("kh",)))),
        RoutineSpec("kh", body=draw(bodies())),
    ]
    return build_binary(app, "app"), build_binary(kernel, "kern")


@st.composite
def bindings(draw):
    salt = st.integers(0, (1 << 31) - 1)
    values = {
        "salt": draw(st.one_of(st.none(), salt, salt, salt)),
        "x": draw(st.booleans()),
        "y": draw(st.integers(0, 2)),
        "n": draw(st.integers(-1, 4)),
        "m": draw(st.integers(0, 3)),
    }
    if values["salt"] is None:  # the walkers default a missing salt to 0
        del values["salt"]
    if draw(st.integers(0, 5)) == 0:  # now and then, a binding goes missing
        del values[draw(st.sampled_from(["x", "y", "n", "m"]))]
    if draw(st.booleans()):
        values["table"] = "t"
    return values


def children_for(data, app, kernel, nodes_, values, depth):
    """The child events a walk of ``nodes_`` under ``values`` consumes."""
    for node in nodes_:
        if isinstance(node, If):
            arm = node.then if eval_cond(node.cond, values, nonce=node.bid) else node.orelse
            yield from children_for(data, app, kernel, arm, values, depth)
        elif isinstance(node, Loop):
            for _ in range(eval_count(node.count, node.minus, values)):
                yield from children_for(data, app, kernel, node.body, values, depth)
        elif isinstance(node, (Call, Syscall)):
            yield event_for(data, app, kernel, node.match, depth + 1)
        elif isinstance(node, CallSeq):
            for _ in range(data.draw(st.integers(0, 3))):
                name = data.draw(st.sampled_from(node.matches))
                yield event_for(data, app, kernel, name, depth + 1)


def event_for(data, app, kernel, name, depth=0):
    """A random event tree for ``name`` whose children match its routine."""
    event = CallEvent(name, data.draw(bindings()))
    if name.startswith("k."):
        spec = kernel.spec(name)
    else:
        spec = app.spec(app.resolve(name, event.bindings.get("table")))
    try:
        event.children = list(
            children_for(data, app, kernel, spec.body, event.bindings, depth)
        )
    except IRError:
        pass  # a missing binding: both walkers must raise on it
    return event


def mutate(data, event):
    """Now and then break the child protocol of ``event``."""
    how = data.draw(st.sampled_from([None] * 6 + ["drop", "extra", "rename"]))
    if how == "drop" and event.children:
        event.children.pop()
    elif how == "extra":
        event.children.append(CallEvent("r3", {"salt": 1}))
    elif how == "rename" and event.children:
        event.children[0].name = "r0"


class TestRandomPrograms:
    @settings(max_examples=150)
    @given(programs(), st.data())
    def test_matches_reference(self, pair, data):
        app, kernel = pair
        names = APP_ROUTINES + ("k.a", "k.b")
        events = [
            event_for(data, app, kernel, data.draw(st.sampled_from(names)))
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        mutate(data, events[0])
        assert_same(app, kernel, events)

    @settings(max_examples=40)
    @given(programs(), st.data())
    def test_walkers_share_templates_per_program(self, pair, data):
        """A second walker over the same programs reuses the first's
        templates and still matches the reference."""
        app, kernel = pair
        events = [event_for(data, app, kernel, "r0")]
        first = outcome(CfgWalker(app, kernel), events)
        compiled = dict(app.templates[0])
        assert outcome(CfgWalker(app, kernel), events) == first
        assert all(app.templates[0][name] is t for name, t in compiled.items())
        assert first == outcome(ReferenceWalker(app, kernel), events)


# -- captured events of the quick matrix families --------------------------------


class _Recorder(CfgWalker):
    """A walker that keeps every top-level event it expands."""

    def __init__(self, app, kernel):
        super().__init__(app, kernel)
        self.events = []
        self._depth = 0

    def walk_event(self, event, out):
        if not self._depth:
            self.events.append(event)
        self._depth += 1
        try:
            super().walk_event(event, out)
        finally:
            self._depth -= 1


FAMILY_CELLS = ("tpcb-i32", "dss-i32", "synth-oltp-i32", "synth-scan-i32")


@pytest.fixture(scope="module")
def captured():
    """Per family: the quick programs and the events of a short run."""
    from repro.harness import quick_experiment
    from repro.scenarios.spec import default_matrix, select_specs

    base = quick_experiment()
    app, kernel = base.app, base.kernel
    runs = {}
    for spec in select_specs(default_matrix(), FAMILY_CELLS):
        config = spec.experiment_config()
        tpcb = replace(config.tpcb, seed=config.tpcb.seed + 1)
        factory = config.workload_factory
        system = OltpSystem(
            app, kernel, tpcb_config=tpcb, system_config=config.system,
            pool_capacity=config.pool_capacity, btree_order=config.btree_order,
            workload=factory(tpcb, 1) if factory else None,
        )
        system.walker = recorder = _Recorder(app, kernel)
        system.run(12)
        runs[spec.name] = pickle.dumps(recorder.events)
    return app, kernel, runs


def resalted(event, rng):
    """A copy of ``event``'s tree with every ``salt`` binding re-drawn."""
    values = dict(event.bindings)
    if "salt" in values:
        values["salt"] = rng.randrange(1 << 31)
    copy = CallEvent(event.name, values)
    copy.children = [resalted(child, rng) for child in event.children]
    return copy


class TestCapturedFamilies:
    @pytest.mark.parametrize("cell", FAMILY_CELLS)
    def test_captured_run_matches_reference(self, captured, cell):
        app, kernel, runs = captured
        events = pickle.loads(runs[cell])
        assert len(assert_same(app, kernel, events)) > 10_000

    @settings(max_examples=30)
    @given(st.sampled_from(FAMILY_CELLS), st.integers(0, 2**32 - 1), st.data())
    def test_resalted_events_match_reference(self, captured, cell, seed, data):
        app, kernel, runs = captured
        events = pickle.loads(runs[cell])
        start = data.draw(st.integers(0, len(events) - 1))
        rng = random.Random(seed)
        window = [resalted(e, rng) for e in events[start:start + 40]]
        assert_same(app, kernel, window)


# -- error parity -------------------------------------------------------------------


def event(name, children=(), **values):
    ev = CallEvent(name, dict(values))
    ev.bindings.setdefault("salt", 1)
    ev.children = list(children)
    return ev


def programs_of(app_specs, kernel_specs=None):
    kernel_specs = kernel_specs or [RoutineSpec("k.read", body=[Straight(3)])]
    return build_binary(app_specs, "app"), build_binary(kernel_specs, "kern")


def leaf(name):
    return RoutineSpec(name, body=[Straight(1)])


def assert_same_error(app, kernel, events, error):
    expected = assert_same(app, kernel, events)
    assert isinstance(expected, tuple) and expected[0] is error, expected


class TestErrorParity:
    def test_wrong_child_name(self):
        app, kernel = programs_of(
            [RoutineSpec("r", body=[Call("callee")]), leaf("callee"), leaf("other")]
        )
        assert_same_error(
            app, kernel, [event("r", [event("other")])], SimulationError
        )

    def test_missing_child(self):
        app, kernel = programs_of(
            [RoutineSpec("r", body=[Straight(2), Call("callee")]), leaf("callee")]
        )
        assert_same_error(app, kernel, [event("r")], SimulationError)

    def test_missing_child_of_syscall(self):
        app, kernel = programs_of([RoutineSpec("r", body=[Syscall("k.read")])])
        assert_same_error(app, kernel, [event("r")], SimulationError)

    def test_unconsumed_children(self):
        app, kernel = programs_of(
            [RoutineSpec("r", body=[Call("x")]), leaf("x")]
        )
        children = [event("x")] + [event(f"c{i}") for i in range(7)]
        assert_same_error(app, kernel, [event("r", children)], SimulationError)

    def test_unconsumed_children_of_leaf_routine(self):
        app, kernel = programs_of([leaf("r"), leaf("x")])
        assert_same_error(
            app, kernel, [event("r", [event("x")])], SimulationError
        )

    @pytest.mark.parametrize("cond", ["hit", "!hit"])
    def test_missing_condition_binding(self, cond):
        app, kernel = programs_of(
            [RoutineSpec("r", body=[If(cond, then=[Straight(1)])])]
        )
        assert_same_error(app, kernel, [event("r")], IRError)

    def test_missing_condition_binding_in_helper(self):
        helper = RoutineSpec("h", body=[If("flag", then=[Straight(1)])])
        app, kernel = programs_of([RoutineSpec("r", body=[SubCall("h")]), helper])
        assert_same_error(app, kernel, [event("r")], IRError)

    @pytest.mark.parametrize("minus", [0, 2])
    def test_missing_loop_count_binding(self, minus):
        loop = Loop("n", body=[Straight(1)], minus=minus)
        app, kernel = programs_of([RoutineSpec("r", body=[loop])])
        assert_same_error(app, kernel, [event("r")], IRError)

    def test_syscall_matching_app_event(self):
        app, kernel = programs_of(
            [RoutineSpec("r", body=[Syscall("other")]), leaf("other")]
        )
        assert_same_error(
            app, kernel, [event("r", [event("other")])], SimulationError
        )

    def test_unknown_app_routine(self):
        app, kernel = programs_of([leaf("r")])
        assert_same_error(app, kernel, [event("ghost")], IRError)

    def test_unknown_kernel_routine(self):
        app, kernel = programs_of([leaf("r")])
        assert_same_error(app, kernel, [event("k.ghost")], IRError)

    def test_call_inside_helper(self):
        """A helper runs with no children, so its Call always fails."""
        helper = RoutineSpec("h", body=[Call("x")])
        app, kernel = programs_of(
            [RoutineSpec("r", body=[SubCall("h")]), helper, leaf("x")]
        )
        assert_same_error(app, kernel, [event("r", [event("x")])], SimulationError)


    def test_recursive_helper(self):
        """A helper's walk depends only on the bindings, so a helper that
        reaches itself recurses without end.  Untaken, the recursive call
        walks like the reference; taken, the reference hits Python's
        recursion limit and the compiled walker raises at once."""
        helper = RoutineSpec("h", body=[If("flag", then=[SubCall("h")])])
        app, kernel = programs_of([RoutineSpec("r", body=[SubCall("h")]), helper])
        assert len(assert_same(app, kernel, [event("r", flag=False)])) == 6
        for walker in (ReferenceWalker(app, kernel), CfgWalker(app, kernel)):
            with pytest.raises(RecursionError):
                walker.expand([event("r", flag=True)])


class TestTemplateLifetime:
    def test_templates_never_pickled(self):
        app, kernel = programs_of([leaf("r")])
        before = pickle.dumps(app)
        CfgWalker(app, kernel).expand([event("r")])
        assert app.templates
        assert pickle.dumps(app) == before
        assert pickle.loads(before).templates == {}

    def test_kernel_templates_keyed_by_offset(self):
        """One kernel under two apps of different sizes keeps one
        template set per block offset."""
        kernel = build_binary([RoutineSpec("k.read", body=[Straight(3)])], "kern")
        small = build_binary([leaf("r")], "app")
        large = build_binary([leaf("r"), leaf("s"), leaf("t")], "app")
        for app in (small, large):
            assert_same(app, kernel, [event("k.read")])
        assert sorted(kernel.templates) == sorted(
            {small.binary.num_blocks, large.binary.num_blocks}
        )
