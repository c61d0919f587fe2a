"""Differential tests: Pettis--Hansen ordering against its reference.

``tests/ordering_reference.py`` holds the ordering that
:func:`repro.layout.order_units` replaced.  Both must agree on the unit
order, ``merges`` and ``displacement_refusals`` for random call graphs
(integer weights with many ties, a hub joined to most units, edgeless
cold units, zero-weight edges, weights that absorb one another in
floating point, displacement limits small enough to refuse merges) and
for every combo of the quick app and kernel under measured and static
profiles.  The example budget follows the active hypothesis profile
(``--hypothesis-profile=deep`` raises it).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.harness import quick_experiment
from repro.ir import Binary, Procedure, Terminator, UnitCallGraph, baseline_layout
from repro.layout import Combo, SpikeOptimizer, order_units
from repro.layout import spike as spike_module
from tests import layout_reference, ordering_reference

#: Edge weights: small integers tie often; 0.0 exercises the skipped
#: zero edges; 0.1/0.2/0.3 make summation order visible; 1e16 absorbs
#: a unit weight (1e16 + 1.0 == 1e16).
WEIGHTS = st.one_of(
    st.integers(0, 4).map(float),
    st.sampled_from([0.1, 0.2, 0.3, 1e16]),
)


@st.composite
def ordering_inputs(draw):
    """``(binary, layout, graph, block_counts, max_displacement)``."""
    n = draw(st.integers(1, 16))
    binary = Binary("oracle")
    for i in range(n):
        proc = Procedure(f"p{i}")
        blocks = draw(st.integers(1, 3))
        for k in range(blocks):
            last = k == blocks - 1
            proc.add_block(
                f"b{k}",
                draw(st.integers(1, 24)),
                Terminator.RETURN if last else Terminator.FALLTHROUGH,
                succs=() if last else (f"b{k + 1}",),
            )
        binary.add_procedure(proc)
    binary.seal()
    layout = baseline_layout(binary)
    counts = np.asarray(
        draw(st.lists(st.integers(0, 3), min_size=binary.num_blocks,
                      max_size=binary.num_blocks)),
        dtype=np.int64,
    )
    graph = UnitCallGraph(n)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=3 * n))
        if draw(st.booleans()):
            hub = draw(st.integers(0, n - 1))
            spokes = [(hub, j) for j in range(n) if j != hub]
            chosen += spokes[: max(1, (len(spokes) * 3) // 4)]
        for a, b in chosen:
            if draw(st.booleans()):
                a, b = b, a  # parallel edges in either direction are summed
            graph.add_weight(a, b, draw(WEIGHTS))
    total = sum(b.size for b in binary.blocks()) * 4
    max_displacement = draw(st.one_of(
        st.just(1 << 20), st.integers(4, max(4, total))
    ))
    return binary, layout, graph, counts, max_displacement


def assert_same_ordering(binary, layout, graph, counts, max_displacement):
    got = order_units(
        binary, layout, graph, counts, max_displacement=max_displacement
    )
    # The reference orders the same units and weights, keyed by name.
    names = layout.names()
    named = layout_reference.UnitCallGraph(names)
    for (a, b), weight in graph._weights.items():
        named._weights[named._key(names[a], names[b])] = weight
    want = ordering_reference.order_units(
        binary, layout_reference.to_units(layout), named, counts,
        max_displacement=max_displacement,
    )
    assert [names[u] for u in got.order.tolist()] == [u.name for u in want.units]
    assert got.merges == want.merges
    assert got.displacement_refusals == want.displacement_refusals
    return got


@given(ordering_inputs())
def test_random_graphs_match_reference(inputs):
    assert_same_ordering(*inputs)


def test_small_limit_refuses_merges():
    """A fixed case where the guard refuses, so the property above is
    known to reach the refusal path."""
    binary = Binary("refusals")
    for name in "ABCD":
        proc = Procedure(name)
        proc.add_block("b", 8, Terminator.RETURN)
        binary.add_procedure(proc)
    binary.seal()
    graph = UnitCallGraph(4)
    for a, b, w in ((0, 1, 3), (1, 2, 3), (2, 3, 3), (0, 3, 1)):
        graph.add_weight(a, b, w)
    counts = np.ones(binary.num_blocks, dtype=np.int64)
    result = assert_same_ordering(binary, baseline_layout(binary), graph, counts, 64)
    assert result.displacement_refusals > 0 and result.merges == 2


@pytest.fixture(scope="module")
def exp():
    return quick_experiment()


@pytest.mark.parametrize("source", ["measured", "static"])
@pytest.mark.parametrize("side", ["app", "kernel"])
def test_quick_combos_match_reference(exp, side, source, monkeypatch):
    """Every ordering a quick-config combo runs equals the reference's."""
    calls = []

    def checked(binary, layout, graph, block_counts, max_displacement):
        calls.append(layout.num_units)
        return assert_same_ordering(
            binary, layout, graph, block_counts, max_displacement
        )

    monkeypatch.setattr(spike_module, "order_units", checked)
    program = exp.kernel if side == "kernel" else exp.app
    optimizer = SpikeOptimizer(
        program.binary, exp.profile_for(source, kernel=side == "kernel")
    )
    for combo in Combo.names():
        optimizer.layout(combo)
    # porder, chain+porder, all and hotcold each order once.
    assert len(calls) == 4
