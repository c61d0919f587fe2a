"""Differential tests: the array layout passes against the CodeUnit path.

``tests/layout_reference.py`` holds the name-keyed ``CodeUnit`` path
that the array :class:`~repro.ir.Layout` replaced.  For random
``build_binary`` programs and profiles, every combo plus the CFA,
coloring and temporal layouts must give the same ``layout_to_dict``
document and the same placement (every ``AddressMap`` field, with
``unit_starts`` in unit order) under both, and every document must
decode back to itself.  Unit-name ties are common here: small counts
make equal heats and equal edge weights, and link order is not name
order (``h0`` sorts before ``r0``).  The example budget follows the
active hypothesis profile (``--hypothesis-profile=deep`` raises it).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.harness import quick_experiment
from repro.harness.store import layout_from_dict, layout_to_dict
from repro.ir import assign_addresses, baseline_layout, build_unit_call_graph
from repro.layout import Combo, SpikeOptimizer, color_layout, temporal_order
from repro.profiles import Profile
from tests import layout_reference as ref
from tests.test_walker_compiled import programs


def assert_same(binary, layout, reference):
    document = layout_to_dict(layout)
    assert document == ref.layout_to_dict(reference)
    assert layout_to_dict(layout_from_dict(document, binary)) == document
    got = assign_addresses(binary, layout)
    want = ref.assign_addresses(binary, reference)
    for name in ("addr", "n_fetch", "taken_succ", "n_fetch_taken"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    for name in ("inverted", "deleted_branches", "appended_branches", "total_bytes"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.unit_starts.dtype == np.int64
    assert got.unit_starts.tolist() == list(want.unit_starts.values())


def assert_extensions_same(binary, profile, streams, cache_bytes, line_bytes, window):
    counts, edges = profile.block_counts, profile.edge_counts or None
    procedures = baseline_layout(binary)
    units = ref.proc_units(binary)
    graph = build_unit_call_graph(binary, procedures, counts, edge_counts=edges)
    ref_graph = ref.build_unit_call_graph(binary, units, counts, edge_counts=edges)
    coloring, _ = color_layout(
        binary, procedures, graph, counts, cache_bytes=cache_bytes, line_bytes=line_bytes
    )
    assert_same(binary, coloring, ref.color_layout(
        binary, units, ref_graph, counts, cache_bytes=cache_bytes, line_bytes=line_bytes
    ))
    temporal = temporal_order(binary, procedures, streams, counts, window=window)
    assert_same(binary, temporal, ref.temporal_order(
        binary, units, streams, counts, window=window
    ))


@st.composite
def cases(draw):
    """``(binary, profile, max_displacement, streams, cache_bytes,
    line_bytes, window)`` over a random app program."""
    app, _kernel = draw(programs())
    binary = app.binary
    n = binary.num_blocks
    profile = Profile(binary)
    profile.block_counts = np.array(
        draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 40]), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    if draw(st.booleans()):
        edges = [(b.bid, dst) for b in binary.blocks() for dst in b.succs]
        for edge in draw(st.lists(st.sampled_from(edges), max_size=2 * n)):
            profile.edge_counts[edge] += draw(st.integers(0, 3))
    streams = [
        np.array(draw(st.lists(st.integers(0, n - 1), max_size=80)), dtype=np.int64)
        for _ in range(draw(st.integers(1, 2)))
    ]
    return (
        binary,
        profile,
        draw(st.sampled_from([1 << 20, 64, 256])),
        streams,
        draw(st.sampled_from([256, 1024, 4096])),
        draw(st.sampled_from([16, 32, 64])),
        draw(st.integers(1, 6)),
    )


@given(cases())
def test_random_programs_match_reference(case):
    binary, profile, max_displacement, streams, cache_bytes, line_bytes, window = case
    optimizer = SpikeOptimizer(binary, profile, max_displacement=max_displacement)
    for combo in Combo.names():
        assert_same(binary, optimizer.layout(combo), ref.spike_layout(optimizer, combo))
    cfa, _ = optimizer.cfa(cache_bytes=cache_bytes)
    assert_same(binary, cfa, ref.spike_cfa(optimizer, cache_bytes))
    assert_extensions_same(binary, profile, streams, cache_bytes, line_bytes, window)


@pytest.fixture(scope="module")
def exp():
    experiment = quick_experiment()
    _ = experiment.trace
    return experiment


@pytest.mark.parametrize("side", ["app", "kernel"])
def test_quick_layouts_match_reference(exp, side):
    """The measured-profile combo and extension layouts of the quick
    experiment, at the figures' cache geometry."""
    program = exp.app if side == "app" else exp.kernel
    profile = exp.profile_for("measured", kernel=side == "kernel")
    optimizer = SpikeOptimizer(program.binary, profile)
    for combo in Combo.names():
        assert_same(program.binary, optimizer.layout(combo), ref.spike_layout(optimizer, combo))
    cfa, _ = optimizer.cfa(cache_bytes=64 * 1024)
    assert_same(program.binary, cfa, ref.spike_cfa(optimizer, 64 * 1024))
    if side == "app":
        streams = [exp.trace.app_block_stream(i) for i in range(len(exp.trace.cpus))]
        assert_extensions_same(program.binary, profile, streams, 64 * 1024, 128, 24)


@pytest.mark.parametrize("source", ["measured", "static", "hybrid"])
@pytest.mark.parametrize("side", ["app", "kernel"])
def test_quality_lints_match_reference(exp, side, source):
    """QLT002 and QLT004 over the arrays report what the unit-by-unit
    lints report -- code, message, location and order -- on the 48
    pinned layouts with their profiles."""
    from repro.check import CheckContext
    from repro.check.quality_checks import check_cold_in_hot, check_conflict_smells

    program = exp.app if side == "app" else exp.kernel
    profile = exp.profile_for(source, kernel=side == "kernel")
    optimizer = SpikeOptimizer(program.binary, profile)
    found = 0
    for combo in Combo.names():
        layout = optimizer.layout(combo)
        amap = assign_addresses(program.binary, layout)
        ctx = CheckContext(
            binary=program.binary, profile=profile, layout=layout,
            address_map=amap, target=combo,
        )
        units = ref.to_units(layout)
        got = list(check_cold_in_hot(ctx)) + list(check_conflict_smells(ctx))
        want = ref.check_cold_in_hot(program.binary, profile, units, combo)
        want += ref.check_conflict_smells(program.binary, profile, units, amap, combo)
        assert got == want, combo
        found += len(got)
    if source == "measured":
        assert found  # the lints fire on these layouts
