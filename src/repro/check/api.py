"""High-level entry points composing the analysis passes.

:func:`check_layout` / :func:`check_profile` / :func:`check_quality`
bundle the individual passes into the three analysis families and
return a :class:`~repro.check.diagnostics.CheckReport`.
:func:`check_all` is the one layout gate: the experiment, the online
relayout, the layout server, the fleet and ``repro lint`` all run it
before trusting a layout.  Given no placement, it checks the structure
first and places only a clean layout, so corruption is reported, never
raised.
"""

from __future__ import annotations

from repro.check.diagnostics import CheckContext, CheckReport, CheckRunner
from repro.check.layout_checks import (
    check_addresses,
    check_branch_targets,
    check_fixups,
    check_segments,
    check_structure,
)
from repro.check.profile_checks import (
    check_call_graph,
    check_flow_conservation,
    check_reachability,
    check_transitions,
)
from repro.check.quality_checks import (
    check_cold_in_hot,
    check_conflict_smells,
    check_hot_fallthroughs,
    check_page_crossing_loops,
)
from repro.check.static_checks import (
    check_branch_directions,
    check_hot_set_divergence,
    check_loop_rank_inversions,
    check_static_cold_hot,
    check_unreached_sampled,
)
from repro.ir import assign_addresses

#: Structure-only layout passes (no address map required).
_STRUCTURE_RUNNER = CheckRunner([
    ("layout.structure", check_structure),
    ("layout.branch_targets", check_branch_targets),
    ("layout.segments", check_segments),
])

#: Address-dependent layout passes.
_ADDRESS_RUNNER = CheckRunner([
    ("layout.addresses", check_addresses),
    ("layout.fixups", check_fixups),
])

_PROFILE_RUNNER = CheckRunner([
    ("profile.transitions", check_transitions),
    ("profile.flow_conservation", check_flow_conservation),
    ("profile.call_graph", check_call_graph),
    ("profile.reachability", check_reachability),
])

_QUALITY_RUNNER = CheckRunner([
    ("quality.hot_fallthroughs", check_hot_fallthroughs),
    ("quality.cold_in_hot", check_cold_in_hot),
    ("quality.page_crossing_loops", check_page_crossing_loops),
    ("quality.conflict_smells", check_conflict_smells),
])

#: Static-vs-measured differential passes (``STA*``).
_STATIC_RUNNER = CheckRunner([
    ("static.hot_set", check_hot_set_divergence),
    ("static.branch_directions", check_branch_directions),
    ("static.loop_ranks", check_loop_rank_inversions),
    ("static.cold_hot", check_static_cold_hot),
    ("static.unreached", check_unreached_sampled),
])


def check_layout(
    binary, layout, address_map=None, target: str = ""
) -> CheckReport:
    """Run the layout-integrity family (``LAY*``).

    Address passes need an ``address_map`` and only run when the
    structure came back clean -- address arithmetic over a layout that
    places blocks twice (or not at all) would just produce noise after
    the real finding.
    """
    return _layout_report(binary, layout, address_map, target, place=False)


def _layout_report(binary, layout, address_map, target, place) -> CheckReport:
    """Structure passes, then (over ``address_map``, or a fresh
    placement when ``place`` is set) the address passes.  A report
    that checked addresses carries its placement."""
    target = target or getattr(layout, "name", "")
    ctx = CheckContext(binary=binary, layout=layout, target=target)
    report = _STRUCTURE_RUNNER.run(ctx)
    if not report.ok:
        return report
    if address_map is None and place:
        address_map = assign_addresses(binary, layout)
    if address_map is not None:
        ctx.address_map = address_map
        report.extend(_ADDRESS_RUNNER.run(ctx))
        report.address_map = address_map
    return report


def check_profile(binary, profile, target: str = "") -> CheckReport:
    """Run the profile/CFG-consistency family (``PRF*``)."""
    ctx = CheckContext(binary=binary, profile=profile, target=target)
    return _PROFILE_RUNNER.run(ctx)


def check_quality(
    binary, profile, layout, address_map, target: str = ""
) -> CheckReport:
    """Run the layout-quality lints (``QLT*``, info-only)."""
    target = target or getattr(layout, "name", "")
    ctx = CheckContext(
        binary=binary, profile=profile, layout=layout,
        address_map=address_map, target=target,
    )
    return _QUALITY_RUNNER.run(ctx)


def check_static_diff(binary, measured, static, target: str = "") -> CheckReport:
    """Run the static-vs-measured differential family (``STA*``).

    ``measured`` is the ground truth, ``static`` the
    :func:`repro.staticpred.synthesize_profile` prediction for the same
    binary.  All findings are advisories (warn/info) quantifying where
    the prediction diverges; a self-diff (``measured`` on both sides)
    reports nothing.
    """
    ctx = CheckContext(
        binary=binary, profile=measured, target=target or "static-diff"
    )
    ctx.cache["static_profile"] = static
    return _STATIC_RUNNER.run(ctx)


def check_all(
    binary,
    profile=None,
    layout=None,
    address_map=None,
    target: str = "",
) -> CheckReport:
    """Run every applicable family over the supplied artifacts.

    A ``layout`` gets the structure passes, then the address passes
    over ``address_map`` -- or, when none is given, over the placement
    of a structurally clean layout, handed back on the report's
    ``address_map`` so no caller places it a second time.  A
    ``profile`` adds the flow checks, and both together the quality
    lints when everything so far is clean.
    """
    report = CheckReport()
    if layout is not None:
        report = _layout_report(binary, layout, address_map, target, place=True)
    if profile is not None:
        report.extend(check_profile(binary, profile, target=target))
    if profile is not None and report.address_map is not None and report.ok:
        report.extend(
            check_quality(binary, profile, layout, report.address_map, target=target)
        )
    return report
