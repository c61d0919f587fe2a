"""High-level entry points composing the analysis passes.

:func:`check_layout` / :func:`check_profile` / :func:`check_quality`
bundle the individual passes into the three analysis families and
return a :class:`~repro.check.diagnostics.CheckReport`;
:func:`gate_layout` is the one structure-then-addresses gate that the
online relayout, the layout server, the fleet and ``repro lint
--layout`` run before trusting a layout; :func:`verify_layout` is the
enforcement wrapper that raises :class:`~repro.errors.LayoutError` when
a layout fails integrity checks (used by ``SpikeOptimizer(verify=True)``).
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
from repro.errors import LayoutError
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
    binary, layout, address_map=None, target: str = "", *, structure: bool = True
) -> CheckReport:
    """Run the layout-integrity family (``LAY*``).

    Structure passes run unless ``structure=False`` (the caller already
    ran them and they came back clean).  Address passes need an
    ``address_map`` and only run when the structure came back clean --
    address arithmetic over a layout that places blocks twice (or not
    at all) would just produce noise after the real finding.
    """
    target = target or getattr(layout, "name", "")
    ctx = CheckContext(binary=binary, layout=layout, target=target)
    report = _STRUCTURE_RUNNER.run(ctx) if structure else CheckReport()
    if address_map is not None and report.ok:
        ctx.address_map = address_map
        report.extend(_ADDRESS_RUNNER.run(ctx))
    return report


def gate_layout(binary, layout, target: str = "") -> CheckReport:
    """The layout gate: structure checks, then addresses.

    Structure passes run on their own first: ``assign_addresses``
    refuses structurally broken layouts outright, and the gate must
    *report* corruption, not crash on it.  Only a clean structure is
    placed and gets the address passes.  The report's ``address_map``
    hands that placement back (None when the structure failed), so no
    caller places the layout a second time.
    """
    report = check_layout(binary, layout, target=target)
    if report.ok:
        address_map = assign_addresses(binary, layout)
        report.extend(check_layout(
            binary, layout, address_map, target=target, structure=False
        ))
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


def verify_layout(
    binary, layout, address_map=None, target: str = ""
) -> CheckReport:
    """Enforcing form of :func:`check_layout`.

    Raises:
        LayoutError: When any error-severity finding is reported; the
            message carries the first few findings.
    """
    report = check_layout(binary, layout, address_map=address_map, target=target)
    if not report.ok:
        shown = "\n".join(d.render() for d in report.errors[:5])
        raise LayoutError(
            f"layout {target or getattr(layout, 'name', '?')!r} failed "
            f"integrity checks ({len(report.errors)} error(s)):\n{shown}"
        )
    return report


def check_all(
    binary,
    profile=None,
    layout=None,
    address_map=None,
    target: str = "",
) -> CheckReport:
    """Run every applicable family over the supplied artifacts."""
    report = CheckReport()
    if layout is not None:
        report.extend(check_layout(binary, layout, address_map, target=target))
    if profile is not None:
        report.extend(check_profile(binary, profile, target=target))
    if (
        profile is not None and layout is not None
        and address_map is not None and report.ok
    ):
        report.extend(check_quality(binary, profile, layout, address_map, target=target))
    return report
