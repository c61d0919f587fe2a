"""Profile drift metrics and the detector that gates re-layout.

All metrics compare *instruction-weight distributions*: a block's
weight is ``count * size`` normalized over the binary, i.e. the
fraction of dynamic instructions it contributes.  That matches what
the layout optimizations actually consume — a block whose count halves
but that executes two instructions matters far less to I-cache
behaviour than a hot 40-instruction loop body shifting.

Three complementary signals:

- :func:`weighted_divergence` — total-variation distance between the
  two weight distributions, at block or procedure granularity.
  Procedure granularity is the detector default: per-block weights of
  a sampled profile are noisy (sampling error spreads over thousands
  of blocks) while per-procedure sums concentrate it, giving a much
  wider margin between sampling noise and a genuine mix shift.
- :func:`hotset_overlap` — Jaccard overlap of the top-K blocks by
  weight.  Catches "same procedures, different paths" drift that
  procedure sums can hide.
- :func:`edge_divergence` — total-variation distance between
  normalized edge-count distributions, falling back to block-level
  weighted divergence when either profile lacks edge counts (plain
  DCPI sampling).  Chaining quality is a function of edge weights, so
  this is the most direct proxy for "would chaining decide
  differently now".

:class:`DriftDetector` combines them into a score in ``[0, 1]`` and
fires at two levels: a *drift* threshold for genuine phase shifts
(retrain from the live epoch alone) and a lower *refresh* threshold
(retrain from everything accumulated since the last swap — the usual
escape from a layout trained on a transition epoch that straddled the
shift).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import ProfileError
from repro.profiles.profile import Profile

#: Granularities accepted by :func:`weighted_divergence`.
GRANULARITIES = ("block", "proc")


def _block_weights(profile: Profile) -> np.ndarray:
    weights = profile.block_counts.astype(np.float64) * profile.binary.table.size
    total = weights.sum()
    return weights / total if total > 0 else weights


def _weights(profile: Profile, granularity: str) -> np.ndarray:
    if granularity not in GRANULARITIES:
        raise ProfileError(
            f"unknown divergence granularity {granularity!r}; "
            f"valid: {', '.join(GRANULARITIES)}"
        )
    weights = _block_weights(profile)
    if granularity == "proc":
        binary = profile.binary
        weights = np.bincount(
            binary.table.proc, weights=weights, minlength=binary.num_procedures
        )
    return weights


def _check_same_binary(p: Profile, q: Profile) -> None:
    if p.binary is not q.binary:
        raise ProfileError("cannot compare profiles of different binaries")


def weighted_divergence(
    p: Profile, q: Profile, granularity: str = "block"
) -> float:
    """Total-variation distance between instruction-weight
    distributions; 0 for proportionally identical profiles, 1 for
    disjoint ones.  Symmetric.
    """
    _check_same_binary(p, q)
    return 0.5 * float(
        np.abs(_weights(p, granularity) - _weights(q, granularity)).sum()
    )


def hotset(profile: Profile, k: int = 64) -> Set[int]:
    """The (at most) ``k`` hottest block ids by instruction weight."""
    weights = _block_weights(profile)
    top = np.argsort(-weights, kind="stable")[:k]
    return {int(b) for b in top if weights[b] > 0}


def hotset_overlap(p: Profile, q: Profile, k: int = 64) -> float:
    """Jaccard overlap of the two profiles' top-``k`` hot sets.

    1.0 when the hot sets coincide (including both empty), 0.0 when
    disjoint.
    """
    _check_same_binary(p, q)
    a, b = hotset(p, k), hotset(q, k)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def edge_divergence(p: Profile, q: Profile) -> float:
    """Total-variation distance between normalized edge-count
    distributions.

    When either profile has no edge counts (plain DCPI sampling),
    falls back to block-level :func:`weighted_divergence` so the
    signal degrades rather than disappears.
    """
    _check_same_binary(p, q)
    if not p.edge_counts or not q.edge_counts:
        return weighted_divergence(p, q, granularity="block")
    edges = set(p.edge_counts) | set(q.edge_counts)
    pw = np.array([p.edge_counts.get(e, 0) for e in edges], dtype=np.float64)
    qw = np.array([q.edge_counts.get(e, 0) for e in edges], dtype=np.float64)
    pt, qt = pw.sum(), qw.sum()
    if pt > 0:
        pw /= pt
    if qt > 0:
        qw /= qt
    return 0.5 * float(np.abs(pw - qw).sum())


def drift_score(p: Profile, q: Profile, top_k: int = 64) -> float:
    """Combined drift score in ``[0, 1]``.

    An even blend of procedure-level divergence (the high
    signal-to-noise phase signal), hot-set turnover, and edge
    divergence (the chaining-quality proxy).  On the phased OLTP
    workload the stationary sampling-noise floor sits around 0.15 and
    a genuine TPC-B → DSS mix shift scores 0.55–0.65.
    """
    proc = weighted_divergence(p, q, granularity="proc")
    turnover = 1.0 - hotset_overlap(p, q, k=top_k)
    edge = edge_divergence(p, q)
    return (proc + turnover + edge) / 3.0


def drifted_procedures(
    p: Profile, q: Profile, coverage: float = 0.9
) -> List[str]:
    """Procedures responsible for the bulk of the weight shift.

    Ranks procedures by absolute instruction-weight change between the
    two profiles and returns the smallest prefix covering ``coverage``
    of the total change — the set worth re-laying-out incrementally.
    """
    _check_same_binary(p, q)
    if not 0.0 < coverage <= 1.0:
        raise ProfileError(f"coverage must be in (0, 1], got {coverage}")
    delta = np.abs(_weights(p, "proc") - _weights(q, "proc"))
    total = delta.sum()
    if total <= 0:
        return []
    order = np.argsort(-delta, kind="stable")
    names = p.binary.proc_order()
    picked: List[str] = []
    covered = 0.0
    for i in order:
        if delta[i] <= 0:
            break
        picked.append(names[int(i)])
        covered += delta[i]
        if covered >= coverage * total:
            break
    return picked


def refresh_score(p: Profile, q: Profile) -> float:
    """Drift score for the *refresh* (residual-drift) comparison.

    Averages procedure-level and edge divergence only.  Hot-set
    turnover is deliberately excluded: the tail of a top-K hot set
    churns under sampling noise (Jaccard turnover floor ~0.2-0.3),
    which would drown the residual-drift signal this comparison
    exists to catch (~0.18-0.32 on the phased OLTP workload, against
    a proc+edge noise floor of ~0.10-0.13).
    """
    proc = weighted_divergence(p, q, granularity="proc")
    edge = edge_divergence(p, q)
    return (proc + edge) / 2.0


@dataclass
class DriftReport:
    """What the detector saw at one epoch boundary."""

    score: float
    proc_divergence: float
    hotset_turnover: float
    edge_divergence: float
    drifted: bool
    refresh: bool
    refresh_score: float = 0.0

    @property
    def fired(self) -> bool:
        """True when either level fired (a re-layout should happen)."""
        return self.drifted or self.refresh


class DriftDetector:
    """Compares live epoch profiles against the profile the current
    layout was trained on.

    Two firing levels:

    - ``score(live, reference) > threshold`` — a phase shift; the
      caller should retrain from the live profile alone and
      :meth:`rebase` onto it.
    - otherwise, ``refresh_score(accumulated, reference) >
      refresh_threshold`` where *accumulated* merges every live
      profile seen since the last rebase — residual drift.  A layout
      trained on a transition epoch (half old mix, half new) scores
      below the drift threshold against a pure new-mix epoch, but the
      accumulated evidence crosses the refresh bar within an epoch;
      retraining from the accumulation also rides the extra samples
      to a better layout.
    """

    def __init__(
        self,
        reference: Profile,
        threshold: float = 0.40,
        refresh_threshold: float = 0.16,
        top_k: int = 64,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ProfileError(f"threshold must be in (0, 1], got {threshold}")
        if not 0.0 < refresh_threshold <= threshold:
            raise ProfileError(
                "refresh_threshold must be in (0, threshold], got "
                f"{refresh_threshold} (threshold={threshold})"
            )
        self.reference = reference
        self.threshold = threshold
        self.refresh_threshold = refresh_threshold
        self.top_k = top_k
        self._accumulated: Optional[Profile] = None

    def observe(self, live: Profile) -> DriftReport:
        """Score one epoch's live profile against the reference."""
        _check_same_binary(self.reference, live)
        proc = weighted_divergence(self.reference, live, granularity="proc")
        turnover = 1.0 - hotset_overlap(self.reference, live, k=self.top_k)
        edge = edge_divergence(self.reference, live)
        score = (proc + turnover + edge) / 3.0
        drifted = score > self.threshold
        refresh = False
        acc_score = 0.0
        if not drifted:
            self._accumulate(live)
            acc_score = refresh_score(self.reference, self._accumulated)
            refresh = acc_score > self.refresh_threshold
        return DriftReport(
            score=score,
            proc_divergence=proc,
            hotset_turnover=turnover,
            edge_divergence=edge,
            drifted=drifted,
            refresh=refresh,
            refresh_score=acc_score,
        )

    def _accumulate(self, live: Profile) -> None:
        if self._accumulated is None:
            self._accumulated = Profile(live.binary)
        self._accumulated.merge(live)

    @property
    def accumulated(self) -> Optional[Profile]:
        """Merged live profiles since the last rebase (or None)."""
        return self._accumulated

    def rebase(self, reference: Profile) -> None:
        """Adopt a new reference (after a re-layout) and restart the
        accumulation window."""
        _check_same_binary(self.reference, reference)
        self.reference = reference
        self._accumulated = None
