"""Post-pass structural contracts of the layout pipeline.

Each layout pass has a simple algebraic contract: chaining *permutes* a
procedure's blocks, splitting *partitions* a chaining into legal
segments, ordering *permutes* the unit set.  These verifiers check
exactly that contract and raise :class:`~repro.errors.LayoutError`
immediately at the offending pass -- far cheaper to debug than the same
corruption surfacing as a wrong cache figure three passes later.  The
passes do not call them: the contracts hold by construction, and
running them on every build makes layout construction about 1.5x
slower.  They are the reference the contract tests hold every pass of
every combo to; the layout gate (:func:`repro.check.check_all`) checks
each finished layout.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.errors import LayoutError
from repro.ir import SEGMENT_ENDING, Binary, Layout
from repro.ir.procedure import Procedure


def _report_multiset_diff(kind: str, expected: Counter, got: Counter) -> str:
    missing = sorted((expected - got).elements())
    extra = sorted((got - expected).elements())
    parts = []
    if missing:
        parts.append(f"missing {kind}: {missing[:8]}")
    if extra:
        parts.append(f"unexpected {kind}: {extra[:8]}")
    return "; ".join(parts)


def verify_chaining(proc: Procedure, result) -> None:
    """Chaining contract: the chains are a permutation of the
    procedure's blocks and the entry block leads the first chain."""
    expected = Counter(b.bid for b in proc.blocks)
    got = Counter(result.block_order)
    if expected != got:
        raise LayoutError(
            f"chaining of {proc.name!r} is not a permutation of its blocks: "
            f"{_report_multiset_diff('block ids', expected, got)}"
        )
    if not result.chains or proc.entry.bid not in result.chains[0]:
        raise LayoutError(
            f"chaining of {proc.name!r}: entry block {proc.entry.bid} is not "
            f"in the first chain"
        )


def verify_split_units(binary: Binary, layout: Layout) -> None:
    """Splitting contract: the segments partition the binary's blocks,
    each procedure's segments hold only its blocks and are numbered
    ``0, 1, ...`` in order, and no segment continues past an
    unconditional transfer."""
    expected = Counter(range(binary.num_blocks))
    got = Counter(layout.ids.tolist())
    if expected != got:
        raise LayoutError(
            f"splitting of {binary.name!r} is not a partition of its blocks: "
            f"{_report_multiset_diff('block ids', expected, got)}"
        )
    owner = layout.proc[layout.position_unit]
    for pos in np.flatnonzero(binary.table.proc[layout.ids] != owner)[:1].tolist():
        raise LayoutError(f"a segment holds foreign block {int(layout.ids[pos])}")
    first = np.flatnonzero(np.diff(layout.proc, prepend=-1))
    numbering = np.arange(layout.num_units) - np.repeat(first, np.diff(first, append=layout.num_units))
    if not np.array_equal(layout.kind, numbering):
        raise LayoutError("segments are not numbered 0, 1, ... per procedure")
    seg_end = binary.table.is_term(*SEGMENT_ENDING)[layout.ids]
    seg_end[layout.starts + layout.lengths - 1] = False
    for pos in np.flatnonzero(seg_end)[:1].tolist():
        u = int(layout.position_unit[pos])
        raise LayoutError(
            f"segment {layout.unit_name(u)} continues past unconditional "
            f"transfer at block {int(layout.ids[pos])}"
        )


def verify_unit_permutation(before: Layout, after: Layout) -> None:
    """Ordering contract: the pass reorders units, never invents,
    drops, duplicates, or rewrites one."""
    expected = Counter(before.names())
    got = Counter(after.names())
    if expected != got:
        raise LayoutError(
            "ordering did not return a permutation of its input units: "
            f"{_report_multiset_diff('units', expected, got)}"
        )
    originals = {name: u for u, name in enumerate(before.names())}
    for u, name in enumerate(after.names()):
        if not np.array_equal(after.blocks(u), before.blocks(originals[name])):
            raise LayoutError(f"ordering rewrote the contents of unit {name}")
