"""Post-pass structural assertions for the layout pipeline.

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
from typing import Sequence

from repro.errors import LayoutError
from repro.ir import SEGMENT_ENDING, Binary, CodeUnit
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


def verify_split_units(binary: Binary, proc_name: str, units: Sequence[CodeUnit]) -> None:
    """Splitting contract: the segments partition the procedure's
    blocks, no segment continues past an unconditional transfer, and
    exactly one segment (containing the entry block) is the entry unit."""
    proc = binary.proc(proc_name)
    expected = Counter(b.bid for b in proc.blocks)
    got = Counter(bid for unit in units for bid in unit.block_ids)
    if expected != got:
        raise LayoutError(
            f"splitting of {proc_name!r} is not a partition of its blocks: "
            f"{_report_multiset_diff('block ids', expected, got)}"
        )
    entry_units = []
    for unit in units:
        for bid in unit.block_ids[:-1]:
            if binary.block(bid).terminator in SEGMENT_ENDING:
                raise LayoutError(
                    f"segment {unit.name} continues past unconditional "
                    f"transfer at block {bid}"
                )
        if unit.is_entry:
            entry_units.append(unit)
    if len(entry_units) != 1 or proc.entry.bid not in entry_units[0].block_ids:
        raise LayoutError(
            f"splitting of {proc_name!r}: expected exactly one entry segment "
            f"containing block {proc.entry.bid}, got "
            f"{[u.name for u in entry_units]}"
        )


def verify_unit_permutation(
    before: Sequence[CodeUnit], after: Sequence[CodeUnit]
) -> None:
    """Ordering contract: the pass reorders units, never invents,
    drops, duplicates, or rewrites one."""
    expected = Counter(u.name for u in before)
    got = Counter(u.name for u in after)
    if expected != got:
        raise LayoutError(
            "ordering did not return a permutation of its input units: "
            f"{_report_multiset_diff('units', expected, got)}"
        )
    originals = {u.name: u for u in before}
    for unit in after:
        if unit.block_ids != originals[unit.name].block_ids:
            raise LayoutError(
                f"ordering rewrote the contents of unit {unit.name}"
            )
