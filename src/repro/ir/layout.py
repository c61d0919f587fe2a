"""Code layout: placing code units in the address space.

A :class:`Layout` is a block order cut into code units (whole
procedures, fine-grain segments or hot/cold halves), held as arrays.
:func:`assign_addresses` turns a layout into an :class:`AddressMap`,
applying the classic branch fixups:

* a conditional branch whose *taken* target became the adjacent block is
  inverted (polarity swap, no size change);
* a conditional branch with neither successor adjacent gets an
  unconditional branch appended (+1 instruction);
* a fallthrough/call whose continuation is not adjacent gets an
  unconditional branch appended (+1 instruction);
* an unconditional branch whose target became adjacent is deleted
  (-1 instruction; a branch-only block vanishes entirely).

These fixups are why chaining actually shortens the dynamic path and
lengthens sequential runs -- they are the mechanism behind the paper's
Figure 8.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LayoutError
from repro.ir.binary import Binary
from repro.ir.instruction import INSTRUCTION_BYTES, Terminator

#: :attr:`Layout.kind` of a whole procedure and of the two halves of a
#: hot/cold split; a fine-grain segment's kind is its index ``k >= 0``
#: within its procedure.
WHOLE, HOT, COLD = -1, -2, -3
#: Unit-name suffix of each non-segment kind (a segment's is ``.seg<k>``).
KIND_SUFFIX = {WHOLE: "", HOT: ".hot", COLD: ".cold"}


def unit_suffix(kind: int) -> str:
    """The unit-name suffix of one kind."""
    return KIND_SUFFIX[kind] if kind < 0 else f".seg{kind}"


def suffix_kind(suffix: str) -> Optional[int]:
    """The kind a unit-name suffix spells, or None if it spells none."""
    digits = suffix[4:]
    if suffix.startswith(".seg") and digits.isascii() and digits.isdigit():
        return int(digits) if str(int(digits)) == digits else None
    return next((kind for kind, known in KIND_SUFFIX.items() if known == suffix), None)


@dataclass(frozen=True, eq=False)
class Layout:
    """Code units in address order, as read-only int64 arrays: ``ids``
    (the block order), ``starts`` (where each unit begins in ``ids``) and
    per unit ``proc`` (index into ``procs``, the binary's procedure
    names), ``kind`` (:data:`WHOLE`, :data:`HOT`, :data:`COLD` or a
    segment index) and ``pad`` (bytes before the unit, after alignment).
    Unit names (``p``, ``p.seg<k>``, ``p.hot``, ``p.cold``) and entry
    flags are derived, so a layout pickles without its binary.
    ``alignment`` aligns each unit start; ``name`` labels reports."""

    procs: Tuple[str, ...]
    ids: np.ndarray
    starts: np.ndarray
    proc: np.ndarray
    kind: np.ndarray
    pad: Optional[np.ndarray] = None
    alignment: int = 16
    name: str = "layout"

    def __post_init__(self) -> None:
        pad = np.zeros(len(self.starts)) if self.pad is None else self.pad
        for field, value in zip(
            ("ids", "starts", "proc", "kind", "pad"),
            (self.ids, self.starts, self.proc, self.kind, pad),
        ):
            array = np.array(value, dtype=np.int64)
            array.flags.writeable = False
            object.__setattr__(self, field, array)
        units = len(self.starts)
        if (
            not len(self.proc) == len(self.kind) == len(self.pad) == units
            or ((self.proc < 0) | (self.proc >= len(self.procs))).any()
            or (self.starts[:1] != 0).any()
            or (len(self.ids) and not units)
        ):
            raise LayoutError(f"layout {self.name!r}: inconsistent unit arrays")
        for u in np.flatnonzero((self.lengths <= 0) | (self.pad < 0))[:1].tolist():
            problem = "has no blocks" if self.lengths[u] <= 0 else "has negative padding"
            raise LayoutError(f"code unit {self.unit_name(u)!r} {problem}")

    def __reduce__(self):
        # Unpickled arrays are rebuilt through the checks, read-only.
        return Layout, tuple(getattr(self, f.name) for f in dataclasses.fields(self))

    @property
    def num_units(self) -> int:
        return len(self.starts)

    @property
    def lengths(self) -> np.ndarray:
        """Blocks per unit."""
        return np.diff(self.starts, append=len(self.ids))

    @property
    def position_unit(self) -> np.ndarray:
        """The unit holding each position of ``ids``."""
        return np.repeat(np.arange(self.num_units), self.lengths)

    def blocks(self, u: int) -> np.ndarray:
        """Block ids of unit ``u`` in placement order."""
        return self.ids[self.starts[u]:self.starts[u] + self.lengths[u]]

    def unit_name(self, u: int) -> str:
        return self.procs[self.proc[u]] + unit_suffix(int(self.kind[u]))

    def names(self) -> List[str]:
        """Every unit's name, in unit order."""
        procs, kinds = self.procs, self.kind.tolist()
        suffix = {kind: unit_suffix(kind) for kind in set(kinds)}
        return [procs[p] + suffix[k] for p, k in zip(self.proc.tolist(), kinds)]

    def is_entry(self) -> np.ndarray:
        """Per unit: does it hold its procedure's entry block?  The entry
        is a procedure's first source block, which has its lowest id."""
        if not self.num_units:
            return np.zeros(0, dtype=bool)
        first = np.minimum.reduceat(self.ids, self.starts)
        lowest = np.full(len(self.procs), np.iinfo(np.int64).max)
        np.minimum.at(lowest, self.proc, first)
        return first == lowest[self.proc]

    def validate_against(self, binary: Binary) -> None:
        """Check the layout names the binary's procedures and places
        every block of the binary exactly once."""
        if self.procs != binary.table.names:
            raise LayoutError(
                f"layout {self.name!r} was built for a different binary than "
                f"{binary.name!r}"
            )
        _check_permutation(self, self.ids, binary.num_blocks)

    def permuted(self, order: Sequence[int], **changes) -> "Layout":
        """The units reordered to ``order`` (a permutation of the unit
        indexes), with any other field replaced by ``changes``."""
        order = np.asarray(order, dtype=np.int64)
        if not np.array_equal(np.sort(order), np.arange(self.num_units)):
            raise LayoutError(f"layout {self.name!r}: unit order is not a permutation")
        lengths = self.lengths[order]
        fields = dict(
            ids=self.ids[run_positions(self.starts, self.lengths, order)],
            starts=np.cumsum(lengths) - lengths, proc=self.proc[order],
            kind=self.kind[order], pad=self.pad[order],
        )
        fields.update(changes)
        return dataclasses.replace(self, **fields)


def run_positions(starts: np.ndarray, lengths: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Positions of the runs ``starts[i]:starts[i] + lengths[i]`` of a
    flat array, concatenated in ``order``."""
    lengths = lengths[order]
    return np.repeat(starts[order] - (np.cumsum(lengths) - lengths), lengths) + np.arange(
        lengths.sum()
    )


def _check_permutation(layout: "Layout", ids: np.ndarray, num_blocks: int) -> None:
    if len(ids) != num_blocks or not np.array_equal(np.sort(ids), np.arange(num_blocks)):
        foreign = ids[(ids < 0) | (ids >= num_blocks)]
        raise LayoutError(
            f"layout {layout.name!r} places {len(np.unique(ids))} distinct blocks"
            + (f", among them block id {int(foreign[0])}" if len(foreign) else "")
            + f"; binary has {num_blocks}"
        )


def unit_sizes_and_heat(
    binary: Binary, layout: Layout, block_counts
) -> Tuple[List[int], List[float]]:
    """Per-unit byte size and dynamic heat (executed instructions); heat
    is the exact integer sum of ``count * size``, converted to float."""
    ids, starts = layout.ids, layout.starts
    sizes = binary.table.size[ids]
    counts = np.asarray(block_counts)[ids].astype(np.int64)
    unit_sizes = np.add.reduceat(sizes, starts) * INSTRUCTION_BYTES
    unit_heat = np.add.reduceat(counts * sizes, starts).astype(np.float64)
    return unit_sizes.tolist(), unit_heat.tolist()


def procedure_layout(
    binary: Binary, ids: np.ndarray, alignment: int = 16, name: str = "base"
) -> Layout:
    """One unit per procedure, in link order; ``ids`` holds each
    procedure's blocks together, procedures in link order."""
    table = binary.table
    return Layout(
        procs=table.names,
        ids=ids,
        starts=np.flatnonzero(np.diff(table.proc, prepend=-1)),
        proc=np.arange(len(table.names)),
        kind=np.full(len(table.names), WHOLE),
        alignment=alignment,
        name=name,
    )


def baseline_layout(binary: Binary, alignment: int = 16) -> Layout:
    """The original image layout: procedures in link order, blocks in
    source order -- one unit per procedure."""
    return procedure_layout(binary, np.arange(binary.num_blocks), alignment, "base")


class AddressMap:
    """Block placement produced by :func:`assign_addresses`.

    Flat numpy arrays indexed by global block id:

    * ``addr``: byte address of the block's first instruction.
    * ``n_fetch``: instructions fetched when the block executes and
      control leaves via any path other than an inverted/taken special
      case (includes appended fixup branches, excludes deleted ones).
    * ``taken_succ`` / ``n_fetch_taken``: for conditional blocks where
      the taken path fetches a different count (e.g. a cond branch with
      an appended unconditional branch: the taken path skips the
      appended branch), ``taken_succ[b]`` is the successor id and
      ``n_fetch_taken[b]`` the count; -1 elsewhere.

    ``fetched(bid, next_bid)`` and the vectorized helpers derive
    per-transition fetch spans for trace replay.
    """

    def __init__(self, binary: Binary, layout: Layout) -> None:
        self.binary = binary
        self.layout = layout
        n = binary.num_blocks
        self.addr = np.zeros(n, dtype=np.int64)
        self.n_fetch = np.zeros(n, dtype=np.int32)
        self.taken_succ = np.full(n, -1, dtype=np.int64)
        self.n_fetch_taken = np.full(n, -1, dtype=np.int32)
        #: Polarity inversions applied (block ids) -- informational.
        self.inverted: set = set()
        #: Unconditional branches deleted / appended (block ids).
        self.deleted_branches: set = set()
        self.appended_branches: set = set()
        self.total_bytes = 0
        #: Byte address of each unit's start, in unit order.
        self.unit_starts = np.zeros(layout.num_units, dtype=np.int64)

    def end_addr(self, bid: int) -> int:
        """Byte address one past the block's placed footprint."""
        return int(self.addr[bid]) + int(self.n_fetch[bid]) * INSTRUCTION_BYTES

    def fetched(self, bid: int, next_bid: Optional[int]) -> int:
        """Instructions fetched executing ``bid`` then going to ``next_bid``."""
        if next_bid is not None and next_bid == self.taken_succ[bid]:
            return int(self.n_fetch_taken[bid])
        return int(self.n_fetch[bid])

    def is_sequential(self, bid: int, next_bid: int) -> bool:
        """True when the transition ``bid -> next_bid`` does not break
        the sequential instruction stream."""
        fetched = self.fetched(bid, next_bid)
        return int(self.addr[next_bid]) == int(self.addr[bid]) + fetched * INSTRUCTION_BYTES

    def fetch_counts(self, blocks: np.ndarray) -> np.ndarray:
        """Instructions fetched per trace entry (vectorized
        :meth:`fetched` over a whole block trace)."""
        return trace_fetch_counts(
            self.n_fetch, self.taken_succ, self.n_fetch_taken, blocks
        )

    def expand_spans(self, blocks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(start_address, instruction_count) per trace entry."""
        return self.addr[blocks], self.fetch_counts(blocks)


def trace_fetch_counts(
    n_fetch: np.ndarray,
    taken_succ: np.ndarray,
    n_fetch_taken: np.ndarray,
    blocks: np.ndarray,
) -> np.ndarray:
    """Instructions fetched per entry of a block trace.

    The default span of block ``b`` is ``n_fetch[b]``; when the trace's
    next block is ``b``'s recorded taken successor, the taken-path span
    ``n_fetch_taken[b]`` applies instead (e.g. the taken path skips an
    appended fall-through branch).  Shared by :class:`AddressMap` and
    the execution layer's combined app+kernel map.
    """
    counts = n_fetch[blocks].astype(np.int64)
    if len(blocks) >= 2:
        special = taken_succ[blocks[:-1]] == blocks[1:]
        if special.any():
            idx = np.nonzero(special)[0]
            counts[idx] = n_fetch_taken[blocks[idx]]
    return counts


def assign_addresses(binary: Binary, layout: Layout) -> AddressMap:
    """Place a layout in the address space, applying branch fixups.

    When the layout packs units densely (alignment == instruction
    width, no padding), branch fixups also apply across unit
    boundaries: a segment-terminal branch to the very next segment is
    deleted, exactly as a final optimizer pass would do.  Fixups are
    array code over the binary's block table; only unit starts (padding,
    alignment) are walked unit by unit.
    """
    table = binary.table
    ids, starts = layout.ids, layout.starts
    _check_permutation(layout, ids, binary.num_blocks)
    amap = AddressMap(binary, layout)
    if not len(ids):
        return amap
    align = max(layout.alignment, INSTRUCTION_BYTES)

    # The block placed next after each position; -2 past a unit's end,
    # unless the layout packs densely and the next unit is unpadded.
    nxt = np.append(ids[1:], -2)
    ends = np.append(starts[1:], len(ids)) - 1
    if align == INSTRUCTION_BYTES:
        nxt[ends[:-1][layout.pad[1:] != 0]] = -2
    else:
        nxt[ends] = -2

    size, succ0, succ1 = table.size[ids], table.succ0[ids], table.succ1[ids]
    cond = table.is_term(Terminator.COND_BRANCH)[ids]
    inverted = cond & (succ1 != nxt) & (succ0 == nxt)
    far = cond & (succ1 != nxt) & (succ0 != nxt)
    falls = table.is_term(Terminator.FALLTHROUGH, Terminator.CALL)[ids]
    appended = (falls & (succ0 != nxt)) | far
    # Every block holds >= 1 instruction, so its branch can always go.
    deleted = table.is_term(Terminator.UNCOND_BRANCH)[ids] & (succ0 == nxt)
    n_fetch = size + appended - deleted
    amap.n_fetch[ids] = n_fetch
    taken = inverted | far
    amap.taken_succ[ids[taken]] = np.where(inverted, succ1, succ0)[taken]
    amap.n_fetch_taken[ids[taken]] = size[taken]
    amap.inverted = set(ids[inverted].tolist())
    amap.appended_branches = set(ids[appended].tolist())
    amap.deleted_branches = set(ids[deleted].tolist())

    # A block reduced to zero instructions (branch-only block whose
    # branch was deleted) occupies no bytes; its address aliases the
    # next block, which is exactly the fall-into behaviour we want.
    offset = np.cumsum(n_fetch * INSTRUCTION_BYTES)
    before = offset - n_fetch * INSTRUCTION_BYTES
    unit_start = []
    cursor = 0
    for pad, nbytes in zip(layout.pad.tolist(), np.diff(offset[ends], prepend=0).tolist()):
        cursor += pad
        rem = cursor % align
        if rem:
            cursor += align - rem
        unit_start.append(cursor)
        cursor += nbytes
    amap.unit_starts = np.array(unit_start, dtype=np.int64)
    amap.addr[ids] = before + np.repeat(
        amap.unit_starts - before[starts], np.diff(ends, prepend=-1)
    )
    amap.total_bytes = cursor
    return amap
