"""Code layout: placing code units in the address space.

A :class:`Layout` is an ordered list of :class:`CodeUnit` (whole
procedures, or segments produced by fine-grain splitting), each an
ordered list of block ids.  :func:`assign_addresses` turns a layout
into an :class:`AddressMap`, applying the classic branch fixups:

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

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LayoutError
from repro.ir.binary import Binary
from repro.ir.instruction import INSTRUCTION_BYTES, Terminator


@dataclass(frozen=True)
class CodeUnit:
    """An independently placeable run of blocks.

    For an unsplit binary a unit is a whole procedure; after fine-grain
    splitting each segment is its own unit.  ``is_entry`` marks the unit
    containing the owning procedure's entry block.
    """

    name: str
    proc_name: str
    block_ids: Tuple[int, ...]
    is_entry: bool = True
    #: Extra padding bytes inserted before this unit (after alignment);
    #: used by the CFA layout to steer code away from reserved cache sets.
    pad_before: int = 0

    def __post_init__(self) -> None:
        if not self.block_ids:
            raise LayoutError(f"code unit {self.name!r} has no blocks")
        if self.pad_before < 0:
            raise LayoutError(f"code unit {self.name!r}: negative padding")

    def with_pad(self, pad_before: int) -> "CodeUnit":
        """Copy of this unit with different leading padding."""
        return CodeUnit(
            name=self.name,
            proc_name=self.proc_name,
            block_ids=self.block_ids,
            is_entry=self.is_entry,
            pad_before=pad_before,
        )


@dataclass
class Layout:
    """An ordered placement of code units.

    Attributes:
        units: Units in address order.
        alignment: Byte alignment of each unit's start address.
        name: Label for reports ("base", "chain+porder", ...).
    """

    units: List[CodeUnit]
    alignment: int = 16
    name: str = "layout"

    def block_order(self) -> List[int]:
        """All block ids in placement order."""
        return flatten_units(self.units)[0].tolist()

    def validate_against(self, binary: Binary) -> None:
        """Check the layout places every block of the binary exactly once."""
        _check_permutation(self, flatten_units(self.units)[0], binary.num_blocks)


def flatten_units(units: Sequence[CodeUnit]) -> Tuple[np.ndarray, np.ndarray]:
    """``(ids, starts)``: the units' block ids concatenated in placement
    order, and the position in ``ids`` where each unit begins."""
    lengths = [len(u.block_ids) for u in units]
    ids = np.fromiter(
        chain.from_iterable(u.block_ids for u in units), dtype=np.int64, count=sum(lengths)
    )
    return ids, np.cumsum([0] + lengths, dtype=np.int64)[:-1]


def _check_permutation(layout: "Layout", ids: np.ndarray, num_blocks: int) -> None:
    if len(ids) != num_blocks or not np.array_equal(np.sort(ids), np.arange(num_blocks)):
        foreign = ids[(ids < 0) | (ids >= num_blocks)]
        raise LayoutError(
            f"layout {layout.name!r} places {len(np.unique(ids))} distinct blocks"
            + (f", among them block id {int(foreign[0])}" if len(foreign) else "")
            + f"; binary has {num_blocks}"
        )


def unit_sizes_and_heat(
    binary: Binary, units: Sequence[CodeUnit], block_counts
) -> Tuple[List[int], List[float]]:
    """Per-unit byte size and dynamic heat (executed instructions); heat
    is the exact integer sum of ``count * size``, converted to float."""
    ids, starts = flatten_units(units)
    sizes = binary.table.size[ids]
    counts = np.asarray(block_counts)[ids].astype(np.int64)
    unit_sizes = np.add.reduceat(sizes, starts) * INSTRUCTION_BYTES
    unit_heat = np.add.reduceat(counts * sizes, starts).astype(np.float64)
    return unit_sizes.tolist(), unit_heat.tolist()


def baseline_layout(binary: Binary, alignment: int = 16) -> Layout:
    """The original image layout: procedures in link order, blocks in
    source order -- one unit per procedure."""
    units = [
        CodeUnit(
            name=name,
            proc_name=name,
            block_ids=tuple(binary.proc(name).block_ids()),
            is_entry=True,
        )
        for name in binary.proc_order()
    ]
    return Layout(units=units, alignment=alignment, name="base")


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
        self.unit_starts: Dict[str, int] = {}

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
    ids, starts = flatten_units(layout.units)
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
        padded = np.array([u.pad_before != 0 for u in layout.units[1:]], dtype=bool)
        nxt[ends[:-1][padded]] = -2
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
    for unit, nbytes in zip(layout.units, np.diff(offset[ends], prepend=0).tolist()):
        cursor += unit.pad_before
        rem = cursor % align
        if rem:
            cursor += align - rem
        amap.unit_starts[unit.name] = cursor
        unit_start.append(cursor)
        cursor += nbytes
    amap.addr[ids] = before + np.repeat(
        np.array(unit_start, dtype=np.int64) - before[starts], np.diff(ends, prepend=-1)
    )
    amap.total_bytes = cursor
    return amap
