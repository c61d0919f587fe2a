"""Reference layout passes: the oracle for the array ``Layout``.

The ``CodeUnit`` path that the array :class:`repro.ir.Layout` replaced,
kept apart from its ``obs`` counters: a layout is a list of frozen
:class:`CodeUnit` records keyed by name, each pass builds or reorders
those records, the unit call graph is keyed by unit name, and placement
flattens the units back into arrays.  Chaining is shared with the
production code (this path never changed it), and ordering is
:func:`tests.ordering_reference.order_units`.  The differential tests in
``tests/test_layout_oracle.py`` require the production passes to give
the same :func:`layout_to_dict` document and the same placement.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict, defaultdict
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import LayoutError
from repro.harness import store
from repro.ir import (
    INSTRUCTION_BYTES,
    SEGMENT_ENDING,
    Binary,
    Layout,
    Terminator,
)
from tests import ordering_reference


@dataclass(frozen=True)
class CodeUnit:
    """An independently placeable run of blocks."""

    name: str
    proc_name: str
    block_ids: Tuple[int, ...]
    is_entry: bool = True
    pad_before: int = 0

    def __post_init__(self) -> None:
        if not self.block_ids:
            raise LayoutError(f"code unit {self.name!r} has no blocks")
        if self.pad_before < 0:
            raise LayoutError(f"code unit {self.name!r}: negative padding")

    def with_pad(self, pad_before: int) -> "CodeUnit":
        return CodeUnit(self.name, self.proc_name, self.block_ids, self.is_entry, pad_before)


@dataclass
class UnitLayout:
    """An ordered placement of code units."""

    units: List[CodeUnit]
    alignment: int = 16
    name: str = "layout"


def to_units(layout: Layout) -> List[CodeUnit]:
    """A production layout's units (as its codec spells them out)."""
    return [
        CodeUnit(**dict(unit, block_ids=tuple(unit["block_ids"])))
        for unit in store.layout_to_dict(layout)["units"]
    ]


def layout_to_dict(layout: UnitLayout) -> Dict:
    """The codec's document of a reference layout."""
    return {
        "name": layout.name,
        "alignment": layout.alignment,
        "units": [
            {
                "name": unit.name,
                "proc_name": unit.proc_name,
                "block_ids": list(unit.block_ids),
                "is_entry": unit.is_entry,
                "pad_before": unit.pad_before,
            }
            for unit in layout.units
        ],
    }


def flatten_units(units: Sequence[CodeUnit]) -> Tuple[np.ndarray, np.ndarray]:
    lengths = [len(u.block_ids) for u in units]
    ids = np.fromiter(
        chain.from_iterable(u.block_ids for u in units), dtype=np.int64, count=sum(lengths)
    )
    return ids, np.cumsum([0] + lengths, dtype=np.int64)[:-1]


def unit_sizes_and_heat(binary: Binary, units, block_counts):
    ids, starts = flatten_units(units)
    sizes = binary.table.size[ids]
    counts = np.asarray(block_counts)[ids].astype(np.int64)
    unit_sizes = np.add.reduceat(sizes, starts) * INSTRUCTION_BYTES
    unit_heat = np.add.reduceat(counts * sizes, starts).astype(np.float64)
    return unit_sizes.tolist(), unit_heat.tolist()


# -- building units ----------------------------------------------------------


def proc_units(binary: Binary, orders: Optional[Mapping[str, Sequence[int]]] = None):
    """One unit per procedure: source order, or ``orders[name]``."""
    return [
        CodeUnit(
            name=name,
            proc_name=name,
            block_ids=tuple(orders[name] if orders else binary.proc(name).block_ids()),
        )
        for name in binary.proc_order()
    ]


def split_chains(binary: Binary, chaining) -> List[CodeUnit]:
    entry_bid = binary.proc(chaining.proc_name).entry.bid
    units: List[CodeUnit] = []
    for chain_ in chaining.chains:
        segment: List[int] = []
        for bid in chain_:
            segment.append(bid)
            if binary.block(bid).terminator in SEGMENT_ENDING:
                units.append(_make_unit(chaining.proc_name, len(units), segment, entry_bid))
                segment = []
        if segment:
            units.append(_make_unit(chaining.proc_name, len(units), segment, entry_bid))
    return units


def split_procedure_source_order(binary: Binary, proc_name: str) -> List[CodeUnit]:
    proc = binary.proc(proc_name)
    units: List[CodeUnit] = []
    segment: List[int] = []
    for block in proc.blocks:
        segment.append(block.bid)
        if block.terminator in SEGMENT_ENDING:
            units.append(_make_unit(proc_name, len(units), segment, proc.entry.bid))
            segment = []
    if segment:
        units.append(_make_unit(proc_name, len(units), segment, proc.entry.bid))
    return units


def _make_unit(proc_name, index, segment, entry_bid) -> CodeUnit:
    return CodeUnit(
        name=f"{proc_name}.seg{index}",
        proc_name=proc_name,
        block_ids=tuple(segment),
        is_entry=entry_bid in segment,
    )


def split_hot_cold(binary, proc_name, block_counts, block_order=None, threshold=0.0):
    proc = binary.proc(proc_name)
    order = list(block_order) if block_order is not None else proc.block_ids()
    cutoff = threshold * float(block_counts[proc.entry.bid])
    hot = [b for b in order if float(block_counts[b]) > cutoff]
    cold = [b for b in order if float(block_counts[b]) <= cutoff]
    if proc.entry.bid not in hot:
        hot.insert(0, proc.entry.bid)
        cold.remove(proc.entry.bid)
    units = [CodeUnit(f"{proc_name}.hot", proc_name, tuple(hot), True)]
    if cold:
        units.append(CodeUnit(f"{proc_name}.cold", proc_name, tuple(cold), False))
    return units


# -- the unit call graph -------------------------------------------------------


class UnitCallGraph:
    """Undirected weighted graph between units, keyed by unit name."""

    def __init__(self, unit_names: Iterable[str]) -> None:
        self.nodes: List[str] = list(unit_names)
        self._index = {name: i for i, name in enumerate(self.nodes)}
        if len(self._index) != len(self.nodes):
            raise LayoutError("duplicate unit names in call graph")
        self._weights: Dict[Tuple[str, str], float] = defaultdict(float)

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def add_weight(self, a: str, b: str, weight: float) -> None:
        if a == b:
            return
        if a not in self._index or b not in self._index:
            raise LayoutError(f"call graph edge references unknown unit: {a!r}/{b!r}")
        if weight:
            self._weights[self._key(a, b)] += weight

    def weight(self, a: str, b: str) -> float:
        return self._weights.get(self._key(a, b), 0.0)

    def edges_by_weight(self) -> List[Tuple[str, str, float]]:
        items = [(a, b, w) for (a, b), w in self._weights.items() if w > 0]
        items.sort(key=lambda e: (-e[2], e[0], e[1]))
        return items


def build_unit_call_graph(binary, units, block_counts, edge_counts=None) -> UnitCallGraph:
    graph = UnitCallGraph(u.name for u in units)
    unit_of_block: Dict[int, str] = {}
    entry_unit_of_proc: Dict[str, str] = {}
    for unit in units:
        for bid in unit.block_ids:
            unit_of_block[bid] = unit.name
        if unit.is_entry:
            entry_unit_of_proc[unit.proc_name] = unit.name
    for unit in units:
        for bid in unit.block_ids:
            block = binary.block(bid)
            if block.terminator is Terminator.CALL:
                callee_entry = entry_unit_of_proc.get(block.call_target)
                if callee_entry is not None:
                    graph.add_weight(unit.name, callee_entry, float(block_counts[bid]))
            for dst in block.succs:
                dst_unit = unit_of_block[dst]
                if dst_unit == unit.name:
                    continue
                if edge_counts is not None and block.terminator is not Terminator.CALL:
                    weight = float(edge_counts.get((bid, dst), 0))
                else:
                    weight = float(block_counts[bid])
                graph.add_weight(unit.name, dst_unit, weight)
    return graph


def order_units(binary, units, graph, block_counts, max_displacement):
    return ordering_reference.order_units(
        binary, units, graph, block_counts, max_displacement=max_displacement
    ).units


# -- the pipelines and the extension passes ------------------------------------


def spike_layout(optimizer, combo: str) -> UnitLayout:
    """``SpikeOptimizer.layout(combo)`` built the reference way, from
    the optimizer's (shared) chainings."""
    binary, profile = optimizer.binary, optimizer.profile
    counts = profile.block_counts
    chainings = optimizer.chainings()
    chained = {name: c.block_order for name, c in chainings.items()}
    proc_a, seg_a = optimizer.proc_alignment, optimizer.segment_alignment

    def ordered(units, alignment, name):
        graph = build_unit_call_graph(
            binary, units, counts, edge_counts=profile.edge_counts or None
        )
        units = order_units(binary, units, graph, counts, optimizer.max_displacement)
        return UnitLayout(units, alignment, name)

    def split(chained_: bool):
        return [
            unit
            for name in binary.proc_order()
            for unit in (
                split_chains(binary, chainings[name]) if chained_
                else split_procedure_source_order(binary, name)
            )
        ]

    if combo == "base":
        return UnitLayout(proc_units(binary), proc_a, "base")
    if combo == "porder":
        return ordered(proc_units(binary), proc_a, combo)
    if combo == "chain":
        return UnitLayout(proc_units(binary, chained), proc_a, combo)
    if combo == "split":
        return UnitLayout(split(False), seg_a, combo)
    if combo == "chain+split":
        return UnitLayout(split(True), seg_a, combo)
    if combo == "chain+porder":
        return ordered(proc_units(binary, chained), proc_a, combo)
    if combo == "all":
        return ordered(split(True), seg_a, combo)
    if combo == "hotcold":
        units = [
            unit
            for name in binary.proc_order()
            for unit in split_hot_cold(binary, name, counts, block_order=chained[name])
        ]
        return ordered(units, seg_a, combo)
    raise LayoutError(f"unknown combo {combo!r}")


def spike_cfa(optimizer, cache_bytes: int, reserved_fraction: float = 0.25):
    """``SpikeOptimizer.cfa`` built the reference way."""
    ordered = spike_layout(optimizer, "all").units
    return cfa_layout(
        optimizer.binary, ordered, optimizer.profile.block_counts,
        cache_bytes=cache_bytes, reserved_fraction=reserved_fraction,
        alignment=max(8, optimizer.segment_alignment),
    )


def cfa_layout(binary, units, block_counts, cache_bytes, reserved_fraction=0.25, alignment=8):
    reserved = int(cache_bytes * reserved_fraction)
    sizes, heat = unit_sizes_and_heat(binary, units, block_counts)
    ranked = sorted(range(len(units)), key=lambda i: (-heat[i], units[i].name))
    hot: List[int] = []
    hot_bytes = 0
    cold: List[int] = []
    for i in ranked:
        if heat[i] > 0 and hot_bytes + sizes[i] <= reserved:
            hot.append(i)
            hot_bytes += sizes[i]
        else:
            cold.append(i)
    placed = [units[i].with_pad(0) for i in hot]
    cursor = hot_bytes
    usable = cache_bytes - reserved
    for i in cold:
        size = sizes[i]
        pad = 0
        offset = cursor % cache_bytes
        if offset < reserved:
            pad = reserved - offset
        elif size <= usable and offset + size > cache_bytes:
            pad = (cache_bytes - offset) + reserved
        placed.append(units[i].with_pad(pad))
        cursor += pad + size
    return UnitLayout(placed, alignment, "cfa")


def color_layout(binary, units, graph, block_counts, cache_bytes=64 * 1024,
                 line_bytes=64, search_lines=64, alignment=16):
    nsets = cache_bytes // line_bytes
    sizes, heat = unit_sizes_and_heat(binary, units, block_counts)
    hot = sorted(
        (i for i, h in enumerate(heat) if h > 0), key=lambda i: (-heat[i], units[i].name)
    )
    cold = [u for u, h in zip(units, heat) if h <= 0]
    placed_sets: Dict[str, Set[int]] = {}
    placed: List[CodeUnit] = []
    cursor = 0

    def sets_for(address: int, nbytes: int) -> Set[int]:
        first = address // line_bytes
        last = (address + max(nbytes, 1) - 1) // line_bytes
        return {line % nsets for line in range(first, last + 1)}

    for i in hot:
        unit, nbytes = units[i], sizes[i]
        neighbors = [
            (placed_sets[other.name], graph.weight(unit.name, other.name))
            for other in placed
            if graph.weight(unit.name, other.name) > 0 and other.name in placed_sets
        ]
        best_offset = 0
        best_cost = None
        for step in range(search_lines):
            address = _align(cursor + step * line_bytes, alignment)
            occupied = sets_for(address, nbytes)
            cost = sum(w * len(occupied & sets_) for sets_, w in neighbors)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_offset = address - cursor
            if cost == 0:
                break
        address = _align(cursor + best_offset, alignment)
        pad = address - cursor
        placed.append(unit.with_pad(pad) if pad else unit)
        placed_sets[unit.name] = sets_for(address, nbytes)
        cursor = address + nbytes
    return UnitLayout(placed + cold, alignment, "coloring")


def _align(address: int, alignment: int) -> int:
    rem = address % alignment
    return address + (alignment - rem) if rem else address


def build_trg(units, block_streams, window=32, max_transitions=400_000) -> UnitCallGraph:
    unit_of_block: Dict[int, str] = {}
    for unit in units:
        for bid in unit.block_ids:
            unit_of_block[bid] = unit.name
    graph = UnitCallGraph(u.name for u in units)
    for stream in block_streams:
        recent: "OrderedDict[str, None]" = OrderedDict()
        previous = None
        transitions = 0
        for bid in np.asarray(stream).tolist():
            name = unit_of_block.get(bid)
            if name is None or name == previous:
                continue
            previous = name
            transitions += 1
            if max_transitions is not None and transitions > max_transitions:
                break
            for other in recent:
                if other != name:
                    graph.add_weight(name, other, 1.0)
            recent[name] = None
            recent.move_to_end(name)
            if len(recent) > window:
                recent.popitem(last=False)
    return graph


def temporal_order(binary, units, block_streams, block_counts, window=32,
                   alignment=16, max_displacement=1 << 20) -> UnitLayout:
    graph = build_trg(units, block_streams, window=window)
    ordered = order_units(binary, units, graph, block_counts, max_displacement)
    return UnitLayout(ordered, alignment, "temporal")


# -- placement -----------------------------------------------------------------


@dataclass
class ReferenceMap:
    """The fields of an ``AddressMap``; ``unit_starts`` by unit name."""

    addr: np.ndarray
    n_fetch: np.ndarray
    taken_succ: np.ndarray
    n_fetch_taken: np.ndarray
    inverted: set = field(default_factory=set)
    deleted_branches: set = field(default_factory=set)
    appended_branches: set = field(default_factory=set)
    total_bytes: int = 0
    unit_starts: Dict[str, int] = field(default_factory=dict)


def assign_addresses(binary: Binary, layout: UnitLayout) -> ReferenceMap:
    """Place a reference layout: fix-ups as array code over the block
    table and the flattened units, unit starts unit by unit."""
    table = binary.table
    ids, starts = flatten_units(layout.units)
    n = binary.num_blocks
    if len(ids) != n or not np.array_equal(np.sort(ids), np.arange(n)):
        raise LayoutError(f"layout {layout.name!r} does not place every block once")
    amap = ReferenceMap(
        addr=np.zeros(n, dtype=np.int64),
        n_fetch=np.zeros(n, dtype=np.int32),
        taken_succ=np.full(n, -1, dtype=np.int64),
        n_fetch_taken=np.full(n, -1, dtype=np.int32),
    )
    align = max(layout.alignment, INSTRUCTION_BYTES)
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
    deleted = table.is_term(Terminator.UNCOND_BRANCH)[ids] & (succ0 == nxt)
    n_fetch = size + appended - deleted
    amap.n_fetch[ids] = n_fetch
    taken = inverted | far
    amap.taken_succ[ids[taken]] = np.where(inverted, succ1, succ0)[taken]
    amap.n_fetch_taken[ids[taken]] = size[taken]
    amap.inverted = set(ids[inverted].tolist())
    amap.appended_branches = set(ids[appended].tolist())
    amap.deleted_branches = set(ids[deleted].tolist())
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


def to_layout(binary: Binary, units: Sequence[CodeUnit], alignment: int = 16,
              name: str = "layout") -> Layout:
    """The production layout of reference records, decoded through the
    codec (which must accept them).  Entry flags are derived, so the
    records' own are ignored."""
    from repro.check.layout_checks import decode_layout

    units = [
        dataclasses.replace(u, is_entry=binary.entry_bid(u.proc_name) in u.block_ids)
        for u in units
    ]
    layout, findings = decode_layout(
        binary, layout_to_dict(UnitLayout(units, alignment, name))
    )
    assert not findings, [d.message for d in findings]
    return layout


# -- the QLT002/QLT004 lints, unit by unit -------------------------------------


def check_cold_in_hot(binary, profile, units, target):
    """QLT002 walking each unit's blocks through ``Profile.count``."""
    from repro.check.diagnostics import Diagnostic, Severity
    from repro.check.quality_checks import _capped, _thresholds

    hot, cold = _thresholds(profile)
    findings = []
    for unit in units:
        counts = [profile.count(bid) for bid in unit.block_ids]
        for pos in range(1, len(counts) - 1):
            if counts[pos] <= cold and counts[pos - 1] >= hot and counts[pos + 1] >= hot:
                block = binary.block(unit.block_ids[pos])
                findings.append(Diagnostic(
                    "QLT002", Severity.INFO,
                    f"cold block {block.proc_name}.{block.label} "
                    f"({counts[pos]}x) interleaved between hot neighbours "
                    f"({counts[pos - 1]}x / {counts[pos + 1]}x)",
                    target=target, location=f"unit {unit.name}",
                    hint="split the cold block into a cold segment",
                ))
    return list(_capped(findings, "QLT002", target))


def check_conflict_smells(binary, profile, units, amap, target):
    """QLT004 walking each hot unit's blocks through ``end_addr``."""
    from repro.check.diagnostics import Diagnostic, Severity
    from repro.check.quality_checks import CACHE_BYTES, LINE_BYTES, _capped, _thresholds

    hot, _ = _thresholds(profile)
    n_sets = CACHE_BYTES // LINE_BYTES
    unit_starts = dict(zip((u.name for u in units), amap.unit_starts.tolist()))
    by_set: Dict[int, Set[str]] = defaultdict(set)
    for unit in units:
        if not any(profile.count(bid) >= hot for bid in unit.block_ids):
            continue
        start = unit_starts[unit.name]
        end = start
        for bid in unit.block_ids:
            end = max(end, amap.end_addr(bid))
        for line in range(start // LINE_BYTES, max(start, end - 1) // LINE_BYTES + 1):
            by_set[line % n_sets].add(unit.name)
    findings = []
    for cache_set in sorted(by_set):
        names = sorted(by_set[cache_set])
        if len(names) >= 3:
            findings.append(Diagnostic(
                "QLT004", Severity.INFO,
                f"{len(names)} hot units collide in cache set {cache_set}: "
                f"{', '.join(names[:4])}{', ...' if len(names) > 4 else ''}",
                target=target, location=f"set {cache_set}",
                hint="order the colliding units closer together to spread their sets",
            ))
    return list(_capped(findings, "QLT004", target))
