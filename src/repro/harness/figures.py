"""Per-figure data assembly: regenerates every table/figure in the paper.

Each ``figNN_*`` function computes the series the corresponding paper
figure plots, using a shared :class:`~repro.harness.experiment.Experiment`.
``render_*`` helpers print them as aligned text tables (the benchmark
suite writes these next to the raw numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import (
    InterferenceBreakdown,
    execution_profile_curve,
    merge_sequence_stats,
    sequence_lengths,
    union_footprint_in_lines,
)
from repro.cache import CacheGeometry
from repro.harness.experiment import Experiment
from repro.pipeline import resilient_map, shared_state
from repro.sim import ICacheResult, MemoryHierarchy, simulate, simulate_grid
from repro.layout import PAPER_COMBOS
from repro.timing import (
    ALPHA_21164,
    ALPHA_21264,
    Platform,
    estimate_cycles,
    relative_execution_time,
)

#: Cache sizes (bytes) on the paper's sweep axes.
SWEEP_SIZES = tuple(kb * 1024 for kb in (32, 64, 128, 256, 512))
#: Line sizes (bytes) on the paper's sweep axes.
SWEEP_LINES = (16, 32, 64, 128, 256)
#: The detailed-metrics configuration (Figs 9-11, 13).
DETAIL_GEOMETRY = CacheGeometry(128 * 1024, 128, 4)


@dataclass
class Table:
    """A printable result table."""

    title: str
    columns: List[str]
    rows: List[List]
    notes: List[str] = field(default_factory=list)

    def render(self) -> str:
        """The table as aligned plain text."""
        widths = [
            max(len(str(col)), *(len(_fmt(row[i])) for row in self.rows))
            if self.rows
            else len(str(col))
            for i, col in enumerate(self.columns)
        ]
        lines = [self.title, ""]
        header = "  ".join(str(c).rjust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(v).rjust(w) for v, w in zip(row, widths))
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"

    def render_chart(self, value_column: int = 1, width: int = 40) -> str:
        """Render one numeric column as a horizontal ASCII bar chart.

        Rows with non-numeric values in the chosen column are skipped.
        """
        numeric = [
            (row[0], float(row[value_column]))
            for row in self.rows
            if isinstance(row[value_column], (int, float))
        ]
        if not numeric:
            return self.render()
        peak = max(value for _, value in numeric) or 1.0
        label_width = max(len(str(label)) for label, _ in numeric)
        lines = [self.title, ""]
        for label, value in numeric:
            bar = "#" * max(1, round(width * value / peak)) if value > 0 else ""
            lines.append(f"{str(label).rjust(label_width)} |{bar} {_fmt(value)}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


# -- Figure 3 -----------------------------------------------------------------


def fig03_execution_profile(exp: Experiment) -> Table:
    """Cumulative fraction of executed instructions vs footprint."""
    footprint, cumulative = execution_profile_curve(exp.profile)
    rows = []
    for kb in (10, 25, 50, 75, 100, 125, 150, 175, 200, 250):
        idx = np.searchsorted(footprint, kb * 1024, side="right") - 1
        if idx < 0:
            continue
        captured = cumulative[min(idx, len(cumulative) - 1)]
        rows.append([kb, round(float(captured) * 100, 1)])
        if captured >= 1.0:
            break
    total_idx = min(
        int(np.searchsorted(cumulative, 1.0 - 1e-9)), len(footprint) - 1
    )
    total = int(footprint[total_idx])
    return Table(
        title="Figure 3: execution profile of the unoptimized binary",
        columns=["footprint_KB", "captured_%"],
        rows=rows,
        notes=[
            f"total dynamic footprint ~= {total // 1024} KB "
            f"(paper: ~260 KB total, 50 KB captures ~60%, 200 KB captures 99%)",
        ],
    )


# -- parallel fan-out ---------------------------------------------------------
#
# The Figure 4/5 grid goes through repro.sim.simulate_grid.  The LRU
# figures hand their streams to resilient_map as shared= state, which
# forked workers inherit without pickling.  Cells are pure and the map
# keeps input order, so --jobs N output is bit-identical to serial.


def _lru_cell(cell: Tuple[str, int, int, int]) -> int:
    combo, size, line, assoc = cell
    return simulate(
        shared_state()[combo],
        MemoryHierarchy.l1i_only(CacheGeometry(size, line, assoc)),
    ).misses


def _jobs(exp: Experiment, jobs: Optional[int]) -> Optional[int]:
    return exp.jobs if jobs is None else jobs


def _lru_misses(
    exp: Experiment,
    combos: Sequence[str],
    cells: List[Tuple[str, int, int, int]],
    jobs: Optional[int],
) -> Dict[Tuple[str, int, int, int], int]:
    """LRU misses per cell, fanned out over the app streams of ``combos``."""
    streams = {combo: list(exp.streams(combo, scope="app")) for combo in combos}
    return dict(
        zip(cells, resilient_map(
            _lru_cell, cells, jobs=_jobs(exp, jobs), shared=streams
        ))
    )


# -- Figures 4 and 5 ----------------------------------------------------------


def fig04_cache_sweep(
    exp: Experiment,
    combo: str,
    jobs: Optional[int] = None,
    engine: str = "batched",
) -> Dict[Tuple[int, int], int]:
    """Direct-mapped miss counts over the size x line grid (app only).

    ``engine`` picks the sweep implementation: ``"batched"`` (default)
    evaluates the whole grid in one pass per stream chunk,
    ``"classic"`` runs the per-cell reference engine.  Both are
    bit-identical (``tests/test_sim_equivalence.py`` checks them on the
    quick experiment's streams against each other, a per-cell
    ``lru_pass`` and the committed fig04 baselines).
    """
    with exp.runlog.stage("sweep", f"fig04:{combo}:{engine}"):
        return simulate_grid(
            exp.streams(combo, scope="app"),
            SWEEP_SIZES,
            SWEEP_LINES,
            jobs=_jobs(exp, jobs),
            engine=engine,
        )


def fig04_table(grid: Dict[Tuple[int, int], int], combo: str) -> Table:
    """One Figure 4 sweep grid as a printable size-by-line table."""
    rows = []
    for size in SWEEP_SIZES:
        rows.append(
            [size // 1024] + [grid[(size, line)] for line in SWEEP_LINES]
        )
    return Table(
        title=f"Figure 4 ({combo}): app-only I-cache misses, direct-mapped",
        columns=["size_KB"] + [f"{line}B" for line in SWEEP_LINES],
        rows=rows,
    )


def fig05_relative(base_grid, opt_grid) -> Table:
    """Optimized misses as a percentage of baseline (Figure 5)."""
    rows = []
    for size in SWEEP_SIZES:
        row = [size // 1024]
        for line in SWEEP_LINES:
            base = base_grid[(size, line)]
            row.append(round(100.0 * opt_grid[(size, line)] / max(1, base), 1))
        rows.append(row)
    return Table(
        title="Figure 5: optimized misses as % of baseline (app only, DM)",
        columns=["size_KB"] + [f"{line}B" for line in SWEEP_LINES],
        rows=rows,
        notes=["paper: ~35-45% at 64-128KB/128B (i.e. a 55-65% reduction)"],
    )


# -- Figure 6 -----------------------------------------------------------------


def fig06_associativity(exp: Experiment, jobs: Optional[int] = None) -> Table:
    """Miss rate vs associativity at fixed size/line (Figure 6)."""
    combos = ("base", "all")
    with exp.runlog.stage("sweep", "fig06"):
        cells = [
            (combo, size, 128, assoc)
            for size in SWEEP_SIZES
            for combo in combos
            for assoc in (1, 4)
        ]
        misses = _lru_misses(exp, combos, cells, jobs)
    rows = []
    for size in SWEEP_SIZES:
        row = [size // 1024]
        for combo in combos:
            row.append(misses[(combo, size, 128, 1)])
            row.append(misses[(combo, size, 128, 4)])
        rows.append(row)
    return Table(
        title="Figure 6: impact of associativity (128B lines, app only)",
        columns=["size_KB", "base_DM", "base_4way", "opt_DM", "opt_4way"],
        rows=rows,
        notes=["paper: associativity gains are small next to layout gains"],
    )


# -- Figure 7 -----------------------------------------------------------------


def fig07_ablation(
    exp: Experiment,
    combos: Sequence[str] = PAPER_COMBOS,
    jobs: Optional[int] = None,
) -> Table:
    """Optimization-combination ablation at fixed geometry (Figure 7)."""
    with exp.runlog.stage("sweep", "fig07"):
        cells = [
            (combo, size, 128, 4) for combo in combos for size in SWEEP_SIZES
        ]
        misses = _lru_misses(exp, combos, cells, jobs)
    rows = []
    for combo in combos:
        rows.append(
            [combo] + [misses[(combo, size, 128, 4)] for size in SWEEP_SIZES]
        )
    return Table(
        title="Figure 7: optimization ablation (128B lines, 4-way, app only)",
        columns=["combo"] + [f"{s // 1024}KB" for s in SWEEP_SIZES],
        rows=rows,
        notes=[
            "paper: porder alone slightly hurts; chaining gives the largest "
            "gain; ordering pays off again after fine-grain splitting",
        ],
    )


# -- Figure 8 -----------------------------------------------------------------


def fig08_sequences(exp: Experiment) -> Tuple[Table, Table]:
    """Sequential-run length and fetch-break tables (Figure 8)."""
    sizes = np.array(
        [b.size for b in exp.app.binary.blocks()], dtype=np.int64
    )
    blocks = np.concatenate(
        [cpu.blocks[cpu.blocks < exp.trace.kernel_offset] for cpu in exp.trace.cpus]
    )
    bb_size = float(sizes[blocks].mean())
    stats = {}
    for combo in ("base", "all"):
        stats[combo] = merge_sequence_stats(
            [sequence_lengths(s, c) for s, c in exp.streams(combo, scope="app")]
        )
    summary = Table(
        title="Figure 8a: average sequentially executed instructions",
        columns=["setup", "avg_length"],
        rows=[
            ["basic block size", round(bb_size, 2)],
            ["base", round(stats["base"].mean_length, 2)],
            ["optimized", round(stats["all"].mean_length, 2)],
        ],
        notes=["paper: 7.3 (base) -> 10+ (optimized)"],
    )
    hist_rows = []
    base_frac = stats["base"].fractions() * 100
    opt_frac = stats["all"].fractions() * 100
    for length in range(1, 34):
        hist_rows.append(
            [length, round(float(base_frac[length]), 2), round(float(opt_frac[length]), 2)]
        )
    histogram = Table(
        title="Figure 8b: sequence-length histogram (% of all sequences)",
        columns=["length", "base_%", "optimized_%"],
        rows=hist_rows,
        notes=["paper: base has 21% 1-instruction sequences; optimized 15%"],
    )
    return summary, histogram


# -- Figures 9, 10, 11, and the packing text numbers --------------------------


def detailed_results(exp: Experiment, combo: str) -> ICacheResult:
    """Detailed 128KB/128B/4-way simulation of CPU 0's app stream."""
    streams = exp.streams(combo, scope="app")
    return simulate(
        [streams[0]], MemoryHierarchy.l1i_only(DETAIL_GEOMETRY, detail=True)
    ).icache


def fig09_word_usage(base: ICacheResult, opt: ICacheResult) -> Table:
    """Fetched-word usage before/after optimization (Figure 9)."""
    rows = []
    base_frac = base.locality.unique_words_fractions() * 100
    opt_frac = opt.locality.unique_words_fractions() * 100
    for words in range(1, 33):
        rows.append([words, round(float(base_frac[words]), 2),
                     round(float(opt_frac[words]), 2)])
    return Table(
        title="Figure 9: unique words used per 128B line before replacement (%)",
        columns=["words", "base_%", "optimized_%"],
        rows=rows,
        notes=["paper: optimized uses the full line on >60% of replacements"],
    )


def fig10_word_reuse(base: ICacheResult, opt: ICacheResult) -> Table:
    """Cache-line word reuse distribution (Figure 10)."""
    rows = []
    base_frac = base.locality.word_reuse_fractions() * 100
    opt_frac = opt.locality.word_reuse_fractions() * 100
    for uses in range(0, 16):
        rows.append([uses, round(float(base_frac[uses]), 2),
                     round(float(opt_frac[uses]), 2)])
    return Table(
        title="Figure 10: times a word is used before replacement (% of words)",
        columns=["uses", "base_%", "optimized_%"],
        rows=rows,
        notes=[
            "paper: >50% of fetched words unused in base; far fewer optimized",
            f"measured unused fraction: base {base.locality.unused_fraction:.2f}, "
            f"optimized {opt.locality.unused_fraction:.2f} (paper: 0.46 vs 0.21)",
        ],
    )


def fig11_lifetimes(base: ICacheResult, opt: ICacheResult) -> Table:
    """Cache-line lifetime distribution (Figure 11)."""
    base_frac = base.locality.lifetime_fractions() * 100
    opt_frac = opt.locality.lifetime_fractions() * 100
    rows = []
    for bucket in range(4, 31):
        b, o = float(base_frac[bucket]), float(opt_frac[bucket])
        if b < 0.05 and o < 0.05:
            continue
        rows.append([bucket, round(b, 2), round(o, 2)])
    def mean_lifetime(result):
        fractions = result.locality.lifetime_fractions()
        return float(sum((2.0 ** i) * f for i, f in enumerate(fractions)))
    return Table(
        title="Figure 11: cache-line lifetimes, log2(cache accesses) buckets (%)",
        columns=["log2_lifetime", "base_%", "optimized_%"],
        rows=rows,
        notes=[
            f"mean lifetime: base ~2^{np.log2(max(1.0, mean_lifetime(base))):.1f}, "
            f"optimized ~2^{np.log2(max(1.0, mean_lifetime(opt))):.1f} accesses "
            "(paper: optimized is >2x base)",
        ],
    )


def text_packing(exp: Experiment) -> Table:
    """Static/dynamic footprint packing summary (text table)."""
    base_lines = union_footprint_in_lines(exp.streams("base", scope="app"), 128)
    opt_lines = union_footprint_in_lines(exp.streams("all", scope="app"), 128)
    return Table(
        title="Text 4.1: footprint in unique 128B cache lines",
        columns=["binary", "lines", "KB"],
        rows=[
            ["base", base_lines, base_lines * 128 // 1024],
            ["optimized", opt_lines, opt_lines * 128 // 1024],
            ["reduction_%", "-", round(100 * (1 - opt_lines / max(1, base_lines)), 1)],
        ],
        notes=["paper: 500KB -> 315KB (37% smaller)"],
    )


# -- Figure 12 ----------------------------------------------------------------


def fig12_combined(exp: Experiment, combo: str) -> Table:
    """App+kernel combined miss rates for one combo (Figure 12)."""
    rows = []
    for size in SWEEP_SIZES:
        hierarchy = MemoryHierarchy.l1i_only(CacheGeometry(size, 128, 4))
        combined = simulate(exp.streams(combo, scope="combined"), hierarchy).misses
        app_only = simulate(exp.streams(combo, scope="app"), hierarchy).misses
        kernel_only = simulate(exp.streams(scope="kernel"), hierarchy).misses
        rows.append([size // 1024, combined, app_only, kernel_only])
    return Table(
        title=f"Figure 12 ({combo}): combined app+OS I-cache misses (128B, 4-way)",
        columns=["size_KB", "combined", "app_isolated", "kernel_isolated"],
        rows=rows,
        notes=[
            "paper: kernel is small in isolation, but interference lifts the "
            "combined curve above the app-only curve",
        ],
    )


# -- Figure 13 ----------------------------------------------------------------


def fig13_interference(exp: Experiment, combo: str) -> Table:
    """App/kernel interference breakdown for one combo (Figure 13)."""
    result = simulate(
        exp.streams(combo, scope="combined"),
        MemoryHierarchy.l1i_only(DETAIL_GEOMETRY),
    ).icache
    breakdown = InterferenceBreakdown.from_matrix(result.interference)
    rows = []
    for missing in ("kernel", "application", "both"):
        row = breakdown.rows[missing]
        rows.append([missing, row["kernel"], row["application"]])
    return Table(
        title=f"Figure 13 ({combo}): who displaced the missing line "
        "(128KB/128B/4-way, combined stream)",
        columns=["missing_process", "kernel_owned_line", "app_owned_line"],
        rows=rows,
        notes=[
            "paper: application misses are mostly self-interference; kernel "
            "misses are mostly caused by the application",
            f"app self-interference fraction: "
            f"{breakdown.self_interference_fraction('application'):.2f}",
        ],
    )


# -- Figure 14 ----------------------------------------------------------------


def fig14_itlb_l2(exp: Experiment) -> Table:
    """iTLB and shared-L2 miss comparison (Figure 14)."""
    rows = []
    hierarchy = MemoryHierarchy(
        l1i=CacheGeometry(64 * 1024, 64, 2),
        l2=CacheGeometry(1536 * 1024, 64, 6),
        dcache=CacheGeometry(64 * 1024, 64, 2),
        itlb_entries=64,
    )
    data = list(zip(exp.trace.data_addresses, exp.trace.data_positions))
    for combo in ("base", "all"):
        result = simulate(
            exp.streams(combo, scope="combined"), hierarchy, data_streams=data
        )
        rows.append(
            [combo, result.itlb.misses, result.l2.misses_instr, result.l2.misses_data]
        )
    return Table(
        title="Figure 14: iTLB (64-entry) and shared L2 (1.5MB 6-way) misses",
        columns=["binary", "iTLB", "L2_instr", "L2_data"],
        rows=rows,
        notes=[
            "paper: optimized layout cuts iTLB and L2-instruction misses; "
            "L2 data misses barely move",
        ],
    )


# -- Figure 15 ----------------------------------------------------------------


def fig15_exec_time(
    exp: Experiment,
    combos: Sequence[str] = PAPER_COMBOS,
    platforms: Sequence[Platform] = (ALPHA_21264, ALPHA_21164),
) -> Table:
    """Estimated non-idle execution time per combo (Figure 15)."""
    data = list(zip(exp.trace.data_addresses, exp.trace.data_positions))
    rows = []
    rels = {}
    for platform in platforms:
        breakdowns = {
            combo: estimate_cycles(exp.streams(combo, scope="combined"), platform, data)
            for combo in combos
        }
        rels[platform.name] = relative_execution_time(breakdowns)
    for combo in combos:
        rows.append(
            [combo] + [round(rels[p.name][combo], 1) for p in platforms]
        )
    return Table(
        title="Figure 15: relative execution time (non-idle cycles, % of base)",
        columns=["combo"] + [p.name for p in platforms],
        rows=rows,
        notes=["paper: ~75% (1.33x speedup) for the full optimization"],
    )
