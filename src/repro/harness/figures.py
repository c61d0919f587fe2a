"""Per-figure data assembly: regenerates every table/figure in the paper.

Each ``figNN_*`` function computes the series the corresponding paper
figure plots, using a shared :class:`~repro.harness.experiment.Experiment`;
the ``text_*``, ``ablation_*``, ``ext_*`` and ``dss_vs_oltp`` functions
compute the paper's text numbers and the extension studies.
:data:`FIGURES` maps each ``repro figure`` key to the tables it renders,
and :func:`memo` is the per-command memo its entries share work through.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import (
    BranchStats,
    InterferenceBreakdown,
    branch_stats,
    execution_profile_curve,
    merge_branch_stats,
    merge_sequence_stats,
    sequence_lengths,
    union_footprint_in_lines,
)
from repro.cache import CacheGeometry
from repro.execution import CombinedAddressMap, OltpSystem, SystemConfig
from repro.harness.experiment import (
    Experiment,
    ExperimentConfig,
    dss_config,
    uniprocessor_config,
)
from repro.ir import KERNEL_BASE, Layout, assign_addresses, baseline_layout, build_unit_call_graph
from repro.pipeline import resilient_map, shared_state
from repro.profiles import DcpiProfiler
from repro.sim import (
    ICacheResult,
    MemoryHierarchy,
    SimResult,
    simulate,
    simulate_grid,
    simulate_stream_buffers,
    simulate_victim_cache,
)
from repro.layout import (
    PAPER_COMBOS,
    SpikeOptimizer,
    choose_kernel_offset,
    color_layout,
    temporal_order,
)
from repro.workloads import TpcbConfig, snapshot_database
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
    blocks = np.concatenate(
        [cpu.blocks[cpu.blocks < exp.trace.kernel_offset] for cpu in exp.trace.cpus]
    )
    bb_size = float(exp.app.binary.table.size[blocks].mean())
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


# -- The 64KB/128B/4-way L1I of the text and extension tables -----------------


#: The L1I most text and extension tables measure.
L1I_64K = MemoryHierarchy.l1i_only(CacheGeometry(64 * 1024, 128, 4))


def app_l1i(exp: Experiment, combo: str) -> SimResult:
    """One combo's app-only streams through :data:`L1I_64K`."""
    return simulate(list(exp.streams(combo, scope="app")), L1I_64K)


def _placed_misses(exp: Experiment, layout: Layout) -> int:
    """:data:`L1I_64K` misses of an arbitrary app layout: placed against
    the base kernel map, replayed over the per-CPU app-only spans."""
    amap = CombinedAddressMap(
        assign_addresses(exp.app.binary, layout),
        exp.address_map("base").kernel_map,
    )
    offset = exp.trace.kernel_offset
    streams = [
        amap.expand_spans(cpu.blocks[cpu.blocks < offset])
        for cpu in exp.trace.cpus
    ]
    return simulate(streams, L1I_64K).misses


# -- Text section 5: hardware counters, 1 vs 4 CPUs, kernel layout ------------


def _reduction(base: float, opt: float) -> float:
    return 100.0 * (1 - opt / max(base, 1))


def text_21164_counters(uni: Experiment) -> Table:
    """21164-style hardware counters of the 1-CPU run (text section 5)."""
    hierarchy = MemoryHierarchy(
        l1i=CacheGeometry(8 * 1024, 32, 1),
        l2=CacheGeometry(2 * 1024 * 1024, 64, 1),
        dcache=CacheGeometry(8 * 1024, 32, 1),
        itlb_entries=48,
    )
    data = list(zip(uni.trace.data_addresses, uni.trace.data_positions))
    counts = {}
    for combo in ("base", "all"):
        result = simulate(
            uni.streams(combo, scope="combined"), hierarchy, data_streams=data
        )
        counts[combo] = (result.l1i_misses, result.itlb.misses, result.l2.misses)
    base, opt = counts["base"], counts["all"]
    return Table(
        title="Text 5: 21164-style hardware counters (8KB I$, 48-entry iTLB, "
        "2MB board cache)",
        columns=["metric", "base", "optimized", "reduction_%"],
        rows=[
            [metric, base[i], opt[i], round(_reduction(base[i], opt[i]), 1)]
            for i, metric in enumerate(
                ("icache_misses", "itlb_misses", "board_misses")
            )
        ],
        notes=["paper: -28% icache, -43% iTLB, -39% board cache"],
    )


def layout_speedup(exp: Experiment) -> float:
    """Estimated 21164 speedup of ``all`` over ``base`` (combined stream)."""
    data = list(zip(exp.trace.data_addresses, exp.trace.data_positions))
    breakdowns = {
        combo: estimate_cycles(
            list(exp.streams(combo, scope="combined")), ALPHA_21164, data
        )
        for combo in ("base", "all")
    }
    return 100.0 / relative_execution_time(breakdowns)["all"]


def text_mp_vs_up(uni_speedup: float, multi_speedup: float) -> Table:
    """Layout speedup on the 1-CPU run vs the 4-CPU run (text section 5)."""
    return Table(
        title="Text 5: layout speedup, 1-processor vs 4-processor runs",
        columns=["configuration", "speedup_x"],
        rows=[["1 CPU", round(uni_speedup, 3)], ["4 CPUs", round(multi_speedup, 3)]],
        notes=["paper: 1.33x on 1 CPU vs 1.25x on 4 CPUs (21164)"],
    )


def text_kernel_opt(exp: Experiment) -> Table:
    """Combined misses with the kernel layout optimized too (text section 5)."""
    base, opt = (
        simulate(
            exp.streams("all", scope="combined", kernel_combo=kernel_combo),
            L1I_64K,
        ).misses
        for kernel_combo in ("base", "all")
    )
    return Table(
        title="Text 5: optimizing the kernel layout too (combined misses, "
        "64KB/128B/4-way, app already optimized)",
        columns=["kernel_layout", "combined_misses"],
        rows=[["base", base], ["optimized", opt],
              ["reduction_%", round(100 * (1 - opt / max(base, 1)), 1)]],
        notes=["paper: only ~3.5% execution-time gain from kernel layout"],
    )


# -- Ablations and extension studies ------------------------------------------


def _percent_rows(rows: Sequence[Tuple[str, int]], base: int) -> List[List]:
    return [[label, misses, round(100 * misses / base, 1)] for label, misses in rows]


def ablation_hotcold_split(exp: Experiment, memo: Callable) -> Table:
    """Stock Spike hot/cold splitting and split-only layouts vs chaining."""
    combos = ("base", "chain", "split", "hotcold", "all")
    misses = [(combo, memo(app_l1i, exp, combo).misses) for combo in combos]
    return Table(
        title="Extra ablation: hot/cold (stock Spike) and split-only layouts "
        "(64KB/128B/4-way, app only)",
        columns=["combo", "misses", "% of base"],
        rows=_percent_rows(misses, misses[0][1]),
        notes=[
            "hotcold approximates fine-grain splitting for this workload; "
            "split without chaining recovers only part of the gain",
        ],
    )


def cfa_result(exp: Experiment):
    """The CFA layout at 64KB with 25% reserved: ``(report, misses)``."""
    layout, report = exp.optimizer.cfa(
        cache_bytes=L1I_64K.l1i.size_bytes, reserved_fraction=0.25
    )
    return report, _placed_misses(exp, layout)


def ablation_cfa(exp: Experiment, memo: Callable) -> Table:
    """The conflict-free-area negative result (paper section 2)."""
    report, cfa_misses = memo(cfa_result, exp)
    return Table(
        title="CFA (software trace cache) at 64KB with 25% reserved",
        columns=["metric", "value"],
        rows=[
            ["reserved_bytes", report.reserved_bytes],
            ["hot_units_placed", report.hot_units],
            ["hot_overflow_KB", report.hot_overflow_bytes // 1024],
            ["cfa_misses", cfa_misses],
            ["all_misses", memo(app_l1i, exp, "all").misses],
        ],
        notes=[
            "paper: the hot-trace footprint dwarfs any reasonable reserved "
            "area, so CFA yields no gains over the standard pipeline",
        ],
    )


def ablation_dcpi_profile(exp: Experiment, memo: Callable) -> Table:
    """The full pipeline driven by a sampled (DCPI) profile vs Pixie."""
    # Real DCPI sessions run for hours; our trace is short, so the
    # sampling period is scaled to give a comparable number of samples
    # per hot block (~15).
    profiler = DcpiProfiler(exp.app.binary, period=64)
    for stream in exp.trace.per_process_app_streams():
        profiler.add_stream(stream)
    layout = SpikeOptimizer(exp.app.binary, profiler.profile()).layout("all")
    base = memo(app_l1i, exp, "base").misses
    return Table(
        title="Profile quality: exact (Pixie) vs sampled (DCPI) profiles "
        "driving the full pipeline (64KB/128B/4-way)",
        columns=["profile", "misses", "% of base"],
        rows=_percent_rows(
            [
                ("base (no opt)", base),
                ("pixie-driven", memo(app_l1i, exp, "all").misses),
                ("dcpi-driven", _placed_misses(exp, layout)),
            ],
            base,
        ),
    )


def ext_stream_buffers(exp: Experiment) -> Table:
    """A 4-entry instruction stream buffer behind a 64KB 2-way L1I."""
    rows = []
    for combo in ("base", "all"):
        raw = covered = 0
        for starts, counts in exp.streams(combo, scope="app"):
            result = simulate_stream_buffers(
                starts, counts, CacheGeometry(64 * 1024, 64, 2),
                num_buffers=4, depth=4,
            )
            raw += result.raw_misses
            covered += result.stream_hits
        rows.append([combo, raw, covered, raw - covered,
                     round(100 * covered / raw, 1)])
    return Table(
        title="Extension: 4-entry instruction stream buffer "
        "(64KB 2-way L1I)",
        columns=["binary", "L1_misses", "buffer_hits", "remaining", "coverage_%"],
        rows=rows,
        notes=[
            "paper 6 conjectured layout would *raise* stream-buffer "
            "effectiveness; measured: layout removes exactly the "
            "sequential misses buffers would have covered, so coverage "
            "drops while absolute misses still fall -- the two "
            "techniques partially overlap",
        ],
    )


def ext_coloring(exp: Experiment, memo: Callable) -> Table:
    """Cache-line coloring placement (related-work comparator)."""
    procedures = baseline_layout(exp.app.binary)
    graph = build_unit_call_graph(
        exp.app.binary, procedures, exp.profile.block_counts,
        edge_counts=exp.profile.edge_counts or None,
    )
    layout, report = color_layout(
        exp.app.binary, procedures, graph, exp.profile.block_counts,
        cache_bytes=L1I_64K.l1i.size_bytes, line_bytes=L1I_64K.l1i.line_bytes,
    )
    base = memo(app_l1i, exp, "base").misses
    return Table(
        title="Related-work comparator: cache-line coloring placement "
        "(whole procedures, 64KB/128B)",
        columns=["layout", "misses", "% of base"],
        rows=[["base", base, 100.0]] + _percent_rows(
            [
                ("porder (P-H)", memo(app_l1i, exp, "porder").misses),
                ("coloring", _placed_misses(exp, layout)),
                ("all (full pipeline)", memo(app_l1i, exp, "all").misses),
            ],
            base,
        ),
        notes=[
            f"coloring padded {report.padding_bytes // 1024}KB, "
            f"{report.unresolved} hot units kept conflicts",
            "paper 6: placement-only schemes are ineffective for OLTP "
            "footprints without chaining+splitting",
        ],
    )


def ext_joint_placement(exp: Experiment) -> Table:
    """Joint app+kernel placement by kernel-offset search (future work)."""
    app_map = exp.address_map("all").app_map
    kernel_map = exp.address_map("all", "all").kernel_map
    offset, report = choose_kernel_offset(
        app_map, exp.profile.block_counts,
        kernel_map, exp.kernel_profile.block_counts,
        cache_bytes=L1I_64K.l1i.size_bytes, line_bytes=L1I_64K.l1i.line_bytes,
    )
    shifted = CombinedAddressMap(app_map, kernel_map,
                                 kernel_base=KERNEL_BASE + offset)
    shifted_misses = simulate(
        [shifted.expand_spans(cpu.blocks) for cpu in exp.trace.cpus], L1I_64K
    ).misses
    unshifted = simulate(
        list(exp.streams("all", scope="combined", kernel_combo="all")), L1I_64K
    ).misses
    return Table(
        title="Future work: joint app+kernel placement (kernel image "
        "offset search, both binaries optimized)",
        columns=["configuration", "combined_misses"],
        rows=[
            ["kernel at default base", unshifted],
            [f"kernel shifted +{offset // 1024}KB", shifted_misses],
            ["change_%", round(100 * (shifted_misses / max(unshifted, 1) - 1), 2)],
        ],
        notes=[
            f"hot-set overlap reduced {report.overlap_reduction:.0%} by the "
            "offset search",
            "paper 7: 'a combined code layout optimization of the "
            "application and the kernel may provide more synergistic "
            "gains; however, we did not study this'",
        ],
    )


def ext_victim_cache(exp: Experiment) -> Table:
    """A 16-entry victim cache behind a 64KB direct-mapped L1I."""
    geometry = CacheGeometry(64 * 1024, 128, 1)
    rows = []
    for combo in ("base", "all"):
        raw = hits = 0
        for starts, counts in exp.streams(combo, scope="app"):
            result = simulate_victim_cache(starts, counts, geometry, 16)
            raw += result.raw_misses
            hits += result.victim_hits
        rows.append([combo, raw, hits, raw - hits, round(100 * hits / raw, 1)])
    return Table(
        title="Extension: 16-entry victim cache vs code layout "
        "(64KB direct-mapped)",
        columns=["binary", "raw_misses", "victim_hits", "remaining",
                 "absorbed_%"],
        rows=rows,
        notes=[
            "a victim cache absorbs conflict misses only; layout removes "
            "capacity misses too -- base+victim stays far above optimized",
        ],
    )


def ext_temporal(exp: Experiment, memo: Callable) -> Table:
    """Temporal (trace-affinity) ordering, Gloy et al. (comparator)."""
    layout = temporal_order(
        exp.app.binary,
        baseline_layout(exp.app.binary),
        [exp.trace.app_block_stream(i) for i in range(len(exp.trace.cpus))],
        exp.profile.block_counts,
        window=24,
    )
    base = memo(app_l1i, exp, "base").misses
    return Table(
        title="Related-work comparator: temporal ordering (Gloy et al.) "
        "at whole-procedure granularity (64KB/128B/4-way)",
        columns=["layout", "misses", "% of base"],
        rows=[["base", base, 100.0]] + _percent_rows(
            [
                ("porder (call graph)", memo(app_l1i, exp, "porder").misses),
                ("temporal (TRG)", _placed_misses(exp, layout)),
                ("all (full pipeline)", memo(app_l1i, exp, "all").misses),
            ],
            base,
        ),
        notes=[
            "paper 6: placement-only schemes, whatever the affinity "
            "metric, cannot match chaining+splitting on OLTP footprints",
        ],
    )


def app_branch_stats(exp: Experiment, combo: str) -> BranchStats:
    """Fetch-stream breaks of one combo's app-only streams."""
    return merge_branch_stats(
        branch_stats(s, c) for s, c in exp.streams(combo, scope="app")
    )


def ext_branch_rate(exp: Experiment, memo: Callable) -> Table:
    """Taken-branch (fetch-break) rate per layout."""
    rows = []
    for combo in ("base", "chain", "all"):
        stats = memo(app_branch_stats, exp, combo)
        rows.append([combo, stats.transitions, stats.breaks,
                     round(100 * stats.break_fraction, 2),
                     round(1000 * stats.breaks_per_instruction, 2)])
    return Table(
        title="Extension: fetch-stream breaks (taken branches/calls/"
        "returns) per layout",
        columns=["layout", "transitions", "breaks", "break_%",
                 "breaks_per_kinstr"],
        rows=rows,
        notes=[
            "chaining biases conditional branches not-taken and deletes "
            "unconditional branches: fewer front-end redirects",
        ],
    )


def dss_vs_oltp(exp: Experiment, dss: Experiment, memo: Callable) -> Table:
    """Baseline MPKI and layout payoff, OLTP vs DSS on the same binaries."""
    rows = []
    for name, experiment in (("OLTP", exp), ("DSS", dss)):
        base, opt = (memo(app_l1i, experiment, c) for c in ("base", "all"))
        rows.append([name, round(base.mpki, 3), round(opt.mpki, 3),
                     round(100.0 * (1 - opt.misses / base.misses), 1)])
    return Table(
        title="OLTP vs DSS on the same binaries (64KB/128B/4-way, app only)",
        columns=["workload", "base_MPKI", "optimized_MPKI", "reduction_%"],
        rows=rows,
        notes=[
            "paper 1/6: DSS is relatively insensitive to the memory "
            "system -- its baseline miss rate is far below OLTP's, so "
            "layout has much less to win",
        ],
    )


def ablation_multiprogramming(exp: Experiment) -> Table:
    """Combined-stream MPKI at 1/4/8/16 server processes per CPU."""
    rows = []
    tpcb = TpcbConfig(branches=40, accounts_per_branch=125)
    # The load reads the scale, not the seed: one database for all runs,
    # at OltpSystem's default pool capacity and B+tree order.
    database = snapshot_database(tpcb, pool_capacity=2048, btree_order=64)
    for procs in (1, 4, 8, 16):
        system = OltpSystem(
            exp.app, exp.kernel,
            tpcb_config=replace(tpcb, seed=400 + procs),
            system_config=SystemConfig(cpus=2, processes_per_cpu=procs),
            database=database,
        )
        trace = system.run(transactions=60, warmup=10)
        for combo in ("base", "all"):
            amap = exp.address_map(combo)
            streams = [amap.expand_spans(cpu.blocks) for cpu in trace.cpus]
            misses = simulate(streams, L1I_64K).misses
            instructions = sum(int(c.sum()) for _, c in streams)
            rows.append(
                [procs, combo, misses, round(1000.0 * misses / instructions, 3)]
            )
    return Table(
        title="Multiprogramming ablation: server processes per CPU "
        "(combined stream, 64KB/128B/4-way, 2 CPUs)",
        columns=["procs_per_cpu", "layout", "misses", "MPKI"],
        rows=rows,
        notes=[
            "more processes per CPU -> more working sets time-sharing the "
            "I-cache; the layout optimization keeps paying at every degree",
        ],
    )


# -- The registry -------------------------------------------------------------


def memo() -> Callable:
    """A fresh per-command memo: ``memo(fn, *args)`` runs ``fn(*args)``
    once and hands every later call the same result, so the tables of
    one command share the fig04 grids, the detailed simulations, the
    :func:`app_l1i` runs and the :func:`variant` experiments."""
    return functools.lru_cache(maxsize=None)(lambda fn, *args: fn(*args))


def variant(
    exp: Experiment, transform: Callable[[ExperimentConfig], ExperimentConfig]
) -> Experiment:
    """An experiment over ``transform(exp.config)`` (for example
    :func:`~repro.harness.experiment.uniprocessor_config`) sharing
    ``exp``'s store, jobs, profile source and run log."""
    return Experiment(
        transform(exp.config),
        store=exp.store,
        jobs=exp.jobs,
        profile_source=exp.profile_source,
        runlog=exp.runlog,
    )


def _grids(exp: Experiment, memo: Callable):
    return [memo(fig04_cache_sweep, exp, combo) for combo in ("base", "all")]


def _detailed(exp: Experiment, memo: Callable):
    return [memo(detailed_results, exp, combo) for combo in ("base", "all")]


def _uni(exp: Experiment, memo: Callable) -> Experiment:
    return memo(variant, exp, uniprocessor_config)


#: ``repro figure`` key -> callable(exp, memo) returning its tables in
#: output order; ``memo`` is the command's :func:`memo`.  Figure 15 and
#: the 21164 counters run on the 1-CPU variant of ``exp``.
FIGURES: Dict[str, Callable[[Experiment, Callable], List[Table]]] = {
    "fig03": lambda exp, memo: [fig03_execution_profile(exp)],
    "fig04": lambda exp, memo: [
        fig04_table(grid, combo)
        for grid, combo in zip(_grids(exp, memo), ("base", "all"))
    ],
    "fig05": lambda exp, memo: [fig05_relative(*_grids(exp, memo))],
    "fig06": lambda exp, memo: [fig06_associativity(exp)],
    "fig07": lambda exp, memo: [fig07_ablation(exp)],
    "fig08": lambda exp, memo: list(fig08_sequences(exp)),
    "fig09": lambda exp, memo: [fig09_word_usage(*_detailed(exp, memo))],
    "fig10": lambda exp, memo: [fig10_word_reuse(*_detailed(exp, memo))],
    "fig11": lambda exp, memo: [fig11_lifetimes(*_detailed(exp, memo))],
    "fig12": lambda exp, memo: [
        fig12_combined(exp, "base"),
        fig12_combined(exp, "all"),
    ],
    "fig13": lambda exp, memo: [
        fig13_interference(exp, "base"),
        fig13_interference(exp, "all"),
    ],
    "fig14": lambda exp, memo: [fig14_itlb_l2(exp)],
    "fig15": lambda exp, memo: [fig15_exec_time(_uni(exp, memo))],
    "packing": lambda exp, memo: [text_packing(exp)],
    "text_21164_counters": lambda exp, memo: [
        text_21164_counters(_uni(exp, memo))
    ],
    "text_mp_vs_up": lambda exp, memo: [
        text_mp_vs_up(
            memo(layout_speedup, _uni(exp, memo)), memo(layout_speedup, exp)
        )
    ],
    "text_kernel_opt": lambda exp, memo: [text_kernel_opt(exp)],
    "ablation_hotcold_split": lambda exp, memo: [
        ablation_hotcold_split(exp, memo)
    ],
    "ablation_cfa": lambda exp, memo: [ablation_cfa(exp, memo)],
    "ablation_dcpi_profile": lambda exp, memo: [
        ablation_dcpi_profile(exp, memo)
    ],
    "ablation_multiprogramming": lambda exp, memo: [
        ablation_multiprogramming(exp)
    ],
    "dss_vs_oltp": lambda exp, memo: [
        dss_vs_oltp(exp, memo(variant, exp, dss_config), memo)
    ],
    "ext_stream_buffers": lambda exp, memo: [ext_stream_buffers(exp)],
    "ext_victim_cache": lambda exp, memo: [ext_victim_cache(exp)],
    "ext_coloring": lambda exp, memo: [ext_coloring(exp, memo)],
    "ext_temporal": lambda exp, memo: [ext_temporal(exp, memo)],
    "ext_joint_placement": lambda exp, memo: [ext_joint_placement(exp)],
    "ext_branch_rate": lambda exp, memo: [ext_branch_rate(exp, memo)],
}
