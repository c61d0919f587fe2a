"""Second extension set: hardware alternatives and another comparator.

* Victim cache: can a 16-entry victim buffer recover the layout gains?
  (No: OLTP instruction misses are mostly capacity, which is the
  paper's argument for software layout.)
* Temporal ordering (Gloy et al.): the trace-affinity comparator.
* Taken-branch rate: the front-end side effect of chaining.
"""

from conftest import save_table
from repro.analysis import branch_stats, merge_branch_stats
from repro.cache import CacheGeometry
from repro.execution import CombinedAddressMap
from repro.harness.figures import Table
from repro.ir import assign_addresses
from repro.layout import temporal_order
from repro.sim import MemoryHierarchy, simulate, simulate_victim_cache

GEOMETRY = CacheGeometry(64 * 1024, 128, 4)
HIERARCHY = MemoryHierarchy.l1i_only(GEOMETRY)


def _misses(streams) -> int:
    return simulate(list(streams), HIERARCHY).misses


def test_extension_victim_cache(benchmark, exp, results_dir):
    geometry = CacheGeometry(64 * 1024, 128, 1)

    def compute():
        out = {}
        for combo in ("base", "all"):
            raw = hits = 0
            for starts, counts in exp.streams(combo, scope="app"):
                result = simulate_victim_cache(starts, counts, geometry, 16)
                raw += result.raw_misses
                hits += result.victim_hits
            out[combo] = (raw, hits)
        return out

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = []
    for combo, (raw, hits) in results.items():
        rows.append([combo, raw, hits, raw - hits,
                     round(100 * hits / raw, 1)])
    table = Table(
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
    save_table(table, "ext_victim_cache", results_dir)
    base_raw, base_hits = results["base"]
    opt_raw, _ = results["all"]
    # Hardware fix on the base binary never reaches the optimized binary.
    assert (base_raw - base_hits) > opt_raw


def test_extension_temporal_ordering(benchmark, exp, results_dir):
    def compute():
        units = exp.optimizer._proc_units(chained=False)
        streams = [exp.trace.app_block_stream(i)
                   for i in range(len(exp.trace.cpus))]
        layout = temporal_order(
            exp.app.binary, units, streams, exp.profile.block_counts,
            window=24,
        )
        amap = CombinedAddressMap(
            assign_addresses(exp.app.binary, layout),
            exp.address_map("base").kernel_map,
        )
        span_streams = []
        for cpu in exp.trace.cpus:
            blocks = cpu.blocks[cpu.blocks < exp.trace.kernel_offset]
            span_streams.append(amap.expand_spans(blocks))
        return _misses(span_streams)

    temporal_misses = benchmark.pedantic(compute, rounds=1, iterations=1)
    base = _misses(exp.streams("base", scope="app"))
    porder = _misses(exp.streams("porder", scope="app"))
    full = _misses(exp.streams("all", scope="app"))
    table = Table(
        title="Related-work comparator: temporal ordering (Gloy et al.) "
        "at whole-procedure granularity (64KB/128B/4-way)",
        columns=["layout", "misses", "% of base"],
        rows=[
            ["base", base, 100.0],
            ["porder (call graph)", porder, round(100 * porder / base, 1)],
            ["temporal (TRG)", temporal_misses,
             round(100 * temporal_misses / base, 1)],
            ["all (full pipeline)", full, round(100 * full / base, 1)],
        ],
        notes=[
            "paper 6: placement-only schemes, whatever the affinity "
            "metric, cannot match chaining+splitting on OLTP footprints",
        ],
    )
    save_table(table, "ext_temporal", results_dir)
    assert temporal_misses > 1.5 * full


def test_extension_taken_branch_rate(benchmark, exp, results_dir):
    def compute():
        out = {}
        for combo in ("base", "chain", "all"):
            stats = merge_branch_stats(
                branch_stats(s, c) for s, c in exp.streams(combo, scope="app")
            )
            out[combo] = stats
        return out

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    rows = [
        [combo, stats.transitions, stats.breaks,
         round(100 * stats.break_fraction, 2),
         round(1000 * stats.breaks_per_instruction, 2)]
        for combo, stats in results.items()
    ]
    table = Table(
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
    save_table(table, "ext_branch_rate", results_dir)
    assert results["chain"].break_fraction < results["base"].break_fraction
    assert results["all"].breaks_per_instruction < \
        results["base"].breaks_per_instruction
