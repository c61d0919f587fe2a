"""The paper's claims, checked on the tables ``repro figure`` renders.

Every :data:`~repro.harness.figures.FIGURES` key renders at quick scale
(a smoke test), and each table's claim check runs there when the claim
holds at that scale.  Seven claims hold only at paper scale -- the
quick binary fits caches of 64KB and up -- so they run only in the
``paper_scale`` variant, which runs every check on the ``--full``
experiment and is deselected by default::

    python -m pytest tests/test_figure_claims.py -m paper_scale

Checks read the table rows; where a claim needs a value the rows only
show rounded, it reads the same memoized product the table was drawn
from, so nothing is computed twice.
"""

import pytest

from repro.cli._common import default_jobs
from repro.harness import (
    ArtifactStore,
    Experiment,
    default_cache_dir,
    default_experiment,
    dss_config,
    figures,
    quick_experiment,
    uniprocessor_config,
)
from repro.harness.figures import FIGURES, SWEEP_LINES, SWEEP_SIZES
from repro.online import OnlineConfig, phased_experiment_config, run_online_experiment


class FigureRun:
    """One scale's experiment, its command memo and the tables rendered
    so far -- the state one ``repro figure all`` invocation holds."""

    def __init__(self, config):
        self.exp = Experiment(
            config, store=ArtifactStore(default_cache_dir()), jobs=default_jobs()
        )
        self.memo = figures.memo()
        self._tables = {}

    def tables(self, key):
        if key not in self._tables:
            self._tables[key] = FIGURES[key](self.exp, self.memo)
        return self._tables[key]

    def rows(self, key, index=0):
        return self.tables(key)[index].rows

    @property
    def uni(self):
        return self.memo(figures.variant, self.exp, uniprocessor_config)


_RUNS = {}


def _run(scale):
    if scale not in _RUNS:
        base = quick_experiment() if scale == "quick" else default_experiment()
        _RUNS[scale] = FigureRun(base.config)
    return _RUNS[scale]


def _reduction(base: float, opt: float) -> float:
    return 100.0 * (1 - opt / max(base, 1))


# -- one check per table --------------------------------------------------------


def check_fig03(run):
    rows = dict((r[0], r[1]) for r in run.rows("fig03"))
    # Shape checks: large, flat-ish footprint.
    assert max(rows) >= 100  # at least 100KB of touched code
    if 50 in rows:
        assert rows[50] < 99.0  # 50KB must not capture everything


def check_fig04(run):
    run.tables("fig04")
    grid = run.memo(figures.fig04_cache_sweep, run.exp, "base")
    # Misses decrease with cache size at fixed line size.
    for line in SWEEP_LINES:
        series = [grid[(s, line)] for s in SWEEP_SIZES]
        assert series == sorted(series, reverse=True)


def check_fig05(run):
    run.tables("fig05")
    base = run.memo(figures.fig04_cache_sweep, run.exp, "base")
    opt = run.memo(figures.fig04_cache_sweep, run.exp, "all")
    # Headline: a 45%+ reduction at 64-128KB with 128B lines.
    for size_kb in (64, 128):
        ratio = opt[(size_kb * 1024, 128)] / base[(size_kb * 1024, 128)]
        assert ratio < 0.55, f"only {1 - ratio:.0%} reduction at {size_kb}KB"


def check_fig06(run):
    for row in run.rows("fig06"):
        size_kb, base_dm, base_4w, opt_dm, opt_4w = row
        # Associativity helps, but never as much as the layout change.
        assert base_4w <= base_dm
        assert opt_4w <= opt_dm
        if size_kb in (64, 128):
            assoc_gain = base_dm - base_4w
            layout_gain = base_dm - opt_dm
            assert layout_gain > assoc_gain


def check_fig07(run):
    by_combo = {row[0]: row[1:] for row in run.rows("fig07")}
    for i, size in enumerate(SWEEP_SIZES):
        base = by_combo["base"][i]
        if size <= 128 * 1024:
            # porder alone does not help much at realistic sizes (paper:
            # slightly hurts), and never approaches chaining.  At 512KB
            # our whole packed hot set fits the cache, so porder alone
            # wins there -- a small-image artifact recorded in
            # EXPERIMENTS.md -- and the orderings invert.
            assert by_combo["porder"][i] > 0.85 * base
            assert by_combo["porder"][i] > by_combo["chain"][i]
        # chaining is the big win.
        assert by_combo["chain"][i] < 0.75 * base
        # the fully optimized binary keeps most of that win.
        assert by_combo["all"][i] < 0.75 * base


def check_fig08(run):
    values = {row[0]: row[1] for row in run.rows("fig08")}
    # Paper: base ~7.3, optimized 10+; both above the mean block size.
    assert 5.0 < values["base"] < 11.0
    assert values["optimized"] > values["base"] * 1.25
    assert values["base"] > values["basic block size"]


def _detailed(run, key):
    run.tables(key)
    return [
        run.memo(figures.detailed_results, run.exp, combo)
        for combo in ("base", "all")
    ]


def check_fig09(run):
    base, opt = _detailed(run, "fig09")
    base_frac = base.locality.unique_words_fractions()
    opt_frac = opt.locality.unique_words_fractions()
    # Optimized binary fills the whole 32-word line far more often.
    assert opt_frac[32] > base_frac[32] * 1.5
    assert opt_frac[32] > 0.25


def check_fig10(run):
    base, opt = _detailed(run, "fig10")
    # Paper: ~46% of fetched words never used in base; optimized much lower.
    assert base.locality.unused_fraction > 0.30
    assert opt.locality.unused_fraction < base.locality.unused_fraction * 0.75


def check_fig11(run):
    base, opt = _detailed(run, "fig11")

    # Mean lifetime (in cache accesses) grows substantially.
    def mean_lifetime(result):
        fractions = result.locality.lifetime_fractions()
        return sum((2.0 ** i) * f for i, f in enumerate(fractions))

    assert mean_lifetime(opt) > 1.5 * mean_lifetime(base)


def check_fig12(run):
    base_table, opt_table = run.tables("fig12")
    base = {r[0]: r for r in base_table.rows}
    opt = {r[0]: r for r in opt_table.rows}
    for size_kb in (64, 128):
        _s, combined_b, app_b, kernel_b = base[size_kb]
        _s, combined_o, app_o, kernel_o = opt[size_kb]
        # Interference: combined > app-isolated + a bit.
        assert combined_b > app_b
        assert combined_o > app_o
        # Kernel in isolation is the smallest component.
        assert kernel_b < app_b
        # Combined reduction is a bit smaller than isolated reduction
        # (paper: 45-60% combined vs 55-65% isolated), and still large.
        reduction = 1 - combined_o / combined_b
        assert reduction > 0.35
        isolated_reduction = 1 - app_o / app_b
        assert reduction <= isolated_reduction + 0.05


def check_fig13(run):
    for table in run.tables("fig13"):
        rows = {r[0]: (r[1], r[2]) for r in table.rows}
        kernel_owned, app_owned = rows["application"]
        # Application misses are dominated by self-interference.
        assert app_owned > kernel_owned
        k_kernel_owned, k_app_owned = rows["kernel"]
        # Kernel misses mostly displace application lines.
        assert k_app_owned >= k_kernel_owned


def check_fig14(run):
    rows = {r[0]: r[1:] for r in run.rows("fig14")}
    base_itlb, base_l2i, base_l2d = rows["base"]
    opt_itlb, opt_l2i, opt_l2d = rows["all"]
    # Layout optimization reduces iTLB misses (paper: better page packing).
    assert opt_itlb < base_itlb
    # L2 instruction misses drop.
    assert opt_l2i < base_l2i
    # L2 data misses stay roughly constant (within 25%).
    assert abs(opt_l2d - base_l2d) <= 0.25 * max(base_l2d, 1)


def check_fig15(run):
    rows = {r[0]: r[1:] for r in run.rows("fig15")}
    for platform_index in range(2):
        base = rows["base"][platform_index]
        full = rows["all"][platform_index]
        assert base == 100.0
        # A material end-to-end win on both platforms (paper: ~75%).
        assert full < 93.0
        # Chaining delivers the bulk of it.
        assert rows["chain"][platform_index] < 95.0
        # porder alone is nearly useless.
        assert rows["porder"][platform_index] > rows["chain"][platform_index]


def check_packing(run):
    rows = {r[0]: r for r in run.rows("packing")}
    base_lines = rows["base"][1]
    opt_lines = rows["optimized"][1]
    # Paper: 37% smaller footprint in 128B lines; require a clear shrink.
    assert opt_lines < base_lines * 0.92


def check_text_21164_counters(run):
    rows = run.rows("text_21164_counters")
    base = [row[1] for row in rows]
    opt = [row[2] for row in rows]
    assert _reduction(base[0], opt[0]) > 15
    assert _reduction(base[1], opt[1]) > 25


def check_text_mp_vs_up(run):
    run.tables("text_mp_vs_up")
    uni = run.memo(figures.layout_speedup, run.uni)
    multi = run.memo(figures.layout_speedup, run.exp)
    assert uni > 1.04
    assert multi > 1.0


def check_text_kernel_opt(run):
    rows = run.rows("text_kernel_opt")
    base, opt = rows[0][1], rows[1][1]
    # Small effect: well under the application-side gains.
    assert abs(base - opt) < 0.30 * base


def check_ablation_hotcold_split(run):
    misses = {r[0]: r[1] for r in run.rows("ablation_hotcold_split")}
    assert misses["hotcold"] < misses["base"]
    # Splitting alone neither helps nor hurts much (paper: "adding
    # splitting ... alone does not improve performance significantly").
    assert 0.85 * misses["base"] < misses["split"] < 1.15 * misses["base"]
    # And it cannot match the chaining-based pipelines.
    assert misses["split"] > 1.5 * misses["all"]


def check_ablation_cfa(run):
    """The CFA reserved area is too small for OLTP traces (paper 2)."""
    run.tables("ablation_cfa")
    report, cfa_misses = run.memo(figures.cfa_result, run.exp)
    all_misses = run.memo(figures.app_l1i, run.exp, "all").misses
    # The negative result: massive overflow, no improvement over 'all'.
    assert report.hot_overflow_bytes > 4 * report.reserved_bytes
    assert cfa_misses > all_misses * 0.9


def check_ablation_dcpi_profile(run):
    """Optimizing from a sampled (DCPI) profile still captures most of
    the win -- block-count-estimated edges are what the paper's kernel
    profiling had to use."""
    misses = {r[0]: r[1] for r in run.rows("ablation_dcpi_profile")}
    dcpi_misses, base_misses = misses["dcpi-driven"], misses["base (no opt)"]
    # Sampling loses some precision but keeps the bulk of the benefit.
    assert dcpi_misses < 0.8 * base_misses


def check_ablation_multiprogramming(run):
    by_key = {(r[0], r[1]): r[3] for r in run.rows("ablation_multiprogramming")}
    for procs in (1, 4, 8, 16):
        # Layout wins at every multiprogramming level.
        assert by_key[(procs, "all")] < by_key[(procs, "base")]
    # Heavier multiprogramming costs the base binary more cache misses
    # per instruction than light multiprogramming.
    assert by_key[(16, "base")] > by_key[(1, "base")] * 0.9


def check_dss_vs_oltp(run):
    run.tables("dss_vs_oltp")
    dss = run.memo(figures.variant, run.exp, dss_config)

    def mpki(experiment, combo):
        return run.memo(figures.app_l1i, experiment, combo).mpki

    oltp_base = mpki(run.exp, "base")
    dss_base = mpki(dss, "base")
    # DSS baseline runs at a small fraction of OLTP's miss rate.
    assert dss_base < 0.5 * oltp_base
    # And layout gains less on DSS (absolute MPKI improvement).
    oltp_gain = oltp_base - mpki(run.exp, "all")
    dss_gain = dss_base - mpki(dss, "all")
    assert dss_gain < oltp_gain


def check_ext_stream_buffers(run):
    results = {r[0]: (r[1], r[2]) for r in run.rows("ext_stream_buffers")}
    base_raw, base_cov = results["base"]
    opt_raw, opt_cov = results["all"]
    # Absolute wins compose: optimized + buffers beats base + buffers.
    assert (opt_raw - opt_cov) < (base_raw - base_cov)
    # Both binaries get meaningful coverage from the buffers.
    assert base_cov / base_raw > 0.25
    assert opt_cov / opt_raw > 0.25


def check_ext_victim_cache(run):
    results = {r[0]: (r[1], r[2]) for r in run.rows("ext_victim_cache")}
    base_raw, base_hits = results["base"]
    opt_raw, _ = results["all"]
    # Hardware fix on the base binary never reaches the optimized binary.
    assert (base_raw - base_hits) > opt_raw


def check_ext_coloring(run):
    misses = {r[0]: r[1] for r in run.rows("ext_coloring")}
    coloring_misses, full = misses["coloring"], misses["all (full pipeline)"]
    # The paper's point: placement alone cannot approach the pipeline.
    assert coloring_misses > 2 * full


def check_ext_temporal(run):
    misses = {r[0]: r[1] for r in run.rows("ext_temporal")}
    temporal_misses, full = misses["temporal (TRG)"], misses["all (full pipeline)"]
    assert temporal_misses > 1.5 * full


def check_ext_joint_placement(run):
    rows = run.rows("ext_joint_placement")
    unshifted, shifted_misses = rows[0][1], rows[1][1]
    # The offset search must not make things worse by more than noise.
    assert shifted_misses < unshifted * 1.05


def check_ext_branch_rate(run):
    run.tables("ext_branch_rate")
    results = {
        combo: run.memo(figures.app_branch_stats, run.exp, combo)
        for combo in ("base", "chain", "all")
    }
    assert results["chain"].break_fraction < results["base"].break_fraction
    assert results["all"].breaks_per_instruction < \
        results["base"].breaks_per_instruction


CHECKS = {
    name[len("check_"):]: check
    for name, check in list(globals().items())
    if name.startswith("check_")
}

#: Claims that fail as measured on the quick experiment: its binary
#: fits caches of 64KB and up.
PAPER_ONLY = {
    "ablation_cfa",   # overflow 11,548 B, needs more than 4 x 16,384 B
    "ext_coloring",   # 1,313 misses, needs more than 2 x 874
    "ext_temporal",   # 1,306 misses, needs more than 1.5 x 874
    "fig03",          # 50 KB footprint, needs at least 100 KB
    "fig07",          # porder 1,280 misses, needs more than 0.85 x 4,843
    "fig11",          # lifetime ratio 1.17, needs more than 1.5
    "fig13",          # 'all' has 0 app misses at 128 KB
}


def _claim_cases():
    for key in sorted(CHECKS):
        if key not in PAPER_ONLY:
            yield pytest.param("quick", key, id=f"quick-{key}")
        yield pytest.param(
            "paper", key, id=f"paper-{key}", marks=pytest.mark.paper_scale
        )


def test_every_figure_key_has_a_claim_check():
    assert set(CHECKS) == set(FIGURES)
    assert PAPER_ONLY <= set(CHECKS)


@pytest.mark.parametrize("key", sorted(FIGURES))
def test_figure_renders_at_quick_scale(key):
    tables = _run("quick").tables(key)
    assert tables
    for table in tables:
        assert table.rows
        assert table.render().startswith(table.title)


@pytest.mark.parametrize("scale, key", list(_claim_cases()))
def test_claim(scale, key):
    CHECKS[key](_run(scale))


def test_online_adaptive_recovery():
    """``repro online`` at its defaults: the quick phased experiment cut
    into six epochs."""
    exp = Experiment(phased_experiment_config())
    report = run_online_experiment(exp, OnlineConfig(epochs=6))
    # The static layout decays measurably after the shift...
    assert report.decay_ratio > 1.5
    # ...while the adaptive loop recovers to within 10% of offline
    # re-profiling and beats the decayed static layout outright.
    assert report.passes(margin=1.10)
