"""End-to-end tests of the online adaptation loop (quick scale)."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError, LayoutError
from repro.harness.experiment import Experiment
from repro.pipeline.runlog import CACHE_HIT, CACHE_MISS, CACHE_OFF
from repro.harness.store import ArtifactStore
from repro.layout import SpikeOptimizer
from repro.online import (
    AdaptiveRelayout,
    OnlineConfig,
    phased_experiment_config,
    run_online_experiment,
)


@pytest.fixture(scope="module")
def exp():
    experiment = Experiment(phased_experiment_config())
    _ = experiment.trace
    return experiment


@pytest.fixture(scope="module")
def report(exp):
    return run_online_experiment(exp, OnlineConfig(epochs=3))


class TestOnlineExperiment:
    def test_acceptance(self, report):
        # The ISSUE's bar: post-drift the adaptive layout lands within
        # 10% of a freshly re-profiled offline layout while the static
        # layout decays measurably.
        assert report.passes(margin=1.10)
        assert report.decay_ratio > 1.5
        assert report.final.adaptive_mpki < report.final.static_mpki

    def test_detects_the_phase_shift(self, report):
        assert report.swaps >= 1
        assert any(r.action == "swap" for r in report.rows)
        assert max(r.drift_score for r in report.rows) > 0.40

    def test_report_shape(self, report):
        assert len(report.rows) == 3
        assert [r.epoch for r in report.rows] == [0, 1, 2]
        for row in report.rows:
            assert row.instructions > 0
            for arm in ("static", "adaptive", "reprofiled", "oracle"):
                assert getattr(row, f"{arm}_mpki") >= 0.0
            assert row.action in ("swap", "refresh", "consolidate", "hold")

    def test_first_epoch_is_pre_shift(self, report):
        # Before the shift every arm runs a TPC-B-trained layout:
        # static must not yet have decayed.
        first = report.rows[0]
        assert first.static_mpki == pytest.approx(first.reprofiled_mpki)
        assert first.adaptive_mpki == pytest.approx(first.static_mpki)

    def test_to_dict_round_trips_through_json(self, report):
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["config"]["epochs"] == 3
        assert len(payload["epochs"]) == 3
        assert payload["swaps"] == report.swaps
        assert payload["recovery_ratio"] == round(report.recovery_ratio, 4)

    def test_render_mentions_the_summary(self, report):
        text = report.render()
        assert "layout swaps" in text
        assert f"{report.recovery_ratio:.3f}x" in text

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="epochs"):
            OnlineConfig(epochs=1)
        with pytest.raises(ConfigError, match="shift_after"):
            OnlineConfig(shift_after=0)


class TestAdaptiveRelayout:
    def test_layouts_cached_by_profile_fingerprint(self, exp, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        relayout = AdaptiveRelayout(exp.app.binary, store=store)
        first = relayout.rebuild(exp.profile)
        assert first.cache == CACHE_MISS
        second = relayout.rebuild(exp.profile)
        assert second.cache == CACHE_HIT
        assert second.layout.ids.tolist() == first.layout.ids.tolist()
        assert second.rebuilt_procs == ()

    def test_without_store_every_rebuild_is_cold(self, exp):
        relayout = AdaptiveRelayout(exp.app.binary)
        result = relayout.rebuild(exp.profile)
        assert result.cache == CACHE_OFF
        assert result.rebuilt_procs == ("*",)

    def test_incremental_rebuild_reuses_unchanged_chains(self, exp):
        relayout = AdaptiveRelayout(exp.app.binary)
        baseline = relayout.rebuild(exp.profile)
        # Same profile again: nothing drifted, everything is reusable.
        incremental = relayout.rebuild(
            exp.profile,
            previous=baseline.optimizer,
            reference=exp.profile,
        )
        assert incremental.rebuilt_procs == ()
        assert incremental.reused_chains > 0
        assert incremental.layout.ids.tolist() == baseline.layout.ids.tolist()

    def test_corrupt_cache_entry_degrades_to_rebuild(self, exp, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        relayout = AdaptiveRelayout(exp.app.binary, store=store)
        first = relayout.rebuild(exp.profile)
        path = store.path(exp.profile.fingerprint(), "online-layout-all.json")
        path.write_text("{not json")
        again = relayout.rebuild(exp.profile)
        assert again.cache == CACHE_MISS
        assert again.layout.ids.tolist() == first.layout.ids.tolist()


class TestReuseChainings:
    def test_rejects_optimizer_for_different_binary(self, exp):
        ours = SpikeOptimizer(exp.app.binary, exp.profile)
        theirs = SpikeOptimizer(
            exp.kernel.binary, exp.kernel_profile
        )
        with pytest.raises(LayoutError, match="binary"):
            ours.reuse_chainings(theirs, rebuild=())


class TestOnlineCli:
    def test_cli_runs_and_checks(self, capsys):
        code = main(
            ["--no-cache", "--quiet", "online", "--epochs", "3", "--check"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "layout swaps" in out

    def test_cli_json_output(self, capsys):
        code = main(
            ["--no-cache", "--quiet", "online", "--epochs", "3", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["epochs"] == 3
        assert payload["recovery_ratio"] <= 1.10
