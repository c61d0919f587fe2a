"""Tests for scenario specs: validation, identity, files, the built-in
matrix."""

import json
import sys

import pytest

from repro.errors import ScenarioError
from repro.scenarios.spec import (
    HierarchySpec,
    ScenarioSpec,
    WorkloadSpec,
    default_matrix,
    load_specs,
    select_specs,
)


def spec(**kwargs):
    kwargs.setdefault("name", "cell")
    return ScenarioSpec(**kwargs)


class TestValidation:
    def test_minimal_spec_valid(self):
        spec().validate()

    def test_bad_name(self):
        with pytest.raises(ScenarioError, match="name"):
            spec(name="no spaces allowed").validate()

    def test_unknown_workload_kind(self):
        with pytest.raises(ScenarioError, match="workload kind"):
            spec(workload=WorkloadSpec(kind="olap")).validate()

    def test_unknown_synthetic_mix(self):
        with pytest.raises(ScenarioError, match="mix"):
            spec(
                workload=WorkloadSpec(kind="synthetic", mix="zig")
            ).validate()

    def test_unknown_synthetic_op(self):
        with pytest.raises(ScenarioError, match="op"):
            spec(
                workload=WorkloadSpec(kind="synthetic", ops=("delete",))
            ).validate()

    def test_unknown_combo(self):
        with pytest.raises(ScenarioError, match="cell"):
            spec(combo="chain+sploot").validate()

    def test_unknown_drift(self):
        with pytest.raises(ScenarioError, match="drift"):
            spec(drift="wander").validate()

    def test_phased_plus_shift_rejected(self):
        with pytest.raises(ScenarioError, match="already a shift"):
            spec(workload=WorkloadSpec(kind="phased"), drift="shift").validate()

    def test_shift_after_must_be_positive(self):
        with pytest.raises(ScenarioError, match="shift_after"):
            spec(drift="shift", shift_after=0).validate()

    def test_batched_engine_rejects_associative_l1(self):
        with pytest.raises(ScenarioError, match="direct-mapped"):
            spec(hierarchy=HierarchySpec(assoc=2)).validate()

    def test_batched_engine_rejects_l2(self):
        with pytest.raises(ScenarioError, match="direct-mapped"):
            spec(hierarchy=HierarchySpec(l2_kb=512)).validate()

    def test_classic_engine_allows_associative_l2(self):
        spec(
            engine="classic",
            hierarchy=HierarchySpec(assoc=2, l2_kb=512),
        ).validate()

    def test_unknown_scope(self):
        with pytest.raises(ScenarioError, match="scope"):
            spec(scope="everything").validate()


class TestIdentity:
    def test_fingerprint_stable(self):
        assert spec().fingerprint() == spec().fingerprint()

    def test_name_excluded_from_fingerprint(self):
        assert spec(name="a").fingerprint() == spec(name="b").fingerprint()

    def test_axes_change_fingerprint(self):
        base = spec().fingerprint()
        assert spec(combo="chain").fingerprint() != base
        assert spec(hierarchy=HierarchySpec(l1i_kb=64)).fingerprint() != base
        assert spec(workload=WorkloadSpec(kind="dss")).fingerprint() != base

    def test_synth_knobs_only_fingerprint_synthetic_cells(self):
        # hot_probability is a synthetic knob; for tpcb it is inert.
        a = spec(workload=WorkloadSpec(kind="tpcb", hot_probability=0.5))
        b = spec(workload=WorkloadSpec(kind="tpcb", hot_probability=0.9))
        assert a.fingerprint() == b.fingerprint()
        c = spec(workload=WorkloadSpec(kind="synthetic", hot_probability=0.5))
        d = spec(workload=WorkloadSpec(kind="synthetic", hot_probability=0.9))
        assert c.fingerprint() != d.fingerprint()

    def test_plain_tpcb_shares_the_figure_cache(self):
        from repro.harness.experiment import quick_experiment

        assert spec().cache_salt() == ""
        assert (
            spec().experiment_config().fingerprint()
            == quick_experiment().config.fingerprint()
        )

    def test_other_workloads_salt_the_cache(self):
        dss = spec(workload=WorkloadSpec(kind="dss"))
        assert dss.cache_salt().startswith("scn-dss-")
        assert (
            dss.experiment_config().fingerprint()
            != spec().experiment_config().fingerprint()
        )

    def test_roundtrip_through_dict(self):
        original = spec(
            workload=WorkloadSpec(kind="synthetic", ops=("read", "scan")),
            drift="shift",
            shift_after=2,
        )
        rebuilt = ScenarioSpec.from_dict(original.to_dict())
        assert rebuilt == original
        assert rebuilt.fingerprint() == original.fingerprint()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ScenarioError, match="colour"):
            ScenarioSpec.from_dict({"name": "x", "colour": "red"})
        with pytest.raises(ScenarioError, match="sockets"):
            ScenarioSpec.from_dict(
                {"name": "x", "hierarchy": {"sockets": 2}}
            )


class TestMatrixFiles:
    def test_load_json(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({
            "scenario": [
                {"name": "a"},
                {"name": "b", "workload": {"kind": "dss"}},
            ]
        }))
        specs = load_specs(path)
        assert [s.name for s in specs] == ["a", "b"]
        assert specs[1].workload.kind == "dss"

    def test_load_toml(self, tmp_path):
        path = tmp_path / "matrix.toml"
        path.write_text(
            '[[scenario]]\nname = "a"\n\n'
            '[[scenario]]\nname = "b"\nengine = "classic"\n'
            "[scenario.hierarchy]\nl1i_kb = 64\nassoc = 2\n"
        )
        if sys.version_info < (3, 11):
            try:
                import tomli  # noqa: F401
            except ImportError:
                with pytest.raises(ScenarioError, match="TOML"):
                    load_specs(path)
                return
        specs = load_specs(path)
        assert specs[1].hierarchy.l1i_kb == 64

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"scenario": [{"name": "a"}] * 2}))
        with pytest.raises(ScenarioError, match="duplicate"):
            load_specs(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text("{}")
        with pytest.raises(ScenarioError, match="no scenarios"):
            load_specs(path)

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "matrix.yaml"
        path.write_text("scenario: []")
        with pytest.raises(ScenarioError, match=".toml or .json"):
            load_specs(path)


class TestSelection:
    def test_glob_selection(self):
        specs = default_matrix()
        chosen = select_specs(specs, ["tpcb-*"])
        assert chosen
        assert all(s.name.startswith("tpcb-") for s in chosen)

    def test_no_patterns_selects_all(self):
        specs = default_matrix()
        assert select_specs(specs, []) == specs

    def test_unmatched_pattern_is_an_error(self):
        with pytest.raises(ScenarioError, match="matched no scenario"):
            select_specs(default_matrix(), ["nope-*"])

    def test_selection_deduplicates(self):
        specs = default_matrix()
        chosen = select_specs(specs, ["tpcb-i32", "tpcb-*"])
        assert len(chosen) == len({s.name for s in chosen})


class TestRegistry:
    def test_default_matrix_covers_the_axes(self):
        specs = default_matrix()
        assert len(specs) >= 8
        kinds = {s.workload.kind for s in specs}
        assert {"tpcb", "dss", "synthetic"} <= kinds
        assert {s.engine for s in specs} == {"batched", "classic"}
        assert any(s.drift == "shift" for s in specs)
        assert len({s.name for s in specs}) == len(specs)


class TestProfileSourceAxis:
    def test_default_is_measured(self):
        assert spec().profile_source == "measured"

    def test_unknown_source_rejected(self):
        with pytest.raises(ScenarioError, match="profile source"):
            spec(profile_source="psychic").validate()

    def test_measured_keeps_the_pre_axis_fingerprint(self):
        """The axis addition must not invalidate cached measured cells:
        ``profile_source`` only contributes to the canonical payload
        when it departs from the default."""
        assert "profile_source" not in spec().canonical()
        assert (
            spec(profile_source="measured").fingerprint()
            == spec().fingerprint()
        )

    def test_static_and_hybrid_fingerprint_differently(self):
        prints = {
            spec(profile_source=source).fingerprint()
            for source in ("measured", "static", "hybrid")
        }
        assert len(prints) == 3

    def test_round_trips_through_dict(self):
        cell = spec(profile_source="hybrid").validate()
        assert ScenarioSpec.from_dict(cell.to_dict()) == cell
