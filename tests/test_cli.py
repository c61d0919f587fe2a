"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCli:
    def test_info(self):
        code, text = run_cli("info")
        assert code == 0
        assert "application binary" in text
        assert "TPC-B" in text

    def test_figure_single(self):
        code, text = run_cli("figure", "fig03")
        assert code == 0
        assert "Figure 3" in text

    def test_figure_multiple_deduplicated(self):
        code, text = run_cli("figure", "fig03", "fig03")
        assert code == 0
        assert text.count("Figure 3:") == 1

    def test_figure_fig13_both_binaries(self):
        code, text = run_cli("figure", "fig13")
        assert code == 0
        assert "Figure 13 (base)" in text
        assert "Figure 13 (all)" in text

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("figure", "fig99")

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            run_cli()

    def test_ablation(self):
        code, text = run_cli("figure", "fig07")
        assert code == 0
        assert "Figure 7" in text
        assert "chain+porder" in text

    def test_fig04_fig05_sweep_each_combo_once(self, capsys):
        # fig05 is drawn from fig04's grids: one sweep per combo.
        code, text = run_cli("figure", "fig04", "fig05")
        assert code == 0
        assert "Figure 4 (base)" in text and "Figure 5" in text
        sweeps = [
            line.split()[1] for line in capsys.readouterr().err.splitlines()
            if line.startswith("sweep ")
        ]
        assert sweeps == ["fig04:base:batched", "fig04:all:batched"]

    def test_commands_in_one_process_share_no_experiment(self, capsys):
        code, _ = run_cli("figure", "fig07")
        assert code == 0
        assert "fig07" in capsys.readouterr().err
        code, _ = run_cli("--no-cache", "figure", "fig03")
        assert code == 0
        log = capsys.readouterr().err
        assert "cache=off" in log
        # Only this command's stages: no fig07 sweep, every stage uncached.
        assert "fig07" not in log
        stages = [line.split() for line in log.splitlines()[2:]]
        assert stages and all(fields[2] == "off" for fields in stages)

    def test_packing(self):
        code, text = run_cli("figure", "packing")
        assert code == 0
        assert "128B cache lines" in text


class TestCacheAndJobsFlags:
    def test_cache_info_empty(self, tmp_path):
        code, text = run_cli("--cache-dir", str(tmp_path / "c"), "cache", "info")
        assert code == 0
        assert "experiments:  0" in text

    def test_cache_populated_and_cleared(self, tmp_path):
        cache = str(tmp_path / "c")
        code, _ = run_cli("--cache-dir", cache, "--quiet", "figure", "fig07")
        assert code == 0
        code, text = run_cli("--cache-dir", cache, "cache", "info")
        assert code == 0
        assert "experiments:  1" in text
        code, text = run_cli("--cache-dir", cache, "cache", "clear")
        assert code == 0
        assert "cleared 1" in text
        code, text = run_cli("--cache-dir", cache, "cache", "info")
        assert "experiments:  0" in text

    def test_jobs_output_matches_serial(self):
        code_serial, serial = run_cli(
            "--no-cache", "--quiet", "figure", "fig07"
        )
        code_jobs, parallel = run_cli(
            "--no-cache", "--quiet", "--jobs", "4", "figure", "fig07"
        )
        assert code_serial == code_jobs == 0
        assert parallel == serial

    def test_runlog_rendered_to_stderr(self, capsys):
        code, text = run_cli("--no-cache", "figure", "fig03")
        assert code == 0
        captured = capsys.readouterr()
        assert "run log:" in captured.err
        assert "codegen" in captured.err
        assert "run log:" not in text  # tables stay clean on stdout

    def test_info_reports_fingerprint(self):
        code, text = run_cli("--quiet", "info")
        assert code == 0
        assert "fingerprint:" in text


class TestLint:
    """The `repro lint` subcommand: clean runs, JSON output, and the
    --strict gate over corrupted artifacts."""

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        """Corrupted layout/profile files exercising >= 8 distinct
        error codes, saved next to clean counterparts."""
        import json

        from repro.harness.experiment import quick_experiment
        from repro.harness.store import layout_to_dict, save_layout, save_profile
        from repro.ir import SEGMENT_ENDING

        root = tmp_path_factory.mktemp("lint-artifacts")
        exp = quick_experiment()
        binary = exp.app.binary
        layout = exp.optimizer.layout("all")
        profile = exp.profile

        def variant(filename, mutate):
            document = layout_to_dict(layout)
            mutate(document["units"])
            path = root / filename
            path.write_text(json.dumps(document))
            return str(path)

        def drop_block(units):
            victim = next(u for u in units if len(u["block_ids"]) > 1)
            victim["block_ids"] = victim["block_ids"][1:]

        def duplicate_block(units):
            units[0]["block_ids"].append(units[0]["block_ids"][0])

        def foreign_block(units):
            units[0]["block_ids"].append(10**6)

        def lose_entries(units):
            for unit in units:
                unit["is_entry"] = False

        def fuse_segments(units):
            first = next(
                i for i in range(len(units) - 1)
                if binary.block(units[i]["block_ids"][-1]).terminator
                in SEGMENT_ENDING
                and units[i]["proc_name"] == units[i + 1]["proc_name"]
            )
            fused = units[first]
            fused["block_ids"] += units[first + 1]["block_ids"]
            fused["is_entry"] = fused["is_entry"] or units[first + 1]["is_entry"]
            del units[first + 1]

        layouts = [
            variant("lay-drop.json", drop_block),        # LAY001 + LAY007
            variant("lay-dup.json", duplicate_block),    # LAY002
            variant("lay-foreign.json", foreign_block),  # LAY003
            variant("lay-entry.json", lose_entries),     # LAY004
            variant("lay-fused.json", fuse_segments),    # LAY009
        ]

        def profile_variant(filename, mutate):
            from collections import defaultdict

            from repro.profiles import Profile

            bad = Profile(binary)
            bad.block_counts = profile.block_counts.copy()
            bad.edge_counts = defaultdict(int, profile.edge_counts)
            mutate(bad)
            path = root / filename
            save_profile(bad, path)
            return str(path)

        def missing_inflow(bad):
            entries = {binary.entry_bid(n) for n in binary.proc_order()}
            victim = max(
                (b for b in range(binary.num_blocks) if b not in entries),
                key=bad.count,
            )
            for (src, dst) in list(bad.edge_counts):
                if dst == victim:
                    del bad.edge_counts[(src, dst)]

        def inflated_edge(bad):
            edge = max(bad.edge_counts, key=bad.edge_counts.get)
            bad.edge_counts[edge] = bad.edge_counts[edge] * 10 + 10_000

        def illegal_edge(bad):
            from repro.ir import Terminator

            src = next(
                b for b in binary.blocks()
                if b.terminator is Terminator.COND_BRANCH and bad.count(b.bid) > 0
            )
            dst = next(
                bid for bid in range(binary.num_blocks) if bid not in src.succs
            )
            bad.edge_counts[(src.bid, dst)] += 5

        profiles = [
            profile_variant("prof-inflow.npz", missing_inflow),    # PRF001
            profile_variant("prof-inflated.npz", inflated_edge),   # PRF002
            profile_variant("prof-illegal.npz", illegal_edge),     # PRF003
        ]

        clean_layout = root / "lay-clean.json"
        save_layout(layout, clean_layout)
        clean_profile = root / "prof-clean.npz"
        save_profile(profile, clean_profile)
        return {
            "layouts": layouts,
            "profiles": profiles,
            "clean_layout": str(clean_layout),
            "clean_profile": str(clean_profile),
        }

    def test_lint_combo_base_clean(self):
        code, text = run_cli("lint", "--combo", "base")
        assert code == 0
        assert "0 error(s)" in text

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("lint", "--scan=src"), id="--scan=src"),
            pytest.param(("lint", "--no-deprecations"), id="--no-deprecations"),
            pytest.param(("serve", "--no-verify"), id="serve--no-verify"),
            pytest.param(("sweep",), id="sweep"),
            pytest.param(("summary",), id="summary"),
            pytest.param(("ablation",), id="ablation"),
            pytest.param(("sim-bench", "--check"), id="sim-bench--check"),
            pytest.param(
                ("figure", "fig04", "--engine", "classic"),
                id="figure--engine",
            ),
        ],
    )
    def test_removed_options_are_argparse_errors(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv)
        assert exit_info.value.code == 2

    def test_lint_json_output(self):
        import json

        code, text = run_cli("lint", "--combo", "base", "--json")
        assert code == 0
        doc = json.loads(text)
        assert doc["errors"] == 0

    def test_strict_passes_on_clean_artifacts(self, artifacts):
        code, text = run_cli(
            "lint", "--strict", "--layout", artifacts["clean_layout"],
            "--profile", artifacts["clean_profile"],
        )
        assert code == 0
        assert "0 error(s)" in text

    @pytest.mark.parametrize("edit, code", [
        pytest.param("proc", "LAY003", id="proc"),
        pytest.param("name", "LAY003", id="name"),
        pytest.param("duplicate", "LAY003", id="duplicate"),
        pytest.param("entry", "LAY004", id="entry"),
    ])
    def test_refused_document_is_a_lint_error(self, artifacts, tmp_path, edit, code):
        """A document the decode check refuses is reported, never
        raised: one error code, rc 1."""
        import json

        document = json.loads(open(artifacts["clean_layout"]).read())
        units = document["units"]
        first, other = units[0], next(
            u for u in units if u["proc_name"] != units[0]["proc_name"]
        )
        if edit == "proc":
            first["proc_name"] = other["proc_name"]
            first["name"] = other["proc_name"] + ".seg999"
            first["is_entry"] = False
        elif edit == "name":
            first["name"] += "x"
        elif edit == "duplicate":
            units[1]["name"] = first["name"]
        else:
            first["is_entry"] = not first["is_entry"]
        path = tmp_path / f"lay-{edit}.json"
        path.write_text(json.dumps(document))
        status, text = run_cli("lint", "--strict", "--json", "--layout", str(path))
        assert status == 1
        errors = [
            d for d in json.loads(text)["diagnostics"] if d["severity"] == "error"
        ]
        assert errors and {d["code"] for d in errors} == {code}

    def test_strict_fails_with_eight_distinct_codes(self, artifacts):
        import json

        argv = ["lint", "--strict", "--json"]
        for path in artifacts["layouts"]:
            argv += ["--layout", path]
        for path in artifacts["profiles"]:
            argv += ["--profile", path]
        code, text = run_cli(*argv)
        assert code == 1
        doc = json.loads(text)
        error_codes = {
            d["code"] for d in doc["diagnostics"] if d["severity"] == "error"
        }
        expected = {
            "LAY001", "LAY002", "LAY003", "LAY004", "LAY007", "LAY009",
            "PRF001", "PRF002", "PRF003",
        }
        assert expected <= error_codes
        assert len(error_codes) >= 8


class TestProfileSourceFlags:
    def test_scenarios_list_shows_the_override(self):
        code, out = run_cli(
            "scenarios", "list", "--select", "tpcb-i32",
            "--profile-source", "static",
        )
        assert code == 0
        assert "static" in out

    def test_static_bench_single_cell(self):
        code, text = run_cli(
            "static-bench", "--select", "tpcb-i32", "--quiet"
        )
        assert code == 0
        assert "tpcb-i32_static" in text
        assert "oltp_static_gate_ok" in text

    def test_serve_rejects_hybrid_profile_source(self, capsys):
        # serve's cold start is either the static layout or none at all;
        # it has no hybrid mode to select.  (The unusable socket path
        # makes an accepted flag fail instead of serving forever.)
        with pytest.raises(SystemExit) as exit_info:
            run_cli(
                "serve", "--profile-source", "hybrid",
                "--unix", "/nonexistent-dir/serve.sock",
            )
        assert exit_info.value.code == 2
        assert "invalid choice: 'hybrid'" in capsys.readouterr().err

    def test_lint_static_diff_reports_advisories_only(self):
        code, text = run_cli(
            "lint", "--combo", "base", "--static-diff", "--quiet",
        )
        assert code == 0
        assert "static-diff:app" in text or "0 warning(s)" not in text
