"""Smoke tests for the ``repro`` CLI (in-process plus one ``python -m repro`` run)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestList:
    def test_lists_every_registered_scenario(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig6_layout", "fig7_tempo_validation", "table1_taxonomy",
                     "dse_large_grid"):
            assert name in out

    def test_tag_filter(self, capsys):
        assert main(["list", "--tag", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "fig6_layout" in out
        assert "fig8_lt_validation" not in out


class TestRun:
    def test_run_prints_the_benchmark_table(self, capsys):
        assert main(["run", "table1_taxonomy", "--no-store"]) == 0
        out = capsys.readouterr().out
        reference = (REPO_ROOT / "benchmarks" / "results" / "table1_taxonomy.txt").read_text()
        assert reference.rstrip("\n") in out

    def test_run_with_check_and_save_results(self, tmp_path, capsys):
        assert main([
            "run", "fig6_layout", "--no-store", "--check",
            "--save-results", str(tmp_path),
        ]) == 0
        saved = (tmp_path / "fig6_layout.txt").read_text()
        reference = (REPO_ROOT / "benchmarks" / "results" / "fig6_layout.txt").read_text()
        assert saved == reference

    def test_run_uses_and_fills_the_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["run", "table1_taxonomy", "--store", store]) == 0
        first = capsys.readouterr()
        assert "run in" in first.err
        assert main(["run", "table1_taxonomy", "--store", store]) == 0
        second = capsys.readouterr()
        assert "result store" in second.err
        assert first.out == second.out

    def test_run_param_override(self, tmp_path, capsys):
        assert main([
            "run", "fig11_heterogeneous", "--no-store",
            "--param", "width_multiplier=0.1",
        ]) == 0
        assert "vgg" not in capsys.readouterr().err  # no error output

    def test_unknown_scenario_is_an_actionable_error(self, capsys):
        assert main(["run", "fig6_layot", "--no-store"]) == 1
        err = capsys.readouterr().err
        assert "did you mean 'fig6_layout'" in err

    def test_unknown_param_is_an_actionable_error(self, capsys):
        assert main([
            "run", "fig6_layout", "--no-store", "--param", "nope=1",
        ]) == 1
        assert "parameter of scenario" in capsys.readouterr().err

    def test_out_of_range_param_is_a_one_line_error(self, capsys):
        assert main([
            "run", "variation_robustness", "--no-store", "--param", "trials=0",
        ]) == 1
        assert capsys.readouterr().err == "error: trials must be positive, got 0\n"

    def test_param_sets_the_monte_carlo_trial_count(self, tmp_path, monkeypatch, capsys):
        # --param is the one way to set the trial count; a stale environment
        # override from before the knob was retired is ignored.
        from repro.scenarios import run_scenario

        monkeypatch.setenv("REPRO_MC_TRIALS", "3")
        assert main([
            "run", "variation_robustness", "--no-store", "--param", "trials=2",
            "--save-results", str(tmp_path),
        ]) == 0
        saved = (tmp_path / "variation_robustness.txt").read_text()
        expected = run_scenario("variation_robustness", params={"trials": 2})
        assert expected.metrics["trials"] == 2
        assert saved == expected.table + "\n"
        assert saved != run_scenario("variation_robustness", params={"trials": 3}).table + "\n"

    def test_the_retired_pool_subcommand_is_unknown(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pool"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'pool'" in capsys.readouterr().err

    def test_the_retired_bench_subcommand_is_unknown(self, capsys):
        # perfbench/run.py is the one benchmark; the CLI no longer times itself.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestBatchAndReport:
    def test_smoke_batch_then_report(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["batch", "--smoke", "--store", store, "--check"]) == 0
        out = capsys.readouterr().out
        assert "engine passes executed:" in out
        assert "ran" in out

        assert main(["batch", "--smoke", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "store hit" in out
        assert "engine passes executed: 0" in out

        assert main(["report", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "fig6_layout" in out

        assert main(["report", "fig6_layout", "--store", store]) == 0
        out = capsys.readouterr().out
        reference = (REPO_ROOT / "benchmarks" / "results" / "fig6_layout.txt").read_text()
        assert reference.rstrip("\n") in out

    def test_report_format_json(self, tmp_path, capsys):
        import json

        store = str(tmp_path / "store")
        main(["batch", "fig6_layout", "--store", store])
        capsys.readouterr()

        assert main(["report", "--store", store, "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert [e["name"] for e in entries] == ["fig6_layout"]
        assert set(entries[0]) >= {"name", "fingerprint", "created_at",
                                   "elapsed_s", "params", "path"}

        assert main(["report", "fig6_layout", "--store", store,
                     "--format", "json"]) == 0
        payloads = json.loads(capsys.readouterr().out)
        assert payloads[0]["name"] == "fig6_layout"
        assert payloads[0]["metrics"]["num_placements"] == 5
        assert payloads[0]["table"]

    def test_report_json_empty_store_is_valid_json(self, tmp_path, capsys):
        import json

        assert main(["report", "--store", str(tmp_path / "empty"),
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_report_missing_name_errors(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["batch", "fig6_layout", "--store", store])
        capsys.readouterr()
        assert main(["report", "table1_taxonomy", "--store", store]) == 1
        assert "not in store" in capsys.readouterr().err

    def test_batch_explicit_names(self, capsys):
        assert main(["batch", "fig6_layout", "table1_taxonomy", "--no-store"]) == 0
        out = capsys.readouterr().out
        assert "fig6_layout" in out and "table1_taxonomy" in out

    def test_batch_rejects_conflicting_selectors(self):
        with pytest.raises(SystemExit, match="not a combination"):
            main(["batch", "--all", "--smoke", "--no-store"])
        with pytest.raises(SystemExit, match="not a combination"):
            main(["batch", "fig6_layout", "--smoke", "--no-store"])


def test_python_dash_m_repro_entry_point(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "list"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "table1_taxonomy" in proc.stdout


def test_console_script_is_declared():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"]["repro"] == "repro.cli:main"
