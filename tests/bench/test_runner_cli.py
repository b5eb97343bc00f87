"""Tests for the experiment runner and the repro-bench CLI (tiny sizes)."""

from __future__ import annotations

import math

import pytest

from repro.bench.cli import main
from repro.bench.experiments import EXPERIMENTS, ExperimentSpec
from repro.bench.runner import run_experiment, run_superego_row
from repro.data import gaia_like


@pytest.fixture(scope="module")
def tiny_spec() -> ExperimentSpec:
    return ExperimentSpec(
        exp_id="tiny",
        title="tiny test experiment",
        datasets=("Expo2D2M", "Unif2D2M"),
        eps={"Expo2D2M": (0.02, 0.04), "Unif2D2M": (1.0,)},
        configs=("gpucalcglobal", "workqueue", "superego"),
        selected_eps={"Expo2D2M": 0.02},
    )


class TestRunner:
    def test_full_grid(self, tiny_spec):
        report = run_experiment(tiny_spec, size=400, seed=1)
        # 2 eps * 3 configs + 1 eps * 3 configs = 9 rows
        assert len(report.rows) == 9
        assert {r.config for r in report.rows} == {
            "gpucalcglobal",
            "workqueue",
            "superego",
        }

    def test_selected_only(self, tiny_spec):
        report = run_experiment(tiny_spec, size=400, seed=1, selected_only=True)
        expo_rows = [r for r in report.rows if r.dataset == "Expo2D2M"]
        assert {r.epsilon for r in expo_rows} == {0.02}

    def test_superego_rows_have_nan_wee(self, tiny_spec):
        report = run_experiment(tiny_spec, size=300, seed=1)
        for r in report.rows:
            if r.config == "superego":
                assert math.isnan(r.wee_percent)
            else:
                assert 0 < r.wee_percent <= 100

    def test_result_rows_agree_across_configs(self, tiny_spec):
        """All configs (GPU and CPU) must report the same result size."""
        report = run_experiment(tiny_spec, size=500, seed=2)
        by_cell = {}
        for r in report.rows:
            by_cell.setdefault((r.dataset, r.epsilon), set()).add(r.result_rows)
        for cell, sizes in by_cell.items():
            assert len(sizes) == 1, cell

    def test_progress_callback(self, tiny_spec):
        seen = []
        run_experiment(
            tiny_spec, size=200, seed=1, selected_only=True, progress=seen.append
        )
        assert len(seen) == 6  # (1+1) eps-cells * 3 configs
        assert all("tiny:" in msg for msg in seen)

    def test_dataset_restriction(self, tiny_spec):
        report = run_experiment(tiny_spec, size=200, datasets=["Unif2D2M"])
        assert {r.dataset for r in report.rows} == {"Unif2D2M"}

    def test_superego_row_direct(self):
        row = run_superego_row(gaia_like(300, seed=0), 2.0, dataset="Gaia")
        assert row.config == "superego"
        assert row.result_rows >= 300  # at least the self pairs


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPERIMENTS:
            assert exp_id in out

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Gaia" in out and "paper |D|" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "nosuchexp"]) == 2

    def test_run_small_experiment(self, capsys, tmp_path):
        out_file = tmp_path / "out.txt"
        rc = main(
            [
                "run",
                "abl_scheduler",
                "--size",
                "400",
                "--selected-only",
                "--out",
                str(out_file),
            ]
        )
        assert rc == 0
        assert "Ablation" in out_file.read_text()


class TestTrials:
    def test_trials_average_only_stochastic_configs(self, tiny_spec):
        """Work-queue runs are deterministic (forced order); baseline runs
        vary with the scheduler seed, and trials average them."""
        one = run_experiment(tiny_spec, size=600, seed=1, trials=1)
        many = run_experiment(tiny_spec, size=600, seed=1, trials=5)
        for r1, rN in zip(one.rows, many.rows):
            assert (r1.dataset, r1.epsilon, r1.config) == (
                rN.dataset,
                rN.epsilon,
                rN.config,
            )
            if r1.config == "workqueue":
                assert rN.seconds == pytest.approx(r1.seconds, rel=1e-12)

    def test_trials_validation(self, tiny_spec):
        with pytest.raises(ValueError):
            run_experiment(tiny_spec, size=100, trials=0)

    def test_json_output(self, tmp_path, capsys):
        from repro.bench.cli import main as bench_main

        path = tmp_path / "rows.json"
        rc = bench_main(
            ["run", "abl_scheduler", "--size", "300", "--trials", "1",
             "--json", str(path)]
        )
        assert rc == 0
        import json

        data = json.loads(path.read_text())
        assert data["experiment"] == "abl_scheduler"
        assert len(data["rows"]) == 3
        row = data["rows"][0]
        assert {"dataset", "epsilon", "config", "seconds"} <= set(row)
