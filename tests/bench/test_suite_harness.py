"""The unified suite harness end to end: registry, CLI, gates, smoke run.

The smoke test executes **every registered suite** at ``--size tiny``
through the real CLI — the same invocation CI's bench-gate job uses —
and asserts the machine-readable ``BENCH_<suite>.json`` trajectories
appear with passing correctness cross-checks.
"""

import json

import pytest

from repro.bench import cli
from repro.bench.gates import Budget
from repro.bench.suites import (
    SIZE_CLASSES,
    SUITES,
    BenchExperiment,
    BenchSuite,
    get_suite,
    register_suite,
    size_at_least,
)


class TestRegistry:
    def test_expected_suites_registered(self):
        assert {"paper", "ablations", "core", "multigpu", "resilience", "serve", "checkpoint"} <= set(SUITES)

    def test_experiment_ids_unique_within_suite(self):
        for suite in SUITES.values():
            ids = [e.exp_id for e in suite.experiments]
            assert len(ids) == len(set(ids)), suite.suite_id

    def test_every_experiment_kind_has_executor(self):
        from repro.bench.executors import EXECUTORS

        for suite in SUITES.values():
            for exp in suite.experiments:
                assert exp.kind in EXECUTORS, f"{suite.suite_id}/{exp.exp_id}"

    def test_get_suite_unknown_raises(self):
        with pytest.raises(KeyError):
            get_suite("no-such-suite")

    def test_size_ordering(self):
        assert SIZE_CLASSES == ("tiny", "small", "full")
        assert size_at_least("full", "tiny")
        assert not size_at_least("tiny", "small")

    def test_select_filters_by_substring(self):
        paper = get_suite("paper")
        picked = [e.exp_id for e in paper.select("fig9,table5")]
        assert picked == ["fig9", "table5"]
        assert len(paper.select(None)) == len(paper.experiments)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One full tiny run of every registered suite via the real CLI."""
    results_dir = tmp_path_factory.mktemp("bench")
    rc = cli.main(
        ["suite", "run", "--size", "tiny", "--seed", "0", "--results-dir", str(results_dir)]
    )
    return rc, results_dir


class TestTinySmoke:
    def test_exit_code_clean(self, tiny_run):
        rc, _ = tiny_run
        assert rc == 0

    def test_every_suite_writes_bench_json(self, tiny_run):
        _, results_dir = tiny_run
        for suite_id in SUITES:
            path = results_dir / f"BENCH_{suite_id}.json"
            assert path.exists(), f"missing {path.name}"

    def test_bench_core_payload_shape(self, tiny_run):
        _, results_dir = tiny_run
        data = json.loads((results_dir / "BENCH_core.json").read_text())
        assert data["suite"] == "core"
        (entry,) = data["entries"]
        assert entry["size"] == "tiny" and entry["seed"] == 0
        for exp_id, exp in entry["experiments"].items():
            assert exp["wall_seconds"] > 0, exp_id
            assert exp["checks_passed"] is True, exp_id
            assert len(exp["digest"]) == 64
            assert exp["metrics"]["presets"], exp_id

    def test_all_checks_passed_everywhere(self, tiny_run):
        _, results_dir = tiny_run
        failures = []
        for suite_id in SUITES:
            data = json.loads((results_dir / f"BENCH_{suite_id}.json").read_text())
            for entry in data["entries"]:
                for exp_id, exp in entry["experiments"].items():
                    for check in exp["checks"]:
                        if check["passed"] is False:
                            failures.append(f"{suite_id}/{exp_id}:{check['name']}")
        assert not failures

    def test_checks_below_their_floor_record_skips(self, tiny_run):
        # a skipped check is recorded as a skip (passed: null), never as a pass
        _, results_dir = tiny_run
        skipped, passed_skips = [], []
        for suite_id in SUITES:
            data = json.loads((results_dir / f"BENCH_{suite_id}.json").read_text())
            for entry in data["entries"]:
                for exp in entry["experiments"].values():
                    for check in exp["checks"]:
                        if check["detail"].startswith("skipped"):
                            (skipped if check["passed"] is None else passed_skips).append(check)
        assert skipped
        assert not passed_skips

    def test_gate_passes_against_fresh_history(self, tiny_run, capsys):
        rc, results_dir = tiny_run
        gate_rc = cli.main(
            [
                "suite",
                "gate",
                "ablations",
                "--size",
                "tiny",
                "--results-dir",
                str(results_dir),
            ]
        )
        assert gate_rc == 0
        out = capsys.readouterr().out
        assert "gate passed" in out
        # the ablations' size-floored claims are skips: counted, not gated
        assert "skipped (below their size floor, not gated):" in out

    def test_history_renders(self, tiny_run, capsys):
        _, results_dir = tiny_run
        assert cli.main(["suite", "history", "core", "--results-dir", str(results_dir)]) == 0
        assert "BENCH_core" in capsys.readouterr().out


@pytest.fixture
def broken_budget_suite():
    """A registered suite whose budget is impossible to meet."""
    suite = BenchSuite(
        suite_id="brokenbudget",
        title="deliberately broken budget",
        description="test fixture",
        experiments=(
            BenchExperiment(
                exp_id="abl_scheduler_broken",
                title="scheduler ablation under an impossible budget",
                kind="ablation",
                budget=Budget(wall_seconds={"tiny": 1e-9}, tolerance=0.0),
                params={"ablation": "scheduler"},
            ),
        ),
    )
    register_suite(suite)
    yield suite
    SUITES.pop("brokenbudget", None)


class TestGateFailure:
    def test_broken_budget_exits_nonzero(self, broken_budget_suite, tmp_path, capsys):
        """Acceptance demo: `suite gate` must fail on a budget violation."""
        rc = cli.main(
            [
                "suite",
                "gate",
                "brokenbudget",
                "--size",
                "tiny",
                "--results-dir",
                str(tmp_path),
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "GATE FAILED" in out and "[tier B]" in out

    def test_same_suite_passes_without_gate_only_run(self, broken_budget_suite, tmp_path):
        # `suite run` enforces only tier A, so the broken budget does not
        # fail the run — exactly the tier separation the gates promise.
        rc = cli.main(
            [
                "suite",
                "run",
                "brokenbudget",
                "--size",
                "tiny",
                "--no-record",
                "--results-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0

    def test_strict_gate_enforces_trajectory(self, tmp_path, capsys):
        from repro.bench.history import bench_path, make_entry, record_entry
        from repro.bench.suites import ExperimentResult

        # seed history with a fabricated, much-faster entry so tier C trips
        fake = ExperimentResult(
            suite_id="ablations",
            exp_id="abl_scheduler",
            title="t",
            wall_seconds=1e-9,
            throughput=None,
            metrics={"planted": True},
            checks=[],
        )
        record_entry(
            bench_path(tmp_path, "ablations"),
            "ablations",
            make_entry([fake], size="tiny", seed=0, trials=1),
        )
        argv = [
            "suite",
            "gate",
            "ablations",
            "--size",
            "tiny",
            "--filter",
            "abl_scheduler",
            "--results-dir",
            str(tmp_path),
        ]
        assert cli.main(argv) == 0  # advisory by default
        assert "advisory" in capsys.readouterr().out
        assert cli.main([*argv, "--strict"]) == 1  # enforced under --strict
