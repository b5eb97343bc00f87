"""Tiered gate evaluation: budgets, tolerance bands, trajectory deltas."""

import pytest

from repro.bench.gates import (
    Budget,
    CheckResult,
    GateReport,
    evaluate_budget,
    evaluate_tier_a,
    evaluate_tier_b,
    evaluate_tier_c,
)
from repro.bench.suites import ExperimentResult


def make_result(**kw) -> ExperimentResult:
    base = dict(
        suite_id="s",
        exp_id="e",
        title="t",
        wall_seconds=1.0,
        throughput=None,
        metrics={},
        checks=[],
    )
    base.update(kw)
    return ExperimentResult(**base)


class TestSkippedChecks:
    def test_skip_is_neither_pass_nor_failure(self):
        skip = CheckResult("claim", None, "skipped (needs --size full or larger)")
        assert skip.skipped and not skip.failed and skip.passed is None
        assert skip.to_record()["passed"] is None
        assert CheckResult("c", False).failed and not CheckResult("c", True).skipped

    def test_skip_fails_no_gate(self):
        result = make_result(checks=[CheckResult("claim", None, "skipped")])
        assert result.checks_passed
        assert evaluate_tier_a([result]) == []

    def test_summary_counts_skips_apart(self):
        from repro.bench.executors import SuiteRun, _skipped
        from repro.bench.suites import get_suite

        checks = [CheckResult("ran", True), _skipped("claim", "full")]
        run = SuiteRun(get_suite("core"), [make_result(checks=checks)])
        assert run.checks_passed
        row = next(line for line in run.render_summary().splitlines() if line.startswith("e "))
        assert [c.strip() for c in row.split("|")][3:5] == ["1/1", "1"]


class TestBudget:
    def test_tolerance_widens_wall_ceiling(self):
        b = Budget(wall_seconds={"tiny": 10.0}, tolerance=0.25)
        assert b.wall_limit("tiny") == pytest.approx(12.5)
        assert b.wall_limit("full") is None

    def test_tolerance_lowers_throughput_floor(self):
        b = Budget(min_throughput={"tiny": 100.0}, tolerance=0.25)
        assert b.throughput_floor("tiny") == pytest.approx(80.0)
        assert b.throughput_floor("small") is None

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Budget(tolerance=-0.1)
        with pytest.raises(ValueError):
            Budget(wall_seconds={"tiny": 0.0})
        with pytest.raises(ValueError):
            Budget(min_throughput={"tiny": -5.0})

    def test_within_band_passes(self):
        b = Budget(wall_seconds={"tiny": 10.0}, tolerance=0.25)
        assert not evaluate_budget(
            suite_id="s", exp_id="e", budget=b, size="tiny",
            wall_seconds=12.4, throughput=None,
        )

    def test_beyond_band_fails(self):
        b = Budget(wall_seconds={"tiny": 10.0}, tolerance=0.25)
        out = evaluate_budget(
            suite_id="s", exp_id="e", budget=b, size="tiny",
            wall_seconds=12.6, throughput=None,
        )
        assert len(out) == 1 and out[0].tier == "B"

    def test_throughput_floor_enforced(self):
        b = Budget(min_throughput={"tiny": 100.0}, tolerance=0.0)
        assert evaluate_budget(
            suite_id="s", exp_id="e", budget=b, size="tiny",
            wall_seconds=0.1, throughput=99.0,
        )
        assert not evaluate_budget(
            suite_id="s", exp_id="e", budget=b, size="tiny",
            wall_seconds=0.1, throughput=101.0,
        )

    def test_ungated_size_never_fails(self):
        b = Budget(wall_seconds={"full": 1.0})
        assert not evaluate_budget(
            suite_id="s", exp_id="e", budget=b, size="tiny",
            wall_seconds=1e9, throughput=None,
        )

    def test_no_budget_no_violations(self):
        assert not evaluate_budget(
            suite_id="s", exp_id="e", budget=None, size="tiny",
            wall_seconds=1e9, throughput=0.0,
        )


class TestTierA:
    def test_failed_check_becomes_violation(self):
        res = make_result(
            checks=[CheckResult("good", True), CheckResult("bad", False, "boom")]
        )
        out = evaluate_tier_a([res])
        assert len(out) == 1
        assert out[0].tier == "A"
        assert "bad" in out[0].message and "boom" in out[0].message

    def test_all_passing_is_clean(self):
        assert not evaluate_tier_a([make_result(checks=[CheckResult("ok", True)])])


class TestTierB:
    def test_deliberately_broken_budget_fails_the_gate(self):
        """The acceptance demo: an impossible budget must trip tier B."""
        broken = Budget(wall_seconds={"tiny": 1e-9}, tolerance=0.0)
        res = make_result(wall_seconds=0.5, budget=broken)
        out = evaluate_tier_b([res], "tiny")
        assert len(out) == 1 and out[0].tier == "B"
        report = GateReport()
        report.extend(out)
        assert not report.ok
        assert "GATE FAILED" in report.render()


def entry(exp_id="e", wall=1.0, digest="d1"):
    return {"experiments": {exp_id: {"wall_seconds": wall, "digest": digest}}}


class TestTierC:
    def test_no_previous_no_trajectory(self):
        assert not evaluate_tier_c("s", entry(), None)

    def test_wall_within_band_ok(self):
        assert not evaluate_tier_c("s", entry(wall=1.7), entry(wall=1.0), band=0.75)

    def test_wall_regression_flagged(self):
        out = evaluate_tier_c("s", entry(wall=1.8), entry(wall=1.0), band=0.75)
        assert len(out) == 1 and out[0].tier == "C" and "regressed" in out[0].message

    def test_metrics_drift_flagged(self):
        out = evaluate_tier_c("s", entry(digest="d2"), entry(digest="d1"))
        assert len(out) == 1 and "deterministic metrics changed" in out[0].message

    def test_new_experiment_not_compared(self):
        prev = {"experiments": {"other": {"wall_seconds": 1.0, "digest": "x"}}}
        assert not evaluate_tier_c("s", entry(wall=100.0), prev)


class TestGateReport:
    def test_advisories_do_not_fail(self):
        report = GateReport()
        report.extend(evaluate_tier_c("s", entry(wall=9.0), entry(wall=1.0)), advisory=True)
        assert report.ok
        assert report.advisories and "advisory" in report.render()
