"""BENCH_<suite>.json trajectory files: record, load, compare."""

import json

import numpy as np
import pytest

from repro.bench.gates import CheckResult
from repro.bench.history import (
    MAX_ENTRIES,
    SCHEMA_VERSION,
    bench_path,
    deltas,
    entry_digest,
    latest_comparable,
    load_history,
    make_entry,
    record_entry,
    render_history,
)
from repro.bench.suites import ExperimentResult


def make_result(exp_id="e", wall=1.0, throughput=None, metrics=None, checks=()):
    return ExperimentResult(
        suite_id="s",
        exp_id=exp_id,
        title="t",
        wall_seconds=wall,
        throughput=throughput,
        metrics=metrics if metrics is not None else {"k": 1},
        checks=list(checks),
    )


class TestDigest:
    def test_stable_under_key_order(self):
        assert entry_digest({"a": 1, "b": 2}) == entry_digest({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert entry_digest({"a": 1}) != entry_digest({"a": 2})


class TestMakeEntry:
    def test_round_trip_fields(self):
        res = make_result(
            exp_id="x",
            wall=1.23456789,
            throughput=1000.5,
            checks=[CheckResult("c", True, "d")],
        )
        entry = make_entry([res], size="tiny", seed=7, trials=2)
        exp = entry["experiments"]["x"]
        assert exp["wall_seconds"] == pytest.approx(1.234568)
        assert exp["throughput"] == pytest.approx(1000.5)
        assert exp["checks_passed"] is True
        assert exp["digest"] == entry_digest(res.metrics)
        assert entry["size"] == "tiny" and entry["seed"] == 7 and entry["trials"] == 2

    def test_failed_check_recorded(self):
        entry = make_entry(
            [make_result(checks=[CheckResult("c", False)])], size="tiny", seed=0, trials=1
        )
        assert entry["experiments"]["e"]["checks_passed"] is False


class TestRecordLoad:
    def test_missing_file_gives_empty_history(self, tmp_path):
        history = load_history(bench_path(tmp_path, "core"))
        assert history["entries"] == [] and history["suite"] == "core"

    def test_record_appends_and_persists(self, tmp_path):
        path = bench_path(tmp_path, "core")
        e1 = make_entry([make_result(wall=1.0)], size="tiny", seed=0, trials=1)
        e2 = make_entry([make_result(wall=2.0)], size="tiny", seed=0, trials=1)
        record_entry(path, "core", e1)
        history = record_entry(path, "core", e2)
        assert len(history["entries"]) == 2
        on_disk = json.loads(path.read_text())
        assert on_disk["schema"] == SCHEMA_VERSION
        assert len(on_disk["entries"]) == 2

    def test_history_is_bounded(self, tmp_path):
        path = bench_path(tmp_path, "core")
        entry = make_entry([make_result()], size="tiny", seed=0, trials=1)
        for _ in range(MAX_ENTRIES + 5):
            history = record_entry(path, "core", entry)
        assert len(history["entries"]) == MAX_ENTRIES

    def test_numpy_bool_checks_record_and_reload(self, tmp_path):
        # a check computed with NumPy (headline_bands) hands in numpy.bool_
        path = bench_path(tmp_path, "paper")
        checks = [CheckResult("headline_bands", np.float64(2.1) > 2.0, "max 2.10x")]
        suite_checks = [CheckResult("suite", np.bool_(True))]
        entry = make_entry(
            [make_result(checks=checks)], size="full", seed=0, trials=1, suite_checks=suite_checks
        )
        record_entry(path, "paper", entry)
        (reloaded,) = load_history(path)["entries"]
        assert reloaded["experiments"]["e"]["checks"][0]["passed"] is True
        assert reloaded["experiments"]["e"]["checks_passed"] is True
        assert reloaded["suite_checks"][0]["passed"] is True

    def test_unknown_schema_rejected(self, tmp_path):
        path = bench_path(tmp_path, "core")
        path.write_text(json.dumps({"schema": 999, "entries": []}))
        with pytest.raises(ValueError, match="schema"):
            load_history(path)


class TestLatestComparable:
    def test_matches_size_and_seed(self, tmp_path):
        path = bench_path(tmp_path, "core")
        for size, seed in (("tiny", 0), ("small", 0), ("tiny", 1)):
            record_entry(
                path, "core", make_entry([make_result()], size=size, seed=seed, trials=1)
            )
        history = load_history(path)
        assert latest_comparable(history, size="tiny", seed=0)["seed"] == 0
        assert latest_comparable(history, size="small")["size"] == "small"
        assert latest_comparable(history, size="full") is None

    def test_skip_last_ignores_newest(self, tmp_path):
        path = bench_path(tmp_path, "core")
        record_entry(path, "c", make_entry([make_result(wall=1)], size="tiny", seed=0, trials=1))
        record_entry(path, "c", make_entry([make_result(wall=2)], size="tiny", seed=0, trials=1))
        history = load_history(path)
        prev = latest_comparable(history, size="tiny", skip_last=True)
        assert prev["experiments"]["e"]["wall_seconds"] == 1


class TestDeltas:
    def test_ratios_and_drift(self):
        prev = make_entry(
            [make_result(wall=1.0, throughput=100.0, metrics={"v": 1})],
            size="tiny", seed=0, trials=1,
        )
        cur = make_entry(
            [make_result(wall=2.0, throughput=50.0, metrics={"v": 2})],
            size="tiny", seed=0, trials=1,
        )
        d = deltas(cur, prev)["e"]
        assert d["wall_ratio"] == pytest.approx(2.0)
        assert d["throughput_ratio"] == pytest.approx(0.5)
        assert d["metrics_changed"] is True

    def test_no_previous(self):
        cur = make_entry([make_result()], size="tiny", seed=0, trials=1)
        assert deltas(cur, None) == {}


class TestSkippedChecks:
    """A check below its size floor is a skip: recorded as ``passed: null``,
    counted apart from the passes, failing nothing."""

    def _entry(self):
        from repro.bench.executors import _skipped

        checks = [CheckResult("ran", True), _skipped("claim", "full")]
        return make_entry([make_result(checks=checks)], size="tiny", seed=0, trials=1)

    def test_skip_records_null_and_fails_nothing(self, tmp_path):
        path = bench_path(tmp_path, "paper")
        record_entry(path, "paper", self._entry())
        (reloaded,) = load_history(path)["entries"]
        exp = reloaded["experiments"]["e"]
        assert [c["passed"] for c in exp["checks"]] == [True, None]
        assert exp["checks_passed"] is True

    def test_history_counts_skips_apart(self, tmp_path):
        path = bench_path(tmp_path, "paper")
        record_entry(path, "paper", self._entry())
        row = render_history(load_history(path)).splitlines()[-1]
        assert [c.strip() for c in row.split("|")][4:7] == ["1", "1/1", "1"]

    def test_older_entries_still_load(self, tmp_path):
        # entries recorded before skips existed logged them as passes
        entry = self._entry()
        entry["experiments"]["e"]["checks"][1]["passed"] = True
        path = bench_path(tmp_path, "paper")
        path.write_text(
            json.dumps({"schema": SCHEMA_VERSION, "suite": "paper", "entries": [entry]})
        )
        history = load_history(path)
        row = render_history(history).splitlines()[-1]
        assert [c.strip() for c in row.split("|")][4:7] == ["1", "2/2", "0"]
        assert latest_comparable(history, size="tiny") == entry


def test_render_history_smoke(tmp_path):
    path = bench_path(tmp_path, "core")
    record_entry(path, "core", make_entry([make_result()], size="tiny", seed=0, trials=1))
    out = render_history(load_history(path))
    assert "BENCH_core" in out
