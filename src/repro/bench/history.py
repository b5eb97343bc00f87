"""``BENCH_<suite>.json`` trajectory files: record, load, compare.

Each suite owns one JSON file holding a bounded list of history entries.
An entry is one ``suite run`` at a given (size, seed): per-experiment
wall-clock and throughput, the deterministic metrics with a stable
digest, and the tier-A check records (a skipped check's ``passed`` is
``null``; entries recorded before skips existed logged them as passes).
Committed entries are the baseline tier-C gates compare against, and
``suite history`` renders the trajectory with per-entry deltas.

Timing fields (``wall_seconds``, ``throughput``) are *measurements* and
vary run to run; ``metrics`` and ``digest`` are seed-deterministic —
two runs with the same seed, size and code must agree on them exactly.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from collections.abc import Mapping
from pathlib import Path

__all__ = [
    "SCHEMA_VERSION",
    "bench_path",
    "entry_digest",
    "deltas",
    "latest_comparable",
    "load_history",
    "make_entry",
    "record_entry",
    "render_history",
]

SCHEMA_VERSION = 1

#: bounded trajectory: oldest entries fall off so the committed files
#: stay reviewable
MAX_ENTRIES = 30


def bench_path(directory: str | Path, suite_id: str) -> Path:
    return Path(directory) / f"BENCH_{suite_id}.json"


def _git_revision() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def entry_digest(metrics: Mapping) -> str:
    """Stable digest of an experiment's deterministic payload."""
    blob = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def make_entry(results, *, size: str, seed: int, trials: int, suite_checks=()) -> dict:
    """Build one history entry from a suite's ExperimentResults."""
    experiments = {}
    for res in results:
        experiments[res.exp_id] = {
            "wall_seconds": round(res.wall_seconds, 6),
            "throughput": None if res.throughput is None else round(res.throughput, 3),
            "checks_passed": res.checks_passed,
            "checks": [c.to_record() for c in res.checks],
            "metrics": res.metrics,
            "digest": entry_digest(res.metrics),
        }
    return {
        "recorded_unix": int(time.time()),
        "git": _git_revision(),
        "size": size,
        "seed": seed,
        "trials": trials,
        "suite_checks": [c.to_record() for c in suite_checks],
        "experiments": experiments,
    }


def load_history(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        return {"schema": SCHEMA_VERSION, "suite": path.stem.removeprefix("BENCH_"), "entries": []}
    data = json.loads(path.read_text())
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported BENCH schema {data.get('schema')!r} "
            f"(this tool reads schema {SCHEMA_VERSION})"
        )
    data.setdefault("entries", [])
    return data


def record_entry(
    path: str | Path, suite_id: str, entry: Mapping, *, keep: int = MAX_ENTRIES
) -> dict:
    """Append ``entry`` to the suite's trajectory file and rewrite it."""
    history = load_history(path)
    history["suite"] = suite_id
    history["schema"] = SCHEMA_VERSION
    history["entries"] = (history["entries"] + [dict(entry)])[-keep:]
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(history, indent=2) + "\n")
    return history


def latest_comparable(
    history: Mapping, *, size: str, seed: int | None = None, skip_last: bool = False
) -> dict | None:
    """Most recent entry matching the size class (and seed, if given).

    ``skip_last`` ignores the newest entry — used when that entry is the
    run currently being compared.
    """
    entries = list(history.get("entries", []))
    if skip_last and entries:
        entries = entries[:-1]
    for entry in reversed(entries):
        if entry.get("size") != size:
            continue
        if seed is not None and entry.get("seed") != seed:
            continue
        return entry
    return None


def deltas(current: Mapping, previous: Mapping | None) -> dict[str, dict]:
    """Per-experiment comparison of two entries.

    Returns ``{exp_id: {wall_ratio, throughput_ratio, metrics_changed}}``
    for experiments present in both; ratios are current/previous (wall:
    < 1 is faster) and None when the previous value is missing or zero.
    """
    if previous is None:
        return {}
    out: dict[str, dict] = {}
    prev_exps = previous.get("experiments", {})
    for exp_id, cur in current.get("experiments", {}).items():
        prev = prev_exps.get(exp_id)
        if prev is None:
            continue

        def ratio(a, b):
            return None if not a or not b else round(a / b, 4)

        out[exp_id] = {
            "wall_ratio": ratio(cur.get("wall_seconds"), prev.get("wall_seconds")),
            "throughput_ratio": ratio(cur.get("throughput"), prev.get("throughput")),
            "metrics_changed": cur.get("digest") != prev.get("digest"),
        }
    return out


def render_history(history: Mapping, *, limit: int = 10) -> str:
    """Human trajectory table: one line per entry, newest last."""
    from repro.util import Table

    suite = history.get("suite", "?")
    entries = history.get("entries", [])[-limit:]
    t = Table(
        ["recorded", "git", "size", "seed", "experiments", "checks", "skipped", "wall total (s)"],
        title=f"BENCH_{suite} trajectory ({len(entries)} of "
        f"{len(history.get('entries', []))} entries)",
    )
    for entry in entries:
        exps = entry.get("experiments", {})
        checks = [c for e in exps.values() for c in e.get("checks", ())]
        passed = sum(1 for c in checks if c.get("passed"))
        skipped = sum(1 for c in checks if c.get("passed") is None)
        stamp = time.strftime("%Y-%m-%d %H:%M", time.localtime(entry.get("recorded_unix", 0)))
        t.add_row(
            [
                stamp,
                entry.get("git") or "-",
                entry.get("size", "?"),
                entry.get("seed", "?"),
                len(exps),
                f"{passed}/{len(checks) - skipped}",
                skipped,
                f"{sum(e.get('wall_seconds') or 0.0 for e in exps.values()):.3f}",
            ]
        )
    return t.render()
