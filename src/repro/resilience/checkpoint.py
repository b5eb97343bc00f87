"""Durable checkpoint/resume: a fingerprint-keyed journal of shard results.

A crashed process (OOM kill, service restart, ``CrashPoint`` in a fault
plan) loses everything the paper's batching scheme worked to produce
incrementally. This module makes the increments durable: the
:class:`~repro.runtime.runner.Runner` opens a :class:`RunJournal` when
its plan carries a :class:`~repro.runtime.plan.CheckpointStage` and
persists each shard's :class:`~repro.core.result.JoinResult` the moment
it completes (atomic ``.npz`` fragments via
:mod:`repro.io.checkpoints`). ``Runner.resume`` replays the same
schedule but answers completed shards from the journal — the merged
result is **bit-identical** (pair bytes, trace signature) to the
uninterrupted run because shard execution is deterministic and the merge
is execution-order independent.

Identity
--------
A journal is keyed by :func:`run_fingerprint`: the dataset fingerprint
baked into :meth:`~repro.grid.GridIndex.fingerprint`, the query side (for
bipartite joins), the query subset, and the *result-relevant* half of the
:class:`~repro.runtime.config.RuntimeConfig` (:func:`config_identity`).
Fault plans, recovery policies and the checkpoint config itself are
**excluded** from the identity on purpose: the
resilience contract makes them result-invariant, and excluding them is
precisely what lets a run crashed by an injected ``CrashPoint`` resume
under a fault-free config and still find its journal.

Layout: ``<directory>/<fingerprint>/manifest.json`` plus one
``shard-NNNNN.npz`` per completed shard; ``finalize(keep=False)``
removes the journal on success, ``keep=True`` marks it done and leaves
the fragments for audit/re-reads.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import time
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.result import JoinResult
from repro.io.checkpoints import load_shard_fragment, save_shard_fragment

__all__ = [
    "CheckpointError",
    "CheckpointStats",
    "CheckpointStore",
    "RunJournal",
    "config_identity",
    "run_fingerprint",
]

_MANIFEST_VERSION = 1

#: what decoding a damaged ``.npz`` fragment raises: an empty file
#: (``EOFError``), a torn or flipped archive (``BadZipFile``,
#: ``zlib.error``, a bad seek's ``OSError``), mangled members or another
#: format version (``ValueError``, ``UnpicklingError``, ``KeyError``)
_UNREADABLE = (
    EOFError,
    KeyError,
    OSError,
    ValueError,
    pickle.UnpicklingError,
    zipfile.BadZipFile,
    zlib.error,
)


class CheckpointError(RuntimeError):
    """A journal that cannot be used (stale, mismatched, corrupt)."""


@dataclass
class CheckpointStats:
    """What checkpointing cost (and saved) during one runner execution."""

    writes: int = 0
    loads: int = 0
    bytes_written: int = 0
    write_seconds: float = 0.0

    def to_record(self) -> dict:
        return {
            "writes": self.writes,
            "loads": self.loads,
            "bytes_written": self.bytes_written,
            "write_seconds": self.write_seconds,
        }


def config_identity(runtime) -> str:
    """Stable hash of the result-relevant part of a :class:`RuntimeConfig`.

    Strips ``fault_plan``, ``recovery`` and ``checkpoint`` before
    hashing: injected faults and healing change *how* a run executes,
    never *what* it returns (the resilience contract), so two configs
    differing only there share one journal.
    """
    reduced = runtime.with_(fault_plan=None, recovery=None, checkpoint=None)
    return hashlib.sha256(repr(reduced).encode()).hexdigest()


def run_fingerprint(plan) -> str:
    """Content identity of one compiled :class:`~repro.runtime.plan.JoinPlan`.

    Covers the op kind, the indexed dataset (+ grid spec, via
    :meth:`GridIndex.fingerprint`), the op's extra identity bytes
    (:meth:`~repro.runtime.ops.JoinOp.fingerprint_extras` — the query
    side of bipartite joins; ``k`` and the ε-schedule of kNN joins), the
    query subset, and :func:`config_identity`.
    """
    h = hashlib.sha256()
    h.update(plan.op.kind.encode())
    h.update(plan.index.fingerprint().encode())
    for chunk in plan.op.fingerprint_extras():
        h.update(chunk)
    if plan.subset is None:
        h.update(b"subset:all")
    else:
        h.update(np.ascontiguousarray(plan.subset, dtype=np.int64).tobytes())
    h.update(config_identity(plan.config).encode())
    return h.hexdigest()


class CheckpointStore:
    """A directory of run journals, one per fingerprint."""

    def __init__(self, directory):
        self.root = Path(directory)
        self.root.mkdir(parents=True, exist_ok=True)

    def journal(
        self, fingerprint: str, *, kind: str, description: str, num_shards: int
    ) -> "RunJournal":
        """Open (creating or re-attaching to) the journal of one run."""
        return RunJournal(
            self.root / fingerprint,
            fingerprint=fingerprint,
            kind=kind,
            description=description,
            num_shards=num_shards,
        )

    def runs(self) -> list[str]:
        """Fingerprints with a journal present under this store."""
        return sorted(
            p.name for p in self.root.iterdir()
            if p.is_dir() and (p / "manifest.json").exists()
        )

    def discard(self, fingerprint: str) -> bool:
        """Delete one run's journal; returns whether it existed."""
        target = self.root / fingerprint
        if not target.is_dir():
            return False
        shutil.rmtree(target)
        return True


@dataclass
class RunJournal:
    """The durable record of one run's completed shards.

    Opening the journal validates the manifest against the caller's run
    identity — a directory written by a *different* run (same path, stale
    fingerprint or shard count) raises :class:`CheckpointError` instead
    of silently merging foreign shards.
    """

    directory: Path
    fingerprint: str
    kind: str
    description: str
    num_shards: int
    stats: CheckpointStats = field(default_factory=CheckpointStats)

    def __post_init__(self):
        self.directory = Path(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest_path = self.directory / "manifest.json"
        manifest = {
            "manifest_version": _MANIFEST_VERSION,
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "description": self.description,
            "num_shards": int(self.num_shards),
        }
        if manifest_path.exists():
            existing = json.loads(manifest_path.read_text())
            for key in ("manifest_version", "fingerprint", "kind", "num_shards"):
                if existing.get(key) != manifest[key]:
                    raise CheckpointError(
                        f"journal at {self.directory} belongs to a different run "
                        f"({key}: {existing.get(key)!r} != {manifest[key]!r}); "
                        "discard it before reusing the path"
                    )
        else:
            tmp = manifest_path.with_name("manifest.json.tmp")
            tmp.write_text(json.dumps(manifest, indent=2))
            os.replace(tmp, manifest_path)

    # ----------------------------------------------------------- shards
    def _shard_path(self, shard_id: int) -> Path:
        return self.directory / f"shard-{int(shard_id):05d}.npz"

    def completed_shards(self) -> list[int]:
        """Sorted shard ids with a durable fragment on disk."""
        out = []
        for p in self.directory.glob("shard-*.npz"):
            try:
                out.append(int(p.stem.split("-", 1)[1]))
            except (IndexError, ValueError):
                continue
        return sorted(out)

    def save_shard(self, shard_id: int, result: JoinResult) -> None:
        """Persist one completed shard (atomic; overwrite is legal —
        speculative re-execution may complete a shard twice)."""
        t0 = time.perf_counter()
        size = save_shard_fragment(
            self._shard_path(shard_id),
            result,
            shard_id=shard_id,
            run_fingerprint=self.fingerprint,
        )
        self.stats.writes += 1
        self.stats.bytes_written += size
        self.stats.write_seconds += time.perf_counter() - t0

    def load_shard(self, shard_id: int) -> JoinResult:
        result, meta = load_shard_fragment(self._shard_path(shard_id))
        if meta.get("run") != self.fingerprint:
            raise CheckpointError(
                f"shard {shard_id} fragment belongs to run {meta.get('run')!r}, "
                f"not {self.fingerprint!r}"
            )
        self.stats.loads += 1
        return result

    def load_completed(self) -> dict[int, JoinResult]:
        """Every readable durable shard result, keyed by shard id.

        A fragment that fails to decode (torn by a crash, emptied,
        corrupted — the zip members' CRC-32 catches flipped bytes) counts
        as incomplete and is not counted in ``stats.loads``: its shard
        re-executes and :meth:`save_shard` overwrites it. A readable
        fragment of a different run still raises :class:`CheckpointError`.
        """
        out = {}
        for sid in self.completed_shards():
            try:
                out[sid] = self.load_shard(sid)
            except _UNREADABLE:
                continue
        return out

    # ----------------------------------------------------------- lifecycle
    @property
    def done(self) -> bool:
        return (self.directory / "done").exists()

    def finalize(self, *, keep: bool = False) -> None:
        """Mark the run complete: drop the journal, or keep it with a
        ``done`` marker when the caller wants the fragments retained."""
        if keep:
            (self.directory / "done").write_text("complete\n")
            return
        shutil.rmtree(self.directory, ignore_errors=True)
