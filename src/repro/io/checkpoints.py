"""Durable shard fragments — the on-disk format of the run journal.

A *shard fragment* is one completed shard's :class:`JoinResult`, written
as an ``.npz`` the moment the shard finishes so a crashed run can resume
without repeating the work (see :mod:`repro.resilience.checkpoint`). The
format extends the result-bundle idiom of :mod:`repro.io.results` with a
pickled execution payload (batch stats, pipeline, fragment lengths) so
the reloaded result is *bit-identical* to the in-memory one — same pair
bytes, same float64 simulated times — which is what lets a resumed run
merge to the exact golden result.

The archive is stored, not compressed: writing it costs a copy, not a
zlib pass, and each zip member still carries its CRC-32, so a flipped
byte fails the read. ``pairs`` is stored as int32 when every id fits and
always loads as int64. Each per-batch fragment is recorded by its length
only; the loader splits ``pairs`` into row views of those lengths, so a
pair is written once. A fragment of another format version (an older
build's compressed archive) does not load: the journal treats it as
unreadable and its shard re-executes.

Writes are atomic: the archive is written to a ``.tmp`` sibling and
``os.replace``\\ d into place, so a crash mid-write leaves either the
previous fragment or nothing — never a torn file. Fragments are an
internal trust-boundary format (they embed a pickle); load only
fragments your own runs wrote.
"""

from __future__ import annotations

import json
import os
import pickle
from pathlib import Path

import numpy as np

from repro.core.result import JoinResult

__all__ = ["load_shard_fragment", "save_shard_fragment"]

_FORMAT_VERSION = 2


def save_shard_fragment(
    path, result: JoinResult, *, shard_id: int, run_fingerprint: str
) -> int:
    """Atomically persist one shard's result; returns the bytes written."""
    path = Path(path)
    if path.suffix.lower() != ".npz":
        raise ValueError("shard fragments are .npz files")
    meta = {
        "format_version": _FORMAT_VERSION,
        "run": run_fingerprint,
        "shard_id": int(shard_id),
        "epsilon": result.epsilon,
        "num_points": result.num_points,
        "config": result.config_description,
        "num_pairs": result.num_pairs,
        "total_seconds": result.total_seconds,
        "overflow_retries": result.overflow_retries,
        "overflow_wasted_seconds": result.overflow_wasted_seconds,
        "fidelity": result.fidelity,
    }
    lengths = None if result.fragments is None else tuple(len(f) for f in result.fragments)
    payload = pickle.dumps(
        (result.batch_stats, result.pipeline, lengths),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    pairs = result.pairs
    if pairs.size == 0 or (pairs.min() >= 0 and pairs.max() < 2**31):
        pairs = pairs.astype(np.int32)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez(
            fh,
            pairs=pairs,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            payload=np.frombuffer(payload, dtype=np.uint8),
        )
    os.replace(tmp, path)
    return path.stat().st_size


def load_shard_fragment(path) -> tuple[JoinResult, dict]:
    """Load ``(result, metadata)`` from one shard fragment.

    The returned :class:`JoinResult` round-trips exactly: pair bytes,
    batch statistics, pipeline times and streaming fragments are the ones
    the original execution produced.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"shard fragment not found: {path}")
    with np.load(path, allow_pickle=False) as archive:
        if "pairs" not in archive or "meta" not in archive or "payload" not in archive:
            raise ValueError(f"{path} is not a shard fragment")
        meta = json.loads(archive["meta"].tobytes().decode())
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported shard fragment version {meta.get('format_version')!r}"
            )
        pairs = archive["pairs"].astype(np.int64, copy=False)
        payload = archive["payload"].tobytes()
    batch_stats, pipeline, fragments = pickle.loads(payload)
    if fragments:
        # fragments are stored as lengths: rebuild them as row views of pairs
        bounds = np.cumsum(fragments[:-1], dtype=np.int64)
        fragments = tuple(np.split(pairs, bounds))
    result = JoinResult(
        pairs=pairs,
        epsilon=float(meta["epsilon"]),
        num_points=int(meta["num_points"]),
        batch_stats=batch_stats,
        pipeline=pipeline,
        config_description=meta.get("config", ""),
        overflow_retries=int(meta.get("overflow_retries", 0)),
        overflow_wasted_seconds=float(meta.get("overflow_wasted_seconds", 0.0)),
        fragments=fragments,
        fidelity=meta.get("fidelity", "simulated"),
    )
    return result, meta
