"""Near-duplicate detection via the similarity self-join.

The paper's introduction lists near-duplicate detection among the
self-join's applications. This example embeds synthetic documents as 4-D
feature vectors (hashed shingle statistics), plants near-duplicate groups,
and recovers them as connected components of the ε-pair graph — comparing
the simulated-GPU join against the SUPER-EGO CPU baseline on both results
and modeled runtime.

Run:  python examples/near_duplicate_detection.py
"""

from __future__ import annotations

import numpy as np

from repro import PRESETS, RuntimeConfig, SelfJoin
from repro.ego import SuperEgo
from repro.perfmodel.cputime import superego_seconds
from repro.util import format_seconds


def embed_corpus(rng: np.random.Generator, n_docs: int, n_dupes: int):
    """Synthetic 4-D document embeddings with planted near-duplicates."""
    base = rng.uniform(0.0, 1.0, size=(n_docs, 4))
    originals = rng.integers(0, n_docs, size=n_dupes)
    # a near-duplicate is its original plus a tiny perturbation
    dupes = base[originals] + rng.normal(0.0, 0.004, size=(n_dupes, 4))
    return np.concatenate([base, dupes]), originals


def connected_components(n: int, pairs: np.ndarray) -> np.ndarray:
    parent = np.arange(n)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pairs:
        if i != j:
            parent[find(int(i))] = find(int(j))
    return np.array([find(i) for i in range(n)])


def main() -> None:
    rng = np.random.default_rng(123)
    n_docs, n_dupes = 3000, 120
    corpus, originals = embed_corpus(rng, n_docs, n_dupes)
    eps = 0.02

    runtime = RuntimeConfig(optimization=PRESETS["combined"], include_self=False)
    gpu = SelfJoin(runtime=runtime).execute(corpus, eps)
    cpu = SuperEgo(include_self=False).join(corpus, eps)
    assert np.array_equal(gpu.sorted_pairs(), cpu.sorted_pairs())
    print(
        f"corpus of {len(corpus)} embeddings; GPU join and SUPER-EGO agree on "
        f"{gpu.num_pairs} near-duplicate pairs"
    )

    labels = connected_components(len(corpus), gpu.pairs)
    recovered = 0
    for d, orig in enumerate(originals):
        if labels[n_docs + d] == labels[orig]:
            recovered += 1
    print(f"planted near-duplicates recovered: {recovered}/{n_dupes}")
    assert recovered >= int(0.95 * n_dupes)

    cpu_time = superego_seconds(cpu.counts, len(corpus), corpus.shape[1])
    print(
        f"\nmodeled runtimes: simulated GPU {format_seconds(gpu.total_seconds)} "
        f"vs 16-core SUPER-EGO {format_seconds(cpu_time.total_seconds)}"
    )


if __name__ == "__main__":
    main()
