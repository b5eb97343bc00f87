"""Result-set verification — trust-but-verify for join outputs.

Given a claimed join result, check the properties that do not require
recomputing the join (validity, symmetry, self pairs, duplicates) plus a
*sampled completeness* check (exactly re-solving the range query of a
random subset of points). Used by the test suite and available to users
validating custom configurations or external implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.grid import GridIndex
from repro.grid.query import epsilon_filter, grid_neighbor_counts
from repro.util import as_points_array, check_epsilon, resolve_rng

__all__ = ["VerificationReport", "verify_selfjoin_result"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a result-set verification."""

    ok: bool
    num_pairs: int
    problems: list[str] = field(default_factory=list)
    sampled_points: int = 0

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise AssertionError(
                "join result verification failed:\n  " + "\n  ".join(self.problems)
            )


def verify_selfjoin_result(
    points,
    epsilon: float,
    pairs: np.ndarray,
    *,
    include_self: bool = True,
    sample: int = 64,
    rng=None,
) -> VerificationReport:
    """Verify a claimed self-join result set.

    Checks, in order of increasing cost:

    1. shape and index validity;
    2. no duplicate rows;
    3. every claimed pair is truly within ε (full distance re-check);
    4. symmetry: (i, j) present ⇔ (j, i) present;
    5. self-pair policy matches ``include_self``;
    6. completeness on a random ``sample`` of points: their exact
       neighborhoods (recomputed from scratch) appear verbatim.
    """
    pts = as_points_array(points)
    eps = check_epsilon(epsilon)
    pairs = np.asarray(pairs, dtype=np.int64)
    problems: list[str] = []

    if pairs.ndim != 2 or (pairs.size and pairs.shape[1] != 2):
        return VerificationReport(False, 0, [f"pairs must be (M, 2), got {pairs.shape}"])
    n = len(pts)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        problems.append("pair indices out of range")
        return VerificationReport(False, len(pairs), problems)

    keys = pairs[:, 0] * np.int64(n) + pairs[:, 1]
    if len(np.unique(keys)) != len(keys):
        problems.append("duplicate pairs present")

    if pairs.size:
        keep = epsilon_filter(pts, pts, eps)
        bad = int((~keep(pairs[:, 0], pairs[:, 1])).sum())
        if bad:
            problems.append(f"{bad} claimed pairs exceed epsilon")

    mirrored = pairs[:, 1] * np.int64(n) + pairs[:, 0]
    if not np.isin(mirrored, keys).all():
        problems.append("result is not symmetric")

    self_rows = int((pairs[:, 0] == pairs[:, 1]).sum()) if pairs.size else 0
    if include_self and self_rows != n:
        problems.append(f"expected {n} self pairs, found {self_rows}")
    if not include_self and self_rows:
        problems.append(f"found {self_rows} self pairs but include_self=False")

    # sampled completeness: per-point result counts vs exact counts
    sampled = 0
    if n:
        sampled = min(sample, n)
        chosen = resolve_rng(rng if rng is not None else 0).choice(
            n, size=sampled, replace=False
        )
        index = GridIndex(pts, eps)
        exact = grid_neighbor_counts(index, chosen, include_self=include_self)
        claimed = np.bincount(pairs[:, 0], minlength=n)[chosen] if pairs.size else np.zeros(sampled, dtype=np.int64)
        wrong = int((claimed != exact).sum())
        if wrong:
            problems.append(
                f"{wrong}/{sampled} sampled points have wrong neighbor counts"
            )

    return VerificationReport(
        ok=not problems,
        num_pairs=len(pairs),
        problems=problems,
        sampled_points=sampled,
    )
