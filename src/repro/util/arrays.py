"""Array validation and small vectorized helpers used across the package."""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_points_array",
    "ceil_div",
    "check_epsilon",
    "gather_slices",
    "pairs_to_set",
    "stable_argsort",
    "stable_argsort_desc",
]

_INT64_MAX = np.iinfo(np.int64).max


def as_points_array(points, *, copy: bool = False) -> np.ndarray:
    """Validate and normalize a dataset to a C-contiguous float64 ``(N, n)`` array.

    Parameters
    ----------
    points:
        Anything convertible to a 2-D float array; rows are points, columns
        are dimensions.
    copy:
        Force a copy even when the input is already in canonical form.

    Raises
    ------
    ValueError
        If the input is not 2-D, is empty along the dimension axis, or
        contains non-finite coordinates.
    """
    arr = np.asarray(points, dtype=np.float64, order="C")
    if copy and arr is points:
        arr = arr.copy()
    if arr.ndim == 1 and arr.size == 0:
        # Allow an empty dataset spelled as [] — treat as 0 points in 1-D.
        arr = arr.reshape(0, 1)
    if arr.ndim != 2:
        raise ValueError(f"points must be a 2-D array, got shape {arr.shape}")
    if arr.shape[1] == 0:
        raise ValueError("points must have at least one dimension")
    if arr.size:
        finite = np.isfinite(arr)
        if not finite.all():
            bad_rows = np.flatnonzero(~finite.all(axis=1))
            raise ValueError(
                "points must contain only finite coordinates; "
                f"{len(bad_rows)} of {len(arr)} rows have NaN/inf "
                f"(first offending row: {int(bad_rows[0])})"
            )
    return np.ascontiguousarray(arr)


def check_epsilon(epsilon: float) -> float:
    """Validate a distance threshold: finite and strictly positive."""
    eps = float(epsilon)
    if not np.isfinite(eps) or eps <= 0.0:
        raise ValueError(f"epsilon must be a finite positive number, got {epsilon!r}")
    return eps


def ceil_div(a, b):
    """Ceiling integer division, elementwise for arrays.

    ``b`` must be positive. Works on Python ints and NumPy integer arrays.
    """
    return -(-a // b)


def _key_argsort(values: np.ndarray, *, descending: bool) -> np.ndarray | None:
    """The stable argsort of integer ``values`` by one plain sort, or
    ``None`` for floats and when the key could overflow int64.

    The key ``(v − min) · 2ᵇ + i`` (descending: ``(max − v) · 2ᵇ + i``),
    with ``2ᵇ`` the least power of two ≥ ``n``, is unique, so an unstable
    sort of it orders the values stably, and its low ``b`` bits are the
    permutation. NumPy runs a stable argsort of int64 as a merge sort;
    the plain sort of the key is several times faster.
    """
    n = len(values)
    if values.dtype.kind not in "iu" or n == 0:
        return None
    lo, hi = int(values.min()), int(values.max())
    b = (n - 1).bit_length()
    if hi > _INT64_MAX or (hi - lo + 1) << b > _INT64_MAX:
        return None
    key = values.astype(np.int64)
    if descending:
        np.subtract(hi, key, out=key)
    else:
        key -= lo
    key <<= b
    key |= np.arange(n, dtype=np.int64)
    key.sort()
    key &= (1 << b) - 1
    return key


def stable_argsort(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")``: one key sort for integers."""
    values = np.asarray(values)
    order = _key_argsort(values, descending=False)
    return np.argsort(values, kind="stable") if order is None else order


def stable_argsort_desc(values: np.ndarray) -> np.ndarray:
    """Stable descending argsort: ``np.argsort(-values, kind="stable")``.

    Integers sort one key (see :func:`stable_argsort`). Otherwise NumPy,
    which has no stable descending kind, stably sorts the negated values:
    ties keep their original relative order (the property the
    work-queue relies on for reproducibility).
    """
    values = np.asarray(values)
    order = _key_argsort(values, descending=True)
    if order is not None:
        return order
    if values.dtype.kind in "iu":
        key = -values.astype(np.int64, copy=False)
    else:
        key = -values
    return np.argsort(key, kind="stable")


def pairs_to_set(pairs: np.ndarray) -> set[tuple[int, int]]:
    """Convert an ``(M, 2)`` index-pair array to a Python set of tuples.

    Intended for tests and validation only (it is O(M) Python objects).
    """
    pairs = np.asarray(pairs)
    if pairs.size == 0:
        return set()
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must have shape (M, 2), got {pairs.shape}")
    return set(map(tuple, pairs.tolist()))


def gather_slices(source: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``source[starts[i] : starts[i]+lengths[i]]`` without a
    Python loop.

    The workhorse of the vectorized grid traversals: variable-length slice
    gathering via one repeat and one arange.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=source.dtype)
    ends = np.cumsum(lengths)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - lengths, lengths)
    return source[np.repeat(starts, lengths) + offsets]
