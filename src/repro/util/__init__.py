"""Shared low-level utilities: array validation, RNG handling, table rendering.

These helpers are deliberately free of any domain knowledge; every other
subpackage may depend on :mod:`repro.util` but :mod:`repro.util` depends only
on NumPy.
"""

from repro.util.arrays import (
    as_points_array,
    ceil_div,
    check_epsilon,
    gather_slices,
    pairs_to_set,
    stable_argsort,
    stable_argsort_desc,
)
from repro.util.rng import resolve_rng
from repro.util.tables import Table, format_seconds

__all__ = [
    "Table",
    "as_points_array",
    "ceil_div",
    "check_epsilon",
    "format_seconds",
    "gather_slices",
    "pairs_to_set",
    "resolve_rng",
    "stable_argsort",
    "stable_argsort_desc",
]
