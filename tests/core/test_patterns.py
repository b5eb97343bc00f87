"""Unit and property tests for the cell access patterns.

The load-bearing invariant: for any dataset, every adjacent (unordered)
cell pair must be covered by *exactly one* direction under UNICOMP and
LID-UNICOMP — that is what makes mirrored emission produce the exact
result set with half the distance computations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.patterns import (
    PATTERN_NAMES,
    PatternPlan,
    pattern_cells_for_query,
    unicomp_pivot_dims,
)
from repro.grid import GridIndex, neighbor_offsets, neighbor_ranks_of_cell


def build_index(seed: int, ndim: int, n: int = 120, eps: float = 0.8) -> GridIndex:
    rng = np.random.default_rng(seed)
    return GridIndex(rng.uniform(0, 4, size=(n, ndim)), eps)


class TestUnicompPivots:
    def test_2d_matches_algorithm2(self):
        offs = neighbor_offsets(2)
        pivots = unicomp_pivot_dims(2)
        for o, p in zip(offs, pivots):
            if o[1] != 0:
                assert p == 1  # red arrows: y decides
            elif o[0] != 0:
                assert p == 0  # green arrows: x decides
            else:
                assert p == -1

    def test_zero_offset_has_no_pivot(self):
        for n in (1, 2, 3):
            pivots = unicomp_pivot_dims(n)
            assert pivots[3**n // 2] == -1
            assert (np.delete(pivots, 3**n // 2) >= 0).all()


class TestSelectorShapes:
    """Pattern membership through :meth:`PatternPlan.take_mask`."""

    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_zero_offset_never_selected(self, pattern):
        idx = build_index(0, 2)
        sel = PatternPlan(pattern, idx).take_mask
        zero = 3**2 // 2
        assert not sel(zero).any()

    def test_unknown_pattern(self):
        idx = build_index(0, 2)
        with pytest.raises(ValueError, match="unknown pattern"):
            PatternPlan("spiral", idx)
        with pytest.raises(ValueError, match="unknown pattern"):
            pattern_cells_for_query("spiral", idx, 0)

    def test_full_selects_all_nonzero(self):
        idx = build_index(1, 2)
        sel = PatternPlan("full", idx).take_mask
        for oi in range(9):
            if oi == 4:  # zero offset
                assert not sel(oi).any()
            else:
                assert sel(oi).all()

    def test_lid_is_cell_independent_half(self):
        idx = build_index(2, 3)
        sel = PatternPlan("lidunicomp", idx).take_mask
        chosen = [oi for oi in range(27) if sel(oi).any()]
        for oi in chosen:
            assert sel(oi).all()  # same for every cell
        assert len(chosen) == 13  # (3^3 - 1) / 2

    def test_unicomp_depends_on_parity(self):
        idx = build_index(3, 2)
        sel = PatternPlan("unicomp", idx).take_mask
        pivots = unicomp_pivot_dims(2)
        coords = idx.cell_coords_arr
        for oi in range(9):
            if pivots[oi] < 0:
                continue
            expected = (coords[:, pivots[oi]] & 1) == 1
            np.testing.assert_array_equal(sel(oi), expected)


class TestCoverage:
    """Every adjacent unordered cell pair covered exactly once."""

    @pytest.mark.parametrize("pattern", ["unicomp", "lidunicomp"])
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_exact_single_coverage(self, pattern, ndim):
        idx = build_index(11 + ndim, ndim)
        covered: dict[tuple[int, int], int] = {}
        for r in range(idx.num_nonempty_cells):
            _, ranks = pattern_cells_for_query(pattern, idx, r)
            for nb in ranks[ranks >= 0]:
                key = (min(r, int(nb)), max(r, int(nb)))
                covered[key] = covered.get(key, 0) + 1
        # expected: all adjacent non-empty unordered pairs (excluding self)
        expected = set()
        for r in range(idx.num_nonempty_cells):
            for nb in neighbor_ranks_of_cell(idx, r, include_self=False):
                expected.add((min(r, int(nb)), max(r, int(nb))))
        assert set(covered) == expected
        assert all(v == 1 for v in covered.values()), "double coverage detected"

    @given(seed=st.integers(0, 2**31 - 1), ndim=st.integers(1, 3))
    def test_property_single_coverage_lid(self, seed, ndim):
        idx = build_index(seed, ndim, n=60, eps=1.0)
        seen = set()
        for r in range(idx.num_nonempty_cells):
            _, ranks = pattern_cells_for_query("lidunicomp", idx, r)
            for nb in ranks[ranks >= 0]:
                key = (min(r, int(nb)), max(r, int(nb)))
                assert key not in seen
                seen.add(key)

    def test_full_covers_both_directions(self):
        idx = build_index(5, 2)
        covered: dict[tuple[int, int], int] = {}
        for r in range(idx.num_nonempty_cells):
            _, ranks = pattern_cells_for_query("full", idx, r)
            for nb in ranks[ranks >= 0]:
                key = (min(r, int(nb)), max(r, int(nb)))
                covered[key] = covered.get(key, 0) + 1
        assert all(v == 2 for v in covered.values()), "full must cover both ways"


class TestBalanceProperties:
    def test_lid_inner_cells_visit_constant_cell_count(self):
        # dense grid: every inner cell selects exactly (3^2-1)/2 = 4 offsets
        pts = np.array(
            [[x + 0.5, y + 0.5] for x in range(6) for y in range(6)], dtype=float
        )
        idx = GridIndex(pts, 1.0)
        counts = []
        for r in range(idx.num_nonempty_cells):
            c = idx.cell_coords_arr[r]
            if (c > 0).all() and (c < 5).all():  # inner cells
                visited, _ = pattern_cells_for_query("lidunicomp", idx, r)
                counts.append(len(visited))
        assert counts and all(v == 4 for v in counts)

    def test_unicomp_has_zero_and_full_cells(self):
        # same dense grid: even-even cells visit 0 neighbors, odd-odd all 8
        pts = np.array(
            [[x + 0.5, y + 0.5] for x in range(6) for y in range(6)], dtype=float
        )
        idx = GridIndex(pts, 1.0)
        by_parity = {}
        for r in range(idx.num_nonempty_cells):
            c = idx.cell_coords_arr[r]
            if (c > 0).all() and (c < 5).all():
                visited, _ = pattern_cells_for_query("unicomp", idx, r)
                by_parity[(int(c[0]) % 2, int(c[1]) % 2)] = len(visited)
        assert by_parity[(0, 0)] == 0
        assert by_parity[(1, 1)] == 8
        assert by_parity[(1, 0)] == 2  # green arrows only
        assert by_parity[(0, 1)] == 6  # red arrows only

    def test_unicomp_variance_exceeds_lid_variance(self):
        """The paper's motivation: LID-UNICOMP equalizes visited-cell counts."""
        idx = build_index(17, 2, n=400, eps=0.5)
        var = {}
        for pattern in ("unicomp", "lidunicomp"):
            counts = [
                len(pattern_cells_for_query(pattern, idx, r)[0])
                for r in range(idx.num_nonempty_cells)
            ]
            var[pattern] = np.var(counts)
        assert var["lidunicomp"] <= var["unicomp"]
