"""Unit and property tests for GridSpec geometry."""

from __future__ import annotations

import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.grid import GridSpec
from repro.io import load_dataset, save_dataset


def make_points(ndim: int, n: int, rng: np.random.Generator, scale=10.0):
    return rng.uniform(0, scale, size=(n, ndim))


class TestConstruction:
    def test_widths_cover_bounding_box(self):
        spec = GridSpec(1.0, np.array([0.0, 0.0]), np.array([10.0, 5.0]))
        assert list(spec.widths) == [11, 6]
        assert spec.total_cells == 66

    def test_strides_row_major(self):
        spec = GridSpec(1.0, np.zeros(3), np.array([3.0, 4.0, 5.0]))
        w = spec.widths
        assert spec.strides[2] == 1
        assert spec.strides[1] == w[2]
        assert spec.strides[0] == w[1] * w[2]

    def test_rejects_inverted_box(self):
        with pytest.raises(ValueError, match=">= mins"):
            GridSpec(1.0, np.array([1.0]), np.array([0.0]))

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, np.zeros(2), np.ones(2))

    def test_tiny_epsilon_coarsens_instead_of_overflowing(self):
        # 1e6 cells per dim in 6-D would overflow int64 linearization;
        # the spec coarsens cells (adjacency only needs length >= eps)
        spec = GridSpec(1e-6, np.zeros(6), np.ones(6))
        assert spec.is_coarsened
        assert spec.cell_length >= 1e-6
        assert spec.total_cells <= np.iinfo(np.int64).max // 4
        # coarsening is by doubling: cell_length = eps * 2^k
        ratio = spec.cell_length / 1e-6
        assert np.isclose(np.log2(ratio), round(np.log2(ratio)))

    def test_normal_epsilon_not_coarsened(self):
        spec = GridSpec(1.0, np.zeros(2), np.full(2, 10.0))
        assert not spec.is_coarsened
        assert spec.cell_length == 1.0

    def test_coarsened_grid_still_exact(self):
        """Joins remain exact under coarsening (bigger candidate sets only)."""
        from repro.baselines import brute_force_pairs
        from repro.grid import GridIndex
        from repro.grid.query import grid_selfjoin_pairs

        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 1, (80, 4))
        eps = 1e-7  # would need (1e7)^4 cells uncoarsened
        idx = GridIndex(pts, eps)
        assert idx.spec.is_coarsened
        got = grid_selfjoin_pairs(idx)
        got = got[np.lexsort((got[:, 1], got[:, 0]))]
        np.testing.assert_array_equal(got, brute_force_pairs(pts, eps))

    def test_from_points_empty_dataset(self):
        spec = GridSpec.from_points(np.empty((0, 3)), 0.5)
        assert spec.ndim == 3
        assert spec.total_cells == 1


class TestHugeSpans:
    """Spans whose cell count at ε passes 2**63: the spec coarsens before it
    casts, and a span past float64 is a ValueError naming its dimension."""

    CASES = {
        # two clusters 1e19 apart at ε 1: 1e19 cells is past int64
        "1e19": (np.array([[0.0, 0.0], [0.5, 0.0], [1e19, 0.0], [1e19, 0.75]]), 1.0),
        "1e300": (
            np.array([[-1e300, 0.0], [-1e300, 0.5], [0.0, 0.0], [0.5, 0.5], [1e300, 0.0]]),
            1.0,
        ),
    }

    @pytest.mark.parametrize("engine", ["native", "vectorized"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_joins_match_brute_force(self, case, engine):
        from repro.baselines import brute_force_pairs
        from repro.grid import GridIndex
        from repro.runtime import Runner, RuntimeConfig, compile_self_join

        points, eps = self.CASES[case]
        index = GridIndex(points, eps)
        assert index.spec.is_coarsened and (index.spec.widths >= 1).all()
        got = Runner().run(compile_self_join(index, RuntimeConfig(engine=engine)))
        want = brute_force_pairs(points, eps)
        np.testing.assert_array_equal(got.sorted_pairs(), want)

    def test_span_past_float64_names_its_dimension(self):
        from repro.grid import GridIndex

        points = np.array([[0.0, -1.7e308], [1.0, 1.7e308]])
        with pytest.raises(ValueError, match="dimension 1 spans"):
            GridSpec.from_points(points, 1.0)
        with pytest.raises(ValueError, match="dimension 1 spans"):
            GridIndex(points, 1.0)

    @given(
        ndim=st.integers(1, 6),
        eps=st.sampled_from((1e-9, 1e-6, 0.3, 1.0, 7.463412840658728)),
        exponents=st.lists(st.integers(-3, 20), min_size=6, max_size=6),
        mantissas=st.lists(st.floats(1.0, 9.99), min_size=6, max_size=6),
    )
    @example(ndim=1, eps=1.0, exponents=[18] * 6, mantissas=[9.2] * 6)  # 2**63 cells
    @example(ndim=1, eps=1.0, exponents=[18] * 6, mantissas=[2.3] * 6)  # 2**61 cells
    @example(ndim=3, eps=1e-9, exponents=[0] * 6, mantissas=[1.0] * 6)
    def test_specs_that_fit_are_unchanged(self, ndim, eps, exponents, mantissas):
        spans = np.array([m * 10.0**e for m, e in zip(mantissas, exponents)])[:ndim]
        mins = -0.5 * spans
        maxs = mins + spans
        ref_length, ref_widths = _doubling_reference(eps, mins, maxs)
        if (ref_widths < 1).any():
            return  # the reference's int64 cast overflowed: it never fit
        spec = GridSpec(eps, mins, maxs)
        assert spec.cell_length == ref_length
        assert spec.widths.dtype == ref_widths.dtype
        assert spec.widths.tobytes() == ref_widths.tobytes()


class TestFarQueries:
    """Similarity queries far outside the indexed box: their unclamped
    cell coordinates saturate before the int64 cast, so no NumPy warning
    escapes and the far queries probe nothing."""

    QUERIES = np.array(
        [
            [1e19, 0.5],
            [0.5, -1e19],
            [1e300, 1e300],
            [-1e300, 0.25],
            [0.75, 1e300],
            [1.7e308, -1.7e308],
            [0.5, 0.5],
            [0.5, 1.05],
            [-0.05, 0.35],
        ]
    )

    @pytest.mark.parametrize("engine", ["native", "vectorized"])
    def test_joins_match_brute_force_without_warnings(self, engine):
        from repro import RuntimeConfig, SimilarityJoin
        from repro.baselines import brute_force_pairs

        points = np.random.default_rng(0).uniform(0.0, 1.0, (200, 2))
        eps = 0.1
        pairs = brute_force_pairs(np.concatenate([self.QUERIES, points]), eps)
        na = len(self.QUERIES)
        cross = pairs[(pairs[:, 0] < na) & (pairs[:, 1] >= na)]
        want = np.column_stack([cross[:, 0], cross[:, 1] - na])
        assert len(want) and set(want[:, 0].tolist()) == {6, 7, 8}
        join = SimilarityJoin(runtime=RuntimeConfig(engine=engine))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = join.execute(self.QUERIES, points, eps)
        np.testing.assert_array_equal(got.sorted_pairs(), want)

    def test_far_cells_saturate(self):
        spec = GridSpec(0.1, np.zeros(2), np.ones(2))
        coords = spec.cell_coords(self.QUERIES[:6], clamp=False)
        assert np.abs(coords).max() == 2**62
        assert (spec.cell_coords(self.QUERIES[6:], clamp=False) == [[5, 5], [5, 10], [-1, 3]]).all()


def _doubling_reference(eps, mins, maxs):
    """The coarsening loop as it was when it cast every count to int64
    before checking it: the reference for each spec whose counts fit."""
    spans = maxs - mins
    length = eps
    for _ in range(128):
        with np.errstate(invalid="ignore"):
            widths = np.floor(spans / length).astype(np.int64) + 1
        total = 1
        for w in widths.tolist():
            total *= int(w)
            if total > np.iinfo(np.int64).max // 4:
                break
        if total <= np.iinfo(np.int64).max // 4:
            break
        length *= 2.0
    return length, widths


class TestCoordinateMapping:
    def test_cell_coords_basic(self):
        spec = GridSpec(1.0, np.zeros(2), np.array([10.0, 10.0]))
        pts = np.array([[0.0, 0.0], [0.999, 0.0], [1.0, 2.5], [10.0, 10.0]])
        coords = spec.cell_coords(pts)
        np.testing.assert_array_equal(coords, [[0, 0], [0, 0], [1, 2], [10, 10]])

    def test_boundary_point_in_bounds(self):
        spec = GridSpec(0.3, np.zeros(1), np.array([1.0]))
        coords = spec.cell_coords(np.array([[1.0]]))
        assert spec.in_bounds(coords).all()

    def test_dimension_mismatch_raises(self):
        spec = GridSpec(1.0, np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="dimensions"):
            spec.cell_coords(np.zeros((3, 3)))

    def test_external_points_clamped(self):
        spec = GridSpec(1.0, np.zeros(1), np.array([5.0]))
        coords = spec.cell_coords(np.array([[-3.0], [99.0]]))
        assert spec.in_bounds(coords).all()

    @given(
        ndim=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        eps=st.floats(0.05, 3.0),
    )
    def test_linearize_roundtrip(self, ndim, seed, eps):
        rng = np.random.default_rng(seed)
        pts = make_points(ndim, 50, rng)
        spec = GridSpec.from_points(pts, eps)
        coords = spec.cell_coords(pts)
        ids = spec.linearize(coords)
        np.testing.assert_array_equal(spec.delinearize(ids), coords)

    @given(ndim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_linear_ids_unique_per_cell(self, ndim, seed):
        """Distinct cell coordinates must map to distinct linear ids."""
        rng = np.random.default_rng(seed)
        pts = make_points(ndim, 100, rng)
        spec = GridSpec.from_points(pts, 0.7)
        coords = spec.cell_coords(pts)
        ids = spec.linearize(coords)
        uniq_coords = np.unique(coords, axis=0)
        uniq_ids = np.unique(ids)
        assert len(uniq_coords) == len(uniq_ids)

    @given(
        data=hnp.arrays(
            np.float64,
            shape=st.tuples(st.integers(1, 60), st.integers(1, 3)),
            elements=st.floats(-50, 50, allow_nan=False),
        )
    )
    def test_every_point_lands_in_bounds(self, data):
        spec = GridSpec.from_points(data, 1.0)
        coords = spec.cell_coords(data)
        assert spec.in_bounds(coords).all()

    def test_points_within_eps_are_in_adjacent_cells(self):
        """Core grid guarantee: a neighbor within eps differs by <=1 per dim."""
        rng = np.random.default_rng(7)
        pts = make_points(3, 300, rng, scale=4.0)
        eps = 0.5
        spec = GridSpec.from_points(pts, eps)
        coords = spec.cell_coords(pts)
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        close_i, close_j = np.nonzero(d <= eps)
        delta = np.abs(coords[close_i] - coords[close_j])
        assert delta.max() <= 1


# -- column-at-a-time arithmetic ------------------------------------------
# The broadcast expressions GridSpec used before it worked one column at a
# time, kept as the reference: every spec and coordinate array must stay
# byte-identical to them.
def _broadcast_spec(points, eps):
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) == 0:
        return GridSpec(eps, np.zeros(pts.shape[1]), np.zeros(pts.shape[1]))
    return GridSpec(eps, pts.min(axis=0), pts.max(axis=0))


def _broadcast_coords(spec, points, clamp):
    coords = np.floor((np.asarray(points) - spec.mins) / spec.cell_length).astype(np.int64)
    if clamp:
        np.clip(coords, 0, spec.widths - 1, out=coords)
    return coords


@st.composite
def grid_cases(draw):
    """``(points, eps, queries, mmap)``: 1–8 dims; negative coordinates,
    signed zeros at a column's extreme, points on cell boundaries (the
    box's upper face among them), an optional 1e6 offset, a tiny ε whose
    spec coarsens, and queries in and far outside the box."""
    ndim = draw(st.integers(1, 8))
    n = draw(st.integers(0, 40))
    eps = draw(st.sampled_from((1e-9, 0.3, 1.0, 7.463412840658728)))
    span = draw(st.sampled_from((3.0 * eps, 1.0)))  # 1e-9 over a unit box coarsens
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(-span, span, (n, ndim))
    for d in range(ndim):
        sign = draw(st.sampled_from((0, 1, -1)))  # mixed, non-negative, non-positive
        if sign:
            points[:, d] = sign * np.abs(points[:, d])
    if draw(st.booleans()):  # signed zeros, possibly a column's min or max
        zeros = rng.random((n, ndim)) < 0.4
        points[zeros] = rng.choice([-0.0, 0.0], int(zeros.sum()))
    if draw(st.booleans()):  # coordinates on cell boundaries
        snap = rng.random((n, ndim)) < 0.5
        points[snap] = np.round(points[snap] / eps) * eps
    if draw(st.booleans()):
        points += 1e6
    lo = points.min(axis=0) if n else np.zeros(ndim)
    near = lo + rng.uniform(-4.0 * span, 6.0 * span, (draw(st.integers(0, 10)), ndim))
    far = rng.choice([-1e9, 1e9], (draw(st.integers(0, 3)), ndim))
    return points, eps, np.concatenate([points[:5], near, far]), draw(st.booleans())


def _signed_zero_column():
    """Two columns; the first's min is a zero that the row-wise reduction
    takes as 0.0 and a strided one-column ``min()`` as -0.0 (NumPy 2.x)."""
    signs = "+-+--++--++++-++"
    col = [-0.0 if s == "-" else 0.0 for s in signs] + [1.0]
    return np.column_stack([col, np.linspace(1.0, 2.0, len(col))])


class TestColumnwiseArithmetic:
    @given(case=grid_cases())
    @example(case=(_signed_zero_column(), 1.0, np.zeros((1, 2)), False))
    @example(case=(-_signed_zero_column(), 0.3, np.zeros((1, 2)), True))  # the max
    @example(case=(np.eye(3) * 1.0, 1e-9, np.full((1, 3), 1e9), False))  # coarsened
    def test_spec_and_coords_equal_broadcast_reference(self, case):
        points, eps, queries, mmap = case
        with tempfile.TemporaryDirectory() as tmp:
            data = points
            if mmap:
                path = Path(tmp) / "points.npy"
                save_dataset(path, points)
                data = load_dataset(path, mmap=True)
            spec = GridSpec.from_points(data, eps)
            ref = _broadcast_spec(points, eps)
            for attr in ("mins", "maxs", "widths", "strides"):
                got, want = getattr(spec, attr), getattr(ref, attr)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), attr
            assert spec.cell_length == ref.cell_length
            for rows in (data, queries):
                for clamp in (True, False):
                    got = spec.cell_coords(rows, clamp=clamp)
                    want = _broadcast_coords(ref, rows, clamp)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), clamp
            del data  # release the map before the directory goes

    def test_coarsened_example_is_coarsened(self):
        assert GridSpec.from_points(np.eye(3), 1e-9).is_coarsened
