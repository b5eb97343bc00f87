"""Satellite: the result-size estimator reports its own error bar."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batching import (
    ResultSizeEstimate,
    estimate_result_size,
    estimate_result_size_detailed,
)
from repro.core.sortbywl import sort_by_workload
from repro.data.adversarial import dense_core_sparse_halo
from repro.grid import GridIndex

_EPS = 0.8


@pytest.fixture(scope="module")
def uniform_index() -> GridIndex:
    pts = np.random.default_rng(3).uniform(0.0, 10.0, size=(600, 2))
    return GridIndex(pts, _EPS)


@pytest.fixture(scope="module")
def skewed_index() -> GridIndex:
    return GridIndex(dense_core_sparse_halo(600, 2, seed=3), _EPS)


def test_scalar_form_unchanged(uniform_index):
    """estimate_result_size is exactly the detailed estimate's point value."""
    detailed = estimate_result_size_detailed(uniform_index, sample_fraction=0.1)
    assert estimate_result_size(uniform_index, sample_fraction=0.1) == detailed.estimate


def test_full_sample_has_zero_stderr(uniform_index):
    d = estimate_result_size_detailed(uniform_index, sample_fraction=1.0)
    assert d.sample_size == d.population
    assert d.stderr == 0.0
    assert d.confident


def test_uniform_data_is_confident(uniform_index):
    d = estimate_result_size_detailed(uniform_index, sample_fraction=0.1)
    assert d.sample_size >= 30
    assert d.confident
    assert d.relative_stderr <= 0.25


def test_skew_raises_the_error_bar(uniform_index, skewed_index):
    """Same sample size, same ε: the dense-core dataset's per-point counts
    vary far more, and the estimate must say so."""
    u = estimate_result_size_detailed(uniform_index, sample_fraction=0.1)
    s = estimate_result_size_detailed(skewed_index, sample_fraction=0.1)
    assert s.variance_per_point > u.variance_per_point
    assert s.relative_stderr > u.relative_stderr


def test_head_mode_never_confident(skewed_index):
    """The WORKQUEUE head-of-D' sample is deliberately biased upward — it
    is a safe overestimate, not a measurement."""
    order = sort_by_workload(skewed_index, "full")
    head = estimate_result_size_detailed(
        skewed_index, sample_fraction=0.05, mode="head", order=order
    )
    strided = estimate_result_size_detailed(skewed_index, sample_fraction=0.05)
    assert not head.confident
    assert head.estimate >= strided.estimate  # the bias it exists for


def test_degenerate_inputs():
    empty = GridIndex(np.empty((0, 2)), _EPS)
    d = estimate_result_size_detailed(empty)
    assert (d.estimate, d.sample_size, d.stderr) == (0, 0, 0.0)
    one = GridIndex(np.zeros((1, 2)), _EPS)
    d1 = estimate_result_size_detailed(one, sample_fraction=1.0)
    assert d1.estimate == 1  # the self-pair
    assert d1.stderr == 0.0


def test_zero_estimate_relative_stderr():
    d = ResultSizeEstimate(
        estimate=0, sample_size=10, population=100, mode="strided",
        mean_per_point=0.0, variance_per_point=0.0,
    )
    assert d.relative_stderr == 0.0
    d2 = ResultSizeEstimate(
        estimate=0, sample_size=10, population=100, mode="strided",
        mean_per_point=0.0, variance_per_point=4.0,
    )
    assert d2.relative_stderr == float("inf")
    assert not d2.confident
