"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# The default profile: the suite runs on one core, so keep example
# counts modest while still exploring the space.
settings.register_profile(
    "repro",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI's deeper differential step loads this one with --hypothesis-profile=deep;
# the differential tests scale their example counts from the loaded profile
settings.register_profile("deep", parent=settings.get_profile("repro"), max_examples=800)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20190711)


@pytest.fixture
def small_uniform_2d(rng) -> np.ndarray:
    """200 uniform points in [0, 10]^2 — a convenient small workload."""
    return rng.uniform(0.0, 10.0, size=(200, 2))


@pytest.fixture
def small_expo_2d(rng) -> np.ndarray:
    """200 exponentially distributed points — skewed per-point workloads."""
    return rng.exponential(1.0 / 4.0, size=(200, 2))
