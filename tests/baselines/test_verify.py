"""Tests for the result-set verifier."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import verify_selfjoin_result
from repro.core import PRESETS, SelfJoin
from repro.runtime import RuntimeConfig


@pytest.fixture(scope="module")
def joined():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 5, (200, 2))
    res = SelfJoin(PRESETS["combined"]).execute(pts, 0.4)
    return pts, res


class TestVerifier:
    def test_accepts_correct_result(self, joined):
        pts, res = joined
        report = verify_selfjoin_result(pts, 0.4, res.pairs)
        report.raise_if_failed()
        assert report.ok
        assert report.sampled_points > 0

    def test_detects_missing_pairs(self, joined):
        pts, res = joined
        truncated = res.pairs[: len(res.pairs) // 2]
        report = verify_selfjoin_result(pts, 0.4, truncated)
        assert not report.ok
        with pytest.raises(AssertionError, match="verification failed"):
            report.raise_if_failed()

    def test_detects_far_pairs(self, joined):
        pts, res = joined
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        i, j = np.unravel_index(np.argmax(d), d.shape)
        bogus = np.concatenate([res.pairs, [[i, j], [j, i]]])
        report = verify_selfjoin_result(pts, 0.4, bogus)
        assert any("exceed epsilon" in p for p in report.problems)

    def test_detects_asymmetry(self, joined):
        pts, res = joined
        # drop one non-self row
        non_self = np.flatnonzero(res.pairs[:, 0] != res.pairs[:, 1])
        broken = np.delete(res.pairs, non_self[0], axis=0)
        report = verify_selfjoin_result(pts, 0.4, broken)
        assert any("not symmetric" in p for p in report.problems)

    def test_detects_duplicates(self, joined):
        pts, res = joined
        duped = np.concatenate([res.pairs, res.pairs[:1]])
        report = verify_selfjoin_result(pts, 0.4, duped)
        assert any("duplicate" in p for p in report.problems)

    def test_self_pair_policy(self, joined):
        pts, res = joined
        report = verify_selfjoin_result(pts, 0.4, res.pairs, include_self=False)
        assert any("include_self=False" in p for p in report.problems)
        no_self = SelfJoin(runtime=RuntimeConfig(include_self=False)).execute(pts, 0.4)
        assert verify_selfjoin_result(
            pts, 0.4, no_self.pairs, include_self=False
        ).ok

    def test_index_bounds(self, joined):
        pts, _ = joined
        report = verify_selfjoin_result(pts, 0.4, np.array([[0, 9999]]))
        assert any("out of range" in p for p in report.problems)

    def test_bad_shape(self, joined):
        pts, _ = joined
        report = verify_selfjoin_result(pts, 0.4, np.zeros((2, 3), dtype=np.int64))
        assert not report.ok
