"""The join operations and the generic compile pipeline.

Every op declares its stages through the :mod:`repro.runtime.ops` hooks;
``compile_join`` must produce the same plans the dedicated entry points
always did, and the run fingerprint must separate ops that share a
dataset but answer different questions.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core import PRESETS
from repro.data import uniform
from repro.grid import GridIndex
from repro.grid.bipartite import bipartite_workloads
from repro.resilience import run_fingerprint
from repro.runtime import (
    BipartiteOp,
    ExpansionStage,
    JoinOp,
    KnnJoinOp,
    Runner,
    RuntimeConfig,
    SelfJoinOp,
    compile_join,
    compile_knn_join,
    compile_self_join,
    compile_similarity_join,
    ops,
)
from repro.util import stable_argsort_desc

_EPS = 0.1


@pytest.fixture(scope="module")
def points():
    return uniform(150, 2, seed=11, low=0.0, high=1.0)


@pytest.fixture(scope="module")
def index(points):
    return GridIndex(points, _EPS)


# ------------------------------------------------------------ op protocol
class TestRegistry:
    """The defaults a :class:`JoinOp` subclass inherits."""

    def test_default_hooks(self, index):
        class _Minimal(JoinOp):
            kind = "minimal"
            kernel_name = "selfjoin_kernel"

        op = _Minimal()
        rc = RuntimeConfig()
        assert op.fingerprint_extras() == ()
        op.validate(rc)  # the default accepts anything
        stages = op.plan_stages(index, rc)
        assert len(stages) == 1
        with pytest.raises(NotImplementedError):
            op.shard_plan(index, rc)


# ------------------------------------------------------------ generic compile
class TestCompileJoin:
    def test_self_wrapper_matches_generic(self, index):
        rc = RuntimeConfig(seed=3)
        via_wrapper = compile_self_join(index, rc)
        via_generic = compile_join(
            SelfJoinOp(include_self=rc.include_self), index, rc
        )
        assert via_wrapper.describe() == via_generic.describe()
        assert run_fingerprint(via_wrapper) == run_fingerprint(via_generic)

    def test_bipartite_wrapper_matches_generic(self, index, points):
        queries = points[:40] + 0.01
        rc = RuntimeConfig(seed=3)
        via_wrapper = compile_similarity_join(index, queries, rc)
        via_generic = compile_join(BipartiteOp(queries), index, rc)
        assert via_wrapper.describe() == via_generic.describe()
        assert run_fingerprint(via_wrapper) == run_fingerprint(via_generic)

    def test_knn_plan_carries_expansion_stage(self, points):
        plan = compile_knn_join(points, 4, RuntimeConfig(), epsilon0=0.05)
        stage = plan.expansion_stage
        assert isinstance(stage, ExpansionStage)
        assert stage.k == 4 and stage.epsilon0 == pytest.approx(0.05)
        assert "expand" in plan.describe()

    def test_knn_rejects_unidirectional_patterns(self, points):
        rc = RuntimeConfig(optimization=PRESETS["combined"])  # lidunicomp
        with pytest.raises(ValueError, match="pattern"):
            compile_knn_join(points, 4, rc)


# ------------------------------------------------------------ op validation
class TestKnnOpValidation:
    def test_k_bounds(self, points):
        with pytest.raises(ValueError, match="k must be >= 1"):
            KnnJoinOp(points, 0)
        with pytest.raises(ValueError, match="at least"):
            KnnJoinOp(points, len(points))

    def test_epsilon_growth_rounds(self, points):
        with pytest.raises(ValueError, match="epsilon0"):
            KnnJoinOp(points, 3, epsilon0=0.0)
        with pytest.raises(ValueError, match="growth"):
            KnnJoinOp(points, 3, growth=1.0)
        with pytest.raises(ValueError, match="max_rounds"):
            KnnJoinOp(points, 3, max_rounds=0)


# ------------------------------------------------------------ fingerprints
class TestFingerprints:
    def test_ops_on_same_data_have_distinct_identity(self, index, points):
        rc = RuntimeConfig()
        self_fp = run_fingerprint(compile_self_join(index, rc))
        knn_fp = run_fingerprint(compile_knn_join(points, 4, rc))
        assert self_fp != knn_fp

    def test_knn_parameters_are_part_of_identity(self, points):
        rc = RuntimeConfig()
        base = run_fingerprint(compile_knn_join(points, 4, rc, epsilon0=0.05))
        assert base == run_fingerprint(compile_knn_join(points, 4, rc, epsilon0=0.05))
        assert base != run_fingerprint(compile_knn_join(points, 5, rc, epsilon0=0.05))
        assert base != run_fingerprint(compile_knn_join(points, 4, rc, epsilon0=0.06))
        assert base != run_fingerprint(
            compile_knn_join(points, 4, rc, epsilon0=0.05, growth=3.0)
        )
        assert base != run_fingerprint(
            compile_knn_join(points, 4, rc, epsilon0=0.05, max_rounds=7)
        )

    def test_bipartite_extras_pin_the_query_side(self, index, points):
        rc = RuntimeConfig()
        a = run_fingerprint(compile_similarity_join(index, points[:30], rc))
        b = run_fingerprint(compile_similarity_join(index, points[:31], rc))
        assert a != b
        (chunk,) = BipartiteOp(points[:30]).fingerprint_extras()
        assert isinstance(chunk, bytes) and chunk


# ------------------------------------------------------------ bipartite prepare
def _prepare_quantifying_every_query(op, index, cfg, subset):
    """``BipartiteOp.prepare`` as it was when it quantified every query's
    workload, read or not: ``(order, estimate, weights)``."""
    ids = np.arange(len(op.queries), dtype=np.int64) if subset is None else subset
    workloads, _ = bipartite_workloads(index, op.queries[ids])
    order = ids[stable_argsort_desc(workloads)] if cfg.uses_sorted_points else ids
    weights = None
    if cfg.balanced_batches:
        by_id = np.zeros(len(op.queries), dtype=np.float64)
        by_id[ids] = workloads
        weights = by_id[order]
    return order, op._estimate(index, cfg, ids, order), weights


class TestBipartitePrepare:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("sharded", [False, True])
    def test_order_estimate_and_weights_are_unchanged(self, index, points, preset, sharded):
        op = BipartiteOp(points[::2] + 0.013)
        subset = np.random.default_rng(2).permutation(len(op.queries))[:40] if sharded else None
        cfg = PRESETS[preset]
        prep = op.prepare(index, cfg, subset=subset)
        order, estimate, weights = _prepare_quantifying_every_query(op, index, cfg, subset)
        assert prep.order.tobytes() == order.tobytes()
        assert prep.estimate == estimate
        if weights is None:
            assert prep.weights is None
        else:
            assert prep.weights.tobytes() == weights.tobytes()

    def test_gpucalcglobal_on_the_vm_quantifies_no_workloads(self, index, points):
        rc = RuntimeConfig(optimization=PRESETS["gpucalcglobal"], engine="vectorized", seed=0)
        queries = points[::3] + 0.02
        unread = mock.patch.object(
            ops, "bipartite_workloads", side_effect=AssertionError("workloads quantified")
        )
        with unread:
            joined = Runner().run(compile_similarity_join(index, queries, rc))
            knn = Runner().run(compile_knn_join(points, 4, rc, epsilon0=0.05))
        native = rc.with_(engine="native")
        assert np.array_equal(
            joined.canonical_pairs(),
            Runner().run(compile_similarity_join(index, queries, native)).canonical_pairs(),
        )
        expect = Runner().run(compile_knn_join(points, 4, native, epsilon0=0.05))
        assert knn.indices.tobytes() == expect.indices.tobytes()
