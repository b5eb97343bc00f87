"""Cross-validation: the analytic model must match the VM cycle for cycle.

Emission cost is the one quantity the model estimates rather than measures
(it distributes a point's result rows evenly over its k threads), so the
agreement tests run with ``c_emit = 0``; a separate test bounds the
emission-cost discrepancy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PRESETS, SelfJoin
from repro.perfmodel import PerformanceModel
from repro.runtime import RuntimeConfig
from repro.simt import CostParams, DeviceSpec


def datasets():
    rng = np.random.default_rng(7)
    return {
        "uniform2d": rng.uniform(0, 6, (300, 2)),
        "expo2d": rng.exponential(0.5, (300, 2)),
        "uniform3d": rng.uniform(0, 3, (200, 3)),
    }


NO_EMIT = CostParams(c_emit=0.0)
EPS = 0.45

# presets that exercise every code path of the model
CHECKED = [
    "gpucalcglobal",
    "unicomp",
    "lidunicomp",
    "k8",
    "sortbywl",
    "workqueue",
    "workqueue_k8",
    "combined",
    "combined_balanced",
]


@pytest.mark.parametrize("preset", CHECKED)
@pytest.mark.parametrize("dsname", sorted(datasets()))
def test_model_matches_vm_exactly(preset, dsname):
    pts = datasets()[dsname]
    cfg = PRESETS[preset]
    device = DeviceSpec()
    rt = RuntimeConfig(optimization=cfg, device=device, costs=NO_EMIT, seed=11)
    vm = SelfJoin(runtime=rt).execute(pts, EPS)
    model = PerformanceModel(device=device, costs=NO_EMIT, seed=11)
    run = model.estimate(model.profile(pts, EPS), cfg)

    assert run.num_batches == vm.num_batches
    assert run.total_result_rows == vm.num_pairs
    # warp-level totals
    vm_busy = sum(w.warp_cycles for s in vm.batch_stats for w in s.warp_stats)
    vm_active = sum(w.active_cycles for s in vm.batch_stats for w in s.warp_stats)
    model_busy = sum(b.busy_cycles for b in run.batches)
    model_active = sum(b.active_cycles for b in run.batches)
    assert model_busy == pytest.approx(vm_busy, rel=1e-12)
    assert model_active == pytest.approx(vm_active, rel=1e-12)
    assert run.warp_execution_efficiency == pytest.approx(
        vm.warp_execution_efficiency, rel=1e-12
    )
    # scheduled kernel time
    assert run.kernel_seconds == pytest.approx(vm.kernel_seconds, rel=1e-12)
    # end-to-end time differs only through transfer sizes, which the model
    # knows exactly (counts are exact): totals must agree too
    assert run.total_seconds == pytest.approx(vm.total_seconds, rel=1e-9)


def test_multibatch_agreement():
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.normal(2, 0.2, (250, 2)), rng.uniform(0, 6, (250, 2))])
    for preset in ("gpucalcglobal", "workqueue", "combined"):
        cfg = PRESETS[preset].with_(batch_result_capacity=4000)
        vm = SelfJoin(runtime=RuntimeConfig(optimization=cfg, costs=NO_EMIT, seed=5)).execute(
            pts, 0.4
        )
        assert vm.num_batches > 1
        model = PerformanceModel(costs=NO_EMIT, seed=5)
        run = model.estimate(model.profile(pts, 0.4), cfg)
        assert run.num_batches == vm.num_batches
        assert run.kernel_seconds == pytest.approx(vm.kernel_seconds, rel=1e-12)


def test_emission_model_error_is_small():
    """With emission costed, the model's even-split approximation must stay
    within a few percent of the VM on kernel time."""
    rng = np.random.default_rng(9)
    pts = rng.exponential(0.5, (400, 2))
    cfg = PRESETS["combined"]
    vm = SelfJoin(runtime=RuntimeConfig(optimization=cfg, seed=2)).execute(pts, 0.4)
    model = PerformanceModel(seed=2)
    run = model.estimate(model.profile(pts, 0.4), cfg)
    assert run.kernel_seconds == pytest.approx(vm.kernel_seconds, rel=0.05)
    assert run.warp_execution_efficiency == pytest.approx(
        vm.warp_execution_efficiency, abs=0.05
    )


def test_model_total_result_rows_exact():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 5, (300, 2))
    vm = SelfJoin(runtime=RuntimeConfig(seed=0)).execute(pts, 0.5)
    model = PerformanceModel(seed=0)
    run = model.estimate(model.profile(pts, 0.5))
    assert run.total_result_rows == vm.num_pairs
