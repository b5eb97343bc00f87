"""The experiment harness: one driver per paper table/figure, plus the
unified benchmark-suite layer.

- :mod:`repro.bench.experiments` — the registry mapping each of the
  paper's evaluation artifacts (Figures 9–13, Tables I & III–VI) to
  datasets, ε sweeps and configurations at benchmark scale;
- :mod:`repro.bench.runner` — executes a spec against the performance
  model (and the SUPER-EGO baseline) and returns a
  :class:`~repro.profiling.ProfileReport`;
- :mod:`repro.bench.suites` — declarative benchmark suites, run with
  ``repro-bench suite run <suite> [--filter <exp>]``;
- :mod:`repro.bench.executors` — runs a suite and measures it;
- :mod:`repro.bench.gates` — tiered gates (correctness / budgets /
  trajectory) over suite results;
- :mod:`repro.bench.history` — ``results/BENCH_<suite>.json``
  trajectory files;
- :mod:`repro.bench.cli` — ``repro-bench`` / ``python -m repro.bench``.
"""

from repro.bench.executors import RunContext, SuiteRun, run_suite
from repro.bench.experiments import EXPERIMENTS, ExperimentSpec
from repro.bench.gates import Budget, CheckResult, GateReport, Violation
from repro.bench.runner import run_experiment
from repro.bench.suites import (
    SUITES,
    BenchExperiment,
    BenchSuite,
    ExperimentResult,
    Variant,
    Workload,
    get_suite,
    register_suite,
)

__all__ = [
    "EXPERIMENTS",
    "SUITES",
    "BenchExperiment",
    "BenchSuite",
    "Budget",
    "CheckResult",
    "ExperimentResult",
    "ExperimentSpec",
    "GateReport",
    "RunContext",
    "SuiteRun",
    "Variant",
    "Violation",
    "Workload",
    "get_suite",
    "register_suite",
    "run_experiment",
    "run_suite",
]
