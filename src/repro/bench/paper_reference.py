"""The paper's published numbers, machine-readable.

The paper's central table (Table V), transcribed from the text. The
``paper_speedup_directions`` check of the paper suite reads it, so
"paper said / we measured" never drifts from a single source.

Times are seconds on the authors' testbed (Quadro GP100 + 2×E5-2620v4) at
the paper's dataset sizes — *not* comparable to simulated bench-scale
times; ratios and orderings are.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PAPER_TABLE5", "PaperCell"]


@dataclass(frozen=True)
class PaperCell:
    """One (dataset, ε) measurement pair from a paper table."""

    dataset: str
    epsilon: float
    baseline_wee: float  # GPUCALCGLOBAL WEE %
    optimized_wee: float  # WORKQUEUE k=8 WEE %
    baseline_seconds: float
    optimized_seconds: float

    @property
    def speedup(self) -> float:
        return self.baseline_seconds / self.optimized_seconds

    @property
    def wee_gain(self) -> float:
        return self.optimized_wee - self.baseline_wee


#: Table V — GPUCALCGLOBAL vs WORKQUEUE k=8 (the paper's central table).
PAPER_TABLE5: tuple[PaperCell, ...] = (
    PaperCell("Expo2D2M", 0.2, 26.6, 55.5, 74.6, 48.7),
    PaperCell("Expo6D2M", 1.2, 15.2, 42.9, 71.4, 19.1),
    PaperCell("Unif2D2M", 1.0, 75.4, 75.4, 5.7, 3.9),
    PaperCell("Unif6D2M", 8.0, 51.3, 48.2, 3.3, 3.3),
)
