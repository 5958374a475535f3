"""Importance criteria: score each weight from its current value and,
for history-based criteria, its value at the previous mask update.

Higher score = more important = kept. Pruned weights sit at zero, so
under large_final they re-prune themselves at the next recomputation.
"""

from dataclasses import dataclass, field

import numpy as np

from .rng import Rng
from .tensor import check_congruent

CRITERIA = ("random", "large_final", "magnitude_increase", "movement")
_NEEDS_HISTORY = frozenset({"magnitude_increase", "movement"})


@dataclass(frozen=True)
class Criterion:
    kind: str
    needs_history: bool = field(init=False)

    def __post_init__(self):
        if self.kind not in CRITERIA:
            raise ValueError(f"unknown criterion {self.kind!r}; expected one of {CRITERIA}")
        object.__setattr__(self, "needs_history", self.kind in _NEEDS_HISTORY)


def score(criterion: Criterion, wf: np.ndarray, wi: np.ndarray | None = None,
          rng: Rng | None = None) -> np.ndarray:
    magnitude = np.abs(wf)
    if not np.isfinite(magnitude.max(initial=0.0)):  # NaN and inf both propagate through max
        raise ValueError("non-finite weight values")
    if criterion.needs_history:
        if wi is None:
            raise ValueError(f"criterion {criterion.kind!r} requires a weight history")
        check_congruent(wf, wi)
    if criterion.kind == "random":
        if rng is None:
            raise ValueError("criterion 'random' requires an rng")
        return rng.normal(wf.shape)
    if criterion.kind == "large_final":
        return magnitude
    if criterion.kind == "magnitude_increase":
        return magnitude - np.abs(wi)
    return np.abs(wf - wi)  # movement

