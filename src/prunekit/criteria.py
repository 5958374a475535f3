"""Importance criteria. _TABLE gives each criterion its score and the one
input it reads besides the current weights: nothing, the weight history
(the weights at the previous mask update) or an rng.

Higher score = more important = kept. Pruned weights are 0 when scored:
during training every step re-applies the masks after its optimizer step,
and only then may an update recompute them.
"""

from dataclasses import dataclass

import numpy as np

from .rng import Rng
from .tensor import check_congruent

# criterion -> (the input it reads besides the weights, its score from the
# weights, an array holding their magnitude, which the score may overwrite,
# and that input)
_TABLE = {
    "random": ("rng", lambda w, magnitude, rng: rng.normal(w.shape)),
    "large_final": (None, lambda w, magnitude, _: magnitude),
    "magnitude_increase": ("history", lambda w, magnitude, wi:
                           np.subtract(magnitude, np.abs(wi), out=magnitude)),
    "movement": ("history", lambda w, magnitude, wi:
                 np.abs(np.subtract(w, wi, out=magnitude), out=magnitude)),
}
CRITERIA = tuple(_TABLE)


@dataclass(frozen=True)
class Criterion:
    kind: str

    def __post_init__(self):
        if self.kind not in CRITERIA:
            raise ValueError(f"unknown criterion {self.kind!r}; expected one of {CRITERIA}")

    @property
    def reads(self) -> str | None:
        return _TABLE[self.kind][0]


def score(criterion: Criterion, wf: np.ndarray, wi: np.ndarray | None = None,
          rng: Rng | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """The scores of the weights wf, written into `out` (shaped like wf) where
    given; random returns a fresh draw instead, leaving |wf| in `out`. A
    non-finite history is refused here, non-finite weights by the caller:
    compute_masks checks all of its layers' scores at once."""
    magnitude = np.abs(wf, out=out)
    reads, rule = _TABLE[criterion.kind]
    given = wi if reads == "history" else rng  # a rule that reads nothing ignores it
    if reads is not None and given is None:
        raise ValueError(f"criterion {criterion.kind!r} reads {reads!r}, and none was given")
    if reads == "history":
        check_congruent(wf, wi)
        if not np.isfinite([wi.min(initial=0.0), wi.max(initial=0.0)]).all():
            raise ValueError("non-finite history values")  # a NaN score makes the threshold NaN
    return rule(wf, magnitude, given)
