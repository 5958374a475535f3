"""Dense tensor primitives: masking, sparsity measurement, weight init.

Tensors are plain float64 numpy arrays of rank 1-4, row-major. Masks are
float64 arrays with values in {0, 1}, congruent in shape with the tensor
they guard.
"""

import math

import numpy as np

from .rng import Rng


def check_congruent(w: np.ndarray, m: np.ndarray) -> None:
    if w.shape != m.shape:
        raise ValueError(f"shape mismatch: {w.shape} vs {m.shape}")


def mask_in_place(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Elementwise w * m written into w itself: zero where the mask is 0,
    kept where it is 1. Returns w."""
    check_congruent(w, m)
    return np.multiply(w, m, out=w)


def sparsity_of(m: np.ndarray) -> float:
    """Fraction of zero entries, in [0, 1]."""
    return float(np.count_nonzero(m == 0)) / m.size


def fan_in_of(shape) -> int:
    """Input fan for a weight tensor: I for dense [I, O], I*Kx*Ky for conv [I, O, Kx, Ky]."""
    shape = tuple(shape)
    if len(shape) == 4:
        return shape[0] * shape[2] * shape[3]
    return shape[0]


def init_weights(shape, rng: Rng) -> np.ndarray:
    """A fresh weight tensor drawn uniformly from +-sqrt(6 / fan_in).
    Deterministic given (shape, rng state)."""
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise ValueError(f"invalid shape {shape}: axes must be positive")
    bound = math.sqrt(6.0 / fan_in_of(shape))
    return rng.uniform(-bound, bound, shape)
