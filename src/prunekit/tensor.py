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


def init_weights(shape, rng: Rng) -> np.ndarray:
    """A fresh weight tensor drawn uniformly from +-sqrt(6 / fan_in), where
    fan_in is the product of every axis but the output axis 1: I for dense
    [I, O], I*Kx*Ky for conv [I, O, Kx, Ky]. Deterministic given (shape, rng
    state)."""
    shape = tuple(int(s) for s in shape)
    if len(shape) < 2 or any(s <= 0 for s in shape):
        raise ValueError(f"invalid shape {shape}: needs an output axis 1, and axes must be positive")
    bound = math.sqrt(6.0 / (math.prod(shape) // shape[1]))
    return rng.uniform(-bound, bound, shape)
