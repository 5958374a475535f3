"""Synthetic datasets: deterministic, offline, desk-scale.

blobs2d: two Gaussian clusters in the plane, linearly separable for
reasonable separations. patterns8x8: single-channel 8x8 images, class 0
a horizontal bar, class 1 a vertical bar, bar position random, additive
pixel noise.
"""

import numpy as np

from .fields import FieldError, checked_object, integer, number, under
from .rng import Rng

# the keys each dataset kind reads besides "kind" and "n"
KIND_KEYS = {"blobs2d": ("separation",), "patterns8x8": ("noise",)}
# one sample's input shape for each dataset kind
INPUT_SHAPES = {"blobs2d": (2,), "patterns8x8": (1, 8, 8)}
# every dataset kind labels its samples 0 or 1
N_CLASSES = 2
# keeps blobs2d's clusters linearly separable with margin > 0 for virtually
# every seed at the default separation of 4
BLOB_STD = 0.5
# the share of samples, from the front, that train_eval_split trains on
TRAIN_FRACTION = 0.8


def check_spec(spec) -> dict:
    """spec, checked to name a known kind, an integer n >= 2 and only numeric
    keys that kind reads; a bad field raises FieldError naming it."""
    all_keys = sum(KIND_KEYS.values(), ())
    checked_object(spec, ("kind", "n") + all_keys)
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in KIND_KEYS:
        raise FieldError("kind", f"unknown dataset kind {kind!r}")
    if "n" in spec:
        integer(spec["n"], "n", low=2)
    for key in all_keys:
        if key in spec:
            if key not in KIND_KEYS[kind]:
                raise FieldError(key, f"not read by dataset kind {kind!r}")
            number(spec[key], key)
    return spec


def input_shape(spec: dict) -> tuple:
    """One sample's input shape in the dataset that a checked spec describes."""
    return INPUT_SHAPES[spec["kind"]]


def make_dataset(spec: dict, rng: Rng):
    """(inputs, labels) of the dataset that spec describes; a bad spec
    raises FieldError naming dataset.<key>."""
    under("dataset", check_spec, spec)
    n = int(spec.get("n", 200))
    if spec["kind"] == "blobs2d":
        return _blobs2d(n, float(spec.get("separation", 4.0)), rng)
    return _patterns8x8(n, float(spec.get("noise", 0.1)), rng)


def _balanced_labels(n: int) -> np.ndarray:
    labels = np.zeros(n, dtype=np.int64)
    labels[n // 2:] = 1
    return labels


def _blobs2d(n, separation, rng):
    labels = _balanced_labels(n)
    centers = np.array([[-separation / 2.0, 0.0], [separation / 2.0, 0.0]])
    inputs = BLOB_STD * rng.normal((n,) + INPUT_SHAPES["blobs2d"]) + centers[labels]
    perm = rng.permutation(n)
    return inputs[perm], labels[perm]


def _patterns8x8(n, noise, rng):
    labels = _balanced_labels(n)
    inputs = np.zeros((n,) + INPUT_SHAPES["patterns8x8"])
    positions = rng.integers(0, 8, n)
    for i in range(n):
        if labels[i] == 0:
            inputs[i, 0, positions[i], :] = 1.0
        else:
            inputs[i, 0, :, positions[i]] = 1.0
    inputs += noise * rng.normal(inputs.shape)
    perm = rng.permutation(n)
    return inputs[perm], labels[perm]


def train_eval_split(inputs, labels):
    """Deterministic TRAIN_FRACTION split by position (data is pre-shuffled)."""
    cut = int(len(labels) * TRAIN_FRACTION)
    return (inputs[:cut], labels[:cut]), (inputs[cut:], labels[cut:])
