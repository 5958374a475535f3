"""Synthetic datasets: deterministic, offline, desk-scale.

blobs2d: two Gaussian clusters in the plane, linearly separable for
reasonable separations. patterns8x8: single-channel 8x8 images, class 0
a horizontal bar, class 1 a vertical bar, bar position random, additive
pixel noise.

A dataset kind is one row of _KINDS: one sample's input shape, the keys
the kind reads besides "kind" and "n" with their defaults, and the draw
that makes the inputs of given labels. make_dataset labels the first
n // 2 samples 0 and the rest 1, draws the inputs and shuffles them once.
"""

import numpy as np

from .fields import FieldError, checked_object, integer, number, under
from .rng import Rng

# every dataset kind labels its samples 0 or 1
N_CLASSES = 2
# keeps blobs2d's clusters linearly separable with margin > 0 for virtually
# every seed at the default separation of 4
BLOB_STD = 0.5
# the share of samples, from the front, that train_eval_split trains on
TRAIN_FRACTION = 0.8


def _blobs2d(labels, rng, separation):
    centers = np.array([[-separation / 2.0, 0.0], [separation / 2.0, 0.0]])
    return BLOB_STD * rng.normal((len(labels), 2)) + centers[labels]


def _patterns8x8(labels, rng, noise):
    inputs = np.zeros((len(labels), 1, 8, 8))
    positions = rng.integers(0, 8, len(labels))
    bar = labels == 0
    inputs[bar, 0, positions[bar], :] = 1.0
    inputs[~bar, 0, :, positions[~bar]] = 1.0
    inputs += noise * rng.normal(inputs.shape)
    return inputs


# kind -> (one sample's input shape, {key it reads: default}, draw(labels, rng, **params))
_KINDS = {"blobs2d": ((2,), {"separation": 4.0}, _blobs2d),
          "patterns8x8": ((1, 8, 8), {"noise": 0.1}, _patterns8x8)}


def check_spec(spec) -> dict:
    """spec, checked to name a known kind, an integer n >= 2 and only numeric
    keys that kind reads; a bad field raises FieldError naming it."""
    all_keys = [key for _, reads, _ in _KINDS.values() for key in reads]
    checked_object(spec, ["kind", "n"] + all_keys)
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise FieldError("kind", f"unknown dataset kind {kind!r}")
    if "n" in spec:
        integer(spec["n"], "n", low=2)
    for key in all_keys:
        if key in spec:
            if key not in _KINDS[kind][1]:
                raise FieldError(key, f"not read by dataset kind {kind!r}")
            number(spec[key], key)
    return spec


def input_shape(spec: dict) -> tuple:
    """One sample's input shape in the dataset that a checked spec describes."""
    return _KINDS[spec["kind"]][0]


def make_dataset(spec: dict, rng: Rng):
    """(inputs, labels) of the dataset that spec describes; a bad spec
    raises FieldError naming dataset.<key>."""
    under("dataset", check_spec, spec)
    n = int(spec.get("n", 200))
    _, reads, draw = _KINDS[spec["kind"]]
    labels = (np.arange(n) >= n // 2).astype(np.int64)
    inputs = draw(labels, rng, **{key: float(spec.get(key, default)) for key, default in reads.items()})
    perm = rng.permutation(n)
    return inputs[perm], labels[perm]


def train_eval_split(inputs, labels):
    """Deterministic TRAIN_FRACTION split by position (data is pre-shuffled)."""
    cut = int(len(labels) * TRAIN_FRACTION)
    return (inputs[:cut], labels[:cut]), (inputs[cut:], labels[cut:])
