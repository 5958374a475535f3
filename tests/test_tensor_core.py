import numpy as np
import pytest

from prunekit import Rng, init_weights, sparsity_of
from prunekit.tensor import mask_in_place


def masked(w, m):
    """w * m through mask_in_place, on a copy so that w keeps its values."""
    return mask_in_place(w.copy(), m)


def test_apply_mask_elementwise():
    w = np.array([1.0, -2.0, 3.0])
    m = np.array([1.0, 0.0, 1.0])
    np.testing.assert_array_equal(masked(w, m), [1.0, 0.0, 3.0])


def test_apply_mask_identity_and_idempotent():
    rng = Rng(1)
    w = rng.normal((3, 4))
    ones = np.ones_like(w)
    np.testing.assert_array_equal(masked(w, ones), w)
    m = (rng.normal((3, 4)) > 0).astype(float)
    once = masked(w, m)
    np.testing.assert_array_equal(masked(once, m), once)


def test_apply_mask_commutes_with_scaling():
    rng = Rng(2)
    w = rng.normal((5, 5))
    m = (rng.normal((5, 5)) > 0).astype(float)
    np.testing.assert_array_equal(masked(3.5 * w, m), 3.5 * masked(w, m))


def test_apply_mask_shape_mismatch():
    with pytest.raises(ValueError):
        masked(np.ones(3), np.ones(4))


@pytest.mark.parametrize("m,expected", [
    (np.ones(4), 0.0),
    (np.zeros(4), 1.0),
    (np.array([1.0, 0.0, 1.0, 0.0]), 0.5),
])
def test_sparsity_of(m, expected):
    assert sparsity_of(m) == expected


def test_sparsity_boundaries_any_shape():
    for shape in [(3,), (2, 5), (2, 2, 3), (2, 3, 2, 2)]:
        assert sparsity_of(np.ones(shape)) == 0.0
        assert sparsity_of(np.zeros(shape)) == 1.0


def test_init_deterministic():
    a = init_weights((4, 7), Rng(99))
    b = init_weights((4, 7), Rng(99))
    np.testing.assert_array_equal(a, b)


def test_init_uniform_bound():
    # fan_in = 6 gives bound sqrt(6/6) = 1
    w = init_weights((6, 1700), Rng(5))
    assert w.size >= 10_000
    assert np.all(np.abs(w) <= 1.0)


def test_init_conv_fan_in_bound():
    # conv [I, O, Kx, Ky]: fan_in = I * Kx * Ky
    w = init_weights((2, 50, 2, 2), Rng(6))
    assert np.all(np.abs(w) <= np.sqrt(6.0 / 8.0))


def test_init_rejects_zero_axis():
    with pytest.raises(ValueError):
        init_weights((3, 0), Rng(0))


def test_rng_equal_seeds_bit_exact():
    a, b = Rng(1234), Rng(1234)
    np.testing.assert_array_equal(a.normal(100_000), b.normal(100_000))


def test_rng_child_streams_independent_of_draw_order():
    r = Rng(7)
    c1 = r.child("x").normal(10)
    r2 = Rng(7)
    r2.normal(50)  # draws on the parent must not shift the child
    np.testing.assert_array_equal(c1, r2.child("x").normal(10))
