import numpy as np
import pytest

from prunekit import Criterion, Rng, score


def test_large_final():
    wf = np.array([0.5, -2.0, 0.1])
    np.testing.assert_array_equal(score(Criterion("large_final"), wf), [0.5, 2.0, 0.1])


def test_magnitude_increase():
    got = score(Criterion("magnitude_increase"), np.array([0.5]), np.array([0.2]))
    np.testing.assert_allclose(got, [0.3])


def test_movement():
    got = score(Criterion("movement"), np.array([0.5]), np.array([-0.2]))
    np.testing.assert_allclose(got, [0.7])


def test_movement_zero_displacement():
    wf = Rng(0).normal((4, 4))
    np.testing.assert_array_equal(score(Criterion("movement"), wf, wf), np.zeros((4, 4)))


def test_needs_history_flag():
    assert Criterion("random").reads == "rng"
    assert Criterion("large_final").reads is None
    assert Criterion("magnitude_increase").reads == "history"
    assert Criterion("movement").reads == "history"


def test_missing_history_raises():
    with pytest.raises(ValueError):
        score(Criterion("movement"), np.ones(3))


def test_missing_rng_raises():
    with pytest.raises(ValueError):
        score(Criterion("random"), np.ones(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["magnitude_increase", "movement"])
def test_non_finite_history_raises(kind, bad):
    """A NaN score would make every comparison with the threshold prune, so a
    history holding NaN or +-inf is refused by name, as non-finite weights are."""
    wf, wi = Rng(2).normal((4, 8)), Rng(3).normal((4, 8))
    wi[0, 2] = bad
    with pytest.raises(ValueError, match="non-finite history values"):
        score(Criterion(kind), wf, wi)
    with pytest.raises(ValueError, match="non-finite history values"):
        score(Criterion(kind), wf, wi, out=np.empty((4, 8)))


def test_unknown_criterion():
    with pytest.raises(ValueError):
        Criterion("second_order")


def test_nonnegativity():
    rng = Rng(3)
    wf, wi = rng.normal((6, 6)), rng.normal((6, 6))
    assert np.all(score(Criterion("large_final"), wf) >= 0)
    assert np.all(score(Criterion("movement"), wf, wi) >= 0)


def test_magnitude_increase_compositional():
    rng = Rng(4)
    wf, wi = rng.normal((5, 5)), rng.normal((5, 5))
    lf = Criterion("large_final")
    np.testing.assert_array_equal(
        score(Criterion("magnitude_increase"), wf, wi),
        score(lf, wf) - score(lf, wi))


@pytest.mark.parametrize("kind", ["large_final", "magnitude_increase", "movement"])
def test_scaling_preserves_order(kind):
    rng = Rng(5)
    wf, wi = rng.normal(50), rng.normal(50)
    crit = Criterion(kind)
    base = np.argsort(-score(crit, wf, wi), kind="stable")
    for c in (0.5, 3.0, 1e4):
        scaled = np.argsort(-score(crit, c * wf, c * wi), kind="stable")
        np.testing.assert_array_equal(base, scaled)



@pytest.mark.parametrize("kind", ["random", "large_final", "magnitude_increase", "movement"])
def test_out_buffer_gives_the_same_bytes(kind):
    """With `out`, each criterion gives the bytes it gives without one; every
    one but random writes them into `out`, whatever its memory order."""
    rng = Rng(6)
    wf, wi = rng.normal((4, 5)), rng.normal((4, 5))
    want = score(Criterion(kind), wf, wi, Rng(7)).tobytes()
    for out in (np.empty((4, 5)), np.empty((5, 4)).T):
        got = score(Criterion(kind), wf, wi, Rng(7), out=out)
        assert got.tobytes() == want and (got is out) == (kind != "random")
