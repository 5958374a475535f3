import math

import numpy as np
import pytest

from prunekit import FieldError, ScheduleSpec, current_target, eval_schedule, window_steps

TS = [i / 10 for i in range(11)]

# frozen independent evaluations at s=80, t = 0, 0.1, ..., 1.0 (40-digit arithmetic)
FROZEN = {
    "gradual": [0.0, 21.68, 39.04, 52.56, 62.72, 70.0, 74.88, 77.84, 79.36, 79.92, 80.0],
    "one_cycle": [0.19787621034373692, 0.7964112259608767, 3.134308914644597,
                  11.351892050519206, 32.11575721437571, 58.50430571695542,
                  73.37078918421156, 78.27574810744976, 79.58778586241647,
                  79.91811895558408, 80.0],
    "dsd": [0.0, 7.639320225002103, 27.639320225002102, 52.3606797749979,
            72.36067977499789, 80.0, 72.36067977499789, 52.3606797749979,
            27.639320225002102, 7.639320225002103, 0.0],
    "iterative": [0.0, 16.0, 16.0, 32.0, 32.0, 48.0, 48.0, 64.0, 64.0, 80.0, 80.0],
}


@pytest.mark.parametrize("kind", list(FROZEN))
def test_frozen_closed_forms(kind):
    spec = ScheduleSpec(kind)
    for t, expected in zip(TS, FROZEN[kind]):
        assert abs(eval_schedule(spec, t, 80.0) - expected) < 1e-12


def test_one_shot_constant():
    spec = ScheduleSpec("one_shot")
    assert all(eval_schedule(spec, t, 37.0) == 37.0 for t in TS)


def test_iterative_example():
    spec = ScheduleSpec("iterative", n_steps=5)
    assert eval_schedule(spec, 0.1, 50.0) == 10.0


def test_gradual_boundaries():
    spec = ScheduleSpec("gradual")
    assert eval_schedule(spec, 0.0, 64.0) == 0.0
    assert eval_schedule(spec, 1.0, 64.0) == 64.0


def test_one_cycle_boundaries():
    spec = ScheduleSpec("one_cycle")
    assert eval_schedule(spec, 1.0, 100.0) == 100.0
    assert abs(eval_schedule(spec, 0.0, 100.0) - 0.24734526292967116) < 1e-12


def test_dsd_boundaries_and_peak():
    spec = ScheduleSpec("dsd")
    assert eval_schedule(spec, 0.0, 80.0) == 0.0
    assert eval_schedule(spec, 1.0, 80.0) == 0.0
    assert eval_schedule(spec, 0.5, 80.0) == 80.0


def test_dsd_symmetry():
    spec = ScheduleSpec("dsd")
    for t in np.linspace(0, 1, 101):
        assert abs(eval_schedule(spec, t, 80.0) - eval_schedule(spec, 1.0 - t, 80.0)) < 1e-12


def test_one_cycle_monotone():
    spec = ScheduleSpec("one_cycle")
    vals = [eval_schedule(spec, t, 90.0) for t in np.linspace(0, 1, 1001)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_one_cycle_overflow_rejected_at_build():
    """exp(-alpha * t + beta) is largest at t = 0 or t = 1, so a spec that builds
    evaluates to a finite value everywhere, at any sparsity up to 100; one ulp
    past either limit is refused."""
    top = math.log(np.finfo(float).max)
    num_top = top - math.log(200)
    for alpha, beta in ((14.0, top), (0.0, num_top), (-num_top, 0.0), (1e300, top),
                        (-400.0, num_top - 400.0)):
        spec = ScheduleSpec("one_cycle", alpha=alpha, beta=beta)
        assert all(math.isfinite(eval_schedule(spec, t, 100.0)) for t in np.linspace(0, 1, 101))
    up = lambda x: float(np.nextafter(x, np.inf))  # noqa: E731
    for alpha, beta, field in ((14.0, up(top), "beta"), (0.0, up(num_top), "alpha"),
                               (-up(num_top), 0.0, "alpha"), (-1000.0, 6.0, "alpha"),
                               (-1e308, 700.0, "alpha"), (-1e308, 1e308, "beta")):
        with pytest.raises(ValueError, match=f"^{field}: one_cycle overflows"):
            ScheduleSpec("one_cycle", alpha=alpha, beta=beta)
    with pytest.raises(FieldError, match="^alpha: not read by schedule 'gradual'$"):  # only one_cycle reads it
        ScheduleSpec("gradual", alpha=-1000.0)


def test_gradual_monotone():
    spec = ScheduleSpec("gradual")
    vals = [eval_schedule(spec, t, 90.0) for t in np.linspace(0, 1, 1001)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_iterative_value_count():
    spec = ScheduleSpec("iterative", n_steps=5)
    vals = {eval_schedule(spec, t, 50.0) for t in np.linspace(0, 1, 1001)}
    assert vals == {0.0, 10.0, 20.0, 30.0, 40.0, 50.0}


def test_window_steps_and_current_target():
    """The window [2, 6) epochs at 10 steps each is steps [20, 60): the curve runs
    at t = 0, 0.5 and 1 at steps 20, 40 and 60. end_epoch None is the run's end;
    a window past the run's end is refused naming end_epoch."""
    spec = ScheduleSpec("gradual", start_epoch=2, end_epoch=6)
    window = window_steps(spec, 10, 10)
    assert window == (20, 60)
    for step, t in ((20, 0.0), (40, 0.5), (60, 1.0)):
        assert current_target(spec, 80.0, step, window) == eval_schedule(spec, t, 80.0)
    assert window_steps(ScheduleSpec("gradual", start_epoch=2), 10, 7) == (20, 70)
    with pytest.raises(FieldError, match=r"^end_epoch: pruning window \[2, 6\] does not fit in 5 epochs"):
        window_steps(spec, 10, 5)


def test_degenerate_window_rejected():
    with pytest.raises(ValueError):
        ScheduleSpec("one_shot", start_epoch=3, end_epoch=3)


def test_current_target_window():
    spec = ScheduleSpec("gradual", start_epoch=2, end_epoch=6)
    spe, total = 10, 10
    for kind in ("one_shot", "iterative", "gradual", "one_cycle", "dsd"):
        k = ScheduleSpec(kind, start_epoch=2, end_epoch=6)
        assert current_target(k, 50.0, 19, window_steps(k, spe, total)) == 0.0
    # held at t=1 after the window
    assert current_target(spec, 50.0, 95, window_steps(spec, spe, total)) == 50.0
    # one_shot from the very first step when the window opens at 0
    pai = ScheduleSpec("one_shot", start_epoch=0)
    assert current_target(pai, 50.0, 0, window_steps(pai, spe, total)) == 50.0


def test_unknown_kind_names_kind():
    with pytest.raises(FieldError) as exc:
        ScheduleSpec("bad")
    assert exc.value.field == "kind"
