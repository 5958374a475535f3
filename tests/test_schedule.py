import math

import numpy as np
import pytest

from prunekit import (ProgressClock, ScheduleSpec, current_target, eval_schedule,
                      normalized_t, register_custom_schedule)

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
    spec = ScheduleSpec(kind, final_sparsity=80.0)
    for t, expected in zip(TS, FROZEN[kind]):
        assert abs(eval_schedule(spec, t) - expected) < 1e-12


def test_one_shot_constant():
    spec = ScheduleSpec("one_shot", final_sparsity=37.0)
    assert all(eval_schedule(spec, t) == 37.0 for t in TS)


def test_iterative_example():
    spec = ScheduleSpec("iterative", final_sparsity=50.0, n_steps=5)
    assert eval_schedule(spec, 0.1) == 10.0


def test_gradual_boundaries():
    spec = ScheduleSpec("gradual", final_sparsity=64.0)
    assert eval_schedule(spec, 0.0) == 0.0
    assert eval_schedule(spec, 1.0) == 64.0


def test_one_cycle_boundaries():
    spec = ScheduleSpec("one_cycle", final_sparsity=100.0)
    assert eval_schedule(spec, 1.0) == 100.0
    assert abs(eval_schedule(spec, 0.0) - 0.24734526292967116) < 1e-12


def test_dsd_boundaries_and_peak():
    spec = ScheduleSpec("dsd", final_sparsity=80.0)
    assert eval_schedule(spec, 0.0) == 0.0
    assert eval_schedule(spec, 1.0) == 0.0
    assert eval_schedule(spec, 0.5) == 80.0


def test_dsd_symmetry():
    spec = ScheduleSpec("dsd", final_sparsity=80.0)
    for t in np.linspace(0, 1, 101):
        assert abs(eval_schedule(spec, t) - eval_schedule(spec, 1.0 - t)) < 1e-12


def test_one_cycle_monotone():
    spec = ScheduleSpec("one_cycle", final_sparsity=90.0)
    vals = [eval_schedule(spec, t) for t in np.linspace(0, 1, 1001)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_one_cycle_overflow_rejected_at_build():
    """exp(-alpha * t + beta) is largest at t = 0 or t = 1, so a spec that builds
    evaluates to a finite value everywhere, at any sparsity up to 100; one ulp
    past either limit is refused."""
    top = math.log(np.finfo(float).max)
    num_top = top - math.log(200)
    for alpha, beta in ((14.0, top), (0.0, num_top), (-num_top, 0.0), (1e300, top),
                        (-400.0, num_top - 400.0)):
        spec = ScheduleSpec("one_cycle", final_sparsity=100.0, alpha=alpha, beta=beta)
        assert all(math.isfinite(eval_schedule(spec, t)) for t in np.linspace(0, 1, 101))
    up = lambda x: float(np.nextafter(x, np.inf))  # noqa: E731
    for alpha, beta, field in ((14.0, up(top), "beta"), (0.0, up(num_top), "alpha"),
                               (-up(num_top), 0.0, "alpha"), (-1000.0, 6.0, "alpha"),
                               (-1e308, 700.0, "alpha"), (-1e308, 1e308, "beta")):
        with pytest.raises(ValueError, match=f"^{field}: one_cycle overflows"):
            ScheduleSpec("one_cycle", alpha=alpha, beta=beta)
    ScheduleSpec("gradual", alpha=-1000.0)  # only one_cycle reads alpha and beta


def test_gradual_monotone():
    spec = ScheduleSpec("gradual", final_sparsity=90.0)
    vals = [eval_schedule(spec, t) for t in np.linspace(0, 1, 1001)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_iterative_value_count():
    spec = ScheduleSpec("iterative", final_sparsity=50.0, n_steps=5)
    vals = {eval_schedule(spec, t) for t in np.linspace(0, 1, 1001)}
    assert vals == {0.0, 10.0, 20.0, 30.0, 40.0, 50.0}


def test_normalized_t():
    spec = ScheduleSpec("one_shot", start_epoch=2, end_epoch=6)
    clock = ProgressClock(0, steps_per_epoch=10, total_epochs=10)
    clock.current_step = 20
    assert normalized_t(clock, spec) == 0.0
    clock.current_step = 60
    assert normalized_t(clock, spec) == 1.0
    clock.current_step = 40
    assert normalized_t(clock, spec) == 0.5


def test_degenerate_window_rejected():
    with pytest.raises(ValueError):
        ScheduleSpec("one_shot", start_epoch=3, end_epoch=3)


def test_current_target_window():
    spec = ScheduleSpec("gradual", final_sparsity=50.0, start_epoch=2, end_epoch=6)
    spe, total = 10, 10
    for kind in ("one_shot", "iterative", "gradual", "one_cycle", "dsd"):
        k = ScheduleSpec(kind, final_sparsity=50.0, start_epoch=2, end_epoch=6)
        assert current_target(ProgressClock(19, spe, total), k) == 0.0
    # held at t=1 after the window
    assert current_target(ProgressClock(95, spe, total), spec) == 50.0
    # one_shot from the very first step when the window opens at 0
    pai = ScheduleSpec("one_shot", final_sparsity=50.0, start_epoch=0)
    assert current_target(ProgressClock(0, spe, total), pai) == 50.0


def test_custom_schedule_roundtrip():
    name = register_custom_schedule("my_one_shot", lambda s, t: s)
    spec = ScheduleSpec(name, final_sparsity=42.0)
    assert all(eval_schedule(spec, t) == 42.0 for t in TS)


def test_custom_dsd_matches_builtin():
    register_custom_schedule("my_dsd", lambda s, t: s * (1 - math.cos(2 * math.pi * t)) / 2)
    a = ScheduleSpec("my_dsd", final_sparsity=73.0)
    b = ScheduleSpec("dsd", final_sparsity=73.0)
    for t in np.linspace(0, 1, 101):
        assert eval_schedule(a, t) == eval_schedule(b, t)


def test_custom_constant_zero():
    name = register_custom_schedule("never_prune", lambda s, t: 0.0)
    spec = ScheduleSpec(name, final_sparsity=99.0)
    assert all(eval_schedule(spec, t) == 0.0 for t in TS)


def test_custom_out_of_range_rejected():
    with pytest.raises(ValueError):
        register_custom_schedule("bad", lambda s, t: s * 2.0)
    with pytest.raises(ValueError):
        ScheduleSpec("bad", final_sparsity=10.0)


def test_paper_literal_variants_registered():
    g = ScheduleSpec("gradual_paper_literal", final_sparsity=80.0)
    assert eval_schedule(g, 0.0) == 80.0 and eval_schedule(g, 1.0) == 0.0
    d = ScheduleSpec("dsd_paper_literal", final_sparsity=80.0)
    assert abs(eval_schedule(d, 0.25) - 40.0) < 1e-9
    assert abs(eval_schedule(d, 1.0) - 80.0) < 1e-12  # second branch rises again
