"""Sparsity schedules: a curve that maps normalized training progress t in
[0, 1] to a fraction of the plan's target sparsity, plus the window (start
and end epoch) that embeds the curve into a training run. A schedule holds
no target of its own; every evaluation is given one. The kinds are the
closed set BUILTIN_SCHEDULES. A kind is one row of _KINDS: the spec fields
its curve reads besides the window, and the curve, a pure function of
them. A spec that sets a field its kind does not read to anything but the
default is refused.
"""

from dataclasses import dataclass
import math
import sys

from .fields import FieldError, integer, number

# kind -> (the spec fields its curve reads, curve(spec, t, sparsity))
_KINDS = {
    "one_shot": ((), lambda spec, t, s: s),
    "iterative": (("n_steps",), lambda spec, t, s: (s / spec.n_steps) * math.ceil(t * spec.n_steps)),
    "gradual": ((), lambda spec, t, s: s * (1.0 - (1.0 - t) ** 3)),
    "one_cycle": (("alpha", "beta"), lambda spec, t, s: (
        s * (1.0 + math.exp(-spec.alpha + spec.beta)) / (1.0 + math.exp(-spec.alpha * t + spec.beta)))),
    "dsd": ((), lambda spec, t, s: s * (1.0 - math.cos(2.0 * math.pi * t)) / 2.0),
}
BUILTIN_SCHEDULES = tuple(_KINDS)

_LOG_MAX = math.log(sys.float_info.max)  # math.exp overflows above this


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str
    start_epoch: int = 0
    end_epoch: int | None = None  # None: the run's last epoch, resolved by window_steps
    update_frequency: int = 1
    n_steps: int = 5
    alpha: float = 14.0
    beta: float = 6.0

    def __post_init__(self):
        """Check every field, naming it in the FieldError; integral floats become ints."""
        if self.kind not in BUILTIN_SCHEDULES:
            raise FieldError("kind", f"unknown schedule {self.kind!r}")
        for name, low in (("start_epoch", 0), ("update_frequency", 1), ("n_steps", 1)):
            object.__setattr__(self, name, integer(getattr(self, name), name, low))
        if self.end_epoch is not None:
            object.__setattr__(self, "end_epoch", integer(self.end_epoch, "end_epoch", self.start_epoch + 1))
        for name in ("alpha", "beta"):
            object.__setattr__(self, name, number(getattr(self, name), name))
        for name in (name for reads, _ in _KINDS.values() for name in reads):
            if name not in _KINDS[self.kind][0] and getattr(self, name) != getattr(ScheduleSpec, name):
                raise FieldError(name, f"not read by schedule {self.kind!r}")
        if self.kind == "one_cycle":
            # the exponent -alpha * t + beta is linear in t, so t = 0 and t = 1 bound it;
            # s * (1 + exp(beta - alpha)) must also stay finite for s up to 100, and
            # 1 + e^x <= 2 e^x where it matters, hence the float max / 200
            for name, exponent, limit in (("beta", self.beta, _LOG_MAX),
                                          ("alpha", self.beta - self.alpha, _LOG_MAX - math.log(200))):
                if not exponent <= limit:
                    raise FieldError(name, f"one_cycle overflows: exp({exponent!r}) at "
                                           f"alpha={self.alpha!r}, beta={self.beta!r}")


def eval_schedule(spec: ScheduleSpec, t: float, sparsity: float) -> float:
    """Sparsity percentage at normalized progress t towards the target `sparsity`."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t={t} out of [0, 1]")
    return _KINDS[spec.kind][1](spec, t, sparsity)


def window_steps(spec: ScheduleSpec, steps_per_epoch: int, total_epochs: int) -> tuple[int, int]:
    """The pruning window [start, end) in steps of a run of `total_epochs`; an
    end_epoch of None is the run's last epoch. A window that does not fit in
    the run raises a FieldError naming start_epoch or end_epoch."""
    end_epoch = total_epochs if spec.end_epoch is None else spec.end_epoch
    if end_epoch > total_epochs or spec.start_epoch >= end_epoch:
        raise FieldError("end_epoch" if end_epoch > total_epochs else "start_epoch",
                         f"pruning window [{spec.start_epoch}, {end_epoch}] does not fit "
                         f"in {total_epochs} epochs")
    return spec.start_epoch * steps_per_epoch, end_epoch * steps_per_epoch


def current_target(spec: ScheduleSpec, sparsity: float, step: int, window: tuple[int, int]) -> float:
    """Target at `step` for a window from window_steps: 0 before the window, the
    schedule inside it, held at t=1 after it."""
    start, end = window
    if step < start:
        return 0.0
    return eval_schedule(spec, min(1.0, (step - start) / (end - start)), sparsity)
