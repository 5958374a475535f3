"""The benchmark's clock, and fixed reference tasks that measure how fast
the host runs while a pass runs.

``clock()`` is the process's CPU time minus the CPU time spent in the
reference tasks. On a shared host the hypervisor takes the core away from
the guest for part of a run (steal time); wall time counts those gaps and
CPU time does not. With one BLAS thread and no other thread, the
process's CPU time is the time the program computed.

CPU time still swings: on 2 shared vCPUs the CPU time of the same pass
moved by 10-25% within a minute, with the load of the machine's other
tenants (on the core's caches and its SMT sibling, presumably). The
reference tasks do not call prunekit and their inputs are fixed, so
their work never changes. While a pass runs, a timer (SIGALRM) runs one
round of them every INTERVAL_S seconds, and their times give the host's
speed during that pass; a pass's time multiplied by it no longer carries
the swing. A change to prunekit moves
the pass time and leaves the reference times alone. Python runs the
handler between bytecodes, never inside a numpy or json call. (A CPU-time
timer, ITIMER_PROF, would coarsen the process's CPU clock to 4 ms ticks
while armed.)

The tasks are the kinds of work the workloads spend their time in, and
each workload is scaled by the geometric mean of its own (its
``reference``):

  conv    one SGD step of a small CNN written with numpy einsum over
          sliding windows (conv-train)
  dense   one SGD step of a 2-256-256-2 MLP and a stable argsort of tied
          scores (all three: training steps, and selection in prune-sweep)
  json    float repr and parse through json and numpy (prune-sweep's
          checkpoints)

Over 20-60 passes a workload's pass time and its reference moved together
(correlation 0.89-0.94 on 2 shared vCPUs), and the scaled pass times
spread 0.045 (conv-train), 0.046 (mlp-perstep) and 0.085 (prune-sweep)
in standard deviation of log against 0.12, 0.08 and 0.18 unscaled. json
alone moves two to three times as much as a training pass, which is why
the training workloads leave it out.
"""

import json
import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1

_rng = np.random.default_rng(20220701)
_CONV = dict(x=_rng.normal(size=(32, 1, 8, 8)), w1=_rng.normal(size=(1, 8, 3, 3)) * 0.3,
             w2=_rng.normal(size=(8, 16, 3, 3)) * 0.1, wd=_rng.normal(size=(256, 2)) * 0.05)
_DENSE = dict(x=_rng.normal(size=(32, 2)), w1=_rng.normal(size=(2, 256)) * 0.5,
              w2=_rng.normal(size=(256, 256)) * 0.06, w3=_rng.normal(size=(256, 2)) * 0.06,
              scores=np.round(_rng.random(8_000), 3))
_FLOATS = _rng.normal(size=1_000).tolist()


def _win(a):
    return np.lib.stride_tricks.sliding_window_view(a, (3, 3), axis=(2, 3))


def conv():
    c = _CONV
    h1 = np.maximum(np.einsum("nihwxy,ioxy->nohw", _win(c["x"]), c["w1"], optimize=True), 0)
    h2 = np.maximum(np.einsum("nihwxy,ioxy->nohw", _win(h1), c["w2"], optimize=True), 0)
    g = h2.reshape(32, -1) @ c["wd"]
    g2 = (g @ c["wd"].T).reshape(h2.shape) * (h2 > 0)
    dw2 = np.einsum("nihwxy,nohw->ioxy", _win(h1), g2, optimize=True)
    pad = np.pad(g2, ((0, 0), (0, 0), (2, 2), (2, 2)))
    g1 = np.einsum("nohwxy,ioxy->nihw", _win(pad), c["w2"][:, :, ::-1, ::-1], optimize=True)
    dw1 = np.einsum("nihwxy,nohw->ioxy", _win(c["x"]), g1 * (h1 > 0), optimize=True)
    return float(dw1.sum() + dw2.sum())


def dense():
    d = _DENSE
    h1 = np.maximum(d["x"] @ d["w1"], 0)
    h2 = np.maximum(h1 @ d["w2"], 0)
    g = h2 @ d["w3"]
    g2 = (g @ d["w3"].T) * (h2 > 0)
    dw2 = h1.T @ g2
    g1 = (g2 @ d["w2"].T) * (h1 > 0)
    dw1 = d["x"].T @ g1
    order = np.argsort(d["scores"], kind="stable")
    return float(dw1.sum() + dw2.sum()) + int(order[0])


def json_floats():
    back = np.array(json.loads(json.dumps(_FLOATS)), dtype=np.float64)
    return float(back.sum())


# name -> (task, CPU seconds of one run at nominal speed). The nominal times
# are medians on an Intel Xeon at 2.0 GHz (2 vCPUs, numpy 2.4, one OpenBLAS
# thread), so a scaled time reads as CPU seconds on that host at its usual
# speed.
TASKS = {"conv": (conv, 0.0024), "dense": (dense, 0.0016), "json": (json_floats, 0.0019)}

_spent = [0.0]  # CPU seconds spent in sample()


def clock():
    """CPU seconds of this process, not counting the reference tasks."""
    return time.process_time() - _spent[0]


def sample(names):
    """One round of the named tasks: name -> CPU seconds."""
    began = time.process_time()
    out = {}
    for name in names:
        start = time.process_time()
        TASKS[name][0]()
        out[name] = time.process_time() - start
    _spent[0] += time.process_time() - began
    return out


def speed(samples):
    """The host's speed against nominal over the given rounds: the
    geometric mean, over their tasks, of nominal time / median time."""
    ratios = [TASKS[name][1] / statistics.median(s[name] for s in samples)
              for name in samples[0]]
    return math.prod(ratios) ** (1 / len(ratios))


class Sampler:
    """Runs sample(names) every INTERVAL_S seconds while active."""

    def __init__(self, names):
        self.names = names
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(sample(self.names))

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than INTERVAL_S
            self.samples.append(sample(self.names))
        return False
