"""Time the conv kernels: conv2d_forward, conv2d_grad_w and conv2d_grad_x.

Usage:
    python3 benchmarks/bench_kernels.py --label NAME [--src DIR] [--out BENCH_kernels.json]

Shapes (x [N, I, H, W], w [I, O, Kx, Ky]): the two conv layers of
perfbench's conv-train model at its training batch of 32 ("conv_train_1",
"conv_train_2"), plus "small" and "large", the shapes perfbench's traced
pass reports as kernels.shape.*.

Before any timing, every kernel is checked against direct loops over
(i, o, u, v) that share no code with prunekit. Times are time.perf_counter
medians and quartiles over the repetitions, in ms per call, after one
warm-up call. BLAS runs on OPENBLAS_NUM_THREADS threads, 1 unless set,
as in perfbench. The run is stored under --label in the output JSON, next
to the runs already there, with an environment record. --src imports
prunekit from another source tree, e.g. an unpacked older commit, so that
both sides are measured by the same script.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from bench_selection import ROOT, env_record

SHAPES = {
    "conv_train_1": ((32, 1, 8, 8), (1, 8, 3, 3)),
    "conv_train_2": ((32, 8, 6, 6), (8, 16, 3, 3)),
    "small": ((32, 1, 8, 8), (1, 4, 3, 3)),
    "large": ((32, 8, 28, 28), (8, 16, 3, 3)),
}


def forward_loops(x, w):
    ci, co, kx, ky = w.shape
    ho, wo = x.shape[2] - kx + 1, x.shape[3] - ky + 1
    out = np.zeros((x.shape[0], co, ho, wo))
    for i, o, u, v in np.ndindex(w.shape):
        out[:, o] += x[:, i, u:u + ho, v:v + wo] * w[i, o, u, v]
    return out


def grad_w_loops(x, gout):
    ho, wo = gout.shape[2:]
    dw = np.zeros((x.shape[1], gout.shape[1], x.shape[2] - ho + 1, x.shape[3] - wo + 1))
    for i, o, u, v in np.ndindex(dw.shape):
        dw[i, o, u, v] = np.sum(x[:, i, u:u + ho, v:v + wo] * gout[:, o])
    return dw


def grad_x_loops(gout, w):
    ho, wo = gout.shape[2:]
    dx = np.zeros((gout.shape[0], w.shape[0], ho + w.shape[2] - 1, wo + w.shape[3] - 1))
    for i, o, u, v in np.ndindex(w.shape):
        dx[:, i, u:u + ho, v:v + wo] += gout[:, o] * w[i, o, u, v]
    return dx


def timings_ms(fn, args, reps):
    fn(*args)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn(*args)
        times.append((time.perf_counter() - start) * 1e3)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="name of this run in the JSON")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding prunekit/")
    parser.add_argument("--out", default=str(ROOT / "BENCH_kernels.json"))
    parser.add_argument("--reps", type=int, default=200,
                        help="calls timed per kernel and shape; a tenth of that at 'large'")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import prunekit as pk
    if not Path(pk.__file__).resolve().is_relative_to(src):
        sys.exit(f"prunekit imported from {pk.__file__}, not from {src}")
    kernels = pk.kernels

    rng = np.random.default_rng(0)
    cases = []
    for label, (x_shape, w_shape) in SHAPES.items():
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        gout = rng.normal(size=forward_loops(x, w).shape)
        reps = max(2, args.reps // 10 if label == "large" else args.reps)
        for name, fn, ref, fargs in (
                ("forward", kernels.conv2d_forward, forward_loops, (x, w)),
                ("grad_w", kernels.conv2d_grad_w, grad_w_loops, (x, gout)),
                ("grad_x", kernels.conv2d_grad_x, grad_x_loops, (gout, w))):
            if not np.allclose(fn(*fargs), ref(*fargs), rtol=1e-10, atol=1e-10):
                sys.exit(f"{name} at {label} disagrees with the direct loops")
            case = {"shape": label, "kernel": name, "x": list(x_shape), "w": list(w_shape),
                    "reps": reps, **timings_ms(fn, fargs, reps)}
            cases.append(case)
            print(f"{label:<14}{name:<9}{case['median_ms']:>9.3f} ms "
                  f"[{case['q1_ms']:.3f}, {case['q3_ms']:.3f}]")

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["about"] = ("Conv kernels per call: time.perf_counter median and quartiles in ms over "
                    "`reps` calls, each kernel checked against direct loops first. Written by "
                    "benchmarks/bench_kernels.py.")
    env = {**env_record(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    doc.setdefault("runs", {})[args.label] = {"env": env, "cases": cases}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote run {args.label!r} to {out}")


if __name__ == "__main__":
    main()
