"""Time the conv kernels: conv2d_forward, conv2d_grad_w and conv2d_grad_x.

Usage:
    python3 benchmarks/bench_kernels.py --label NAME [--src DIR]
        [--baseline LABEL=DIR] [--rounds R] [--out BENCH_kernels.json]

Shapes (x [N, I, H, W], w [I, O, Kx, Ky]): the two conv layers of
perfbench's conv-train model at its training batch of 32 ("conv_train_1",
"conv_train_2"), plus "small" and "large", the shapes perfbench's traced
pass reports as kernels.shape.*.

The kernels are loaded from DIR/prunekit/kernels.py (--src, the repo's src
by default). --baseline loads a second kernels.py, e.g. from an unpacked
older commit, and times it in the same process: each case runs R rounds,
and in every round both trees are timed back to back, each going first in
every other round. On shared cores, two runs minutes apart can differ by
more than two kernel versions do; a pair timed back to back shares most
of that drift.

Before any timing, every kernel is checked against direct loops over
(i, o, u, v) that share no code with prunekit. A round is one warm-up call
and then `reps` timed calls. Each case stores the time.perf_counter median
and quartiles in ms per call over all rounds' calls, and the median of
each round (round_medians_ms; round r of the two trees ran back to back).
BLAS runs on OPENBLAS_NUM_THREADS threads, 1 unless set, as in perfbench.
Each tree's run is stored under its label in the output JSON, next to the
runs already there, with an environment record.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import importlib.util
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
    return times


def load_kernels(src, name):
    path = Path(src).resolve() / "prunekit" / "kernels.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="name of this run in the JSON")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding prunekit/")
    parser.add_argument("--baseline", metavar="LABEL=DIR",
                        help="also time DIR/prunekit/kernels.py, alternating with --src, as run LABEL")
    parser.add_argument("--rounds", type=int, default=1, help="timing rounds per kernel and shape")
    parser.add_argument("--out", default=str(ROOT / "BENCH_kernels.json"))
    parser.add_argument("--reps", type=int, default=200,
                        help="calls timed per round, kernel and shape; a tenth of that at 'large'")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = [(args.label, load_kernels(args.src, "kernels_src"))]
    if args.baseline:
        label, sep, src = args.baseline.partition("=")
        if not sep or not label or label == args.label:
            parser.error("--baseline takes LABEL=DIR, with LABEL other than --label")
        trees.append((label, load_kernels(src, "kernels_baseline")))

    rng = np.random.default_rng(0)
    cases = {label: [] for label, _ in trees}
    for shape, (x_shape, w_shape) in SHAPES.items():
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        gout = rng.normal(size=forward_loops(x, w).shape)
        reps = max(2, args.reps // 10 if shape == "large" else args.reps)
        for name, ref, fargs in (("forward", forward_loops, (x, w)),
                                 ("grad_w", grad_w_loops, (x, gout)),
                                 ("grad_x", grad_x_loops, (gout, w))):
            want = ref(*fargs)
            for label, kernels in trees:
                if not np.allclose(getattr(kernels, "conv2d_" + name)(*fargs), want,
                                   rtol=1e-10, atol=1e-10):
                    sys.exit(f"{label}: {name} at {shape} disagrees with the direct loops")
            times = {label: [] for label, _ in trees}
            round_medians = {label: [] for label, _ in trees}
            for r in range(args.rounds):
                for label, kernels in (trees if r % 2 == 0 else trees[::-1]):
                    t = timings_ms(getattr(kernels, "conv2d_" + name), fargs, reps)
                    times[label] += t
                    round_medians[label].append(statistics.median(t))
            for label, _ in trees:
                q1, median, q3 = statistics.quantiles(times[label], n=4)
                case = {"shape": shape, "kernel": name, "x": list(x_shape), "w": list(w_shape),
                        "reps": reps, "rounds": args.rounds, "median_ms": median,
                        "q1_ms": q1, "q3_ms": q3, "round_medians_ms": round_medians[label]}
                cases[label].append(case)
                print(f"{label:<24}{shape:<14}{name:<9}{median:>9.3f} ms [{q1:.3f}, {q3:.3f}]")
            if len(trees) == 2:
                (new, _), (base, _) = trees
                faster = sum(a < b for a, b in zip(round_medians[new], round_medians[base]))
                print(f"{'':<24}{shape:<14}{name:<9}{new} faster in {faster}/{args.rounds} rounds")

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["about"] = ("Conv kernels per call: time.perf_counter median and quartiles in ms over "
                    "`rounds` x `reps` calls (one round where `rounds` is absent), each kernel "
                    "checked against direct loops first; round_medians_ms has each round's "
                    "median, and runs written together alternate round by round. Written by "
                    "benchmarks/bench_kernels.py.")
    env = {**env_record(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    for label, _ in trees:
        doc.setdefault("runs", {})[label] = {"env": env, "cases": cases[label]}
        if len(trees) == 2:
            doc["runs"][label]["paired_with"] = trees[1][0] if label == args.label else args.label
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote runs {', '.join(repr(label) for label, _ in trees)} to {out}")


if __name__ == "__main__":
    main()
