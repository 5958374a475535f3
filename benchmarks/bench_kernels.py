"""Time the conv kernels: conv2d_forward, conv2d_grad_w and conv2d_grad_x.

Usage:
    python3 benchmarks/bench_kernels.py --label NAME [--src DIR]
        [--baseline LABEL=DIR] [--rounds R] [--reps N] [--out BENCH_kernels.json]

Shapes (x [N, I, H, W], w [I, O, Kx, Ky]): the two conv layers of
perfbench's conv-train model at its training batch of 32 ("conv_train_1",
"conv_train_2"), plus "small" and "large", the shapes perfbench's traced
pass reports as kernels.shape.*.

The kernels are prunekit.kernels of the package in DIR/prunekit (--src,
the repo's src by default), imported whole. --baseline imports a second
tree, e.g. an unpacked older commit, and times its kernels in the same
process, the two trees alternating round by round as harness.py's
docstring describes.

Before any timing, every kernel is checked against direct loops over
(i, o, u, v) that share no code with prunekit, and under --baseline each
tree's output must have the bytes of the first tree's: otherwise the run
exits naming the tree, the kernel and the shape. A round is one warm-up call
and then `reps` timed calls. Each case stores the median and quartiles in
ms per call over all rounds' calls, and the median of each round
(round_medians_ms). BLAS runs on OPENBLAS_NUM_THREADS threads, 1 unless
set, as in perfbench. Each tree's run is stored under its label in the
output JSON, next to the runs already there, with an environment record.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import functools
import statistics
import sys

import numpy as np

import harness

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


def main(argv=None):
    parser = harness.argument_parser(__doc__, "BENCH_kernels.json",
                                     rounds_help="timing rounds per kernel and shape")
    parser.add_argument("--reps", type=int, default=200,
                        help="calls timed per round, kernel and shape; a tenth of that at 'large'")
    args = parser.parse_args(argv)
    trees = [(label, pk.kernels) for label, pk in harness.trees(parser, args)]

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
            outputs = [getattr(kernels, "conv2d_" + name)(*fargs) for _, kernels in trees]
            for (label, _), got in zip(trees, outputs):
                if not np.allclose(got, want, rtol=1e-10, atol=1e-10):
                    sys.exit(f"{label}: {name} at {shape} disagrees with the direct loops")
                if got.tobytes() != outputs[0].tobytes():
                    sys.exit(f"{label}: {name} at {shape} differs from {trees[0][0]}'s output "
                             "in its bytes")
            per_round = harness.rounds(trees, args.rounds, lambda _, kernels: harness.timed(
                functools.partial(getattr(kernels, "conv2d_" + name), *fargs), reps))
            round_medians = {label: [statistics.median(t) * 1e3 for t in per_round[label]]
                             for label, _ in trees}
            for label, _ in trees:
                q1, median, q3 = harness.quartiles(sum(per_round[label], []), 1e3)
                case = {"shape": shape, "kernel": name, "x": list(x_shape), "w": list(w_shape),
                        "reps": reps, "rounds": args.rounds, "median_ms": median,
                        "q1_ms": q1, "q3_ms": q3, "round_medians_ms": round_medians[label]}
                cases[label].append(case)
                print(f"{label:<24}{shape:<14}{name:<9}{median:>9.3f} ms [{q1:.3f}, {q3:.3f}]")
            harness.report_faster(trees, round_medians, f"{shape:<14}{name:<9}")

    about = ("Conv kernels per call: time.perf_counter median and quartiles in ms over "
             "`rounds` x `reps` calls (one round where `rounds` is absent), each kernel "
             "checked against direct loops first and, in runs written together, each "
             "tree's output checked byte-equal to the first tree's; round_medians_ms "
             "has each round's median, and runs written together alternate round by "
             "round. Written by benchmarks/bench_kernels.py.")
    env = {**harness.env_record(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    harness.write_runs(args.out, about,
                       {label: {"env": env, "cases": cases[label]} for label, _ in trees})


if __name__ == "__main__":
    main()
