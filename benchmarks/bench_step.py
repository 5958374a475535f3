"""Time one training step layer by layer: each layer's forward and backward,
the loss and sgd_step; and time train.accuracy on the eval split.

Usage:
    python3 benchmarks/bench_step.py --label NAME [--src DIR]
        [--baseline LABEL=DIR] [--rounds R] [--reps N] [--out BENCH_step.json]

Workloads: one step at batch 32 of perfbench's conv-train model (conv,
relu, conv, relu, flatten, dense on patterns8x8) and of its mlp-perstep
model (dense 2-256-256-2 with relus on blobs2d), from the first batch of
each workload's training split.

A step runs the phases that train.fit runs, one call at a time so that
each is timed on its own: every layer's forward in training mode, the
loss, every layer's backward in reverse order (the first layer's
backward_params, as Model.backward does) and sgd_step at learning rate
0.05 without momentum, as in perfbench.

prunekit is imported from DIR/prunekit (--src, the repo's src by
default). --baseline imports a second tree, e.g. an unpacked older
commit, and times it in the same process, the two trees alternating
round by round as harness.py's docstring describes; a round is one
warm-up step and then `reps` timed steps. Before any timing, one step
from the same initial weights is run in every tree, and a second time in
the first tree: the logits, loss, gradients and updated parameters must
be byte-equal, and the exit message names the first array that is not.

The eval case times accuracy (phase "accuracy") on each workload's
untrained model over its eval split and over that split tiled 4 times
("batch" is the row count), reps // 10 calls per round and tree, at least
one. Before timing, every tree's whole-batch forward(train=False) logits
must be byte-equal, those of its eval_chunks (where it has them) equal to
them, and its accuracy equal to their hit count over n. Each tree's
tracemalloc peak of one accuracy call, after a warm-up call, is stored as
peak_bytes.

Each phase, timed by the step's own clock, stores the median and
quartiles in us over all rounds' steps, and the median of each round
(round_medians_us). "step" is the sum of a step's phases. BLAS runs on
OPENBLAS_NUM_THREADS threads, 1 unless set, as in perfbench. Each tree's
run is stored under its label in the output JSON, next to the runs
already there, with an environment record.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import statistics
import sys
import time
import tracemalloc

import numpy as np

import harness

BATCH = 32
LEARNING_RATE = 0.05
EVAL_SCALES = (1, 4)  # the eval split, and the split tiled 4 times
WORKLOADS = {
    "conv-train": (
        [{"kind": "conv2d", "in_ch": 1, "out_ch": 8, "kx": 3, "ky": 3}, {"kind": "relu"},
         {"kind": "conv2d", "in_ch": 8, "out_ch": 16, "kx": 3, "ky": 3}, {"kind": "relu"},
         {"kind": "flatten"}, {"kind": "dense", "in": 256, "out": 2}],
        {"kind": "patterns8x8", "n": 4000, "noise": 0.1}),
    "mlp-perstep": (
        [{"kind": "dense", "in": 2, "out": 256}, {"kind": "relu"},
         {"kind": "dense", "in": 256, "out": 256}, {"kind": "relu"},
         {"kind": "dense", "in": 256, "out": 2}],
        {"kind": "blobs2d", "n": 2000, "separation": 4.0}),
}


class Step:
    """One tree's model and first batch for a workload, and its timed step."""

    def __init__(self, pk, workload, seed):
        specs, dataset = WORKLOADS[workload]
        rng = pk.Rng(seed)
        (x, y), _ = pk.train_eval_split(*pk.make_dataset(dataset, rng.child("data")))
        self.x, self.y = x[:BATCH], y[:BATCH]
        self.pk = pk
        self.model = pk.Model.from_specs(specs, rng.child("init"))
        self.velocities = {}
        self.phases = [f"{l.kind}[{i}].forward" for i, l in enumerate(self.model.layers)]
        self.phases.append("loss")
        self.phases += [f"{l.kind}[{i}].backward" for i, l in enumerate(self.model.layers)][::-1]
        self.phases.append("sgd_step")

    def run(self, times=None):
        """One step; with `times`, appends each phase's seconds to times[phase].
        Returns the logits and loss."""
        clock = time.perf_counter
        stamps = [clock()]
        layers = self.model.layers
        out = self.x
        for layer in layers:
            out = layer.forward(out)
            stamps.append(clock())
        logits = out
        loss, grad = self.pk.train.softmax_cross_entropy(logits, self.y)
        stamps.append(clock())
        for layer in reversed(layers[1:]):
            grad = layer.backward(grad)
            stamps.append(clock())
        layers[0].backward_params(grad)
        stamps.append(clock())
        self.pk.sgd_step(self.model, LEARNING_RATE, 0.0, self.velocities)
        stamps.append(clock())
        if times is not None:
            for phase, start, end in zip(self.phases, stamps, stamps[1:]):
                times[phase].append(end - start)
            times["step"].append(stamps[-1] - stamps[0])
        return logits, loss

    def outputs(self):
        """(name, bytes) of one step's logits, loss, gradients and updated
        parameters; a layer's are named like "conv2d[2].grad_w"."""
        logits, loss = self.run()
        out = [("logits", logits.tobytes()), ("loss", repr(loss).encode())]
        for i, layer in enumerate(self.model.layers):
            if layer.weights is not None:
                out += [(f"{layer.kind}[{i}].{name}", getattr(layer, name).tobytes())
                        for name in ("grad_w", "grad_b", "weights", "bias")]
        return out


def eval_case(pk, workload, seed, scale):
    """(model, inputs, labels): the workload's untrained model, as Step
    builds it, and its eval split tiled `scale` times."""
    specs, dataset = WORKLOADS[workload]
    rng = pk.Rng(seed)
    _, (x, y) = pk.train_eval_split(*pk.make_dataset(dataset, rng.child("data")))
    model = pk.Model.from_specs(specs, rng.child("init"))
    return model, np.concatenate([x] * scale), np.concatenate([y] * scale)


def eval_differs(pk, model, x, y, want):
    """The first of one tree's eval checks that fails, or None: its
    whole-batch logits must have the bytes `want`, those of its eval_chunks
    the same, and its accuracy must be their hit count over n."""
    whole = model.forward(x, train=False)
    chunks = getattr(pk.train, "eval_chunks", lambda n: [slice(0, n)])(len(y))
    chunked = np.concatenate([model.forward(x[c], train=False) for c in chunks])
    if whole.tobytes() != want:
        return "whole-batch logits"
    if chunked.tobytes() != want:
        return "eval_chunks logits"
    if pk.accuracy(model, x, y) != np.count_nonzero(whole.argmax(axis=1) == y) / len(y):
        return "accuracy"
    return None


def peak_bytes(fn):
    """tracemalloc peak of one call of fn, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def time_eval(trees, args, cases):
    """The eval case: check, then time and trace accuracy per workload and scale."""
    reps = max(1, args.reps // 10)
    for workload in WORKLOADS:
        for scale in EVAL_SCALES:
            runs = {label: eval_case(pk, workload, args.seed, scale) for label, pk in trees}
            model, x, _ = runs[trees[0][0]]
            want = model.forward(x, train=False).tobytes()
            for label, pk in trees:
                differ = eval_differs(pk, *runs[label], want)
                if differ:
                    sys.exit(f"{label}: {workload} eval x{scale}: {differ} differ "
                             f"from {trees[0][0]}'s whole-batch forward")
            n = len(x)
            calls = {label: (lambda pk=pk, run=runs[label]: pk.accuracy(*run)) for label, pk in trees}
            peaks = {label: peak_bytes(calls[label]) for label, _ in trees}
            per_round = harness.rounds(trees, args.rounds,
                                       lambda label, _: harness.timed(calls[label], reps))
            round_medians = {label: [statistics.median(t) * 1e6 for t in per_round[label]]
                             for label, _ in trees}
            for label, _ in trees:
                q1, median, q3 = harness.quartiles(sum(per_round[label], []), 1e6)
                cases[label].append({"workload": workload, "phase": "accuracy", "batch": n,
                                     "reps": reps, "rounds": args.rounds,
                                     "median_us": median, "q1_us": q1, "q3_us": q3,
                                     "round_medians_us": round_medians[label],
                                     "peak_bytes": peaks[label]})
                print(f"{label:<24}{workload:<13}{f'accuracy n={n}':<22}{median:>9.1f} us "
                      f"[{q1:.1f}, {q3:.1f}]  peak {peaks[label] / 1e6:.2f} MB")
            harness.report_faster(trees, round_medians, f"{workload:<13}{f'accuracy n={n}':<22}")


def main(argv=None):
    parser = harness.argument_parser(__doc__, "BENCH_step.json",
                                     rounds_help="timing rounds per workload")
    parser.add_argument("--reps", type=int, default=200, help="steps timed per round and tree")
    parser.add_argument("--seed", type=int, default=1, help="data and weight seed")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.reps < 1:
        parser.error("--rounds and --reps must be at least 1")
    trees = harness.trees(parser, args)

    cases = {label: [] for label, _ in trees}
    for workload in WORKLOADS:
        want = Step(trees[0][1], workload, args.seed).outputs()
        for label, pk in trees:
            got = Step(pk, workload, args.seed).outputs()
            differ = [name for (name, a), (_, b) in zip(got, want) if a != b]
            if differ:
                sys.exit(f"{label}: one {workload} step differs from {trees[0][0]}'s "
                         f"(or from its own first run), first in {differ[0]}")
        steps = {label: Step(pk, workload, args.seed) for label, pk in trees}
        phases = steps[args.label].phases + ["step"]

        def step_round(label, _):
            steps[label].run()  # warm-up
            got = {p: [] for p in phases}
            for _ in range(args.reps):
                steps[label].run(got)
            return got

        per_round = harness.rounds(trees, args.rounds, step_round)
        for p in phases:
            round_medians = {label: [statistics.median(r[p]) * 1e6 for r in per_round[label]]
                             for label, _ in trees}
            for label, _ in trees:
                q1, median, q3 = harness.quartiles([t for r in per_round[label] for t in r[p]], 1e6)
                cases[label].append({"workload": workload, "phase": p, "batch": BATCH,
                                     "reps": args.reps, "rounds": args.rounds,
                                     "median_us": median, "q1_us": q1, "q3_us": q3,
                                     "round_medians_us": round_medians[label]})
                print(f"{label:<24}{workload:<13}{p:<22}{median:>9.1f} us [{q1:.1f}, {q3:.1f}]")
            harness.report_faster(trees, round_medians, f"{workload:<13}{p:<22}")
    time_eval(trees, args, cases)

    about = ("One training step at batch 32, phase by phase: each layer's forward and "
             "backward, the loss and sgd_step, and their sum as 'step'. time.perf_counter "
             "median and quartiles in us over `rounds` x `reps` steps; round_medians_us "
             "has each round's median, and runs written together alternate round by "
             "round after their step outputs were checked byte-equal. Phase 'accuracy' "
             "times train.accuracy of the untrained model on `batch` eval rows (the eval "
             "split and 4 times it), `reps` calls a round, with peak_bytes the tracemalloc "
             "peak of one call; its logits were checked byte-equal to one whole-batch "
             "forward first. Written by benchmarks/bench_step.py.")
    env = {**harness.env_record(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    harness.write_runs(args.out, about, {label: {"env": env, "seed": args.seed,
                                                 "cases": cases[label]} for label, _ in trees})


if __name__ == "__main__":
    main()
