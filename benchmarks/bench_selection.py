"""Time the phases of one mask update: score, partition, aggregate, select, apply.

Usage:
    python3 benchmarks/bench_selection.py --label NAME [--src DIR]
        [--baseline LABEL=DIR] [--rounds R] [--out BENCH_selection.json]

Each case is a model of two conv layers, [c, 2c, 3, 3] and [2c, c, 3, 3],
at about 10^4, 10^5 and 10^6 weights, pruned to SPARSITY percent with the
large_final criterion under weight/row/kernel/channel granularity and
local/global context, for three weight distributions: "grid" is N(0, 1/8)
rounded to multiples of 1/64, so many blocks tie and the tie-break by block
position is exercised; "normal" is N(0, 1/8) as drawn, where ties are rare;
"dead" is "normal" with every weight of DEAD_SHARE of the input channels
at exactly 0, as the pruned weights of dead units are, so most scores tie
at the minimum in runs of whole rows. The last is the input on which
numpy 2.x's quickselect stalls when asked for the k-th lowest score.
An update is one call of the tree's prunekit.sparsifier.compute_masks,
with no workspace. Its phases are timed where compute_masks looks them up
in prunekit.sparsifier: score, enumerate_blocks ("partition"),
aggregate_scores and select. "other" is the rest of the call: buffers,
checks and the loops between phases. The "apply" phase is
prunekit.tensor.mask_in_place on a copy of each weights array, made
outside the timer, so every repetition scores and masks the same unmasked
weights.

Before any timing, every mask is checked against an oracle that shares no
code with prunekit's partition or selection: block scores from a gather
with flat indices, then a stable argsort of (score, position).

The repeat cases are the training callback's updates: one Sparsifier on a
model updates its masks REPEAT_UPDATES times in a row with prune_model at
REPEAT_SPARSITY% under weight/global and large_final, as perfbench's
workloads run it. "repeat" is mlp-perstep's dense 2-256-256-2 model
(66,560 weights), whose callback gives its Sparsifier a Workspace, so the
updates reuse their score and scratch buffers; a tree without
prunekit.sparsifier.Workspace runs as it is. "repeat_small" is
conv-train's conv 1-8-16 + dense 256-2 model (1,736 weights), which the
callback runs with no Workspace, as it holds under 128 KiB of weights.
Between updates a fixed seeded nudge is added to the weights in place,
outside the timer, so that every update scores moved weights. Every
update's masks are first checked against the oracle; then each update's
time and its ru_minflt delta, the minor page faults it took, are
recorded. They run before the one-update cases, whose megabyte arrays
raise glibc's mmap and trim thresholds for the rest of the process, after
which no update takes a page fault. Even so their faults need not be
those of `prunekit run`: the two trees share one process's heap, and no
training step allocates between updates.

prunekit is imported from DIR/prunekit (--src, the repo's src by
default). --baseline imports a second tree, e.g. an unpacked older
commit, and times it in the same process, the two trees alternating
round by round as harness.py's docstring describes. A round of a case is
`reps` updates, timed phase by phase inside each update, with no warm-up
call: the oracle check before the rounds runs every tree once. Times are
time.perf_counter medians over all rounds' updates, in ms; round_total_ms
has each round's median whole update. Each tree's run is stored under its
label in the output JSON, next to the runs already there, with an
environment record (numpy version, conv backend, cores).
"""

import itertools
import math
import resource
import statistics
import sys
import time
import types

import numpy as np

import harness

SIZES = (10_000, 100_000, 1_000_000)
GRANULARITIES = {"weight": (), "row": (3,), "kernel": (2, 3), "channel": (1,)}
CONTEXTS = ("local", "global")
SPARSITY = 70.0
DEAD_SHARE = 0.6
# repeat case -> (model, its specs, whether its Sparsifier is given a Workspace)
REPEAT_CASES = {
    "repeat": ("dense 2-256-256-2", [{"kind": "dense", "in": 2, "out": 256}, {"kind": "relu"},
                                     {"kind": "dense", "in": 256, "out": 256}, {"kind": "relu"},
                                     {"kind": "dense", "in": 256, "out": 2}], True),
    "repeat_small": ("conv 1-8-16 + dense 256-2",
                     [{"kind": "conv2d", "in_ch": 1, "out_ch": 8, "kx": 3, "ky": 3},
                      {"kind": "relu"},
                      {"kind": "conv2d", "in_ch": 8, "out_ch": 16, "kx": 3, "ky": 3},
                      {"kind": "relu"}, {"kind": "flatten"},
                      {"kind": "dense", "in": 256, "out": 2}], False),
}
REPEAT_UPDATES = 200
REPEAT_SPARSITY = 80.0


def dead_units(rng, shape):
    w = rng.normal(shape) / 8
    w[rng.permutation(shape[0])[:round(DEAD_SHARE * shape[0])]] = 0.0
    return w


DISTRIBUTIONS = {
    "grid": lambda rng, shape: np.round(rng.normal(shape) * 8) / 64,
    "normal": lambda rng, shape: rng.normal(shape) / 8,
    "dead": dead_units,
}


def layer_shapes(n_weights):
    c = round(math.sqrt(n_weights / 36))
    return [(c, 2 * c, 3, 3), (2 * c, c, 3, 3)]


def index_gather(shape, spanned):
    """[n_blocks, block_size] flat indices: indexed axes first, in lexicographic order."""
    indexed = [ax for ax in range(len(shape)) if ax not in spanned]
    flat = np.arange(math.prod(shape)).reshape(shape)
    return flat.transpose(indexed + sorted(spanned)).reshape(
        math.prod(shape[ax] for ax in indexed), -1)


def oracle_masks(weights, spanned, context, sparsity):
    """Full stable sort of block scores; earlier positions (layer, block) go first on ties."""
    index = [index_gather(w.shape, spanned) for w in weights]
    scores = [np.abs(w).ravel()[ix].mean(axis=1) for w, ix in zip(weights, index)]
    groups = [[i] for i in range(len(weights))] if context == "local" else [range(len(weights))]
    masks = [np.ones(w.size) for w in weights]
    for group in groups:
        flat = np.concatenate([scores[i] for i in group])
        k = math.floor(len(flat) * sparsity / 100.0)
        pruned = np.zeros(len(flat), dtype=bool)
        pruned[np.argsort(flat, kind="stable")[:k]] = True
        offset = 0
        for i in group:
            n = len(scores[i])
            masks[i][index[i][pruned[offset:offset + n]].ravel()] = 0.0
            offset += n
    return [m.reshape(w.shape) for m, w in zip(masks, weights)]


# phase -> the name compute_masks looks it up by in prunekit.sparsifier
PHASES = {"score": "score", "partition": "enumerate_blocks", "aggregate": "aggregate_scores",
          "select": "select"}


def update(pk, weights, granularity, context, sparsity):
    """One mask update through the tree's compute_masks, phase by phase."""
    phases = dict.fromkeys((*PHASES, "other", "apply"), 0.0)
    module = pk.sparsifier
    originals = {name: getattr(module, name) for name in PHASES.values()}

    def timed(phase, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                phases[phase] += time.perf_counter() - start
        return call

    layers = [types.SimpleNamespace(weights=w, history=None) for w in weights]
    for phase, name in PHASES.items():
        setattr(module, name, timed(phase, originals[name]))
    try:
        start = time.perf_counter()
        masks = module.compute_masks(layers, granularity, pk.ContextSpec(context),
                                     pk.Criterion("large_final"), sparsity)
        phases["other"] = time.perf_counter() - start - sum(phases[p] for p in PHASES)
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)
    for w, m in zip(weights, masks):
        timed("apply", pk.tensor.mask_in_place)(w.copy(), m)
    return masks, phases


def repeat_updates(pk, name, nudges, check=False):
    """REPEAT_UPDATES prune_model calls of one Sparsifier on a new seeded model
    of the repeat case `name`, with a workspace where the case has one and
    the tree has Workspace, each after adding `nudges` to the weights: per
    update, (seconds, minor faults). With check, every update's masks are
    compared with the oracle's for the weights it was given, and a mismatch
    exits."""
    _, specs, keeps_workspace = REPEAT_CASES[name]
    model = pk.Model.from_specs(specs, pk.Rng(2022))
    layers = model.prunable_layers()
    sparsifier = pk.Sparsifier(model, "weight", "global", "large_final")
    workspace = getattr(pk.sparsifier, "Workspace", None)
    if keeps_workspace and workspace is not None:
        sparsifier.workspace = workspace()
    times = []
    for i in range(REPEAT_UPDATES):
        for layer, nudge in zip(layers, nudges):
            np.add(layer.weights, nudge, out=layer.weights)
        want = oracle_masks([layer.weights for layer in layers], (), "global",
                            REPEAT_SPARSITY) if check else None
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        masks = sparsifier.prune_model(REPEAT_SPARSITY)
        elapsed = time.perf_counter() - start
        times.append((elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))
        if check and not all(np.array_equal(g, m) for g, m in zip(masks, want)):
            sys.exit(f"{pk.__name__}: mask mismatch: {name} update {i}")
    return times


def repeat_case(trees, rounds, name):
    """{label: the repeat case `name`'s record}, the trees alternating round by round."""
    model, specs, keeps_workspace = REPEAT_CASES[name]
    shapes = [tuple(layer.weight_shape)
              for layer in trees[0][1].Model.from_specs(specs).prunable_layers()]
    nudge_rng = trees[0][1].Rng(7)
    nudges = [1e-3 * nudge_rng.normal(shape) for shape in shapes]
    for _, pk in trees:
        repeat_updates(pk, name, nudges, check=True)
    runs = harness.rounds(trees, rounds, lambda _, pk: repeat_updates(pk, name, nudges))
    round_ms = {label: [statistics.median(t for t, _ in r) * 1e3 for r in runs[label]]
                for label, _ in trees}
    cases = {}
    for label, _ in trees:
        updates = [u for r in runs[label] for u in r]
        cases[label] = {
            "model": model, "weights": sum(math.prod(s) for s in shapes),
            "workspace": keeps_workspace,
            "granularity": "weight", "context": "global", "criterion": "large_final",
            "sparsity": REPEAT_SPARSITY, "updates": REPEAT_UPDATES, "rounds": rounds,
            "update_ms": statistics.median(t for t, _ in updates) * 1e3,
            "round_update_ms": round_ms[label],
            "minflt_per_update": sum(f for _, f in updates) / len(updates),
            "round_minflt_per_update": [sum(f for _, f in r) / len(r) for r in runs[label]],
        }
        print(f"{label:<24}{name} {REPEAT_UPDATES} updates: "
              f"update={cases[label]['update_ms']:.3f} ms "
              f"minflt/update={cases[label]['minflt_per_update']:.2f}")
    harness.report_faster(trees, round_ms, f"{name} ")
    return cases


def main(argv=None):
    parser = harness.argument_parser(__doc__, "BENCH_selection.json",
                                     rounds_help="timing rounds per case")
    args = parser.parse_args(argv)
    trees = harness.trees(parser, args)

    repeats = {name: repeat_case(trees, args.rounds, name) for name in REPEAT_CASES}
    rng = trees[0][1].Rng(2022)
    cases = {label: [] for label, _ in trees}
    for (dist, draw), n_target in itertools.product(DISTRIBUTIONS.items(), SIZES):
        weights = [draw(rng, shape) for shape in layer_shapes(n_target)]
        n = sum(w.size for w in weights)
        for granularity, spanned in GRANULARITIES.items():
            for context in CONTEXTS:
                want = oracle_masks(weights, spanned, context, SPARSITY)
                for label, pk in trees:
                    masks, _ = update(pk, weights, granularity, context, SPARSITY)
                    if not all(np.array_equal(g, m) for g, m in zip(masks, want)):
                        sys.exit(f"{label}: mask mismatch: {dist} n={n} {granularity} {context}")
                reps = max(5, min(50, 2_000_000 // n))
                per_round = harness.rounds(trees, args.rounds, lambda _, pk: [
                    update(pk, weights, granularity, context, SPARSITY)[1] for _ in range(reps)])
                round_totals = {label: [statistics.median(sum(p.values()) for p in r) * 1e3
                                        for r in per_round[label]] for label, _ in trees}
                for label, _ in trees:
                    updates = sum(per_round[label], [])
                    case = {"distribution": dist, "weights": n, "granularity": granularity,
                            "context": context, "shapes": [list(w.shape) for w in weights],
                            "n_blocks": sum(len(index_gather(w.shape, spanned)) for w in weights),
                            "reps": reps, "rounds": args.rounds,
                            "round_total_ms": round_totals[label]}
                    phases = updates[0]
                    for phase in phases:
                        case[f"{phase}_ms"] = statistics.median(u[phase] for u in updates) * 1e3
                    case["total_ms"] = statistics.median(sum(u.values()) for u in updates) * 1e3
                    cases[label].append(case)
                    print(f"{label:<24}{dist:<6} n={n:>8} {granularity:<8} {context:<6} "
                          f"blocks={case['n_blocks']:>8} "
                          + " ".join(f"{p}={case[p + '_ms']:.3f}" for p in phases)
                          + f" total={case['total_ms']:.3f} ms")
                harness.report_faster(trees, round_totals, f"{dist:<6} n={n:>8} "
                                      f"{granularity:<8} {context:<6} ")

    about = (f"One mask update at sparsity {SPARSITY}% with large_final, phase by phase: "
             "time.perf_counter medians in ms over `rounds` x `reps` repetitions (one "
             "round where `rounds` is absent), masks checked against a full stable-sort "
             "oracle first; round_total_ms has each round's median whole update, and "
             "runs written together alternate round by round. `other_ms`, where a run "
             "has it, is the part of compute_masks outside its phases; such runs time "
             "each phase inside the tree's compute_masks. `repeat` and `repeat_small`, "
             f"where a run has them, are {REPEAT_UPDATES} updates in a row of one "
             "Sparsifier, on the mlp-perstep model with a Workspace and on the "
             "conv-train model without one: the median update in ms and the minor page "
             "faults (ru_minflt) per update, overall and per round. Written by "
             "benchmarks/bench_selection.py.")
    harness.write_runs(args.out, about, {label: {"env": harness.env_record(),
                                                 "cases": cases[label],
                                                 **{name: repeats[name][label]
                                                    for name in REPEAT_CASES}}
                                         for label, _ in trees})


if __name__ == "__main__":
    main()
