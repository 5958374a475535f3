"""Time the phases of one mask update: score, partition, aggregate, select, apply.

Usage:
    python3 benchmarks/bench_selection.py --label NAME [--src DIR] [--out BENCH_selection.json]

Each case is a model of two conv layers, [c, 2c, 3, 3] and [2c, c, 3, 3],
at about 10^4, 10^5 and 10^6 weights, pruned to SPARSITY percent with the
large_final criterion under weight/kernel/channel granularity and
local/global context, for two weight distributions: "grid" is N(0, 1/8)
rounded to multiples of 1/64, so many blocks tie and the tie-break by block
position is exercised; "normal" is N(0, 1/8) as drawn, where ties are rare.

Before any timing, every mask is checked against an oracle that shares no
code with prunekit's partition or selection: block scores from a gather
with flat indices, then a stable argsort of (score, position).

Times are time.perf_counter medians over the repetitions, in ms. The run
is stored under --label in the output JSON, next to the runs already
there, with an environment record (numpy version, conv backend, cores).
--src imports prunekit from another source tree, e.g. an unpacked older
commit, so that both sides are measured by the same script.
"""

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = (10_000, 100_000, 1_000_000)
GRANULARITIES = {"weight": (), "kernel": (2, 3), "channel": (1,)}
CONTEXTS = ("local", "global")
SPARSITY = 70.0
DISTRIBUTIONS = {
    "grid": lambda rng, shape: np.round(rng.normal(shape) * 8) / 64,
    "normal": lambda rng, shape: rng.normal(shape) / 8,
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


def update(pk, weights, granularity, context, sparsity):
    """One mask update through prunekit's public functions, phase by phase."""
    phases = dict.fromkeys(("score", "partition", "aggregate", "select", "apply"), 0.0)

    def timed(phase, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        phases[phase] += time.perf_counter() - start
        return result

    criterion = pk.Criterion("large_final")
    scored = []
    for w in weights:
        raw = timed("score", pk.score, criterion, w)
        part = timed("partition", pk.enumerate_blocks,
                     pk.parse_granularity(granularity, w.ndim), w.shape)
        scored.append(pk.LayerScores(part, timed("aggregate", pk.aggregate_scores, raw, part)))
    masks = timed("select", pk.select, scored, pk.ContextSpec(context), sparsity)
    for w, m in zip(weights, masks):
        timed("apply", pk.apply_mask, w, m)
    return masks, phases


def env_record():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "conv_backend": "numpy",
        "cpu_count": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="name of this run in the JSON")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding prunekit/")
    parser.add_argument("--out", default=str(ROOT / "BENCH_selection.json"))
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import prunekit as pk
    if not Path(pk.__file__).resolve().is_relative_to(src):
        sys.exit(f"prunekit imported from {pk.__file__}, not from {src}")

    rng = pk.Rng(2022)
    cases = []
    for (dist, draw), n_target in itertools.product(DISTRIBUTIONS.items(), SIZES):
        weights = [draw(rng, shape) for shape in layer_shapes(n_target)]
        n = sum(w.size for w in weights)
        for granularity, spanned in GRANULARITIES.items():
            for context in CONTEXTS:
                masks, _ = update(pk, weights, granularity, context, SPARSITY)
                want = oracle_masks(weights, spanned, context, SPARSITY)
                if not all(np.array_equal(g, m) for g, m in zip(masks, want)):
                    sys.exit(f"mask mismatch: {dist} n={n} {granularity} {context}")
                reps = max(5, min(50, 2_000_000 // n))
                runs = [update(pk, weights, granularity, context, SPARSITY)[1] for _ in range(reps)]
                case = {"distribution": dist, "weights": n, "granularity": granularity,
                        "context": context, "shapes": [list(w.shape) for w in weights],
                        "n_blocks": sum(len(index_gather(w.shape, spanned)) for w in weights),
                        "reps": reps}
                for phase in runs[0]:
                    case[f"{phase}_ms"] = statistics.median(r[phase] for r in runs) * 1e3
                case["total_ms"] = statistics.median(sum(r.values()) for r in runs) * 1e3
                cases.append(case)
                print(f"{dist:<6} n={n:>8} {granularity:<8} {context:<6} blocks={case['n_blocks']:>8} "
                      + " ".join(f"{p}={case[p + '_ms']:.3f}" for p in runs[0])
                      + f" total={case['total_ms']:.3f} ms")

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["about"] = (f"One mask update at sparsity {SPARSITY}% with large_final, phase by phase: "
                    "time.perf_counter medians in ms over `reps` repetitions, masks checked "
                    "against a full stable-sort oracle first. Written by "
                    "benchmarks/bench_selection.py.")
    doc.setdefault("runs", {})[args.label] = {"env": env_record(), "cases": cases}
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote run {args.label!r} to {out}")


if __name__ == "__main__":
    main()
