"""Time checkpoint.save and checkpoint.load at the sizes perfbench writes.

Usage:
    python3 benchmarks/bench_checkpoint.py --label NAME [--src DIR]
        [--baseline LABEL=DIR] [--rounds R] [--out BENCH_checkpoint.json]

Models:
  prune_sweep  perfbench prune-sweep's three conv layers ([48, 96], [96, 96],
               [96, 48], 3x3 kernels, 1.7e5 weights) with a weight history,
               pruned to 70% under kernel granularity, global context and
               magnitude_increase, saved as `prunekit prune` saves it;
  mlp_perstep  perfbench mlp-perstep's 2-256-256-2 MLP with a weight
               history, pruned to 80% under weight granularity, global
               context and large_final, saved as `prunekit run` saves it;
  mlp_lth      the same MLP and pruning saved as `prunekit run` saves a
               lottery-ticket run: no history, as large_final reads none,
               beside the rewind snapshot of every layer's weights and bias
               and a plan with lth and an iterative schedule.

Before any timing, each saved file is checked to be canonical JSON (equal
to json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
plus a newline), to load back into the arrays it was written from, rewind
snapshot included, and to be written again, byte for byte, by a save of
what load gave: its model, rewind snapshot, plan.to_dict(), metrics tail
and meta.
`save_peak_mb` is tracemalloc's peak over one further save: the most
memory that save held at once, Python objects and numpy arrays alike.
`bytes` is the file's size and `sha256` its hash, so runs of two source
trees can be checked to write the same bytes, or compared by size. The
run is stored under --label in the output JSON, next to the runs already
there, with an environment record.

--src imports prunekit from another source tree, e.g. an unpacked older
commit, so that both sides are measured by the same script. --baseline
imports a second tree and times it in the same process, the two trees
alternating round by round as harness.py's docstring describes. In each
round a tree saves `reps` times and then loads `reps` times, each after
one untimed call. `save` and `load` hold the median and quartiles in ms
over all rounds' calls, and round_total_ms has each round's median save
plus median load.
"""

import hashlib
import importlib
import json
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

import harness

CONV = [{"kind": "conv2d", "in_ch": a, "out_ch": b, "kx": 3, "ky": 3}
        for a, b in ((48, 96), (96, 96), (96, 48))]
MLP = [{"kind": "dense", "in": 2, "out": 256}, {"kind": "relu"},
       {"kind": "dense", "in": 256, "out": 256}, {"kind": "relu"},
       {"kind": "dense", "in": 256, "out": 2}]
REPS = 9  # saves and loads timed per model
# name: (layer specs, granularity, context, criterion, sparsity, lottery-ticket run)
MODELS = {
    "prune_sweep": (CONV, "kernel", "global", "magnitude_increase", 70.0, False),
    "mlp_perstep": (MLP, "weight", "global", "large_final", 80.0, False),
    "mlp_lth": (MLP, "weight", "global", "large_final", 80.0, True),
}


def build(pk, specs, granularity, context, criterion, sparsity, lth):
    """A pruned model and the save() keywords for it: the model holds a
    weight history, or for an LTH run the keywords hold the rewind snapshot."""
    rng = pk.Rng(1)
    model = pk.Model.from_specs(specs, rng.child("init"))
    start = pk.Model.from_specs(specs, rng.child("history"))
    kwargs = {"meta": {"name": "bench", "seed": 1}}
    if lth:
        kwargs["rewind_snapshot"] = [(l.weights, l.bias) for l in start.layers if l.weights is not None]
    else:
        for layer, hist in zip(model.prunable_layers(), start.prunable_layers()):
            layer.history = hist.weights
    pk.Sparsifier(model, granularity, context, criterion).prune_model(sparsity)
    schedule = pk.ScheduleSpec("iterative", start_epoch=1, n_steps=4) if lth else None
    kwargs["plan"] = pk.SparsifyPlan(sparsity, granularity, context, criterion,
                                     schedule=schedule, lth=lth).to_dict()
    kwargs["metrics_tail"] = [(9, step, 0.05 + step / 1000, 1.0, sparsity, sparsity)
                              for step in range(45, 50)]
    return model, kwargs


def check(pk, name, path, model, snapshot):
    text = path.read_text()
    if text != json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n":
        sys.exit(f"{path} is not canonical JSON")
    ckpt = pk.checkpoint.load(path)
    arrays = [(f"layers[{i}].{array}", getattr(a, array, None), getattr(b, array, None))
              for i, (a, b) in enumerate(zip(model.layers, ckpt.model.layers))
              for array in ("weights", "bias", "mask", "history")]
    if (snapshot is None) != (ckpt.rewind_snapshot is None) or (
            snapshot is not None and len(snapshot) != len(ckpt.rewind_snapshot)):
        sys.exit(f"rewind_snapshot did not load back from {path}")
    arrays += [(f"rewind_snapshot[{j}].{array}", a, b)
               for j, entry in enumerate(zip(snapshot or (), ckpt.rewind_snapshot or ()))
               for array, a, b in zip(("weights", "bias"), *entry)]
    for field, want, got in arrays:
        if (want is None) != (got is None) or (want is not None and not np.array_equal(want, got)):
            sys.exit(f"{field} did not load back from {path}")
    again = path.with_name(path.stem + "-again.json")
    pk.checkpoint.save(again, ckpt.model, rewind_snapshot=ckpt.rewind_snapshot,
                       plan=None if ckpt.plan is None else ckpt.plan.to_dict(),
                       metrics_tail=ckpt.metrics_tail, meta=ckpt.meta)
    if again.read_bytes() != path.read_bytes():
        sys.exit(f"{name}: a save of the loaded checkpoint did not write the bytes of {path}")


def main(argv=None):
    parser = harness.argument_parser(__doc__, "BENCH_checkpoint.json",
                                     rounds_help="timing rounds per model")
    args = parser.parse_args(argv)
    trees = harness.trees(parser, args)

    cases = {label: [] for label, _ in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for name, setup in MODELS.items():
            runs = {}  # label: (checkpoint module, path, model, save kwargs, case)
            for n, (label, pk) in enumerate(trees):
                checkpoint = importlib.import_module(".checkpoint", pk.__name__)
                model, kwargs = build(pk, *setup)
                path = Path(tmp) / f"{name}-{n}.json"
                checkpoint.save(path, model, **kwargs)
                check(pk, name, path, model, kwargs.get("rewind_snapshot"))
                tracemalloc.start()
                checkpoint.save(path, model, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                case = {"model": name, "weights": sum(l.weights.size for l in model.prunable_layers()),
                        "bytes": path.stat().st_size,
                        "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                        "reps": REPS, "rounds": args.rounds, "save_peak_mb": peak / 2**20}
                runs[label] = (checkpoint, path, model, kwargs, case)

            def save_and_load(label, _):
                checkpoint, path, model, kwargs, _ = runs[label]
                return {"save": harness.timed(lambda: checkpoint.save(path, model, **kwargs), REPS),
                        "load": harness.timed(lambda: checkpoint.load(path), REPS)}

            per_round = harness.rounds(trees, args.rounds, save_and_load)
            round_totals = {label: [sum(statistics.median(t) for t in r.values()) * 1e3
                                    for r in per_round[label]] for label, _ in trees}
            for label, _ in trees:
                case = runs[label][-1]
                for op in ("save", "load"):
                    q1, median, q3 = harness.quartiles([t for r in per_round[label] for t in r[op]], 1e3)
                    case[op] = {"median_ms": median, "q1_ms": q1, "q3_ms": q3}
                case["round_total_ms"] = round_totals[label]
                cases[label].append(case)
                print(f"{label:<24}{name:<12} {case['weights']:>7} weights {case['bytes']:>8} B  "
                      f"save {case['save']['median_ms']:8.1f} ms  load {case['load']['median_ms']:7.1f} ms"
                      f"  save peak {case['save_peak_mb']:.1f} MB")
            harness.report_faster(trees, round_totals, f"{name:<12} ")

    about = ("checkpoint.save and checkpoint.load per call: time.perf_counter median and "
             "quartiles in ms over `rounds` x `reps` calls (`reps` where `rounds` is absent), "
             "each file checked first to be canonical JSON that loads back and saves again "
             "to the same bytes; round_total_ms has each round's median save plus median "
             "load, and runs written together alternate round by round; save_peak_mb is "
             "tracemalloc's peak over one save. "
             "Written by benchmarks/bench_checkpoint.py.")
    harness.write_runs(args.out, about, {label: {"env": harness.env_record(),
                                                 "cases": cases[label]} for label, _ in trees})


if __name__ == "__main__":
    main()
