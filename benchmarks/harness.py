"""What the benchmark scripts share: their flags, loading a source tree,
the environment record, the paired timing protocol, the "faster in N/R
rounds" line and writing runs into the output JSON.

A script that times one tree builds its parser with argument_parser()
and loads the tree with load_prunekit(). A script that times a pair
passes rounds_help to argument_parser(), which adds --baseline and
--rounds, and takes its trees from trees(). write_runs() stores every run
under its label, next to the runs already in the file.

The paired protocol. Both trees are imported into one process, and each
case runs R rounds through rounds(): in every round each tree runs once,
back to back, the first tree going first in even rounds and last in odd
ones (alternate()). On shared cores two runs minutes apart can differ by
more than two versions of the code do; a pair timed back to back shares
most of that drift. A round is one untimed warm-up call and then `reps`
calls, each timed with time.perf_counter (timed()). bench_step's training
step keeps that warm-up but times each phase by its own clock;
bench_selection times the phases inside each update and, its trees warmed
by the oracle check, makes no warm-up call. A case stores the median of
all rounds' calls pooled, with their quartiles (quartiles()) in all but
bench_selection, and the median of each round, round r of the two trees
having run back to back; report_faster() prints in how many rounds the
first tree's was lower.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def argument_parser(doc: str, out_name: str,
                    rounds_help: str | None = None) -> argparse.ArgumentParser:
    """--label, --src and --out (ROOT/out_name by default), named after
    doc's first line; with rounds_help, also --baseline and --rounds."""
    p = argparse.ArgumentParser(description=doc.split("\n")[0])
    p.add_argument("--label", required=True, help="name of this run in the JSON")
    p.add_argument("--src", default=str(ROOT / "src"), help="directory holding prunekit/")
    if rounds_help is not None:
        p.add_argument("--baseline", metavar="LABEL=DIR",
                       help="also time DIR/prunekit, alternating with --src, as run LABEL")
        p.add_argument("--rounds", type=int, default=1, help=rounds_help)
    p.add_argument("--out", default=str(ROOT / out_name))
    return p


def load_prunekit(src, name: str):
    """The prunekit package in DIR/prunekit, imported as module `name`."""
    pkg = Path(src).resolve() / "prunekit"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # the package's relative imports look it up here
    spec.loader.exec_module(module)
    return module


def trees(parser: argparse.ArgumentParser, args) -> list:
    """[(label, prunekit)]: --src's tree under --label, then --baseline's
    tree under its label if given. Bad --rounds or --baseline exit 2."""
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    label, sep, src = (args.baseline or "").partition("=")
    if args.baseline and (not sep or not label or label == args.label):
        parser.error("--baseline takes LABEL=DIR, with LABEL other than --label")
    loaded = [(args.label, load_prunekit(args.src, "prunekit_src"))]
    if args.baseline:
        loaded.append((label, load_prunekit(src, "prunekit_baseline")))
    return loaded


def alternate(trees: list, rounds: int):
    """(label, tree) in timing order: every tree once per round, the first
    tree going first in even rounds and last in odd ones."""
    for r in range(rounds):
        yield from trees if r % 2 == 0 else trees[::-1]


def rounds(trees: list, n: int, run) -> dict:
    """{label: [run(label, tree) for each of n rounds]}, the trees taking
    their turns in the order of alternate()."""
    results = {label: [] for label, _ in trees}
    for label, tree in alternate(trees, n):
        results[label].append(run(label, tree))
    return results


def timed(fn, reps: int) -> list:
    """The time.perf_counter seconds of `reps` calls of fn, after one untimed call."""
    fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def quartiles(values, scale: float = 1.0) -> tuple:
    """q1, median and q3 of values, times scale; a single value is all three."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3
    return tuple(v * scale for v in q)


def report_faster(trees: list, per_round: dict, case: str) -> None:
    """With two trees, print in how many rounds the first one's time in
    per_round[label] (one per round) was lower than the second one's."""
    if len(trees) == 2:
        (new, _), (base, _) = trees
        faster = sum(a < b for a, b in zip(per_round[new], per_round[base]))
        print(f"{'':<24}{case}{new} faster in {faster}/{len(per_round[new])} rounds")


def env_record() -> dict:
    """What a run was timed on: Python and numpy versions, conv backend, cores,
    and the C library with any MALLOC_* settings, as the allocator decides
    how many page faults an update's temporaries take."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "conv_backend": "numpy",
        "cpu_count": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "system": platform.system(),
        "libc": " ".join(platform.libc_ver()).strip() or None,
        "malloc_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("MALLOC_")},
    }


def write_runs(out, about: str, runs: dict) -> None:
    """Store runs {label: run} in the JSON file `out` under "runs", next to
    the runs of other labels already there, and set its "about". Two runs
    written together were timed as a pair: each names the other in
    "paired_with"."""
    out = Path(out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["about"] = about
    stored = doc.setdefault("runs", {})
    for label, run in runs.items():
        stored[label] = run
        if len(runs) == 2:
            run["paired_with"] = next(other for other in runs if other != label)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote run{'s' if len(runs) > 1 else ''} {', '.join(map(repr, runs))} to {out}")
