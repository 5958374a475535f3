"""What the benchmark scripts share: their flags, loading a source tree,
the environment record, the order in which two trees alternate, the
"faster in N/R rounds" line and writing runs into the output JSON.

A script that times one tree builds its parser with argument_parser()
and loads the tree with load_prunekit(). A script that times a pair
passes rounds_help to argument_parser(), which adds --baseline and
--rounds, takes its trees from trees(), times them in the order of
alternate() and reports each case with report_faster(). write_runs()
stores every run under its label, next to the runs already in the file.
"""

import argparse
import importlib.util
import json
import os
import platform
import sys
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
