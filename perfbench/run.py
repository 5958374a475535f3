"""prunekit end-to-end benchmark.

    python3 perfbench/run.py --workload conv-train --seed 1 --seconds 20 --trace 0

Workloads: conv-train, mlp-perstep, prune-sweep (see workloads.py). A run
writes its inputs from --seed under .perfbench/, checks the conv kernels
and block selection against reference implementations, sets up several
times, then repeats passes of the workload's user commands until
--seconds have elapsed. Outputs are checked after every pass.

Every time is CPU time of this process (calibrate.clock), multiplied by
the host's speed during the pass as the fixed reference tasks of
calibrate.py measure it, so that it reads as CPU seconds on the reference
host at its usual speed. Per pass, the scaled time, the CPU time, the
speed and the wall time are printed. setup_s is the CPU time of a fresh
interpreter importing prunekit's CLI (median of IMPORT_REPS processes)
plus the median of the workload's in-process set-ups, scaled the same way.

--trace 0 reports the end-to-end metrics, measured with only the probes
that define them. --trace 1 alternates untraced and traced passes and
reports the per-module metrics of the traced ones, plus the tracing
overhead (traced minus untraced run_s). Human-readable lines come first;
the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit code 0 when every check passed, 1 when a check or operation failed,
2 when prunekit cannot be imported from this checkout's src/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("conv-train", "mlp-perstep", "prune-sweep")
MIN_PASSES = 3
SETUP_SAMPLES = 10
IMPORT_REPS = 5
COMPUTED = {"kernels.flops", "kernels.gflops_per_s", "granularity.index_bytes"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_record(np):
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = None
    info["blas_threads"] = None
    try:
        import ctypes
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["blas_threads"] = fn()
                    break
    except OSError:
        pass
    return info


def env_record(np, prunekit):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "conv_backend": "numba" if getattr(prunekit.kernels, "USING_NUMBA", False) else "numpy",
        "nproc": len(os.sched_getaffinity(0)),
        **blas_record(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
    }


def median(values):
    return statistics.median(values) if values else float("nan")


def e2e_metrics(passes, spans, setup_s, peak_rss_mb):
    """The metrics of the JSON line, from untraced passes.

    spans: per pass, span name -> durations.
    """
    updates = [d for s in spans for d in s.get("sparsifier.update", ())]
    return {
        "run_s": (median([p.busy_s * p.scale for p in passes]), "s"),
        "setup_s": (setup_s, "s"),
        "update_ms_p50": (median(updates) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def report_extra(passes, spans, pass_steps):
    """Metrics printed above the JSON line only.

    Some apply to some workloads only. The checkpoint times apply to all,
    but one or two samples of 0.002-3 s a pass spread 0.27-0.58 (quartile
    distance over median) across ten seeds on 2 shared cores, wider than the
    largest regression bound BENCHMARK.json may set (0.25). run_s carries
    them on prune-sweep, where they are ~90% of a pass, and the traced run
    reports checkpoint.{save,load}.busy_s.
    Checkpoint times are summed per pass (prune-sweep loads two different
    files a pass), then the median is taken over passes.
    """
    extra = {}
    fits = [sum(s.get("train.fit", ())) for s in spans]
    if any(pass_steps):
        extra["train_steps_per_s"] = (median([n / f for n, f in zip(pass_steps, fits) if f]),
                                      "1/s")
    updates = [d for s in spans for d in s.get("sparsifier.update", ())]
    if len(updates) >= 100:
        extra["update_ms_p90"] = (statistics.quantiles(updates, n=10)[-1] * 1e3, "ms")
    extra["update_count"] = (len(updates), "count")
    prunes = [d * p.scale for p in passes for d in p.prune_s]
    if prunes:
        extra["prune_ms_p50"] = (median(prunes) * 1e3, "ms")
    extra["ckpt_save_s"] = (median([sum(s.get("checkpoint.save", ())) for s in spans]), "s")
    extra["ckpt_load_s"] = (median([sum(s.get("checkpoint.load", ())) for s in spans]), "s")
    accs = [p.final_acc for p in passes if p.final_acc is not None]
    if accs:
        extra["final_acc"] = (median(accs), "share")
    return extra


def main(argv=None):
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads. With two, OpenBLAS's second
    # thread spins on the other core and conv-train ran slower on 2 shared
    # cores (3.7 against 3.2 s a pass) and less steadily.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import prunekit
        import prunekit.cli
    except ImportError as exc:
        print(f"perfbench: cannot import prunekit from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(prunekit.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: prunekit imported from {prunekit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import numpy as np

    import calibrate
    import probes
    from tracer import Tracer
    from workloads import WORKLOADS

    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["PRUNEKIT_OUTPUT_ROOT"] = str(work)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env_record(np, prunekit), sort_keys=True))
    try:
        return run(args, prunekit, calibrate, probes, Tracer, WORKLOADS[args.workload], work,
                   out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def import_cpu_s(reps):
    """CPU seconds of a fresh interpreter that imports prunekit's CLI, as a
    user's first command does: the median of reps child processes."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import prunekit.cli"
    times = []
    for _ in range(reps):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", code], check=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return median(times)


def run(args, prunekit, calibrate, probes, Tracer, workload_cls, work, out_dir):
    wl = workload_cls(prunekit, work, args.seed)
    wl.prepare()

    gate = wl.gate_checks()
    attempted, failed = len(gate), sum(not ok for _, ok in gate)
    print(f"gate: {attempted} checks against reference implementations, {failed} failed")
    for name, ok in gate:
        if not ok:
            print(f"  MISMATCH {name}")
    if failed:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    around = [calibrate.sample(wl.reference) for _ in range(SETUP_SAMPLES)]
    import_s = import_cpu_s(IMPORT_REPS)
    setups = [wl.setup() for _ in range(wl.setup_reps)]
    around += [calibrate.sample(wl.reference) for _ in range(SETUP_SAMPLES)]
    setup_scale = calibrate.speed(around)
    setup_s = (import_s + median(setups)) * setup_scale
    print(f"setup: (import, median of {IMPORT_REPS} processes, {import_s:.4f} s + median of {len(setups)} "
          f"[{', '.join(f'{s:.4f}' for s in setups)}] s CPU) x speed {setup_scale:.4f}")

    shapes = probes.kernel_shape_timings(prunekit.kernels) if args.trace else {}

    tracer = Tracer()
    plain, plain_spans, plain_steps, traced, traced_metrics = [], [], [], [], []
    digests = set()
    min_plain, min_traced = (2, 2) if args.trace else (MIN_PASSES, 0)
    began = time.perf_counter()
    while (time.perf_counter() - began < args.seconds
           or len(plain) < min_plain or len(traced) < min_traced):
        use_trace = bool(args.trace) and len(traced) < len(plain)
        tracer.reset()
        tracer.install(probes.targets(prunekit, use_trace))
        try:
            with calibrate.Sampler(wl.reference) as sampler:
                p = wl.run_pass(tracer)
        finally:
            tracer.uninstall()
        p.scale = calibrate.speed(sampler.samples)
        wl.finish(p)
        attempted += p.attempted
        failed += p.failed
        for note in p.notes:
            print(f"  FAILED {note}", file=sys.stderr)
        if p.digest is not None:
            digests.add(p.digest)
        if use_trace:
            traced.append(p)
            traced_metrics.append(probes.layer_metrics(tracer))
            if len(traced) == 1:
                write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", tracer)
        else:
            plain.append(p)
            plain_spans.append({name: [d * p.scale for d in tracer.durations(name)]
                                for name in ("train.fit", "sparsifier.update",
                                             "checkpoint.save", "checkpoint.load")})
            plain_steps.append(tracer.stats["train.steps"])
        print(f"pass {len(plain) + len(traced)} ({'traced' if use_trace else 'untraced'}): "
              f"{p.busy_s * p.scale:.4f} s = {p.busy_s:.4f} s CPU x speed {p.scale:.4f} "
              f"({p.wall_s:.4f} s wall), {p.attempted} operations, {p.failed} failed")

    attempted += 1  # determinism: every pass of this seed gives the same masks
    if len(digests) != 1:
        failed += 1
        print(f"  FAILED final masks differ between passes or are missing: {sorted(digests)}",
              file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = e2e_metrics(plain, plain_spans, setup_s, peak_rss_mb)
    for name, (value, unit) in e2e.items():
        if not value > 0:  # no samples: a probed function was not called
            attempted += 1
            failed += 1
            print(f"  FAILED {name} was not measured", file=sys.stderr)
            e2e[name] = (0.0, unit)
    extra = report_extra(plain, plain_spans, plain_steps)
    extra["fail_share"] = (failed / attempted, "share")
    print(f"end-to-end, median of {len(plain)} untraced passes:")
    for name, (value, unit) in {**e2e, **extra}.items():
        print(f"  {name:<20} {value:>14.6g} {unit}")
    print(f"masks_sha256 {args.workload} seed={args.seed}: "
          f"{next(iter(digests)) if len(digests) == 1 else sorted(digests)}")

    if args.trace:
        layer = {name: statistics.median(m[name] for m in traced_metrics)
                 for name in traced_metrics[0]}
        layer.update(shapes)
        plain_run_s = e2e["run_s"][0]
        layer["trace.overhead_s"] = median([p.busy_s * p.scale for p in traced]) - plain_run_s
        layer["trace.overhead_share"] = (layer["trace.overhead_s"] / plain_run_s
                                         if plain_run_s else 0.0)
        print(f"per-module, median of {len(traced)} traced passes (busy = inclusive, "
              f"self = minus child spans; single-threaded, so every span is on the "
              f"blocking path):")
        for name, value in layer.items():
            label = " (computed)" if name in COMPUTED else ""
            print(f"  {name:<36} {value:>14.6g} {unit_of(name)}{label}")
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def unit_of(name):
    if name == "kernels.gflops_per_s":
        return "GFLOP/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("share") or name.endswith("churn_mean"):
        return "share"
    if name == "kernels.flops":
        return "flop"
    return "count"


def write_spans(path, tracer):
    """Raw spans of one traced pass: one JSON list [name, start, end, parent] a line."""
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
