"""Command-line experiment runner.

Subcommands: run, schedule, prune, inspect. Exit codes: 0 success,
1 runtime failure, 2 config/usage error. PRUNEKIT_OUTPUT_ROOT overrides
the output root directory; --seed overrides the config seed.

main(argv) may be called repeatedly in one process: the parser is built
once, and each subcommand is looked up by name (cmd_<command>) in this
module at call time, so a patched cmd_* takes effect on the next call.
"""

import argparse
import csv
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import checkpoint
from .config import ConfigError, load_config
from .criteria import CRITERIA, Criterion
from .fields import FieldError, integer, percent
from .rng import Rng
from .schedule import ScheduleSpec, eval_schedule
from .selection import CONTEXTS
from .sparsifier import Sparsifier, SparsifyCallback, SparsifyPlan, model_sparsity
from .svgplot import line_chart
from .tensor import sparsity_of
from .train import Callback, TrainingAborted, accuracy, fit


def _out_root() -> Path:
    return Path(os.environ.get("PRUNEKIT_OUTPUT_ROOT", "."))


def _run_dir(config) -> Path:
    sub = config.output_dir or f"{config.name}-seed{config.seed}"
    path = _out_root() / sub
    path.mkdir(parents=True, exist_ok=True)
    return path


def _fmt(v) -> str:
    return repr(float(v)) if isinstance(v, float) else str(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


class _FinalEval(Callback):
    """Registered last: the accuracy of the weights fit returns, on the
    run's own eval split, once every other callback's on_train_end ran."""

    def on_train_end(self, state):
        self.accuracy = accuracy(state["model"], state["x_eval"], state["y_eval"])


def cmd_run(args) -> int:
    """Train the config's model under its plan, if any. Writes metrics.csv,
    checkpoint.json, summary.txt and metrics.svg and, when the plan sets
    lth, one ticket_<round>.json per ticket and rounds.csv. If training
    aborts, it saves the model as crash_checkpoint.json and re-raises."""
    config = load_config(args.config, seed_override=args.seed)
    out = _run_dir(config)
    rng = Rng(config.seed)
    plan = config.plan
    callback = None if plan is None else SparsifyCallback(plan, rng=rng.child("criterion"))
    final_eval = _FinalEval()
    model = config.build_model(rng.child("init"))
    try:
        model, log = fit(model, config.train,
                         callbacks=([] if callback is None else [callback]) + [final_eval])
    except TrainingAborted:  # save the model as it was when training stopped
        checkpoint.save(out / "crash_checkpoint.json", model,
                        meta={"name": config.name, "seed": config.seed, "aborted": True})
        raise
    rows = [list(r.values()) for r in log]
    _write_csv(out / "metrics.csv", list(log[0]), rows)
    if plan is not None and plan.lth:
        _write_tickets(out, config, callback)
    checkpoint.save(out / "checkpoint.json", model,
                    rewind_snapshot=None if callback is None else callback.rewind_snapshot,
                    plan=None if plan is None else plan.to_dict(),
                    metrics_tail=rows[-5:],
                    meta={"name": config.name, "seed": config.seed})
    last = log[-1]
    with open(out / "summary.txt", "w") as fh:
        fh.write(f"experiment: {config.name}\nseed: {config.seed}\n"
                 f"epochs: {config.train.epochs}\n"
                 f"final train_loss: {last['train_loss']:.6f}\n"
                 f"final train_acc: {last['train_acc']:.4f}\n"
                 f"final model_sparsity: {last['model_sparsity']:.4f}\n"
                 f"final eval_acc: {final_eval.accuracy:.4f}\n")
    line_chart([("train_loss", [i for i in range(len(log))], [r["train_loss"] for r in log]),
                ("model_sparsity/100", [i for i in range(len(log))],
                 [r["model_sparsity"] for r in log])],
               out / "metrics.svg", title=config.name, xlabel="step")
    print(f"wrote {out}/metrics.csv, checkpoint.json, summary.txt")
    return 0


def _write_tickets(out: Path, config, callback) -> None:
    """One checkpoint per ticket, its weights the rewind snapshot under the
    ticket's masks, and rounds.csv with one row per ticket."""
    snapshot = callback.rewind_snapshot
    rows = []
    for ticket in callback.tickets:
        ticket_model = config.build_model()
        for layer, (w, b), mask in zip(ticket_model.prunable_layers(), snapshot, ticket.masks):
            layer.weights, layer.bias, layer.mask = w * mask, b, mask
        checkpoint.save(out / f"ticket_{ticket.round}.json", ticket_model,
                        rewind_snapshot=snapshot, plan=config.plan.to_dict(),
                        meta={"name": config.name, "seed": config.seed, "round": ticket.round,
                              "target_sparsity": ticket.target_sparsity})
        rows.append((ticket.round, ticket.target_sparsity, ticket.accuracy, ticket.mask_sparsity))
    _write_csv(out / "rounds.csv", ["round", "sparsity", "accuracy", "model_sparsity"], rows)
    print(f"wrote {len(rows)} tickets and rounds.csv to {out}")


# ScheduleSpec fields that `prunekit schedule` sets from a flag
SCHEDULE_FLAGS = {"n_steps": "--n-steps", "alpha": "--alpha", "beta": "--beta"}


def cmd_schedule(args) -> int:
    try:
        integer(args.samples, "--samples", low=2)
        spec = ScheduleSpec(kind=args.kind, n_steps=args.n_steps, alpha=args.alpha, beta=args.beta)
        sparsity = percent(args.sparsity, "--sparsity")
        ts = [i / (args.samples - 1) for i in range(args.samples)]
        values = [percent(eval_schedule(spec, t, sparsity), f"{args.kind} at t={t!r}") for t in ts]
    except FieldError as exc:
        print(f"error: {FieldError(SCHEDULE_FLAGS.get(exc.field, exc.field), exc.problem)}",
              file=sys.stderr)
        return 2
    out = _out_root()
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / f"schedule_{args.kind}.csv", ["t", "sparsity"], list(zip(ts, values)))
    line_chart([(args.kind, ts, values)], out / f"schedule_{args.kind}.svg",
               title=f"{args.kind} schedule", xlabel="t", ylabel="sparsity %")
    print(f"wrote schedule_{args.kind}.csv and schedule_{args.kind}.svg")
    return 0


def _flag_error(exc: FieldError) -> int:
    """Report a plan field set from the command line as a usage error naming its flag."""
    print(f"error: --{exc}", file=sys.stderr)
    return 2


def _report(model, plan: SparsifyPlan | None) -> None:
    """Print each prunable layer's sparsity by its model index, then the
    sparsity over the masked layers. Every mask is binary, as a checkpoint
    stores it in bits, and, if there is a plan, block-pure under it:
    checkpoint.load checks that, and the Sparsifier makes masks that way."""
    blocks = "n/a" if plan is None else "ok"
    masked = []
    for i, layer in enumerate(model.layers):
        if not layer.prunable:
            continue
        about = f"layer {i} ({layer.kind} {list(layer.weights.shape)}):"
        if layer.mask is None:
            print(f"{about} no mask, sparsity 0.0000")
        else:
            print(f"{about} sparsity {sparsity_of(layer.mask):.4f}, blocks {blocks}")
            masked.append(layer)
    if masked:
        print(f"global sparsity: {model_sparsity(masked):.4f}")


def cmd_prune(args) -> int:
    try:
        plan = SparsifyPlan(args.sparsity, args.granularity, args.context, args.criterion,
                            schedule=None)
    except FieldError as exc:
        return _flag_error(exc)
    ckpt = checkpoint.load(args.checkpoint)
    model = ckpt.model
    try:
        plan.check_model(model)
    except FieldError as exc:
        if not exc.field:  # about the checkpoint, not a flag
            raise
        return _flag_error(exc)
    if Criterion(plan.criterion).reads == "history":
        for i, layer in enumerate(model.layers):
            if layer.prunable and layer.history is None:
                raise FieldError(f"layers[{i}].history", f"null, and {plan.criterion!r} reads it")
            if layer.prunable and np.array_equal(layer.history, layer.weights):
                raise FieldError(f"layers[{i}].history", f"equals the weights, so every "
                                                         f"{plan.criterion!r} score is 0")
    Sparsifier(model, plan.granularity, plan.context, plan.criterion,
               rng=Rng(args.seed)).prune_model(plan.sparsity)
    out_path = args.out or str(args.checkpoint) + ".pruned.json"
    checkpoint.save(out_path, model, plan=plan.to_dict(), meta=dict(ckpt.meta, pruned=True))
    print(f"wrote {out_path}")
    _report(model, plan)
    return 0


def cmd_inspect(args) -> int:
    ckpt = checkpoint.load(args.checkpoint)
    _report(ckpt.model, ckpt.plan)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prunekit",
                                     description="declarative sparsification experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train with optional dynamic pruning")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)

    p_sched = sub.add_parser("schedule", help="sample a schedule to CSV + SVG")
    p_sched.add_argument("kind")
    p_sched.add_argument("--samples", type=int, default=101)
    p_sched.add_argument("--sparsity", type=float, default=50.0)
    p_sched.add_argument("--alpha", type=float, default=ScheduleSpec.alpha)
    p_sched.add_argument("--beta", type=float, default=ScheduleSpec.beta)
    p_sched.add_argument("--n-steps", type=int, default=ScheduleSpec.n_steps)

    p_prune = sub.add_parser("prune", help="statically prune a checkpoint")
    p_prune.add_argument("checkpoint")
    p_prune.add_argument("--sparsity", type=float, required=True)
    p_prune.add_argument("--granularity", default=SparsifyPlan.granularity)
    p_prune.add_argument("--context", default=SparsifyPlan.context, choices=CONTEXTS)
    p_prune.add_argument("--criterion", default=SparsifyPlan.criterion, choices=CRITERIA)
    p_prune.add_argument("--seed", type=int, default=0)
    p_prune.add_argument("--out", default=None)

    p_inspect = sub.add_parser("inspect", help="report checkpoint contents and integrity")
    p_inspect.add_argument("checkpoint")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ValueError, OSError, TrainingAborted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
