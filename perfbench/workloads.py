"""The benchmark's workloads.

Each workload writes its inputs (a config or a checkpoint) from the seed,
sets up the way a user's first command does, and then runs passes. A pass
is the workload's user commands, run in this process through
``prunekit.cli.main`` and the ``Sparsifier`` API. Every command and prune
is one attempted operation; a non-zero exit, an exception or a failed
output check counts it as failed.

  conv-train   `prunekit run` + `prunekit inspect` on a conv patterns8x8
               model, masks updated once per epoch. Conv kernels dominate;
               mask updates are under 2% of the run.
  mlp-perstep  `prunekit run` + `prunekit inspect` on a dense 2-256-256-2
               MLP with masks recomputed at every step. No conv kernel;
               selection dominates and update_log grows with every update.
  prune-sweep  a conv-only checkpoint loaded once, Sparsifier.prune_model
               over granularity x context, then `prunekit prune` and
               `prunekit inspect`. No training; selection at ~1.7*10^5
               weights and checkpoint writes next to reads.
"""

import contextlib
import hashlib
import io
import json
import time
import traceback

import numpy as np

import gate
from calibrate import clock


def masks_digest(masks):
    h = hashlib.sha256()
    for m in masks:
        h.update(repr(tuple(m.shape)).encode())
        h.update((np.asarray(m) != 0).tobytes())
    return h.hexdigest()


class Pass:
    """What one pass measured and checked."""

    def __init__(self):
        self.busy_s = 0.0  # CPU seconds, calibrate.clock
        self.wall_s = 0.0
        self.scale = 1.0  # host speed during the pass, calibrate.speed
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.digest = None
        self.final_acc = None
        self.prune_s = []
        self.model = None  # the model the pass saved last

    def verify(self, tag, checks):
        """Output checks of one operation; the operation fails once if any fails."""
        bad = [name for name, ok in checks if not ok]
        if bad:
            self.failed += 1
            self.notes.append(f"{tag}: failed {'; '.join(bad)}")
        return not bad

    @contextlib.contextmanager
    def timed(self):
        start, wall = clock(), time.perf_counter()
        try:
            yield
        finally:
            self.busy_s += clock() - start
            self.wall_s += time.perf_counter() - wall


class Workload:
    name = ""
    setup_reps = 3
    reference = ("dense",)  # calibrate.TASKS that scale its times

    def __init__(self, prunekit, work, seed):
        self.pk, self.work, self.seed = prunekit, work, seed

    def command(self, p, argv):
        """One CLI command; True when it exits 0 without raising."""
        p.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        try:
            with p.timed(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.pk.cli.main(argv)
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        if rc != 0:
            p.failed += 1
            p.notes.append(f"prunekit {' '.join(argv)} -> {rc}: {err.getvalue().strip()}")
        return rc == 0

    def finish(self, p):
        """Work on a pass's outputs that is neither timed nor traced."""


class TrainWorkload(Workload):
    """`prunekit run` then `prunekit inspect` on a generated config."""

    setup_reps = 5
    config = None  # filled in by subclasses

    def prepare(self):
        doc = json.loads(json.dumps(self.config))
        doc["seed"] = self.seed
        doc["output_dir"] = self.name
        self.config_path = self.work / f"{self.name}.json"
        self.config_path.write_text(json.dumps(doc, indent=1))
        self.ckpt_path = self.work / self.name / "checkpoint.json"
        self.final_sparsity = doc["prune"]["sparsity"]

    def gate_checks(self):
        return gate.check_selection(self.pk, self.config["model"], self.gate_granularities,
                                    37.5, self.seed)

    def setup(self):
        """Config load, dataset generation and model init, as `run` does them."""
        from prunekit.config import load_config
        from prunekit.datasets import make_dataset, train_eval_split
        from prunekit.rng import Rng

        start = clock()
        config = load_config(self.config_path)
        rng = Rng(config.seed)
        data = make_dataset(config.dataset, rng.child("data"))
        config.build_model(rng.child("init"))
        elapsed = clock() - start
        self.eval_split = train_eval_split(*data)[1]
        return elapsed

    def run_pass(self, tracer):
        p = Pass()
        model = None
        if self.command(p, ["run", str(self.config_path)]):
            model = tracer.state.pop("saved", None)
            masks = [] if model is None else [l.mask for l in model.prunable_layers()]
            present = bool(masks) and all(m is not None for m in masks)
            exact = False
            if present:
                zeros = sum(np.count_nonzero(m == 0) for m in masks)
                # weight granularity, global context: every weight is a block
                exact = zeros == gate.pruned_blocks(sum(m.size for m in masks),
                                                    self.final_sparsity)
                p.digest = masks_digest(masks)
            p.verify("prunekit run", [("saved a pruned model", present),
                                      ("final sparsity = floor(n*s/100)/n", exact)])
        self.command(p, ["inspect", str(self.ckpt_path)])
        p.model = model
        return p

    def finish(self, p):
        if p.model is not None:
            x_eval, y_eval = self.eval_split
            p.final_acc = self.pk.accuracy(p.model, x_eval, y_eval)
            p.model = None


class ConvTrain(TrainWorkload):
    name = "conv-train"
    reference = ("conv", "dense")
    gate_granularities = ("weight", "row")
    config = {
        "name": "conv-train",
        "model": [
            {"kind": "conv2d", "in_ch": 1, "out_ch": 8, "kx": 3, "ky": 3}, {"kind": "relu"},
            {"kind": "conv2d", "in_ch": 8, "out_ch": 16, "kx": 3, "ky": 3}, {"kind": "relu"},
            {"kind": "flatten"}, {"kind": "dense", "in": 256, "out": 2},
        ],
        "dataset": {"kind": "patterns8x8", "n": 4000, "noise": 0.1},
        "train": {"epochs": 10, "batch_size": 32, "learning_rate": 0.05},
        "prune": {"sparsity": 80, "granularity": "weight", "context": "global",
                  "criterion": "large_final", "schedule": {"kind": "gradual"}},
    }
    # (input, weight) shapes of the two conv layers at the gate's batch of 4
    layer_shapes = [((4, 1, 8, 8), (1, 8, 3, 3)), ((4, 8, 6, 6), (8, 16, 3, 3))]

    def gate_checks(self):
        return gate.check_kernels(self.pk.kernels, self.layer_shapes, self.seed) + \
            super().gate_checks()


class MlpPerStep(TrainWorkload):
    name = "mlp-perstep"
    gate_granularities = ("weight", "column")
    # 1600 training samples / batch 32 = 50 steps per epoch, so
    # update_frequency 50 recomputes the masks after every step.
    # large_final, not magnitude_increase: with per-step updates
    # magnitude_increase collapses most seeds to chance accuracy, dead units
    # then score exactly 0, and the sort over the tied scores made the update
    # cost differ by 30% between seeds.
    config = {
        "name": "mlp-perstep",
        "model": [
            {"kind": "dense", "in": 2, "out": 256}, {"kind": "relu"},
            {"kind": "dense", "in": 256, "out": 256}, {"kind": "relu"},
            {"kind": "dense", "in": 256, "out": 2},
        ],
        "dataset": {"kind": "blobs2d", "n": 2000, "separation": 4.0},
        "train": {"epochs": 10, "batch_size": 32, "learning_rate": 0.05},
        "prune": {"sparsity": 80, "granularity": "weight", "context": "global",
                  "criterion": "large_final",
                  "schedule": {"kind": "gradual", "update_frequency": 50}},
    }


class PruneSweep(Workload):
    """Static pruning of a conv-only checkpoint of ~1.7*10^5 weights.

    At 6.6*10^5 weights (arrays of 5 MB, JSON checkpoints of 20-50 MB) the
    median pass time moved by up to 59% between sets of ten runs of the
    same code on 2 shared cores, while conv-train, whose arrays stay in
    cache, moved 3%. A smaller working set drifts less with the load of
    the machine's other tenants.
    """

    name = "prune-sweep"
    reference = ("dense", "json")
    specs = [{"kind": "conv2d", "in_ch": a, "out_ch": b, "kx": 3, "ky": 3}
             for a, b in ((48, 96), (96, 96), (96, 48))]
    granularities = ("weight", "kernel", "filter", "channel")
    contexts = ("local", "global")

    def prepare(self):
        from prunekit import checkpoint
        from prunekit.rng import Rng

        rng = Rng(self.seed)
        model = self.pk.Model.from_specs(self.specs, rng.child("init"))
        start = self.pk.Model.from_specs(self.specs, rng.child("history"))
        for layer, hist in zip(model.prunable_layers(), start.prunable_layers()):
            layer.history = hist.weights
        self.ckpt_path = self.work / "dense.json"
        self.pruned_path = self.work / "pruned.json"
        checkpoint.save(self.ckpt_path, model, meta={"name": self.name, "seed": self.seed})
        # fixed, not drawn from the seed: pruned weights serialise as "0.0",
        # so the sparsity sets the size of the pruned checkpoint
        self.sweep_sparsity = 50.0
        self.cli_sparsity = 70.0

    def gate_checks(self):
        return gate.check_selection(self.pk, self.specs, ("weight", "kernel"),
                                    self.sweep_sparsity, self.seed)

    def setup(self):
        """Checkpoint load, up to the first prune."""
        from prunekit import checkpoint

        start = clock()
        self.model = checkpoint.load(self.ckpt_path).model
        return clock() - start

    @staticmethod
    def _mask_checks(masks, spanned, context, sparsity):
        counts = [gate.block_counts(m, spanned) for m in masks]
        if context == "local":
            exact = all(k == gate.pruned_blocks(n, sparsity) for n, k, _ in counts)
        else:
            exact = sum(k for _, k, _ in counts) == gate.pruned_blocks(
                sum(n for n, _, _ in counts), sparsity)
        return [("masks binary", all(np.all((m == 0) | (m == 1)) for m in masks)),
                ("blocks pure", all(pure for _, _, pure in counts)),
                ("pruned blocks = floor(n_blocks*s/100)", exact)]

    def run_pass(self, tracer):
        p = Pass()
        sparsifier_cls = self.pk.Sparsifier
        for gran in self.granularities:
            for context in self.contexts:
                p.attempted += 1
                tag = f"prune {gran}/{context} s={self.sweep_sparsity}"
                try:
                    with p.timed():
                        model = self.model.copy()
                        start = clock()
                        masks = sparsifier_cls(model, gran, context, "large_final") \
                            .prune_model(self.sweep_sparsity)
                        p.prune_s.append(clock() - start)
                except Exception:
                    p.failed += 1
                    p.notes.append(f"{tag}: {traceback.format_exc()}")
                    continue
                p.verify(tag, self._mask_checks(masks, gate.SPANNED[(4, gran)], context,
                                                self.sweep_sparsity))
                del model, masks
        argv = ["prune", str(self.ckpt_path), "--sparsity", str(self.cli_sparsity),
                "--granularity", "kernel", "--context", "global",
                "--criterion", "magnitude_increase", "--out", str(self.pruned_path)]
        if self.command(p, argv):
            model = tracer.state.pop("saved", None)
            masks = [] if model is None else [l.mask for l in model.prunable_layers()]
            if p.verify("prunekit prune", [("saved a pruned model",
                                            bool(masks) and all(m is not None for m in masks))]):
                p.verify("prunekit prune", self._mask_checks(
                    masks, gate.SPANNED[(4, "kernel")], "global", self.cli_sparsity))
                p.digest = masks_digest(masks)
        self.command(p, ["inspect", str(self.pruned_path)])
        return p


WORKLOADS = {w.name: w for w in (ConvTrain, MlpPerStep, PruneSweep)}

