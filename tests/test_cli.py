import json
import os
from pathlib import Path

import numpy as np
import pytest

from prunekit import accuracy, checkpoint, make_dataset, train, train_eval_split
from prunekit.cli import main
from prunekit.config import load_config
from prunekit.criteria import CRITERIA, Criterion
from prunekit.layers import Model
from prunekit.rng import Rng
from prunekit.selection import CONTEXTS
from prunekit.sparsifier import SparsifyCallback, model_sparsity

from checkpoint_files import at, edit_array, edit_header, file_bytes, join, split

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BASE_CONFIG = {
    "name": "demo",
    "seed": 42,
    "model": [{"kind": "dense", "in": 2, "out": 16}, {"kind": "relu"},
              {"kind": "dense", "in": 16, "out": 2}],
    "dataset": {"kind": "blobs2d", "n": 200, "separation": 4.0},
    "train": {"epochs": 4, "batch_size": 32, "learning_rate": 0.1},
    "prune": {"sparsity": 50, "granularity": "weight", "context": "local",
              "criterion": "large_final", "schedule": {"kind": "one_shot"}},
}


PATTERNS = {"kind": "patterns8x8", "n": 200, "noise": 0.1}
# sizes that do not chain: only a relu, or nothing, lies between the two layers
UNCHAINED_DENSE = [{"kind": "dense", "in": 2, "out": 16}, {"kind": "relu"},
                   {"kind": "dense", "in": 8, "out": 2}]
UNCHAINED_CONV = [{"kind": "conv2d", "in_ch": 1, "out_ch": 8, "kx": 3, "ky": 3},
                  {"kind": "conv2d", "in_ch": 4, "out_ch": 2, "kx": 3, "ky": 3}]
# layers of different kinds whose ranks do not chain
DENSE_INTO_CONV = [{"kind": "dense", "in": 2, "out": 4}, {"kind": "relu"},
                   {"kind": "conv2d", "in_ch": 4, "out_ch": 2, "kx": 1, "ky": 1}]
CONV_INTO_DENSE = [{"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kx": 3, "ky": 3},
                   {"kind": "dense", "in": 2, "out": 2}]
# conv -> relu -> flatten -> dense
FUZZ_MODEL = [{"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kx": 3, "ky": 3}, {"kind": "relu"},
              {"kind": "flatten"}, {"kind": "dense", "in": 72, "out": 2}]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("PRUNEKIT_OUTPUT_ROOT", str(tmp_path))
    return tmp_path


def write_config(path, **overrides):
    doc = json.loads(json.dumps(BASE_CONFIG))
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    path.write_text(json.dumps(doc))
    return path


def test_run_produces_artifacts(workdir):
    cfg = write_config(workdir / "cfg.json")
    assert main(["run", str(cfg)]) == 0
    out = workdir / "demo-seed42"
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,step,train_loss,train_acc,model_sparsity,target_sparsity"
    assert len(lines) - 1 == 4 * 5  # epochs * ceil(160/32)
    assert (out / "checkpoint.json").exists()
    assert (out / "summary.txt").exists()


def test_run_deterministic_bytes(workdir):
    cfg = write_config(workdir / "cfg.json", output_dir="a")
    assert main(["run", str(cfg)]) == 0
    first_metrics = (workdir / "a" / "metrics.csv").read_bytes()
    first_ckpt = (workdir / "a" / "checkpoint.json").read_bytes()
    cfg2 = write_config(workdir / "cfg2.json", output_dir="b")
    assert main(["run", str(cfg2)]) == 0
    assert (workdir / "b" / "metrics.csv").read_bytes() == first_metrics
    assert (workdir / "b" / "checkpoint.json").read_bytes() == first_ckpt


def test_seed_override_changes_output(workdir):
    cfg = write_config(workdir / "cfg.json", output_dir="a")
    main(["run", str(cfg)])
    cfg2 = write_config(workdir / "cfg2.json", output_dir="b")
    main(["run", str(cfg2), "--seed", "7"])
    assert (workdir / "a" / "metrics.csv").read_bytes() != (workdir / "b" / "metrics.csv").read_bytes()


def test_invalid_granularity_exit_2(workdir, capsys):
    cfg = write_config(workdir / "cfg.json", prune={"granularity": "hexagon"})
    assert main(["run", str(cfg)]) == 2
    assert "granularity" in capsys.readouterr().err


@pytest.mark.parametrize("field, model", [
    ("model[0].out: missing", [{"kind": "dense", "in": 2}]),
    ("model[2].in: not a positive integer: 0",
     [{"kind": "dense", "in": 2, "out": 16}, {"kind": "relu"}, {"kind": "dense", "in": 0, "out": 2}]),
    ("model[0].kx: not an integer: 'three'",
     [{"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kx": "three", "ky": 3}]),
    ("model[1].kind: unknown layer kind 'gelu'", [{"kind": "dense", "in": 2, "out": 2},
                                                  {"kind": "gelu"}]),
    ("model[0].in: not an integer: 2.7", [{"kind": "dense", "in": 2.7, "out": 2}]),
    ("model[0].out: not an integer: '16'", [{"kind": "dense", "in": 2, "out": "16"}]),
    ("model[0].ky: not an integer: True",
     [{"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kx": 3, "ky": True}]),
    ("model[0].stride: unknown key",
     [{"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kx": 3, "ky": 3, "stride": 2}]),
    ("model[2].in: 8, but its input is [16]", UNCHAINED_DENSE),
    # a (model, dataset) pair runs on that dataset instead of BASE_CONFIG's blobs2d
    ("model[1].in_ch: 4, but its input is [8, 6, 6]", (UNCHAINED_CONV, PATTERNS)),
    ("model[3].in: 100, but its input is [288]",
     ([{"kind": "conv2d", "in_ch": 1, "out_ch": 8, "kx": 3, "ky": 3}, {"kind": "relu"},
       {"kind": "flatten"}, {"kind": "dense", "in": 100, "out": 2}], PATTERNS)),
    ("model[0].in: 2, but its input is [1, 8, 8]", ([{"kind": "dense", "in": 2, "out": 2}], PATTERNS)),
    ("model[2].in_ch: 4, but its input is [4]", DENSE_INTO_CONV),
    ("model[0].kx: 9, but its input is [1, 8, 8]",
     ([{"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kx": 9, "ky": 3}], PATTERNS)),
    # the loss needs one score per class, and both dataset kinds have 2 classes
    ("model[2]: output shape [1] is not a vector of at least 2 class scores",
     [{"kind": "dense", "in": 2, "out": 4}, {"kind": "relu"}, {"kind": "dense", "in": 4, "out": 1}]),
    ("model[0]: output shape [2, 6, 6] is not a vector of at least 2 class scores",
     ([{"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kx": 3, "ky": 3}], PATTERNS)),
])
def test_bad_model_spec_exit_2(workdir, capsys, field, model):
    model, dataset = model if isinstance(model, tuple) else (model, BASE_CONFIG["dataset"])
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps(dict(BASE_CONFIG, model=model, dataset=dataset)))
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.strip() == f"config error at {field}"
    assert [p.name for p in workdir.iterdir()] == ["cfg.json"]


def test_huge_model_size_exit_2(workdir, capsys):
    cfg = write_config(workdir / "cfg.json", model=[{"kind": "dense", "in": 2, "out": 2**62}])
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error at model[0]: array is too big")


def test_missing_seed_exit_2(workdir, capsys):
    doc = json.loads(json.dumps(BASE_CONFIG))
    del doc["seed"]
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.strip() == "config error at seed: missing"


def test_name_not_a_string_exit_2(workdir, capsys):
    cfg = write_config(workdir / "cfg.json", name={"a": 1})
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.strip() == "config error at name: not a string: {'a': 1}"
    assert [p.name for p in workdir.iterdir()] == ["cfg.json"]


def test_schedule_command(workdir):
    assert main(["schedule", "one_cycle", "--samples", "101", "--sparsity", "80"]) == 0
    rows = (workdir / "schedule_one_cycle.csv").read_text().splitlines()[1:]
    assert len(rows) == 101
    assert float(rows[-1].split(",")[1]) == 80.0
    assert (workdir / "schedule_one_cycle.svg").read_text().startswith("<svg")


def test_schedule_dsd_symmetric(workdir):
    main(["schedule", "dsd", "--samples", "101"])
    vals = [float(r.split(",")[1]) for r in
            (workdir / "schedule_dsd.csv").read_text().splitlines()[1:]]
    for a, b in zip(vals, reversed(vals)):
        assert abs(a - b) < 1e-12


def test_schedule_iterative_distinct_values(workdir):
    main(["schedule", "iterative", "--samples", "101", "--n-steps", "5"])
    vals = {float(r.split(",")[1]) for r in
            (workdir / "schedule_iterative.csv").read_text().splitlines()[1:]}
    assert len(vals) == 6


def test_schedule_unknown_kind(workdir):
    assert main(["schedule", "mystery"]) == 2


@pytest.mark.parametrize("argv, field", [
    (["gradual", "--samples", "1"], "--samples"),
    (["gradual", "--samples", "0"], "--samples"),
    (["one_cycle", "--alpha", "-1000"], "--alpha"),
    (["one_cycle", "--beta", "710"], "--beta"),
    (["one_cycle", "--alpha", "-1", "--sparsity", "80", "--samples", "3"], "one_cycle at t=0.0"),
    (["gradual", "--sparsity", "150"], "--sparsity"),
    (["gradual", "--n-steps", "0"], "--n-steps"),
    (["gradual", "--alpha", "3"], "--alpha"),
    (["one_cycle", "--n-steps", "9"], "--n-steps"),
])
def test_schedule_bad_arguments_exit_2(workdir, capsys, argv, field):
    assert main(["schedule"] + argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not list(workdir.iterdir())


def test_prune_command(workdir):
    model = Model.from_specs(BASE_CONFIG["model"], Rng(1).child("init"))
    src = workdir / "dense.json"
    checkpoint.save(src, model)
    out = workdir / "pruned.json"
    assert main(["prune", str(src), "--sparsity", "50", "--granularity", "weight",
                 "--context", "local", "--criterion", "large_final", "--out", str(out)]) == 0
    ckpt = checkpoint.load(out)
    for layer in ckpt.model.prunable_layers():
        expected = int(np.floor(layer.mask.size * 50 / 100.0))
        assert int((layer.mask == 0).sum()) == expected


def test_prune_zero_sparsity_identity(workdir):
    model = Model.from_specs(BASE_CONFIG["model"], Rng(2).child("init"))
    src = workdir / "dense.json"
    checkpoint.save(src, model)
    out = workdir / "out.json"
    main(["prune", str(src), "--sparsity", "0", "--out", str(out)])
    ckpt = checkpoint.load(out)
    for orig, pruned in zip(model.prunable_layers(), ckpt.model.prunable_layers()):
        np.testing.assert_array_equal(orig.weights, pruned.weights)


@pytest.mark.parametrize("argv, flag", [
    (["--sparsity", "150"], "--sparsity"),
    (["--sparsity", "nan"], "--sparsity"),
    (["--sparsity", "50", "--granularity", "kernel"], "--granularity"),
    (["--sparsity", "50", "--granularity", "0,5"], "--granularity"),
])
def test_prune_bad_flag_exit_2(workdir, capsys, argv, flag):
    src = workdir / "dense.json"
    checkpoint.save(src, Model.from_specs(BASE_CONFIG["model"], Rng(3).child("init")))
    assert main(["prune", str(src)] + argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert sorted(workdir.iterdir()) == [src]


def test_prune_history_criterion_without_history(workdir, capsys):
    """A checkpoint that holds no history, saved by hand or by a large_final
    run, cannot be pruned by movement; nor can one of a movement run, whose
    history is the weights at its last update, so that every score is 0 and
    the tie rule alone would pick the blocks. Exit 1 naming the history and
    the criterion, before anything is pruned; no file written."""
    model = Model.from_specs(BASE_CONFIG["model"], Rng(3).child("init"))
    src = workdir / "dense.json"
    checkpoint.save(src, model)
    assert main(["run", str(CONFIGS / "blobs_gradual.json")]) == 0
    movement = write_config(workdir / "movement.json", seed=99, prune={
        "criterion": "movement", "context": "global", "schedule": {"kind": "gradual"}})
    assert main(["run", str(movement)]) == 0
    capsys.readouterr()
    for path, problem in ((src, "null"),
                          (workdir / "blobs-gradual-seed42" / "checkpoint.json", "null"),
                          (workdir / "demo-seed99" / "checkpoint.json", "equals the weights")):
        argv = ["prune", str(path), "--sparsity", "70", "--criterion", "movement",
                "--context", "global"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: layers[0].history: {problem}"), err
        assert "movement" in err
        assert not Path(str(path) + ".pruned.json").exists()


def test_prune_refuses_a_non_finite_history(workdir, capsys):
    """A NaN in a layer's history would make the score threshold NaN and
    prune the whole layer (at 10% local, 3 of its 32 weights were asked
    for): exit 1 naming the history, no file written."""
    specs = [{"kind": "dense", "in": 4, "out": 8}, {"kind": "relu"},
             {"kind": "dense", "in": 8, "out": 2}]
    model = Model.from_specs(specs, Rng(4).child("init"))
    start = Model.from_specs(specs, Rng(5).child("init"))
    for layer, hist in zip(model.prunable_layers(), start.prunable_layers()):
        layer.history = hist.weights
    model.layers[0].history[0, :4] = np.nan
    src = workdir / "nan-history.json"
    checkpoint.save(src, model)
    assert main(["prune", str(src), "--sparsity", "10", "--criterion", "magnitude_increase"]) == 1
    assert capsys.readouterr().err == "error: non-finite history values\n"
    assert sorted(workdir.iterdir()) == [src]


@pytest.mark.parametrize("criterion", CRITERIA)
def test_history_kept_only_where_the_criterion_reads_it(workdir, monkeypatch, criterion):
    """Only a history criterion keeps a history, after every step and in
    checkpoint.json; under any other every prunable layer's is null."""
    reads_history = Criterion(criterion).reads == "history"
    kept = []

    def on_step_end(self, state, original=SparsifyCallback.on_step_end):
        original(self, state)
        kept.extend(layer.history is not None for layer in state["model"].prunable_layers())

    monkeypatch.setattr(SparsifyCallback, "on_step_end", on_step_end)
    assert main(["run", str(write_config(workdir / "cfg.json", prune={"criterion": criterion}))]) == 0
    assert len(kept) == 2 * 4 * 5 and set(kept) == {reads_history}  # 2 layers, 4 epochs of 5 steps
    doc, _ = split(workdir / "demo-seed42" / "checkpoint.json")
    assert [entry["history"] is None for entry in doc["layers"] if "history" in entry] == [
        not reads_history] * 2
    layers = checkpoint.load(workdir / "demo-seed42" / "checkpoint.json").model.prunable_layers()
    assert [layer.history is not None for layer in layers] == [reads_history] * 2


def test_lth_command(workdir):
    cfg = write_config(
        workdir / "lth.json", name="lth",
        train={"epochs": 5, "batch_size": 32, "learning_rate": 0.1},
        prune={"sparsity": 80, "context": "global",
               "schedule": {"kind": "iterative", "n_steps": 4, "start_epoch": 1},
               "lth": True})
    assert main(["run", str(cfg)]) == 0
    out = workdir / "lth-seed42"
    for k in range(1, 5):
        assert (out / f"ticket_{k}.json").exists()
    rows = (out / "rounds.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == [20.0, 40.0, 60.0, 80.0]
    # every ticket: surviving weights equal the rewind snapshot
    for k in range(1, 5):
        ckpt = checkpoint.load(out / f"ticket_{k}.json")
        snap = iter(ckpt.rewind_snapshot)
        for layer in ckpt.model.layers:
            if layer.weights is None:
                continue
            w, b = next(snap)
            if layer.prunable:
                kept = layer.mask == 1
                np.testing.assert_array_equal(layer.weights[kept], w[kept])
                assert np.all(layer.weights[layer.mask == 0] == 0)


def test_lth_rewind_at_window_start(workdir):
    """rewind_epoch = start_epoch: the snapshot is taken before that step's
    mask update, and every ticket is that one snapshot under its own mask."""
    cfg = write_config(
        workdir / "lth.json", name="lth",
        train={"epochs": 5, "batch_size": 32, "learning_rate": 0.1},
        prune={"sparsity": 80, "context": "global",
               "schedule": {"kind": "iterative", "n_steps": 4, "start_epoch": 1},
               "lth": True, "rewind_epoch": 1})
    assert main(["run", str(cfg)]) == 0
    out = workdir / "lth-seed42"
    snapshot = checkpoint.load(out / "checkpoint.json").rewind_snapshot
    assert all(np.all(w != 0) for w, _ in snapshot)  # no mask had been applied yet
    tickets = sorted(out.glob("ticket_*.json"))
    assert len(tickets) == 4
    for path in tickets:
        ckpt = checkpoint.load(path)
        for layer, (w, b), (shared_w, shared_b) in zip(ckpt.model.prunable_layers(),
                                                        ckpt.rewind_snapshot, snapshot):
            np.testing.assert_array_equal(w, shared_w)
            np.testing.assert_array_equal(b, shared_b)
            np.testing.assert_array_equal(layer.weights, shared_w * layer.mask)
            np.testing.assert_array_equal(layer.bias, shared_b)


def _saves_back(path, again):
    """A save, to `again`, of what checkpoint.load read from path writes path's bytes."""
    ckpt = checkpoint.load(path)
    checkpoint.save(again, ckpt.model, rewind_snapshot=ckpt.rewind_snapshot,
                    plan=None if ckpt.plan is None else ckpt.plan.to_dict(),
                    metrics_tail=ckpt.metrics_tail, meta=ckpt.meta)
    return again.read_bytes() == path.read_bytes()


def test_shipped_configs(workdir):
    """The configs in configs/ run, and so does a prune of blobs-gradual's
    checkpoint. inspect passes on every checkpoint, ticket and pruned file
    they write, and each one, loaded and saved again, gives its own bytes."""
    assert main(["run", str(CONFIGS / "blobs_gradual.json")]) == 0
    assert main(["run", str(CONFIGS / "conv_patterns8x8.json")]) == 0
    assert main(["run", str(CONFIGS / "lth_blobs.json")]) == 0
    pruned = workdir / "blobs-gradual-seed42" / "pruned.json"
    assert main(["prune", str(workdir / "blobs-gradual-seed42" / "checkpoint.json"),
                 "--context", "global", "--sparsity", "70", "--out", str(pruned)]) == 0
    written = sorted(workdir.glob("*/checkpoint.json")) + sorted(workdir.glob("*/ticket_*.json"))
    assert len(written) == 3 + 4
    for path in written + [pruned]:
        assert main(["inspect", str(path)]) == 0, path
        assert _saves_back(path, workdir / "again.json"), path


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_every_written_checkpoint_saves_back_to_its_bytes(workdir):
    """Each file that run, an LTH run, a crashed run and prune write, loaded
    and saved again, gives its own bytes: dense and conv models, with and
    without a history, kept-only and whole weights, every granularity and
    context that prune takes."""
    configs = {
        "dense": {"prune": {"criterion": "movement"}},
        "lth": {"train": {"epochs": 5, "batch_size": 32, "learning_rate": 0.1},
                "prune": {"sparsity": 80, "context": "global", "lth": True,
                          "schedule": {"kind": "iterative", "n_steps": 4, "start_epoch": 1}}},
        "crash": {"train": {"epochs": 2, "batch_size": 32, "learning_rate": 1e300}},
        "conv": {"model": FUZZ_MODEL},
    }
    for name, overrides in configs.items():
        cfg = write_config(workdir / f"{name}.json", output_dir=name, **overrides)
        if name == "conv":  # write_config would merge the blobs fields into the dataset
            cfg.write_text(json.dumps(dict(json.loads(cfg.read_text()), dataset=dict(PATTERNS, n=40))))
        assert main(["run", str(cfg)]) == (1 if name == "crash" else 0)
    # a conv-only model with a history, saved as perfbench's prune-sweep saves one
    specs = [{"kind": "conv2d", "in_ch": 2, "out_ch": 4, "kx": 3, "ky": 3}, {"kind": "relu"},
             {"kind": "conv2d", "in_ch": 4, "out_ch": 3, "kx": 2, "ky": 2}]
    model, start = Model.from_specs(specs, Rng(1)), Model.from_specs(specs, Rng(2))
    for layer, first in zip(model.prunable_layers(), start.prunable_layers()):
        layer.history = first.weights
    (workdir / "convs").mkdir()
    checkpoint.save(workdir / "convs" / "checkpoint.json", model)
    prunes = [("dense", g, c, "large_final") for g in ("weight", "row", "column") for c in CONTEXTS]
    prunes += [("conv", g, c, "large_final") for g in ("weight", "0", "1") for c in CONTEXTS]
    prunes += [("convs", g, c, "magnitude_increase") for g in ("kernel", "filter", "channel")
               for c in CONTEXTS]
    for name, granularity, context, criterion in prunes:
        assert main(["prune", str(workdir / name / "checkpoint.json"), "--sparsity", "60",
                     "--granularity", granularity, "--context", context, "--criterion", criterion,
                     "--out", str(workdir / name / f"pruned-{granularity}-{context}.json")]) == 0
    written = sorted(workdir.glob("*/*.json"))
    assert [p.name for p in written].count("crash_checkpoint.json") == 1
    assert len(written) == 4 + 4 + 1 + len(prunes)
    for path in written:
        assert _saves_back(path, workdir / "again.json"), path


def test_summary_gives_eval_acc_of_the_saved_weights(workdir, monkeypatch):
    """summary.txt's last line is the accuracy of checkpoint.json's weights on
    the run's own eval split, from the one dataset fit draws. lth_blobs
    collapses a layer: its last batch reads 1.0, its saved weights chance."""
    draws = []
    monkeypatch.setattr(train, "make_dataset", lambda *a: draws.append(a) or make_dataset(*a))
    assert main(["run", str(CONFIGS / "lth_blobs.json")]) == 0
    assert len(draws) == 1
    config = load_config(CONFIGS / "lth_blobs.json")
    _, (x_eval, y_eval) = train_eval_split(*make_dataset(config.dataset, Rng(config.seed).child("data")))
    model = checkpoint.load(workdir / "lth-blobs-seed7" / "checkpoint.json").model
    lines = (workdir / "lth-blobs-seed7" / "summary.txt").read_text().splitlines()
    assert lines[-1] == f"final eval_acc: {accuracy(model, x_eval, y_eval):.4f}" == "final eval_acc: 0.5000"
    assert "final train_acc: 1.0000" in lines


def test_run_writes_tickets_only_under_lth(workdir):
    """One command trains: with the plan's lth set, run also writes one ticket
    per round and rounds.csv, whose model_sparsity is each ticket's mask sparsity."""
    lth = write_config(workdir / "lth.json", name="lth",
                       train={"epochs": 5, "batch_size": 32, "learning_rate": 0.1},
                       prune={"sparsity": 80, "context": "global",
                              "schedule": {"kind": "iterative", "n_steps": 4, "start_epoch": 1},
                              "lth": True})
    assert main(["run", str(lth)]) == 0
    assert main(["run", str(write_config(workdir / "cfg.json"))]) == 0
    run_files = ["checkpoint.json", "metrics.csv", "metrics.svg", "summary.txt"]
    tickets = [f"ticket_{k}.json" for k in range(1, 5)]
    assert sorted(p.name for p in (workdir / "lth-seed42").iterdir()) == sorted(
        run_files + tickets + ["rounds.csv"])
    assert sorted(p.name for p in (workdir / "demo-seed42").iterdir()) == run_files
    rows = (workdir / "lth-seed42" / "rounds.csv").read_text().splitlines()
    assert rows[0] == "round,sparsity,accuracy,model_sparsity"
    for row, name in zip(rows[1:], tickets, strict=True):
        path = workdir / "lth-seed42" / name
        layers = checkpoint.load(path).model.prunable_layers()
        assert float(row.split(",")[3]) == model_sparsity(layers)
        # a ticket's weights are the snapshot under its masks: only the kept ones are stored
        stored = [entry["weights"]["nbytes"] for entry in split(path)[0]["layers"] if entry["weights"]]
        assert stored == [8 * np.count_nonzero(l.mask) for l in layers]


def test_inspect_dense(workdir, capsys):
    model = Model.from_specs(BASE_CONFIG["model"], Rng(4).child("init"))
    src = workdir / "dense.json"
    checkpoint.save(src, model)
    assert main(["inspect", str(src)]) == 0
    assert "sparsity 0.0000" in capsys.readouterr().out


def test_inspect_pruned(workdir, capsys):
    model = Model.from_specs(BASE_CONFIG["model"], Rng(5).child("init"))
    src = workdir / "dense.json"
    checkpoint.save(src, model)
    out = workdir / "pruned.json"
    main(["prune", str(src), "--sparsity", "50", "--out", str(out)])
    assert main(["inspect", str(out)]) == 0
    text = capsys.readouterr().out
    assert "global sparsity" in text and "blocks ok" in text


def test_inspect_tampered_mask(workdir, capsys):
    model = Model.from_specs(BASE_CONFIG["model"], Rng(6).child("init"))
    src = workdir / "dense.json"
    checkpoint.save(src, model)
    out = workdir / "pruned.json"
    main(["prune", str(src), "--sparsity", "50", "--granularity", "row", "--out", str(out)])
    _edit_bits(_flip_first_bit, "layers", 0, "mask")(out)
    again = workdir / "again.json"
    for command in (["inspect", str(out)], ["prune", str(out), "--sparsity", "50", "--out", str(again)]):
        assert main(command) == 1
        assert capsys.readouterr().err == "error: layers[0].mask: not block-pure under 'row'\n"
    assert not again.exists()


@pytest.mark.parametrize("specs, granularity", [
    (BASE_CONFIG["model"], "row"),
    (FUZZ_MODEL, "weight"),
    ([{"kind": "conv2d", "in_ch": 1, "out_ch": 4, "kx": 3, "ky": 3}, {"kind": "relu"},
      {"kind": "conv2d", "in_ch": 4, "out_ch": 2, "kx": 3, "ky": 3}], "kernel"),
], ids=["dense_row", "conv_dense_weight", "conv_kernel"])
def test_prune_reports_what_inspect_reports(workdir, capsys, specs, granularity):
    """prune prints, after the `wrote` line, the report that inspect prints
    for the file it wrote: layers by model index, then the global sparsity."""
    src, out = workdir / "src.json", workdir / "pruned.json"
    checkpoint.save(src, Model.from_specs(specs, Rng(9).child("init")))
    assert main(["prune", str(src), "--sparsity", "60", "--granularity", granularity,
                 "--context", "global", "--out", str(out)]) == 0
    wrote, report = capsys.readouterr().out.split("\n", 1)
    assert wrote == f"wrote {out}"
    assert main(["inspect", str(out)]) == 0
    assert capsys.readouterr().out == report
    assert report.splitlines()[-1].startswith("global sparsity: ")
    assert f"layer {len(specs) - 1} (" in report


def test_inspect_corrupt_file(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    assert main(["inspect", str(bad)]) == 1
    assert "offset" in capsys.readouterr().err


def test_checkpoint_roundtrip_byte_identical(workdir):
    model = Model.from_specs(BASE_CONFIG["model"], Rng(7).child("init"))
    p1, p2 = workdir / "a.json", workdir / "b.json"
    checkpoint.save(p1, model, meta={"name": "x", "seed": 1})
    ckpt = checkpoint.load(p1)
    checkpoint.save(p2, ckpt.model, meta=ckpt.meta)
    assert p1.read_bytes() == p2.read_bytes()


def _shape_test_checkpoint(path):
    """BASE_CONFIG's model with every optional array present: masks, histories, a snapshot."""
    model = Model.from_specs(BASE_CONFIG["model"], Rng(8).child("init"))
    for layer in model.prunable_layers():
        layer.mask = np.ones_like(layer.weights)
        layer.history = layer.weights.copy()
    snapshot = [(l.weights.copy(), l.bias.copy()) for l in model.prunable_layers()]
    checkpoint.save(path, model, rewind_snapshot=snapshot)


def _reshaped(array, shape):
    assert np.prod(shape) == np.prod(array["shape"])
    return dict(array, shape=shape)


@pytest.mark.parametrize("field, edit", [
    ("layers[0].weights: shape [16, 2] != [2, 16]",
     lambda d: d["layers"][0].update(weights=_reshaped(d["layers"][0]["weights"], [16, 2]))),
    ("layers[2].bias: shape [1, 2] != [2]",
     lambda d: d["layers"][2].update(bias=_reshaped(d["layers"][2]["bias"], [1, 2]))),
    ("layers[2].mask: shape [2, 16] != [16, 2]",
     lambda d: d["layers"][2].update(mask=_reshaped(d["layers"][2]["mask"], [2, 16]))),
    ("layers[0].history: shape [32] != [2, 16]",
     lambda d: d["layers"][0].update(history=_reshaped(d["layers"][0]["history"], [32]))),
    ("layers[1].weights: shape [2, 16] != None",
     lambda d: d["layers"][1].update(weights=d["layers"][0]["weights"])),
    ("rewind_snapshot[1].weights: shape [2, 16] != [16, 2]",
     lambda d: d["rewind_snapshot"][1].update(
         weights=_reshaped(d["rewind_snapshot"][1]["weights"], [2, 16]))),
    ("rewind_snapshot[0].bias: shape [4, 4] != [16]",
     lambda d: d["rewind_snapshot"][0].update(
         bias=_reshaped(d["rewind_snapshot"][0]["bias"], [4, 4]))),
    ("rewind_snapshot: 1 entries != 2 layers with weights",
     lambda d: d.update(rewind_snapshot=d["rewind_snapshot"][:1])),
])
def test_load_rejects_shape_mismatch(workdir, capsys, field, edit):
    path = workdir / "ckpt.json"
    _shape_test_checkpoint(path)
    assert main(["inspect", str(path)]) == 0
    capsys.readouterr()
    edit_header(path, edit)
    for command in (["inspect", str(path)], ["prune", str(path), "--sparsity", "50"]):
        assert main(command) == 1
        assert f"error: {field}" in capsys.readouterr().err


def _drop(*path):
    """An edit of a checkpoint file that deletes the header field at `path`."""
    def edit(file):
        def drop(doc):
            del at(doc, *path[:-1])[path[-1]]
        edit_header(file, drop)
    return edit


def _put(value, *path):
    """An edit of a checkpoint file that sets the header field at `path` to `value`."""
    def edit(file):
        def put(doc):
            at(doc, *path[:-1])[path[-1]] = value
        edit_header(file, put)
    return edit


def _floated(*path):
    """An edit of a checkpoint file that writes the header field at `path`,
    an integer or a list of them, as floats of the same values."""
    def edit(file):
        def put(doc):
            value = at(doc, *path)
            at(doc, *path[:-1])[path[-1]] = ([float(v) for v in value] if isinstance(value, list)
                                             else float(value))
        edit_header(file, put)
    return edit


def _edit_bits(change, *path):
    """An edit of a checkpoint file that replaces the packed bytes of the mask
    at `path` by change(bytes), of the same length."""
    def edit(file):
        edit_array(file, change, *path)
    return edit


def _float_mask(layer):
    """An edit that stores layer `layer`'s mask as format 2 did: an object of
    base64 float64 `data` and `shape`, not bits."""
    def edit(file):
        edit_header(file, lambda doc: doc["layers"][layer].update(
            mask={"data": "AAAAAAAA8D8=", "shape": doc["layers"][layer]["weights"]["shape"]}))
    return edit


def _flip_first_bit(packed):
    return bytes([packed[0] ^ 0x80]) + packed[1:]


@pytest.mark.parametrize("field, edit", [
    ("layers: missing", _drop("layers")),
    ("layers: expected a list, got dict", _put({}, "layers")),
    ("layers[0]: expected an object, got int", _put(5, "layers", 0)),
    ("layers[0].spec: missing", _drop("layers", 0, "spec")),
    ("layers[0].spec: expected an object, got str", _put("dense", "layers", 0, "spec")),
    ("layers[0].spec.out: missing", _drop("layers", 0, "spec", "out")),
    ("layers[0].spec.out: not an integer: 'x'", _put("x", "layers", 0, "spec", "out")),
    ("layers[1].spec.kind: unknown layer kind 'gelu'", _put("gelu", "layers", 1, "spec", "kind")),
    ("layers[2].weights: missing", _drop("layers", 2, "weights")),
    ("layers[2].weights.offset: missing", _drop("layers", 2, "weights", "offset")),
    ("layers[0].mask.shape: missing", _drop("layers", 0, "mask", "shape")),
    ("rewind_snapshot[0].weights: missing", _drop("rewind_snapshot", 0, "weights")),
    ("rewind_snapshot[1].bias: missing", _drop("rewind_snapshot", 1, "bias")),
    ("rewind_snapshot[1]: expected an object, got list", _put([], "rewind_snapshot", 1)),
    ("plan: expected an object, got list", _put([], "plan")),
    ("checkpoint: expected an object, got list", lambda file: edit_header(file, lambda d: [d])),
    ("layers[0].spec.out: not an integer: inf", _put(float("inf"), "layers", 0, "spec", "out")),
    ("layers[0].spec.out: not an integer: 2.7", _put(2.7, "layers", 0, "spec", "out")),
    ("layers[0].spec.out: not an integer: '16'", _put("16", "layers", 0, "spec", "out")),
    ("layers[0].spec.in: not an integer: True", _put(True, "layers", 0, "spec", "in")),
    # an integral float loads as its int, but would not save back to the file's bytes
    ("layers[0].spec.out: not an integer: 16.0", _floated("layers", 0, "spec", "out")),
    ("layers[0].weights.shape: not an integer: 2.0", _floated("layers", 0, "weights", "shape")),
    ("layers[0].bias.nbytes: not an integer: 128.0", _floated("layers", 0, "bias", "nbytes")),
    ("layers[0].weights.offset: not an integer: 392.0",
     _floated("layers", 0, "weights", "offset")),
    ("layers[0].spec.out: not a positive integer: -1", _put(-1, "layers", 0, "spec", "out")),
    ("layers[0].spec.in: not a positive integer: 0", _put(0, "layers", 0, "spec", "in")),
    ("layers[0].spec: array is too big", _put(2**62, "layers", 0, "spec", "out")),
    ("layers[0].weights: corrupt array:",  # 1 float64 for a [2, 16] array
     _put(8, "layers", 0, "weights", "nbytes")),
    ("layers[2].history: corrupt array:",  # 255 bytes, not a whole number of float64
     _put(255, "layers", 2, "history", "nbytes")),
    ("layers[2].weights: corrupt array:",  # 15 float64 for a [16, 2] array
     _put(120, "layers", 2, "weights", "nbytes")),
    ("layers[0].mask: corrupt mask: 3 bytes for 32 bits", _put(3, "layers", 0, "mask", "nbytes")),
    ("rewind_snapshot[0].bias: corrupt array:",  # no float64 for a [16] array
     _put(0, "rewind_snapshot", 0, "bias", "nbytes")),
    ("rewind_snapshot[0].bias: expected an object, got list",  # a version-1 array: a list of numbers
     _put([0.0] * 16, "rewind_snapshot", 0, "bias")),
    ("unsupported checkpoint format_version 1", _put(1, "format_version")),
    ("layers[0].spec.stride: unknown key", _put(2, "layers", 0, "spec", "stride")),
    ("layers: must be a non-empty list", _put([], "layers")),
])
def test_load_rejects_missing_field(workdir, capsys, field, edit):
    path = workdir / "ckpt.json"
    _shape_test_checkpoint(path)
    edit(path)
    for command in (["inspect", str(path)], ["prune", str(path), "--sparsity", "50"]):
        assert main(command) == 1
        err = capsys.readouterr().err
        assert f"error: {field}" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("field, specs", [
    ("layers[2].spec.in: 8, but its input is [16]", UNCHAINED_DENSE),
    ("layers[1].spec.in_ch: 4, but its input is [8, None, None]", UNCHAINED_CONV),
    ("layers[2].spec.in_ch: 4, but its input is [4]", DENSE_INTO_CONV),
    ("layers[1].spec.in: 2, but its input is [2, None, None]", CONV_INTO_DENSE),
])
def test_load_rejects_unchained_layers(workdir, capsys, field, specs):
    path = workdir / "ckpt.json"
    checkpoint.save(path, Model.from_specs(specs, Rng(8).child("init")))
    for command in (["inspect", str(path)], ["prune", str(path), "--sparsity", "50"]):
        assert main(command) == 1
        assert capsys.readouterr().err.strip() == f"error: {field}"


@pytest.mark.parametrize("field, edit", [
    ("bogus: unknown key", _put(1, "bogus")),
    ("layers[0].masks: unknown key", _put(1, "layers", 0, "masks")),
    ("layers[1].mask: unknown key", _put(None, "layers", 1, "mask")),  # relu holds no mask
    ("layers[0].weights.data: unknown key", _put("AAAA", "layers", 0, "weights", "data")),
    ("layers[0].weights.dtype: '|u1' != '<f8'", _put("|u1", "layers", 0, "weights", "dtype")),
    ("layers[0].mask.dtype: '<f8' != '|u1'", _put("<f8", "layers", 0, "mask", "dtype")),
    ("rewind_snapshot[0].x: unknown key", _put(1, "rewind_snapshot", 0, "x")),
    ("metrics_tail: expected a list, got int", _put(5, "metrics_tail")),
    ("meta: expected an object, got NoneType", _put(None, "meta")),
    ("plan.bogus: unknown key", _put({"sparsity": 50, "bogus": 1}, "plan")),
    ("rewind_snapshot[1].weights: expected an object, got NoneType",
     _put(None, "rewind_snapshot", 1, "weights")),
    ("layers[0].bias: expected an object, got NoneType", _put(None, "layers", 0, "bias")),
    ("plan.granularity: granularity 'kernel' is not defined for rank 2",
     _put({"sparsity": 50, "granularity": "kernel"}, "plan")),
    ("plan.sparsity: per-layer list length 5 != prunable layer count 2",
     _put({"sparsity": [10, 20, 30, 40, 50]}, "plan")),
    ("layers[0].mask.data: unknown key", _float_mask(0)),
    ("layers[2].mask: not block-pure under 'row'",  # one zero in a row of ones
     lambda file: (_put({"sparsity": 50, "granularity": "row"}, "plan")(file),
                   _edit_bits(_flip_first_bit, "layers", 2, "mask")(file))),
])
def test_load_rejects_unknown_keys_and_mistyped_parts(workdir, capsys, field, edit):
    path = workdir / "ckpt.json"
    _shape_test_checkpoint(path)
    edit(path)
    for command in (["inspect", str(path)], ["prune", str(path), "--sparsity", "50"]):
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}"), err


ODD_MODEL = [{"kind": "dense", "in": 3, "out": 5}, {"kind": "relu"},
             {"kind": "dense", "in": 5, "out": 2}]  # masks of 15 and 10 bits, 2 bytes each


@pytest.mark.parametrize("field, edit", [
    ("layers[0].mask: corrupt mask: nonzero padding bits",
     _edit_bits(lambda b: b[:-1] + bytes([b[-1] | 1]), "layers", 0, "mask")),
    ("layers[2].mask: corrupt mask: nonzero padding bits",
     _edit_bits(lambda b: b[:-1] + bytes([b[-1] | 0x20]), "layers", 2, "mask")),
    ("layers[0].mask: corrupt mask: 1 bytes for 15 bits", _put(1, "layers", 0, "mask", "nbytes")),
    ("layers[2].mask: corrupt mask: 3 bytes for 10 bits", _put(3, "layers", 2, "mask", "nbytes")),
    ("layers[0].mask: corrupt mask:", _put(0, "layers", 0, "mask", "nbytes")),  # no bytes
    ("unsupported checkpoint format_version 2", _put(2, "format_version")),
])
def test_load_rejects_corrupt_mask_bits(workdir, capsys, field, edit):
    """A mask whose bits do not fit its shape fails the load for every reader,
    whatever the other layer holds: no report, no file written."""
    model = Model.from_specs(ODD_MODEL, Rng(3).child("init"))
    for layer in model.prunable_layers():
        layer.mask = (Rng(4).normal(layer.weights.shape) > 0).astype(float)
    path = workdir / "ckpt.json"
    checkpoint.save(path, model)
    edit(path)
    for command in (["inspect", str(path)], ["prune", str(path), "--sparsity", "50"]):
        assert main(command) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {field}"), captured.err
        assert captured.out == ""
    assert sorted(workdir.iterdir()) == [path]


WRONG_TYPES = [5, 2.5, "x", True, [], {}]


def _fuzz_checkpoint(path):
    """A conv+dense checkpoint with every part filled: masks, histories, a
    rewind snapshot, a plan, meta and a metrics tail. The weights are masked,
    so each layer stores only the ones its mask keeps."""
    model = Model.from_specs(FUZZ_MODEL, Rng(5).child("init"))
    snapshot = [(l.weights.copy(), l.bias.copy()) for l in model.prunable_layers()]
    for layer in model.prunable_layers():
        layer.history = layer.weights.copy()
        layer.mask = (Rng(6).normal(layer.weights.shape) > 0).astype(float)
        layer.weights *= layer.mask
    checkpoint.save(path, model, rewind_snapshot=snapshot,
                    plan={"sparsity": 50.0, "context": "global", "schedule": None},
                    metrics_tail=[[0, 7, 0.69, 0.5, 0.0, 0.0]], meta={"name": "fuzz", "seed": 5})


def _checkpoint_keys(obj, path=""):
    """(path, holder, key) for every key the checkpoint reader owns. The
    contents of `plan` belong to SparsifyPlan.from_dict (fuzzed through
    configs); those of `meta` and `metrics_tail` are free-form."""
    if isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _checkpoint_keys(item, f"{path}[{i}]")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            at = f"{path}.{key}" if path else key
            yield at, obj, key
            if at not in ("plan", "meta", "metrics_tail"):
                yield from _checkpoint_keys(value, at)


def _layout_corruptions(doc, data, rng):
    """(field, file bytes) for each corruption of where a checkpoint's arrays
    lie, doc and data being its header document and the bytes after it.
    For each array: its offset moved by 1 or 8 bytes or swapped with the
    next array's, its nbytes past the end of the file or off its table row,
    its dtype swapped, and the file cut inside it. Then: the file cut inside
    its header, bytes after the last array, nonzero padding after a mask,
    and headers that are not canonical."""
    entries = [(at, holder[key]) for at, holder, key in _checkpoint_keys(doc)
               if isinstance(holder[key], dict) and "offset" in holder[key]]
    swapped = {"<f8": "|u1", "|u1": "<f8"}
    cases = []
    for n, (at, entry) in enumerate(entries):
        valid = dict(entry)
        nbytes, offset = valid["nbytes"], valid["offset"]
        edits = [(f"{at}.offset", {"offset": offset + [-8, -1, 1, 8][int(rng.integers(0, 4))]}),
                 (f"{at}.nbytes", {"nbytes": len(data) - offset + 8}),
                 (f"{at}: corrupt", {"nbytes": nbytes - (1 if valid["dtype"] == "|u1" else 8)}),
                 (f"{at}.dtype", {"dtype": swapped[valid["dtype"]]})]
        for field, change in edits:
            entry.update(change)
            cases.append((field, file_bytes(doc, data)))
            entry.update(valid)
        if n + 1 < len(entries):  # out of order
            after = entries[n + 1][1]
            entry["offset"], after["offset"] = after["offset"], offset
            cases.append((f"{at}.offset", file_bytes(doc, data)))
            entry["offset"], after["offset"] = offset, entry["offset"]
        cases.append((f"{at}.nbytes", file_bytes(doc, data[:offset + int(rng.integers(0, nbytes))])))
    header = file_bytes(doc, b"")
    cases.append(("corrupt checkpoint", header[:int(rng.integers(0, len(header)))]))
    cases.append(("checkpoint: 8 bytes after the last array", file_bytes(doc, data + bytes(8))))
    for (at, entry), (after, _) in zip(entries, entries[1:]):
        if entry["nbytes"] % 8:
            padded = bytearray(data)
            padded[entry["offset"] + entry["nbytes"]] = 1
            cases.append((f"{after}.offset: nonzero padding", file_bytes(doc, padded)))
    for text in (json.dumps(doc), json.dumps(dict(reversed(doc.items())), separators=(",", ":")),
                 json.dumps(doc, sort_keys=True, separators=(",", ":")) + " " * 8):
        text += " " * (-len(text) % 8)
        cases.append(("checkpoint: header is not", file_bytes(doc, data, text.encode())))
    return cases


@pytest.mark.parametrize("seed", [1, 2])
def test_checkpoint_fuzz(workdir, capsys, seed):
    """Corrupt one key of a valid checkpoint's header at a time -- drop it,
    give it a value of another JSON type, add an unknown sibling -- and then
    where its arrays lie, one corruption at a time: `inspect` and `prune`
    each exit 1 naming the field, with no traceback."""
    path = workdir / "ckpt.json"
    _fuzz_checkpoint(path)
    pruned = workdir / "pruned.json"
    for command in (["inspect", str(path)], ["prune", str(path), "--sparsity", "50", "--out", str(pruned)]):
        assert main(command) == 0
    capsys.readouterr()
    doc, data = split(path)
    rng = Rng(seed)
    cases = 0
    keys = list(_checkpoint_keys(doc))
    assert {at for at, _, _ in keys} >= {"layers[0].mask.nbytes", "layers[3].mask.offset",
                                          "layers[0].weights.dtype", "layers[3].weights.shape"}
    for i in (0, 3):  # kept-only: fewer float64 than the layer has weights
        weights = doc["layers"][i]["weights"]
        assert weights["nbytes"] < 8 * np.prod(weights["shape"])
    for at, holder, key in keys:
        valid = holder[key]
        wrong = [v for v in WRONG_TYPES if type(v) is not type(valid)]
        sibling = f"{['masks', 'dtype', 'stride', 'x'][int(rng.integers(0, 4))]}_{cases}"
        parent = at.rsplit(".", 1)[0] if "." in at else ""
        corruptions = [
            ("drop", at),
            (wrong[int(rng.integers(0, len(wrong)))],
             parent if key == "shape" else at),  # an array's shape is checked as the array's
            ("sibling", f"{parent}.{sibling}" if parent else sibling),
        ]
        for corruption, field in corruptions:
            if corruption == "drop":
                del holder[key]
            elif corruption == "sibling":
                holder[sibling] = 1
            else:
                holder[key] = corruption
            join(path, doc, data)
            holder.pop(sibling, None)
            holder[key] = valid
            if key == "format_version" and corruption != "sibling":  # checked before any key
                field = "unsupported checkpoint format_version"
            for command in (["inspect", str(path)], ["prune", str(path), "--sparsity", "50"]):
                assert main(command) == 1, (at, corruption)
                err = capsys.readouterr().err
                assert err.startswith(f"error: {field}"), (at, corruption, err)
                assert "Traceback" not in err
            cases += 1
    assert cases > 150
    layout = _layout_corruptions(doc, data, rng)
    assert len(layout) > 70
    for field, raw in layout:
        path.write_bytes(raw)
        for command in (["inspect", str(path)], ["prune", str(path), "--sparsity", "50"]):
            assert main(command) == 1, field
            err = capsys.readouterr().err
            assert err.startswith(f"error: {field}"), (field, err)
            assert "Traceback" not in err
    assert sorted(p.name for p in workdir.iterdir()) == ["ckpt.json", "pruned.json"]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("prune", [None, {}, {"lth": True}], ids=["run_no_prune", "run_prune", "lth"])
def test_non_finite_loss_exits_1(workdir, capsys, prune):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["train"]["learning_rate"] = 1e300
    if prune is None:
        del doc["prune"]
    else:
        doc["prune"].update(prune)
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "error: training aborted: non-finite train_loss" in err
    assert "Traceback" not in err
    out = workdir / "demo-seed42"
    assert sorted(p.name for p in out.iterdir()) == ["crash_checkpoint.json"]


def test_nan_weight_exits_1_with_crash_checkpoint(workdir, capsys, monkeypatch):
    from prunekit.config import ExperimentConfig

    build = ExperimentConfig.build_model

    def build_with_nan(self, rng=None):
        model = build(self, rng)
        model.layers[2].weights[0, 0, 0, 0] = np.nan
        return model

    monkeypatch.setattr(ExperimentConfig, "build_model", build_with_nan)
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["model"] = [{"kind": "conv2d", "in_ch": 1, "out_ch": 4, "kx": 3, "ky": 3}, {"kind": "relu"},
                    {"kind": "conv2d", "in_ch": 4, "out_ch": 4, "kx": 3, "ky": 3}, {"kind": "relu"},
                    {"kind": "flatten"}, {"kind": "dense", "in": 64, "out": 2}]
    doc["dataset"] = {"kind": "patterns8x8", "n": 200, "noise": 0.1}
    del doc["prune"]  # a plan's weight check would stop the run before the first step
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "error: training aborted: non-finite train_loss nan at epoch 0, step 0" in err
    out = workdir / "demo-seed42"
    assert (out / "crash_checkpoint.json").exists()
    assert not (out / "checkpoint.json").exists()
