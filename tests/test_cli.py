import base64
import json
import os
from pathlib import Path

import numpy as np
import pytest

from prunekit import checkpoint
from prunekit.cli import main
from prunekit.layers import Model
from prunekit.rng import Rng
from prunekit.tensor import sparsity_of

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
])
def test_bad_model_spec_exit_2(workdir, capsys, field, model):
    cfg = write_config(workdir / "cfg.json", model=model)
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.strip() == f"config error at {field}"


def test_huge_model_size_exit_2(workdir, capsys):
    cfg = write_config(workdir / "cfg.json", model=[{"kind": "dense", "in": 2, "out": 2**62}])
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error at model[0]: array is too big")


def test_missing_seed_exit_2(workdir):
    doc = json.loads(json.dumps(BASE_CONFIG))
    del doc["seed"]
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg)]) == 2


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
    (["one_cycle", "--alpha", "-1000"], "alpha"),
    (["one_cycle", "--beta", "710"], "beta"),
    (["one_cycle", "--alpha", "-1", "--sparsity", "80", "--samples", "3"], "one_cycle at t=0.0"),
    (["gradual", "--sparsity", "150"], "--sparsity"),
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
    model = Model.from_specs(BASE_CONFIG["model"], Rng(3).child("init"))
    src = workdir / "dense.json"
    checkpoint.save(src, model)
    assert main(["prune", str(src), "--sparsity", "50", "--criterion", "movement"]) == 1
    assert "movement" in capsys.readouterr().err


def test_lth_command(workdir):
    cfg = write_config(
        workdir / "lth.json", name="lth",
        train={"epochs": 5, "batch_size": 32, "learning_rate": 0.1},
        prune={"sparsity": 80, "context": "global",
               "schedule": {"kind": "iterative", "n_steps": 4, "start_epoch": 1},
               "lth": True})
    assert main(["lth", str(cfg)]) == 0
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
    assert main(["lth", str(cfg)]) == 0
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


def test_shipped_configs(workdir):
    """The configs in configs/ run, and inspect passes on every checkpoint they write."""
    assert main(["run", str(CONFIGS / "blobs_gradual.json")]) == 0
    assert main(["lth", str(CONFIGS / "lth_blobs.json")]) == 0
    written = sorted(workdir.glob("*/checkpoint.json")) + sorted(workdir.glob("*/ticket_*.json"))
    assert len(written) == 2 + 4
    for path in written:
        assert main(["inspect", str(path)]) == 0, path


def test_lth_requires_lth_config(workdir):
    cfg = write_config(workdir / "cfg.json")
    assert main(["lth", str(cfg)]) == 2


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
    main(["prune", str(src), "--sparsity", "50", "--out", str(out)])
    doc = json.loads(out.read_text())
    mask = doc["layers"][0]["mask"]
    values = np.frombuffer(base64.b64decode(mask["data"]), "<f8").copy()
    values[0] = 2
    mask["data"] = base64.b64encode(values.tobytes()).decode()
    out.write_text(json.dumps(doc))
    assert main(["inspect", str(out)]) == 1
    assert "non-binary" in capsys.readouterr().err


def test_inspect_global_sparsity_over_binary_layers(workdir, capsys):
    """A layer whose mask fails the binary check is left out of the global figure."""
    model = Model.from_specs(BASE_CONFIG["model"], Rng(7).child("init"))
    a, b = model.prunable_layers()
    a.mask = np.full(a.weights.shape, 0.5)
    b.mask = (np.arange(b.weights.size) % 4 != 0).astype(float).reshape(b.weights.shape)
    src = workdir / "masked.json"
    checkpoint.save(src, model)
    assert main(["inspect", str(src)]) == 1
    assert f"global sparsity: {sparsity_of(b.mask):.4f}" in capsys.readouterr().out


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
     lambda d: d["rewind_snapshot"].pop()),
])
def test_load_rejects_shape_mismatch(workdir, capsys, field, edit):
    path = workdir / "ckpt.json"
    _shape_test_checkpoint(path)
    assert main(["inspect", str(path)]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    for command in (["inspect", str(path)], ["prune", str(path), "--sparsity", "50"]):
        assert main(command) == 1
        assert f"error: {field}" in capsys.readouterr().err


def _drop(*path):
    """An edit that deletes the field at `path` and returns the document."""
    def edit(doc):
        obj = doc
        for key in path[:-1]:
            obj = obj[key]
        del obj[path[-1]]
        return doc
    return edit


def _put(value, *path):
    """An edit that sets the field at `path` to `value` and returns the document."""
    def edit(doc):
        obj = doc
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
        return doc
    return edit


def _edit_data(change, *path):
    """An edit that replaces the base64 data of the array at `path` by change(data)."""
    def edit(doc):
        array = doc
        for key in path:
            array = array[key]
        array["data"] = change(array["data"])
        return doc
    return edit


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
    ("layers[2].weights.data: missing", _drop("layers", 2, "weights", "data")),
    ("layers[0].mask.shape: missing", _drop("layers", 0, "mask", "shape")),
    ("rewind_snapshot[0].weights: missing", _drop("rewind_snapshot", 0, "weights")),
    ("rewind_snapshot[1].bias: missing", _drop("rewind_snapshot", 1, "bias")),
    ("rewind_snapshot[1]: expected an object, got list", _put([], "rewind_snapshot", 1)),
    ("plan: expected an object, got list", _put([], "plan")),
    ("checkpoint: expected an object, got list", lambda d: [d]),
    ("layers[0].spec.out: not an integer: inf", _put(float("inf"), "layers", 0, "spec", "out")),
    ("layers[0].spec.out: not an integer: 2.7", _put(2.7, "layers", 0, "spec", "out")),
    ("layers[0].spec.out: not an integer: '16'", _put("16", "layers", 0, "spec", "out")),
    ("layers[0].spec.in: not an integer: True", _put(True, "layers", 0, "spec", "in")),
    ("layers[0].spec.out: not a positive integer: -1", _put(-1, "layers", 0, "spec", "out")),
    ("layers[0].spec.in: not a positive integer: 0", _put(0, "layers", 0, "spec", "in")),
    ("layers[0].spec: array is too big", _put(2**62, "layers", 0, "spec", "out")),
    ("layers[0].weights: corrupt array:",  # a character outside the alphabet
     _edit_data(lambda data: data[:4] + "!" + data[4:], "layers", 0, "weights")),
    ("layers[2].history: corrupt array:",  # 255 bytes, not a whole number of float64
     _edit_data(lambda data: data[:-4], "layers", 2, "history")),
    ("layers[2].weights: corrupt array:",  # 15 float64 for a [16, 2] array
     _edit_data(lambda data: data[:160], "layers", 2, "weights")),
    ("layers[0].mask: corrupt array: Incorrect padding",
     _edit_data(lambda data: data[:-1], "layers", 0, "mask")),
    ("rewind_snapshot[0].bias: corrupt array:",  # a version-1 array: a list of numbers
     _put([0.0] * 16, "rewind_snapshot", 0, "bias", "data")),
    ("unsupported checkpoint format_version 1", _put(1, "format_version")),
    ("layers[0].spec.stride: unknown key", _put(2, "layers", 0, "spec", "stride")),
])
def test_load_rejects_missing_field(workdir, capsys, field, edit):
    path = workdir / "ckpt.json"
    _shape_test_checkpoint(path)
    doc = edit(json.loads(path.read_text()))
    path.write_text(json.dumps(doc))
    for command in (["inspect", str(path)], ["prune", str(path), "--sparsity", "50"]):
        assert main(command) == 1
        err = capsys.readouterr().err
        assert f"error: {field}" in err
        assert "Traceback" not in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("command, prune", [("run", None), ("run", {}), ("lth", {"lth": True})],
                         ids=["run_no_prune", "run_prune", "lth"])
def test_non_finite_loss_exits_1(workdir, capsys, command, prune):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["train"]["learning_rate"] = 1e300
    if prune is None:
        del doc["prune"]
    else:
        doc["prune"].update(prune)
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "error: training aborted: non-finite train_loss" in err
    assert "Traceback" not in err
    out = workdir / "demo-seed42"
    assert (out / "crash_checkpoint.json").exists()
    assert not (out / "checkpoint.json").exists()
