import json
import os

import numpy as np
import pytest

from prunekit import checkpoint
from prunekit.cli import main
from prunekit.layers import Model
from prunekit.rng import Rng


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
               "lth": True, "save_tickets": True})
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
    doc["layers"][0]["mask"]["data"][0] = 2
    out.write_text(json.dumps(doc))
    assert main(["inspect", str(out)]) == 1
    assert "non-binary" in capsys.readouterr().err


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
