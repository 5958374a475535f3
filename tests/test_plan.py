import json
import math

import pytest

from prunekit import (Model, Rng, ScheduleSpec, SparsifyCallback, SparsifyPlan, TrainConfig, checkpoint,
                      fit, model_sparsity)
from prunekit.cli import main
from prunekit.config import load_config

from checkpoint_files import split
from test_cli import BASE_CONFIG, workdir, write_config  # noqa: F401 (workdir is a fixture)

BLOBS = {"kind": "blobs2d", "n": 200, "separation": 4.0}


def test_plan_sparsity_is_the_only_target():
    """A schedule carries no target: a plan that asks for 80 reaches 80."""
    model = Model.from_specs(BASE_CONFIG["model"], Rng(1).child("init"))
    plan = SparsifyPlan(sparsity=80.0, schedule=ScheduleSpec("gradual"))
    cfg = TrainConfig(epochs=4, batch_size=32, learning_rate=0.1, seed=1, dataset=BLOBS)
    fit(model, cfg, callbacks=[SparsifyCallback(plan)])
    layers = model.prunable_layers()
    expected = sum(math.floor(l.weights.size * 0.8) for l in layers) / sum(l.weights.size for l in layers)
    assert model_sparsity(layers) == expected


@pytest.mark.parametrize("plan", [
    SparsifyPlan(80.0, schedule=ScheduleSpec("gradual", end_epoch=3)),
    SparsifyPlan((10, 90), "row", "local", "movement",
                 ScheduleSpec("one_cycle", start_epoch=1, end_epoch=3, update_frequency=2, alpha=10, beta=5),
                 lth=True, rewind_epoch=1, reset_end=True),
    SparsifyPlan(0, "1,2", schedule=None),
], ids=["schedule_target", "every_field", "static"])
def test_to_dict_round_trip(plan):
    assert SparsifyPlan.from_dict(plan.to_dict()) == plan
    assert SparsifyPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan
    assert "final_sparsity" not in json.dumps(plan.to_dict())


def _plan_in(path):
    return SparsifyPlan.from_dict(split(path)[0]["plan"])


def test_checkpoint_plans_load_back(workdir):
    cfg = write_config(workdir / "run.json", output_dir="run")
    assert main(["run", str(cfg)]) == 0
    assert _plan_in(workdir / "run" / "checkpoint.json") == load_config(cfg).plan

    cfg = write_config(workdir / "lth.json", output_dir="lth",
                       train={"epochs": 5, "batch_size": 32, "learning_rate": 0.1},
                       prune={"sparsity": 80, "context": "global",
                              "schedule": {"kind": "iterative", "n_steps": 4, "start_epoch": 1},
                              "lth": True})
    assert main(["run", str(cfg)]) == 0
    plan = load_config(cfg).plan
    written = sorted((workdir / "lth").glob("ticket_*.json")) + [workdir / "lth" / "checkpoint.json"]
    assert len(written) == 5
    for path in written:
        assert _plan_in(path) == plan

    dense, pruned = workdir / "dense.json", workdir / "pruned.json"
    checkpoint.save(dense, Model.from_specs(BASE_CONFIG["model"], Rng(1).child("init")))
    assert main(["prune", str(dense), "--sparsity", "50", "--context", "global",
                 "--out", str(pruned)]) == 0
    assert _plan_in(pruned) == SparsifyPlan(50.0, "weight", "global", "large_final", schedule=None)


@pytest.mark.parametrize("field, plan", [
    ("plan.schedule.final_sparsity: unknown key",
     {"sparsity": 50.0, "schedule": {"kind": "gradual", "final_sparsity": 50.0}}),
    ("plan.granularity: not a string: 3", {"sparsity": 50.0, "granularity": 3}),
    ("plan.save_tickets: unknown key", {"sparsity": 50.0, "save_tickets": True}),
    ("plan.schedule.alpha: not read by schedule 'gradual'",
     {"sparsity": 50.0, "schedule": {"kind": "gradual", "alpha": 3.0}}),
    ("plan.context: 'global' beside a per-layer sparsity list, which gives each layer its own "
     "target: only 'local' does", {"sparsity": [50.0, 50.0], "context": "global"}),
])
def test_inspect_rejects_bad_plan(workdir, capsys, field, plan):
    path = workdir / "ckpt.json"
    checkpoint.save(path, Model.from_specs(BASE_CONFIG["model"], Rng(1).child("init")), plan=plan)
    for command in (["inspect", str(path)], ["prune", str(path), "--sparsity", "50"]):
        assert main(command) == 1
        assert capsys.readouterr().err.strip() == f"error: {field}"


def _prune(**fields):
    return lambda doc: doc["prune"].update(fields)


def _schedule(**fields):
    return lambda doc: doc["prune"]["schedule"].update(fields)


@pytest.mark.parametrize("field, edit", [
    ("prune.sparsity[1]", _prune(sparsity=[10, "x"])),
    ("prune.granularity", _prune(granularity=3)),
    ("prune", lambda d: d.update(prune=["x"])),
    ("dataset", lambda d: d.update(dataset=[BLOBS])),
    ("train", lambda d: d.update(train=7)),
    ("prune.sparsity", _prune(sparsity="abc")),
    ("prune.sparsity", _prune(sparsity=[50, 50, 50])),
    ("prune.context", _prune(sparsity=[50, 50], context="global")),
    ("prune.schedule.end_epoch", _schedule(end_epoch=9)),
    ("prune.schedule.start_epoch", _schedule(start_epoch=4)),
    ("prune.rewind_epoch", _prune(lth=True, rewind_epoch=2, schedule={"kind": "gradual", "start_epoch": 1})),
    ("prune.lth", _prune(lth="false")),
    ("prune.rewind_epoch", _prune(rewind_epoch=1.5)),
    ("prune.rewind_epoch", _prune(rewind_epoch=1)),
    ("prune.schedule.n_steps", _schedule(kind="gradual", n_steps=3, alpha=99, beta=-5)),
    ("prune.schedule.update_frequency", _schedule(update_frequency=2.5)),
    ("prune.schedule.final_sparsity", _schedule(final_sparsity=20)),
    ("prune.schedule", _prune(schedule=None)),
    ("prune.sparsity_target", _prune(sparsity_target=80)),
    ("train.epochs", lambda d: d["train"].update(epochs=2.5)),
    ("train.epochs", lambda d: d["train"].update(epochs="x")),
    ("seed", lambda d: d.update(seed="42")),
    ("model[0].in", lambda d: d["model"][0].update({"in": 2.7})),
    ("dataset.n", lambda d: d["dataset"].update(n="x")),
    ("dataset.n", lambda d: d["dataset"].update(n=1)),
    ("dataset.separation", lambda d: d["dataset"].update(separation="4")),
    ("output_dir", lambda d: d.update(output_dir=5)),
    ("prune.schedule.alpha", _schedule(kind="one_cycle", alpha=-1000)),
    ("prune.schedule.beta", _schedule(kind="one_cycle", beta=710)),
    ("prune.schedule.kind", _schedule(kind="gradual_paper_literal")),
    ("prune.save_tickets", _prune(lth=True, save_tickets=True)),
    ("prnue", lambda d: d.update(prnue=d.pop("prune"))),
    ("train.learning_rte", lambda d: d["train"].update(learning_rte=0.1)),
    ("dataset.nosie", lambda d: d["dataset"].update(nosie=0.2)),
])
def test_config_error_names_field(workdir, capsys, field, edit):
    doc = json.loads(json.dumps(BASE_CONFIG))
    edit(doc)
    (workdir / "cfg.json").write_text(json.dumps(doc))
    assert main(["run", str(workdir / "cfg.json")]) == 2
    assert capsys.readouterr().err.startswith(f"config error at {field}: ")
    assert not list(workdir.rglob("crash_checkpoint.json"))


@pytest.mark.parametrize("prune", [
    {"sparsity": 80, "schedule": {"kind": "one_cycle", "alpha": -1}},
    # the mean target, 50, would start at 82.4 and pass; the largest, 90, starts at 148.2
    {"sparsity": [10, 90], "schedule": {"kind": "one_cycle", "alpha": -0.5}},
], ids=["scalar", "per_layer"])
def test_one_cycle_start_above_100_rejected_at_load(workdir, capsys, prune):
    """A negative alpha makes one_cycle fall from above its target; above 100 it exits 2 at load."""
    assert main(["run", str(write_config(workdir / "cfg.json", prune=prune))]) == 2
    assert capsys.readouterr().err.startswith("config error at prune.schedule.alpha: one_cycle starts at ")
    assert not [p for p in workdir.iterdir() if p.is_dir()]
    at_100 = {"sparsity": 100, "schedule": {"kind": "one_cycle", "alpha": 0}}  # flat at 100
    assert load_config(write_config(workdir / "cfg.json", prune=at_100)).plan.schedule.alpha == 0


FUZZ_CONFIG = {
    "name": "fuzz", "seed": 3, "output_dir": "fuzz-out",
    "model": [{"kind": "dense", "in": 2, "out": 8}, {"kind": "relu"},
              {"kind": "dense", "in": 8, "out": 2}],
    "dataset": BLOBS,
    "train": {"epochs": 4, "batch_size": 16, "learning_rate": 0.1, "momentum": 0.5},
    "prune": {"sparsity": 50, "granularity": "weight", "context": "local",
              "criterion": "large_final", "lth": True, "rewind_epoch": 1, "reset_end": False,
              "schedule": {"kind": "iterative", "start_epoch": 1, "end_epoch": 3,
                           "update_frequency": 2, "n_steps": 2, "alpha": 14.0, "beta": 6.0}},
}
# a patterns8x8 variant, for the dataset key only patterns8x8 reads
PATTERNS_FUZZ_CONFIG = dict(
    FUZZ_CONFIG, dataset={"kind": "patterns8x8", "n": 40, "noise": 0.1},
    model=[{"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kx": 3, "ky": 3}, {"kind": "relu"},
           {"kind": "flatten"}, {"kind": "dense", "in": 72, "out": 2}])
INTEGER_KEYS = {"in", "out", "epochs", "batch_size", "rewind_epoch", "start_epoch", "end_epoch",
                "update_frequency", "n_steps", "n"}
NUMBER_KEYS = {"sparsity", "learning_rate", "momentum", "alpha", "beta", "separation", "noise"}
BOOLEAN_KEYS = {"lth", "reset_end"}


def _fuzz_targets():
    """(config, field path as the error names it, the object in config holding
    the key, key) for every key."""
    doc = json.loads(json.dumps(FUZZ_CONFIG))
    targets = [(f"model[{i}].{key}", spec, key) for i, spec in enumerate(doc["model"]) for key in spec]
    targets += [("output_dir", doc, "output_dir"), ("name", doc, "name")]
    for path, section in (("dataset.", doc["dataset"]), ("train.", doc["train"]), ("prune.", doc["prune"]),
                          ("prune.schedule.", doc["prune"]["schedule"])):
        targets += [(path + key, section, key) for key in section]
    patterns = json.loads(json.dumps(PATTERNS_FUZZ_CONFIG))
    return [(doc, *t) for t in targets] + [(patterns, "dataset.noise", patterns["dataset"], "noise")]


def _corruptions(key, valid, rng):
    """A wrong-typed value, a non-integral number, an out-of-range value and a
    container, each drawn from rng; a corruption the key accepts is left out."""
    n = int(rng.integers(1, 5))
    u = float(rng.uniform(0.05, 0.95))
    if key in INTEGER_KEYS | NUMBER_KEYS:
        wrong = [str(valid), "x"][n % 2]
    elif key in BOOLEAN_KEYS:
        wrong = ["false", "true", 0, 1][n - 1]
    else:
        wrong = n
    out_of_range = {
        "in": 1 - n, "out": 1 - n, "epochs": 1 - n, "batch_size": 1 - n, "update_frequency": 1 - n,
        "n_steps": 1 - n, "start_epoch": -n,
        "rewind_epoch": 1 + n,  # past the window start, 1
        "end_epoch": 4 + n,  # past train.epochs, 4
        "sparsity": [-u, 100 + u][n % 2], "learning_rate": -u, "momentum": 1 + u,
        "alpha": math.inf, "beta": -math.inf, "n": 2 - n, "separation": math.nan, "noise": math.inf,
        "kind": f"unknown{n}", "granularity": f"unknown{n}", "context": f"unknown{n}",
        "criterion": f"unknown{n}",
    }
    container = [valid] if isinstance(valid, dict) else [[valid], {"value": valid}][n % 2]
    values = [wrong, container]
    if key not in NUMBER_KEYS:
        values.append(n + u)
    if key in out_of_range:
        values.append(out_of_range[key])
    return values


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_config_fuzz(workdir, capsys, seed):
    """Corrupt one field of a valid config at a time: each exits 2 naming it."""
    path = workdir / "cfg.json"
    for config in (FUZZ_CONFIG, PATTERNS_FUZZ_CONFIG):
        path.write_text(json.dumps(config))
        assert load_config(path).plan.schedule.kind == "iterative"
    rng = Rng(seed)
    cases = 0
    for doc, field, holder, key in _fuzz_targets():
        valid = holder[key]
        for value in _corruptions(key, valid, rng):
            holder[key] = value
            path.write_text(json.dumps(doc))
            assert main(["run", str(path)]) == 2, (field, value)
            err = capsys.readouterr().err
            assert err.startswith(f"config error at {field}: "), (field, value, err)
            assert "Traceback" not in err
            cases += 1
        holder[key] = valid
    assert cases > 80
    assert not list(workdir.rglob("crash_checkpoint.json"))
    assert not [p for p in workdir.iterdir() if p.is_dir()]


@pytest.mark.parametrize("dataset, field", [
    (dict(BLOBS, noise=0.2), "dataset.noise"),
    ({"kind": "patterns8x8", "n": 40, "separation": 4.0}, "dataset.separation"),
])
def test_dataset_key_of_another_kind_exit_2(workdir, capsys, dataset, field):
    cfg = write_config(workdir / "cfg.json", dataset=dataset)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {field}: not read by dataset kind "), err
    assert not [p for p in workdir.iterdir() if p.is_dir()]
