"""Acceptance suite: one test per release criterion, each printing a
PASS line when its assertions hold. Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import json

import numpy as np
import pytest

from prunekit import (Callback, Criterion, LayerScores, Model, Rng, ScheduleSpec, Sparsifier,
                      SparsifyCallback, SparsifyPlan, TrainConfig, accuracy, all_specs,
                      enumerate_blocks, eval_schedule, fit, make_dataset, parse_granularity,
                      score, select_global, select_local, sparsity_of, train_eval_split)
from prunekit.cli import main
from prunekit.train import softmax_cross_entropy

from test_granularity import index_gather
from test_selection import bruteforce_masks, singleton_layer
from test_sparsifier import FirstMasks
from test_training import convnet, grad_check, mlp

BLOBS = {"kind": "blobs2d", "n": 200, "separation": 4.0}
TS = [i / 10 for i in range(11)]

FROZEN_S80 = {
    "one_shot": [80.0] * 11,
    "iterative": [0.0, 16.0, 16.0, 32.0, 32.0, 48.0, 48.0, 64.0, 64.0, 80.0, 80.0],
    "gradual": [0.0, 21.68, 39.04, 52.56, 62.72, 70.0, 74.88, 77.84, 79.36, 79.92, 80.0],
    "one_cycle": [0.19787621034373692, 0.7964112259608767, 3.134308914644597,
                  11.351892050519206, 32.11575721437571, 58.50430571695542,
                  73.37078918421156, 78.27574810744976, 79.58778586241647,
                  79.91811895558408, 80.0],
    "dsd": [0.0, 7.639320225002103, 27.639320225002102, 52.3606797749979,
            72.36067977499789, 80.0, 72.36067977499789, 52.3606797749979,
            27.639320225002102, 7.639320225002103, 0.0],
}


def test_criterion_1_schedule_closed_forms():
    for kind, frozen in FROZEN_S80.items():
        spec = ScheduleSpec(kind, n_steps=5)
        for t, expected in zip(TS, frozen):
            assert abs(eval_schedule(spec, t, 80.0) - expected) < 1e-12, (kind, t)
    assert eval_schedule(ScheduleSpec("one_cycle"), 1.0, 63.0) == 63.0
    dsd = ScheduleSpec("dsd")
    assert eval_schedule(dsd, 0.0, 80.0) == 0.0 and eval_schedule(dsd, 1.0, 80.0) == 0.0
    it5 = ScheduleSpec("iterative", n_steps=5)
    assert len({eval_schedule(it5, t, 80.0) for t in np.linspace(0, 1, 1001)}) == 6
    print("ACCEPT 1 schedule closed forms: PASS")


def test_criterion_2_selection_oracle_equivalence():
    rng = Rng(2024)
    for _ in range(200):
        layers = []
        for li in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 65))
            scores = rng.normal(n)
            if rng.uniform(0, 1) < 0.5 and n > 2:
                scores[: n // 2] = scores[0]  # force ties
            layers.append(singleton_layer(scores, li))
        s = float(rng.uniform(0, 100))
        for ours, oracle in zip(select_local(layers, s), bruteforce_masks(layers, s, "local")):
            np.testing.assert_array_equal(ours, oracle)
        for ours, oracle in zip(select_global(layers, s), bruteforce_masks(layers, s, "global")):
            np.testing.assert_array_equal(ours, oracle)
    print("ACCEPT 2 selection oracle equivalence: PASS")


def test_criterion_3_granularity_partition_and_purity():
    rng = Rng(3)
    for _ in range(20):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                 int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        total = int(np.prod(shape))
        scores = rng.normal(shape)
        for spec in all_specs(4):
            part = enumerate_blocks(spec, shape)
            index = index_gather(spec, shape)
            np.testing.assert_array_equal(np.sort(part.rows(np.arange(total).reshape(shape)).ravel()),
                                          np.arange(total))
            assert part.n_blocks * part.block_size == total
            layer = LayerScores(part, scores.ravel()[index].mean(axis=1))
            [mask] = select_local([layer], 50)
            vals = mask.ravel()[index]
            assert np.all(vals.min(axis=1) == vals.max(axis=1))  # block purity
    print("ACCEPT 3 granularity partition + block purity: PASS")


def test_criterion_4_sparsity_exactness():
    rng = Rng(4)
    layers = [singleton_layer(rng.normal(n), i) for i, n in enumerate([17, 40, 64])]
    total = sum(len(l.block_scores) for l in layers)
    for s in (0, 10, 33, 50, 90, 100):
        for layer, mask in zip(layers, select_local(layers, s)):
            assert int((mask == 0).sum()) == int(np.floor(len(layer.block_scores) * s / 100))
        global_zeros = sum(int((m == 0).sum()) for m in select_global(layers, s))
        assert global_zeros == int(np.floor(total * s / 100))
    print("ACCEPT 4 sparsity exactness: PASS")


def test_criterion_5_gradient_correctness():
    worst = 0.0
    for seed in range(10):
        rng = Rng(seed)
        model = mlp(rng.child("init"))
        x = rng.normal((4, 2))
        y = np.array(rng.integers(0, 2, 4))
        worst = max(worst, grad_check(model, x, y))
        model = convnet(rng.child("conv_init"))
        x = rng.normal((2, 1, 8, 8))
        y = np.array(rng.integers(0, 2, 2))
        worst = max(worst, grad_check(model, x, y))
    assert worst < 1e-5
    print(f"ACCEPT 5 gradient correctness: PASS (max rel err {worst:.2e})")


def test_criterion_6_dynamic_pruning_run():
    cfg = TrainConfig(epochs=30, batch_size=32, learning_rate=0.1, seed=6, dataset=BLOBS)
    dense, _ = fit(mlp(Rng(6).child("init")), cfg)
    data = make_dataset(BLOBS, Rng(6).child("data"))
    dense_acc = accuracy(dense, *data)
    assert dense_acc >= 0.95

    plan = SparsifyPlan(sparsity=50.0, schedule=ScheduleSpec("gradual"))
    pruned, log = fit(mlp(Rng(6).child("init")), cfg, callbacks=[SparsifyCallback(plan)])
    sp = [r["model_sparsity"] for r in log]
    assert all(a <= b + 1e-12 for a, b in zip(sp, sp[1:]))
    assert abs(sp[-1] - 0.5) <= 1.0 / 32  # one block-quantum (smaller layer has 32 blocks)
    pruned_acc = accuracy(pruned, *data)
    assert pruned_acc >= 0.90
    print(f"ACCEPT 6 dynamic pruning run: PASS (dense {dense_acc:.3f}, pruned {pruned_acc:.3f})")


CONV_TRAIN = [  # perfbench's conv-train model
    {"kind": "conv2d", "in_ch": 1, "out_ch": 8, "kx": 3, "ky": 3}, {"kind": "relu"},
    {"kind": "conv2d", "in_ch": 8, "out_ch": 16, "kx": 3, "ky": 3}, {"kind": "relu"},
    {"kind": "flatten"}, {"kind": "dense", "in": 256, "out": 2},
]


@pytest.mark.parametrize("seed", [0, 1])
def test_criterion_6_conv_pruning_run(seed):
    patterns = {"kind": "patterns8x8", "n": 2000, "noise": 0.1}
    cfg = TrainConfig(epochs=10, batch_size=32, learning_rate=0.05, seed=seed, dataset=patterns)
    plan = SparsifyPlan(sparsity=80.0, granularity="weight", context="global",
                        criterion="large_final", schedule=ScheduleSpec("gradual"))
    model = Model.from_specs(CONV_TRAIN, Rng(seed).child("init"))
    pruned, log = fit(model, cfg, callbacks=[SparsifyCallback(plan)])
    masks = [layer.mask for layer in pruned.prunable_layers()]
    n_weights = sum(m.size for m in masks)
    n_pruned = n_weights * 80 // 100  # floor(n_blocks * s / 100) at one weight per block
    assert sum(int(np.sum(m == 0)) for m in masks) == n_pruned
    assert log[-1]["model_sparsity"] == n_pruned / n_weights
    assert all(np.all(layer.weights[layer.mask == 0] == 0) for layer in pruned.prunable_layers())
    _, (x_eval, y_eval) = train_eval_split(*make_dataset(patterns, Rng(seed).child("data")))
    acc = accuracy(pruned, x_eval, y_eval)
    assert acc >= 0.95
    print(f"ACCEPT 6 conv pruning run, seed {seed}: PASS (eval accuracy {acc:.3f})")


def test_criterion_7_lth_semantics():
    class Checking(SparsifyCallback):
        checks = []

        def _update_masks(self, state, step):
            super()._update_masks(state, step)
            for layer, (w, b) in zip(state["model"].prunable_layers(), self.rewind_snapshot):
                kept = layer.mask == 1
                Checking.checks.append(
                    bool(np.array_equal(layer.weights[kept], w[kept]))
                    and bool(np.all(layer.weights[layer.mask == 0] == 0)))

    plan = SparsifyPlan(
        sparsity=80.0, granularity="weight", context="global", criterion="large_final",
        schedule=ScheduleSpec("iterative", n_steps=4, start_epoch=1),
        lth=True)
    cfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=7, dataset=BLOBS)
    cb = Checking(plan)
    fit(mlp(Rng(7).child("init")), cfg, callbacks=[cb])
    assert Checking.checks and all(Checking.checks)
    assert len(cb.tickets) == 4
    assert [t.target_sparsity for t in cb.tickets] == [20.0, 40.0, 60.0, 80.0]
    prev = None
    for ticket in cb.tickets:
        assert abs(ticket.mask_sparsity - ticket.target_sparsity / 100) <= 1.0 / 64
        pruned = set(np.flatnonzero(np.concatenate([m.ravel() for m in ticket.masks]) == 0))
        if prev is not None:
            assert prev <= pruned
        prev = pruned
    print("ACCEPT 7 lottery-ticket semantics: PASS")


def test_criterion_8_static_dynamic_consistency():
    total = 4
    cfg_dense = TrainConfig(epochs=total - 1, batch_size=32, learning_rate=0.1, seed=8,
                            dataset=BLOBS)
    dense, _ = fit(mlp(Rng(8).child("init")), cfg_dense)
    static_masks = Sparsifier(dense.copy(), "weight", "global", "large_final").prune_model(50)

    plan = SparsifyPlan(sparsity=50.0, context="global",
                        schedule=ScheduleSpec("one_shot", start_epoch=total - 1, end_epoch=total))
    cb = FirstMasks(plan)
    cfg_dyn = TrainConfig(epochs=total, batch_size=32, learning_rate=0.1, seed=8, dataset=BLOBS)
    fit(mlp(Rng(8).child("init")), cfg_dyn, callbacks=[cb])
    for dyn, static in zip(cb.first_masks, static_masks):
        np.testing.assert_array_equal(dyn, static)
    print("ACCEPT 8 static/dynamic consistency: PASS")


def test_criterion_9_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("PRUNEKIT_OUTPUT_ROOT", str(tmp_path))
    doc = {
        "name": "det", "seed": 99,
        "model": [{"kind": "dense", "in": 2, "out": 16}, {"kind": "relu"},
                  {"kind": "dense", "in": 16, "out": 2}],
        "dataset": BLOBS,
        "train": {"epochs": 5, "batch_size": 32, "learning_rate": 0.1},
        "prune": {"sparsity": 50, "criterion": "movement", "context": "global",
                  "schedule": {"kind": "gradual"}},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    doc["output_dir"] = "a"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg)]) == 0
    doc["output_dir"] = "b"
    cfg.write_text(json.dumps(doc))
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()
    assert (tmp_path / "a" / "checkpoint.json").read_bytes() == (tmp_path / "b" / "checkpoint.json").read_bytes()
    print("ACCEPT 9 determinism: PASS")


def test_criterion_10_criterion_properties():
    rng = Rng(10)
    wf, wi = rng.normal(60), rng.normal(60)
    for kind in ("large_final", "magnitude_increase", "movement"):
        crit = Criterion(kind)
        base = np.argsort(-score(crit, wf, wi), kind="stable")
        for c in (0.1, 2.0, 1e3):
            np.testing.assert_array_equal(
                base, np.argsort(-score(crit, c * wf, c * wi), kind="stable"))

    keep_counts = np.zeros(100)
    for seed in range(1000):
        layer = singleton_layer(score(Criterion("random"), np.zeros(100), rng=Rng(seed)))
        [mask] = select_local([layer], 50)
        keep_counts += mask.ravel()
    freq = keep_counts / 1000
    assert np.all(freq >= 0.40) and np.all(freq <= 0.60)
    print("ACCEPT 10 criterion properties: PASS")
