import itertools
import tracemalloc

import numpy as np
import pytest

from prunekit import (Callback, ContextSpec, Criterion, Model, Rng, ScheduleSpec, Sparsifier,
                      SparsifyCallback, SparsifyPlan, TrainConfig, accuracy, fit, make_dataset,
                      model_sparsity, sparsity_of, train_eval_split)
from prunekit.granularity import BlockPartition
from prunekit.selection import LayerScores
from prunekit.sparsifier import Workspace, compute_masks

from test_granularity import index_gather
from test_selection import _sparsity_for, bruteforce_masks

BLOBS = {"kind": "blobs2d", "n": 200, "separation": 4.0}
PATTERNS = {"kind": "patterns8x8", "n": 60, "noise": 0.2}


def mlp(seed=None):
    rng = None if seed is None else Rng(seed).child("init")
    return Model.from_specs(
        [{"kind": "dense", "in": 2, "out": 16}, {"kind": "relu"},
         {"kind": "dense", "in": 16, "out": 2}], rng)


def test_prune_layer_weight_granularity():
    model = mlp()
    model.layers[0].weights = np.array([[1.0, 2.0], [3.0, 4.0]])
    model.layers[0].weight_shape = (2, 2)
    model.layers[0].bias = np.zeros(2)
    sp = Sparsifier(model, "weight", "local", "large_final")
    mask = sp.prune_layer(0, 50)
    np.testing.assert_array_equal(mask, [[0.0, 0.0], [1.0, 1.0]])
    np.testing.assert_array_equal(model.layers[0].weights, [[0.0, 0.0], [3.0, 4.0]])


def test_prune_layer_zero_sparsity():
    model = mlp(1)
    before = model.layers[0].weights.copy()
    Sparsifier(model, "weight", "local", "large_final").prune_layer(0, 0)
    np.testing.assert_array_equal(model.layers[0].weights, before)


def test_prune_layer_not_prunable():
    with pytest.raises(ValueError):
        Sparsifier(mlp(1), "weight", "local", "large_final").prune_layer(1, 50)


def test_prune_conv_filter_granularity():
    model = Model.from_specs([{"kind": "conv2d", "in_ch": 2, "out_ch": 2, "kx": 2, "ky": 2}],
                             Rng(2).child("init"))
    layer = model.layers[0]
    # block scores are means over i-slices; push slice 0 low
    layer.weights = np.abs(layer.weights) + 1.0
    layer.weights[0] *= 0.01
    sp = Sparsifier(model, "filter", "local", "large_final")
    mask = sp.prune_layer(0, 50)
    assert np.all(mask[0] == 0) and np.all(mask[1] == 1)


def test_prune_model_global_lands_in_low_layer():
    model = mlp()
    for layer in model.prunable_layers():
        layer.weights = np.ones(layer.weight_shape)
        layer.bias = np.zeros(layer.weight_shape[1])
    model.layers[0].weights *= 0.001  # 32 weights, all tiny
    masks = Sparsifier(model, "weight", "global", "large_final").prune_model(50)
    # 64 total weights: floor(32) pruned, all in the small layer
    assert sparsity_of(masks[0]) == 1.0
    assert sparsity_of(masks[1]) == 0.0


def test_prune_model_local_counts():
    model = mlp(3)
    for s in (0, 10, 33, 50, 90, 100):
        m = mlp(3)
        masks = Sparsifier(m, "weight", "local", "large_final").prune_model(s)
        for layer, mask in zip(m.prunable_layers(), masks):
            expected = int(np.floor(mask.size * s / 100.0))
            assert int((mask == 0).sum()) == expected


def test_prune_model_full_sparsity_bias_only():
    model = mlp(4)
    x = Rng(5).normal((6, 2))
    Sparsifier(model, "weight", "local", "large_final").prune_model(100)
    logits = model.forward(x)
    # all weights zero: logits equal the output bias for every input
    np.testing.assert_allclose(logits, np.broadcast_to(model.layers[-1].bias, logits.shape))


def test_prune_model_history_criterion_requires_history():
    with pytest.raises(ValueError):
        Sparsifier(mlp(6), "weight", "local", "movement").prune_model(50)


def test_prune_model_per_layer_list():
    model = mlp(7)
    masks = Sparsifier(model, "weight", "local", "large_final").prune_model([0, 100])
    assert sparsity_of(masks[0]) == 0.0 and sparsity_of(masks[1]) == 1.0


def test_static_pruning_masks_the_model_arrays_in_place():
    """prune_model and prune_layer write w * mask into each layer's own weights
    array, and apply_masks masks those arrays again."""
    model = mlp(23)
    layers = model.prunable_layers()
    arrays = [layer.weights for layer in layers]
    before = [w.copy() for w in arrays]
    sp = Sparsifier(model, "weight", "global", "large_final")
    masks = sp.prune_model(40)
    for layer, w, w0, mask in zip(layers, arrays, before, masks, strict=True):
        assert layer.weights is w and w.tobytes() == (w0 * mask).tobytes()
    before = arrays[0].copy()
    mask = sp.prune_layer(0, 70)
    assert layers[0].weights is arrays[0] and arrays[0].tobytes() == (before * mask).tobytes()
    arrays[1] += 1.0
    sp.apply_masks()
    assert layers[1].weights is arrays[1] and np.all(arrays[1][masks[1] == 0] == 0)


@pytest.mark.parametrize("criterion", ["large_final", "movement"])
def test_repeated_update_allocates_only_its_masks(criterion):
    """Once a Sparsifier's workspace holds its buffers (the first prune fills
    it), a prune_model scores and partitions in them, so its allocation peak
    is the masks it returns. Without the workspace it is about three times
    that: the scores, the partitioned copy and the masks."""
    model = Model.from_specs([{"kind": "dense", "in": 2, "out": 256}, {"kind": "relu"},
                              {"kind": "dense", "in": 256, "out": 256}, {"kind": "relu"},
                              {"kind": "dense", "in": 256, "out": 2}], Rng(4).child("init"))
    layers = model.prunable_layers()
    for layer in layers:
        layer.history = layer.weights.copy()
    sp = Sparsifier(model, "weight", "global", criterion)
    sp.workspace = Workspace()
    sp.prune_model(80)
    nudge = Rng(5)
    for layer in layers:
        layer.weights += 1e-3 * nudge.normal(layer.weights.shape)
    tracemalloc.start()
    try:
        masks = sp.prune_model(80)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * sum(m.nbytes for m in masks)


@pytest.mark.parametrize("granularity, context, targets", [
    ("weight", "global", (50, 70)),
    ("kernel", "local", (50, 70)),
    ("channel", "global", ([50, 30], [70, 90])),  # a per-layer list; channel rows are a copy
])
def test_reused_sparsifier_matches_fresh_ones(granularity, context, targets):
    """One Sparsifier, prune_layer and prune_model interleaved on its reused
    workspace, gives every call the masks of a fresh Sparsifier and of
    compute_masks without a workspace. Each call returns new arrays, and later
    calls leave the earlier ones as they were."""
    specs = [{"kind": "conv2d", "in_ch": 128, "out_ch": 128, "kx": 2, "ky": 2}, {"kind": "relu"},
             {"kind": "conv2d", "in_ch": 128, "out_ch": 128, "kx": 2, "ky": 1}]
    reused, fresh = (Model.from_specs(specs, Rng(8).child("init")) for _ in range(2))
    sp = Sparsifier(reused, granularity, context, "large_final")
    sp.workspace = Workspace()
    nudge = Rng(9)
    returned = []  # (array, its bytes when returned)
    for name, *args in [("prune_layer", 2, 30), ("prune_layer", 0, 40), ("prune_model", targets[0]),
                        ("prune_model", targets[1]), ("prune_layer", 2, 60)]:
        layers = [fresh.layers[args[0]]] if name == "prune_layer" else fresh.prunable_layers()
        plain = compute_masks(layers, granularity, ContextSpec(context), Criterion("large_final"),
                              args[-1])
        got = getattr(sp, name)(*args)
        want = getattr(Sparsifier(fresh, granularity, context, "large_final"), name)(*args)
        got, want = ([m] if name == "prune_layer" else m for m in (got, want))
        assert [m.tobytes() for m in got] == [m.tobytes() for m in want]
        assert [m.tobytes() for m in got] == [m.tobytes() for m in plain]
        assert not any(np.shares_memory(m, old) for m in got for old, _ in returned)
        returned += [(m, m.tobytes()) for m in got]
        assert all(m.tobytes() == b for m, b in returned)
        for a, b in zip(reused.prunable_layers(), fresh.prunable_layers(), strict=True):
            assert a.weights.tobytes() == b.weights.tobytes()
            step = 0.01 * nudge.normal(a.weights.shape)
            a.weights += step
            b.weights += step


def test_workspace_follows_a_layer_whose_shape_changes():
    """A layer given weights of another shape gets new buffers, not the old ones."""
    model = Model.from_specs([{"kind": "dense", "in": 256, "out": 128}], Rng(10).child("init"))
    layer = model.layers[0]
    sp = Sparsifier(model, "row", "global", "large_final")
    sp.workspace = Workspace()
    for shape in [(256, 128), (256, 128), (128, 256), (512, 128)]:
        if layer.weights.shape != shape:
            layer.weights = Rng(11).normal(shape)
        want = compute_masks([layer], "row", ContextSpec("global"), Criterion("large_final"), 50)
        assert [m.tobytes() for m in sp.prune_model(50)] == [m.tobytes() for m in want]


MIXED = [{"kind": "conv2d", "in_ch": 2, "out_ch": 3, "kx": 3, "ky": 2}, {"kind": "relu"},
         {"kind": "conv2d", "in_ch": 3, "out_ch": 4, "kx": 2, "ky": 2}, {"kind": "flatten"},
         {"kind": "dense", "in": 12, "out": 5}]
# granularities that resolve at rank 4 and at rank 2 -> their spanned axes at each rank
BOTH_RANKS = {"weight": (set(), set()), "row": ({3}, {1}), "0": ({0}, {0}), "1": ({1}, {1}),
              "0,1": ({0, 1}, {0, 1})}
ORACLE_SCORES = {
    "random": lambda w, wi, rng: rng.normal(w.shape),
    "large_final": lambda w, wi, rng: np.abs(w),
    "magnitude_increase": lambda w, wi, rng: np.abs(w) - np.abs(wi),
    "movement": lambda w, wi, rng: np.abs(w - wi),
}


def oracle_layer_scores(layers, granularity, criterion, rng):
    """LayerScores of every layer, from an independent score and a gather and
    mean over flat indices, with the spanned axes written out per rank."""
    scored = []
    for layer in layers:
        w = layer.weights
        spec = frozenset(BOTH_RANKS[granularity][w.ndim == 2])
        raw = ORACLE_SCORES[criterion](w, layer.history, rng)
        scored.append(LayerScores(BlockPartition(spec, w.shape),
                                  raw.ravel()[index_gather(spec, w.shape)].mean(axis=1)))
    return scored


def oracle_masks(layers, granularity, context, criterion, sparsity, seed):
    scored = oracle_layer_scores(layers, granularity, criterion, Rng(seed))
    if isinstance(sparsity, list):  # a per-layer list: each layer its own target
        return [bruteforce_masks([layer], s, "local")[0] for layer, s in zip(scored, sparsity)]
    return bruteforce_masks(scored, sparsity, context)


def mixed_model(seed):
    """The conv+conv+dense model with weights and histories on a 1/8 grid, so
    that many blocks tie and every block mean is exact."""
    model = Model.from_specs(MIXED, Rng(seed).child("init"))
    layers = model.prunable_layers()
    for i, layer in enumerate(layers):
        layer.weights = np.round(layer.weights * 8) / 8
        layer.history = np.round(Rng(seed + i + 1).normal(layer.weights.shape) * 4) / 8
    return layers


@pytest.mark.parametrize("granularity", list(BOTH_RANKS))
@pytest.mark.parametrize("criterion", ["random", "large_final", "magnitude_increase", "movement"])
def test_compute_masks_on_a_mixed_model_matches_the_oracle(granularity, criterion):
    """compute_masks on a conv+conv+dense model, with and without a workspace,
    under both contexts and a per-layer list, gives the brute-force oracle's
    masks, and no two of the masks it returns share memory."""
    layers = mixed_model(20)
    workspace = Workspace()
    for context, sparsity in itertools.product(("local", "global"), (0, 35.0, 62.5, 100,
                                                                     [20.0, 60.0, 90.0])):
        want = oracle_masks(layers, granularity, context, criterion, sparsity, seed=21)
        for ws in (None, workspace):
            got = compute_masks(layers, granularity, ContextSpec(context), Criterion(criterion),
                                sparsity, Rng(21), ws)
            assert [m.shape for m in got] == [m.shape for m in want]
            assert [m.tobytes() for m in got] == [m.tobytes() for m in want], (context, sparsity)
            assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(got, 2))
            assert not any(np.shares_memory(m, layer.weights) for m in got for layer in layers)


@pytest.mark.parametrize("granularity", ["weight", "row"])
def test_a_global_tie_across_a_layer_boundary_prunes_the_earliest_blocks(granularity):
    """Every block of the mixed model scores 0.5, so the tie at the cut runs
    from layer 0 through layer 2: the earliest k blocks are pruned, all of
    layer 0 and the head of layer 1, and every later tied block is kept."""
    layers = mixed_model(22)
    for layer in layers:
        layer.weights = np.full(layer.weights.shape, 0.5)
    spans = [BlockPartition(frozenset(BOTH_RANKS[granularity][l.weights.ndim == 2]),
                            l.weights.shape) for l in layers]
    n_blocks = [p.n_blocks for p in spans]
    sparsity = _sparsity_for(sum(n_blocks), n_blocks[0] + n_blocks[1] // 2)
    for ws in (None, Workspace()):
        got = compute_masks(layers, granularity, ContextSpec("global"),
                            Criterion("large_final"), sparsity, workspace=ws)
        want = oracle_masks(layers, granularity, "global", "large_final", sparsity, seed=0)
        assert [m.tobytes() for m in got] == [m.tobytes() for m in want]
        assert not got[0].any() and got[2].all()
        assert 0 < np.count_nonzero(got[1] == 0) < got[1].size


def test_static_sparsifier_makes_no_workspace():
    """Only the training callback reuses buffers: a static Sparsifier's prunes,
    here of 132 KiB of weights, allocate afresh and leave `workspace` None."""
    model = Model.from_specs([{"kind": "dense", "in": 2, "out": 128}, {"kind": "relu"},
                              {"kind": "dense", "in": 128, "out": 128}, {"kind": "relu"},
                              {"kind": "dense", "in": 128, "out": 2}], Rng(3).child("init"))
    assert sum(layer.weights.nbytes for layer in model.prunable_layers()) >= 128 * 1024
    sp = Sparsifier(model, "weight", "global", "large_final")
    sp.prune_model(50)
    sp.prune_layer(2, 60)
    sp.prune_model(70)
    assert sp.workspace is None


def test_callback_drops_the_workspace_when_training_ends():
    """A model with 16,896 weights, enough for its updates to keep a workspace
    from train begin to train end, and one with 320, whose updates keep none."""
    for hidden, held in [(128, True), (16, False)]:
        callback = SparsifyCallback(SparsifyPlan(
            sparsity=60.0, context="global", schedule=ScheduleSpec("gradual", update_frequency=8)))
        model = Model.from_specs([{"kind": "dense", "in": 2, "out": hidden}, {"kind": "relu"},
                                  {"kind": "dense", "in": hidden, "out": hidden}, {"kind": "relu"},
                                  {"kind": "dense", "in": hidden, "out": 2}], Rng(3).child("init"))
        seen = []

        class Workspaces(Callback):
            def on_train_begin(self, state):
                seen.append(callback._sparsifier.workspace is not None)

            def on_step_end(self, state):
                seen.append(callback._sparsifier.workspace is not None)

        cfg = TrainConfig(epochs=2, batch_size=32, learning_rate=0.1, seed=8, dataset=BLOBS)
        fit(model, cfg, callbacks=[callback, Workspaces()])
        assert len(seen) > 1 and set(seen) == {held}
        assert callback._sparsifier.workspace is None


def test_callback_random_criterion_needs_rng():
    """Refused at construction, not at the first mask update mid-run."""
    plan = SparsifyPlan(sparsity=50.0, criterion="random",
                        schedule=ScheduleSpec("gradual", start_epoch=1))
    with pytest.raises(ValueError, match="rng"):
        SparsifyCallback(plan)
    SparsifyCallback(plan, rng=Rng(0))


def test_model_sparsity_counts_zeros_of_binary_masks():
    model = mlp(8)
    layers = model.prunable_layers()
    assert model_sparsity(layers) == 0.0
    rng = Rng(9)
    for layer in layers:
        layer.mask = (rng.normal(layer.weights.shape) > 0.3).astype(float)
    got = model_sparsity(layers)
    zeros = sum(np.count_nonzero(l.mask == 0) for l in layers)
    assert type(got) is float and got == zeros / sum(l.mask.size for l in layers)


def test_callback_pruning_at_initialization():
    plan = SparsifyPlan(sparsity=50.0, schedule=ScheduleSpec("one_shot"))
    cb = SparsifyCallback(plan)
    seen = []

    class Probe(Callback):
        def on_step_end(self, state):
            seen.append(model_sparsity(state["model"].prunable_layers()))

    cfg = TrainConfig(epochs=2, batch_size=32, learning_rate=0.1, seed=8, dataset=BLOBS)
    fit(mlp(8), cfg, callbacks=[cb, Probe()])
    assert seen[0] == 0.5  # at target from the very first step
    assert all(v == 0.5 for v in seen)


def test_masks_frozen_after_window():
    plan = SparsifyPlan(sparsity=50.0, criterion="movement",
                        schedule=ScheduleSpec("gradual", end_epoch=3))
    cb = SparsifyCallback(plan)
    cfg = TrainConfig(epochs=6, batch_size=32, learning_rate=0.1, seed=9, dataset=BLOBS)
    model, log = fit(mlp(9), cfg, callbacks=[cb])
    spe = len(log) // 6
    hold = [r["model_sparsity"] for r in log[3 * spe:]]
    assert all(v == hold[0] for v in hold)


def test_gradual_run_nondecreasing_to_target():
    plan = SparsifyPlan(sparsity=50.0, schedule=ScheduleSpec("gradual"))
    cb = SparsifyCallback(plan)
    cfg = TrainConfig(epochs=10, batch_size=32, learning_rate=0.1, seed=10, dataset=BLOBS)
    model, log = fit(mlp(10), cfg, callbacks=[cb])
    sp = [r["model_sparsity"] for r in log]
    assert all(a <= b + 1e-12 for a, b in zip(sp, sp[1:]))
    n_blocks = sum(l.weights.size for l in model.prunable_layers())
    assert abs(sp[-1] - 0.5) <= 1.0 / 32  # one block-quantum of the smaller layer


def test_published_target_matches_closed_form():
    """Log row k (step k + 1) publishes 0 before the window [1, 3) epochs, the mean
    of the per-layer gradual curves s * (1 - (1 - t)^3) inside it and the mean
    target, 50, after it."""
    plan = SparsifyPlan(sparsity=[30.0, 70.0],
                        schedule=ScheduleSpec("gradual", start_epoch=1, end_epoch=3))
    cfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=19, dataset=BLOBS)
    _, log = fit(mlp(19), cfg, callbacks=[SparsifyCallback(plan)])
    spe = len(log) // 5
    start, end = spe, 3 * spe
    for k, row in enumerate(log):
        step = k + 1
        if step < start:
            expected = 0.0
        elif step < end:
            t = (step - start) / (end - start)
            expected = np.mean([s * (1 - (1 - t) ** 3) for s in (30.0, 70.0)])
        else:
            expected = 50.0
        assert abs(row["target_sparsity"] - expected) <= 1e-12, (k, row["target_sparsity"], expected)


def test_post_step_reapplication():
    plan = SparsifyPlan(sparsity=60.0, schedule=ScheduleSpec("one_shot"))
    cb = SparsifyCallback(plan)
    checks = []

    class Probe(Callback):
        def on_step_end(self, state):
            for layer in state["model"].prunable_layers():
                if layer.mask is not None:
                    checks.append(bool(np.all(layer.weights[layer.mask == 0] == 0)))

    cfg = TrainConfig(epochs=3, batch_size=32, learning_rate=0.1, seed=11, dataset=BLOBS)
    fit(mlp(11), cfg, callbacks=[cb, Probe()])
    assert checks and all(checks)


def lth_plan(n_steps=4, s=80.0, start=1, **kw):
    return SparsifyPlan(
        sparsity=s, granularity="weight", context="global", criterion="large_final",
        schedule=ScheduleSpec("iterative", n_steps=n_steps, start_epoch=start),
        lth=True, **kw)


def test_lth_resets_and_nesting():
    cfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=12, dataset=BLOBS)
    cb = SparsifyCallback(lth_plan())
    fit(mlp(12), cfg, callbacks=[cb])
    tickets = cb.tickets
    assert len(tickets) == 4
    targets = [t.target_sparsity for t in tickets]
    assert targets == [20.0, 40.0, 60.0, 80.0]
    prev_pruned = None
    for ticket in tickets:
        flat_mask = np.concatenate([m.ravel() for m in ticket.masks])
        pruned = set(np.flatnonzero(flat_mask == 0))
        if prev_pruned is not None:
            assert prev_pruned <= pruned  # nested masks
        prev_pruned = pruned
        # sparsity within one block-quantum of the round target
        assert abs(ticket.mask_sparsity - ticket.target_sparsity / 100) <= 1.0 / 64


def test_lth_tickets_rebuild_from_returned_snapshot():
    """snapshot x masks, under the snapshot's biases, scores exactly each ticket's accuracy."""
    cfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=12, dataset=BLOBS)
    cb = SparsifyCallback(lth_plan())
    fit(mlp(12), cfg, callbacks=[cb])
    tickets, snapshot = cb.tickets, cb.rewind_snapshot
    _, (x_eval, y_eval) = train_eval_split(*make_dataset(BLOBS, Rng(cfg.seed).child("data")))
    assert len(tickets) == 4
    for ticket in tickets:
        model = mlp()
        for layer, (w, b), mask in zip(model.prunable_layers(), snapshot, ticket.masks, strict=True):
            layer.weights, layer.bias, layer.mask = w * mask, b, mask
        assert accuracy(model, x_eval, y_eval) == ticket.accuracy


def test_reused_callback_keeps_only_the_last_fits_tickets():
    """A callback fitted twice holds the second fit's tickets and snapshot, as
    a fresh callback fitted once on the same model does."""
    cfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=12, dataset=BLOBS)
    reused, fresh = SparsifyCallback(lth_plan()), SparsifyCallback(lth_plan())
    fit(mlp(12), cfg, callbacks=[reused])
    fit(mlp(13), cfg, callbacks=[reused])
    fit(mlp(13), cfg, callbacks=[fresh])
    assert [t.round for t in reused.tickets] == [t.round for t in fresh.tickets] == [1, 2, 3, 4]
    for a, b in zip(reused.tickets, fresh.tickets):
        assert a.target_sparsity == b.target_sparsity and a.accuracy == b.accuracy
        for ma, mb in zip(a.masks, b.masks, strict=True):
            assert ma.tobytes() == mb.tobytes()
    for (wa, ba), (wb, bb) in zip(reused.rewind_snapshot, fresh.rewind_snapshot, strict=True):
        assert wa.tobytes() == wb.tobytes() and ba.tobytes() == bb.tobytes()


def test_lth_weights_equal_snapshot_after_reset():
    # instrumented subclass: right after every update, weights must be
    # exactly snapshot * mask
    class Checking(SparsifyCallback):
        checks = []

        def _update_masks(self, state, step):
            super()._update_masks(state, step)
            layers = [l for l in state["model"].layers if l.weights is not None]
            for layer, (w, b) in zip(layers, self.rewind_snapshot):
                if not layer.prunable:
                    continue
                expected = w * layer.mask
                Checking.checks.append(bool(np.array_equal(layer.weights, expected)))

    cfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=13, dataset=BLOBS)
    fit(mlp(13), cfg, callbacks=[Checking(lth_plan())])
    assert Checking.checks and all(Checking.checks)


def test_lth_rewind_epoch_snapshot_differs_from_init():
    cfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=14, dataset=BLOBS)
    model = mlp(14)
    w0 = [l.weights.copy() for l in model.prunable_layers()]
    plan = lth_plan(start=2, rewind_epoch=1)
    cb = SparsifyCallback(plan)
    fit(model, cfg, callbacks=[cb])
    snap_w = [w for w, b in cb.rewind_snapshot]
    assert any(not np.array_equal(a, b) for a, b in zip(w0, snap_w))


def test_lth_rewind_at_window_start_snapshots_before_the_update():
    """At rewind_epoch = start_epoch the snapshot holds the weights the optimizer
    left at step rewind_epoch * steps_per_epoch, before that step's mask update."""
    class WeightsAtRewind(Callback):
        def on_step_end(self, state):
            if state["global_step"] == state["steps_per_epoch"]:
                self.params = [(l.weights.copy(), l.bias.copy()) for l in state["model"].prunable_layers()]

    probe, cb = WeightsAtRewind(), SparsifyCallback(lth_plan(start=1, rewind_epoch=1))
    cfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=14, dataset=BLOBS)
    fit(mlp(14), cfg, callbacks=[probe, cb])
    assert len(cb.tickets) == 4
    for (w, b), (snap_w, snap_b) in zip(probe.params, cb.rewind_snapshot):
        np.testing.assert_array_equal(snap_w, w)
        np.testing.assert_array_equal(snap_b, b)


def test_lth_rewind_after_window_start_rejected():
    cfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=15, dataset=BLOBS)
    plan = lth_plan(start=1, rewind_epoch=3)
    with pytest.raises(Exception):
        fit(mlp(15), cfg, callbacks=[SparsifyCallback(plan)])


def test_reset_end_restores_snapshot():
    cfg = TrainConfig(epochs=4, batch_size=32, learning_rate=0.1, seed=16, dataset=BLOBS)
    plan = SparsifyPlan(sparsity=50.0, reset_end=True,
                        schedule=ScheduleSpec("one_shot"))
    cb = SparsifyCallback(plan)
    model, _ = fit(mlp(16), cfg, callbacks=[cb])
    layers = [l for l in model.layers if l.weights is not None]
    for layer, (w, b) in zip(layers, cb.rewind_snapshot):
        if layer.prunable:
            np.testing.assert_array_equal(layer.weights, w * layer.mask)


def test_static_dynamic_consistency():
    total = 4
    cfg_dense = TrainConfig(epochs=total - 1, batch_size=32, learning_rate=0.1, seed=18,
                            dataset=BLOBS)
    dense_model, _ = fit(mlp(18), cfg_dense)
    static_masks = Sparsifier(dense_model.copy(), "weight", "global",
                              "large_final").prune_model(50)

    plan = SparsifyPlan(sparsity=50.0, context="global",
                        schedule=ScheduleSpec("one_shot", start_epoch=total - 1, end_epoch=total))
    cb = FirstMasks(plan)
    cfg_dyn = TrainConfig(epochs=total, batch_size=32, learning_rate=0.1, seed=18, dataset=BLOBS)
    fit(mlp(18), cfg_dyn, callbacks=[cb])
    for dyn, static in zip(cb.first_masks, static_masks):
        np.testing.assert_array_equal(dyn, static)


class FirstMasks(SparsifyCallback):
    """SparsifyCallback that keeps a copy of the masks its first update computed."""
    first_masks = None

    def _update_masks(self, state, step):
        super()._update_masks(state, step)
        if self.first_masks is None:
            self.first_masks = [layer.mask.copy() for layer in state["model"].prunable_layers()]


class OutOfPlaceCallback(SparsifyCallback):
    """The mask lifecycle on new arrays, as an oracle for the in-place one:
    w * m at every update and before and after every step's update, a
    fresh history copy per update where the criterion reads one, an
    out-of-place rewind (no tickets) and the model sparsity recomputed from
    the masks at every step."""

    def _update_masks(self, state, step):
        layers = state["model"].prunable_layers()
        target = self._targets(step)
        criterion = Criterion(self.plan.criterion)
        masks = compute_masks(layers, self.plan.granularity, ContextSpec(self.plan.context),
                              criterion, target, self.rng)
        for layer, mask in zip(layers, masks):
            layer.mask = mask
            layer.weights = layer.weights * mask
            if criterion.reads == "history":
                layer.history = layer.weights.copy()
        if self.plan.lth:
            self._restore(state, masked=True)

    def _restore(self, state, masked):
        params = iter(self.rewind_snapshot)
        for layer in state["model"].layers:
            if layer.weights is not None:
                w, b = next(params)
                keep = masked and layer.prunable and layer.mask is not None
                layer.weights = w * layer.mask if keep else w.copy()
                layer.bias = b.copy()

    def _reapply(self, state):
        for layer in state["model"].prunable_layers():
            if layer.mask is not None:
                layer.weights = layer.weights * layer.mask

    def _step_done(self, state, step):
        super()._step_done(state, step)
        state["model_sparsity"] = model_sparsity(state["model"].prunable_layers())

    def on_step_end(self, state):
        self._reapply(state)
        self._step_done(state, state["global_step"])
        self._reapply(state)

    def on_train_end(self, state):
        if self.plan.reset_end:
            self._restore(state, masked=True)
            self._reapply(state)


def _model_bytes(model) -> bytes:
    """Weights, biases, masks and histories of every layer, as one byte string."""
    arrays = [getattr(layer, name, None) for layer in model.layers
              for name in ("weights", "bias", "mask", "history")]
    return b"|".join(b"-" if a is None else a.tobytes() for a in arrays)


class StepBytes(Callback):
    """Records _model_bytes after every step, once the sparsifier has run."""

    def __init__(self):
        self.steps = []

    def on_step_end(self, state):
        self.steps.append(_model_bytes(state["model"]))


def convs_only(seed):
    return Model.from_specs(
        [{"kind": "conv2d", "in_ch": 1, "out_ch": 3, "kx": 3, "ky": 2}, {"kind": "relu"},
         {"kind": "conv2d", "in_ch": 3, "out_ch": 2, "kx": 6, "ky": 7}, {"kind": "flatten"}],
        Rng(seed).child("init"))


@pytest.mark.parametrize("model, dataset, plan", [
    (mlp, BLOBS, dict(sparsity=60.0, context="global", schedule=ScheduleSpec("gradual", update_frequency=8))),
    (mlp, BLOBS, dict(sparsity=70.0, criterion="movement", schedule=ScheduleSpec("one_cycle", update_frequency=3))),
    (mlp, BLOBS, dict(sparsity=50.0, criterion="magnitude_increase", context="global",
                      schedule=ScheduleSpec("iterative", start_epoch=1, update_frequency=2))),
    (mlp, BLOBS, dict(sparsity=[30.0, 80.0], criterion="movement", schedule=ScheduleSpec("gradual"))),
    (mlp, BLOBS, dict(sparsity=70.0, reset_end=True, rewind_epoch=1,
                      schedule=ScheduleSpec("gradual", start_epoch=1, update_frequency=2))),
    (mlp, BLOBS, dict(sparsity=80.0, context="global", criterion="magnitude_increase", lth=True,
                      schedule=ScheduleSpec("iterative", n_steps=3, start_epoch=1, update_frequency=2))),
    (convs_only, PATTERNS, dict(sparsity=50.0, granularity="kernel", context="global",
                                criterion="movement", schedule=ScheduleSpec("gradual", update_frequency=4))),
    (convs_only, PATTERNS, dict(sparsity=50.0, granularity="shared_kernel",
                                schedule=ScheduleSpec("gradual", update_frequency=4))),
])
def test_in_place_lifecycle_matches_out_of_place_oracle(model, dataset, plan):
    """The callback's in-place masking, in-place history refill and skipped
    reapply after an update leave the same bytes as new arrays at every step."""
    cfg = TrainConfig(epochs=4, batch_size=16, learning_rate=0.1, momentum=0.9, seed=21, dataset=dataset)
    runs = []
    for callback in (SparsifyCallback, OutOfPlaceCallback):
        trace = StepBytes()
        trained, log = fit(model(21), cfg, callbacks=[callback(SparsifyPlan(**plan)), trace])
        runs.append((repr(log), trace.steps, _model_bytes(trained)))
    assert runs[0] == runs[1]
    assert 0 < model_sparsity(trained.prunable_layers()) < 1


def test_callback_keeps_weights_and_history_arrays():
    """Masking and the history refill write into the arrays the layers started with."""
    plan = SparsifyPlan(sparsity=60.0, criterion="movement",
                        schedule=ScheduleSpec("gradual", update_frequency=8))

    class SameArrays(Callback):
        def on_train_begin(self, state):
            self.layers = state["model"].prunable_layers()
            self.arrays = [(layer.weights, layer.history) for layer in self.layers]
            self.same = []

        def on_step_end(self, state):
            self.same.append(all(layer.weights is w and layer.history is h
                                 for layer, (w, h) in zip(self.layers, self.arrays)))

    probe = SameArrays()
    cfg = TrainConfig(epochs=3, batch_size=32, learning_rate=0.1, momentum=0.5, seed=22, dataset=BLOBS)
    model, log = fit(mlp(22), cfg, callbacks=[SparsifyCallback(plan), probe])
    assert len(probe.same) == len(log) and all(probe.same)
    assert model_sparsity(model.prunable_layers()) > 0.5


@pytest.mark.parametrize("plan", [
    lth_plan(),
    SparsifyPlan(sparsity=70.0, reset_end=True, rewind_epoch=1,
                 schedule=ScheduleSpec("gradual", start_epoch=1, update_frequency=2)),
])
def test_rewinds_keep_the_parameter_arrays(plan):
    """An LTH rewind and reset_end copy the snapshot into the weights and
    biases the layers started with: after fit each is the same array."""
    class Arrays(Callback):
        def on_train_begin(self, state):
            self.layers = state["model"].prunable_layers()
            self.arrays = [(layer.weights, layer.bias) for layer in self.layers]

    probe, cb = Arrays(), SparsifyCallback(plan)
    cfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, momentum=0.5, seed=23, dataset=BLOBS)
    fit(mlp(23), cfg, callbacks=[probe, cb])
    assert cb.rewind_snapshot is not None
    assert len(probe.layers) == 2
    for layer, (w, b), (snap_w, snap_b) in zip(probe.layers, probe.arrays, cb.rewind_snapshot,
                                               strict=True):
        assert layer.weights is w and layer.bias is b
        assert w is not snap_w and b is not snap_b


# The keys fit's docstring documents for the state every hook receives.
STATE_KEYS = {"model", "config", "epoch", "global_step", "steps_per_epoch", "total_epochs",
              "x_eval", "y_eval", "train_loss", "train_acc", "model_sparsity", "target_sparsity"}


@pytest.mark.parametrize("plan", [None, lth_plan(), SparsifyPlan(sparsity=[30.0, 70.0])])
def test_state_holds_the_documented_keys(plan):
    """At on_train_begin, every on_step_end and on_train_end, after any
    sparsify callback has run, the state holds exactly the documented keys."""
    class Keys(Callback):
        def __init__(self):
            self.seen = []

        def on_train_begin(self, state):
            self.seen.append(("on_train_begin", set(state)))

        def on_step_end(self, state):
            self.seen.append(("on_step_end", set(state)))

        def on_train_end(self, state):
            self.seen.append(("on_train_end", set(state)))

    probe = Keys()
    callbacks = [probe] if plan is None else [SparsifyCallback(plan), probe]
    cfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=24, dataset=BLOBS)
    _, log = fit(mlp(24), cfg, callbacks=callbacks)
    events = [event for event, _ in probe.seen]
    assert events == ["on_train_begin"] + ["on_step_end"] * len(log) + ["on_train_end"]
    for event, keys in probe.seen:
        assert keys == STATE_KEYS, event
