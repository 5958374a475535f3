import numpy as np
import pytest

from prunekit import (Callback, ContextSpec, Criterion, Model, Rng, ScheduleSpec, Sparsifier,
                      SparsifyCallback, SparsifyPlan, TrainConfig, accuracy, fit, make_dataset,
                      model_sparsity, sparsity_of, train_eval_split)
from prunekit.sparsifier import compute_masks

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
    w * m at every update and after every step, a fresh history copy per
    update where the criterion reads one, an out-of-place rewind (no
    tickets) and the model sparsity recomputed from the masks at every step."""

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

    def _publish(self, state):
        super()._publish(state)
        state["model_sparsity"] = model_sparsity(state["model"].prunable_layers())

    def on_step_end(self, state):
        self._step_done(state, state["global_step"])
        self._reapply(state)
        self._publish(state)

    def on_train_end(self, state):
        if self.plan.reset_end:
            self._restore(state, masked=True)
            self._reapply(state)
        self._publish(state)


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
