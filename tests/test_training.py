import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from prunekit import (Callback, Conv2d, Dense, FieldError, Flatten, Model, ReLU, Rng,
                      ScheduleSpec, SparsifyCallback, SparsifyPlan, TrainConfig, TrainingAborted,
                      accuracy, fit, make_dataset, sgd_step)
from prunekit import train as train_module
from prunekit.config import load_config
from prunekit.datasets import BLOB_STD, input_shape, train_eval_split
from prunekit.train import softmax_cross_entropy

BLOBS = {"kind": "blobs2d", "n": 200, "separation": 4.0}


def mlp(rng=None):
    return Model.from_specs(
        [{"kind": "dense", "in": 2, "out": 16}, {"kind": "relu"},
         {"kind": "dense", "in": 16, "out": 2}], rng)


def convnet(rng=None):
    return Model.from_specs(
        [{"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kx": 3, "ky": 3},
         {"kind": "relu"}, {"kind": "flatten"},
         {"kind": "dense", "in": 72, "out": 2}], rng)


# perfbench's conv-train model
CONV_TRAIN_SPECS = [
    {"kind": "conv2d", "in_ch": 1, "out_ch": 8, "kx": 3, "ky": 3}, {"kind": "relu"},
    {"kind": "conv2d", "in_ch": 8, "out_ch": 16, "kx": 3, "ky": 3}, {"kind": "relu"},
    {"kind": "flatten"}, {"kind": "dense", "in": 256, "out": 2},
]


def convnet2(rng=None):
    return Model.from_specs(
        [{"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kx": 3, "ky": 3}, {"kind": "relu"},
         {"kind": "conv2d", "in_ch": 2, "out_ch": 3, "kx": 3, "ky": 3},
         {"kind": "flatten"}, {"kind": "dense", "in": 48, "out": 2}], rng)


def test_dense_identity_forward():
    layer = Dense(3, 3)
    layer.weights = np.eye(3)
    x = Rng(0).normal((4, 3))
    np.testing.assert_array_equal(layer.forward(x), x)


def test_conv_hand_example():
    layer = Conv2d(1, 1, 2, 2)
    layer.weights = np.ones((1, 1, 2, 2))
    out = layer.forward(np.ones((1, 1, 3, 3)))
    np.testing.assert_array_equal(out, np.full((1, 1, 2, 2), 4.0))


def test_relu():
    np.testing.assert_array_equal(ReLU().forward(np.array([[-1.0, 2.0]])), [[0.0, 2.0]])


def test_shape_rules():
    conv = Conv2d(2, 4, 3, 2)
    assert conv.out_shape((2, 5, 2)) == (4, 3, 1)
    assert conv.out_shape(None) == conv.out_shape((2, None, None)) == (4, None, None)
    assert Dense(3, 5).out_shape(None) == Dense(3, 5).out_shape((None,)) == (5,)
    assert Flatten().out_shape((4, 3, 1)) == (12,)
    assert Flatten().out_shape(None) == Flatten().out_shape((4, None, None)) == (None,)
    assert ReLU().out_shape((4, None, None)) == (4, None, None)
    for layer, shape, message in [
        (Dense(3, 5), (4,), "in: 3, but its input is [4]"),
        (Dense(3, 5), (3, 1, 1), "in: 3, but its input is [3, 1, 1]"),
        (Dense(3, 5), (), "in: 3, but its input is []"),
        (conv, (3, 5, 5), "in_ch: 2, but its input is [3, 5, 5]"),
        (conv, (2, 5), "in_ch: 2, but its input is [2, 5]"),
        (conv, (None,), "in_ch: 2, but its input is [None]"),
        (conv, (2, 2, 5), "kx: 3, but its input is [2, 2, 5]"),
        (conv, (2, 5, 1), "ky: 2, but its input is [2, 5, 1]"),
    ]:
        with pytest.raises(FieldError) as info:
            layer.out_shape(shape)
        assert str(info.value) == message


def test_forward_checks_its_batch_by_the_shape_rule():
    dense, conv = Dense(3, 5), Conv2d(2, 4, 3, 2)
    for layer in (dense, conv):
        layer.init(Rng(0))
    with pytest.raises(FieldError, match=r"^in: 3, but its input is \[4\]$"):
        dense.forward(np.zeros((2, 4)))
    with pytest.raises(FieldError, match=r"^kx: 3, but its input is \[2, 2, 5\]$"):
        conv.forward(np.zeros((2, 2, 2, 5)))
    with pytest.raises(FieldError, match=r"^in_ch: 2, but its input is \[2, 5\]$"):
        conv.forward_eval(np.zeros((2, 2, 5)))


def test_shape_pass_gives_the_forward_output_shape(monkeypatch):
    """For every shipped config, perfbench model and test model, the pass from
    its dataset's sample shape gives the shape forward returns, and the pass
    from an unknown shape, as a checkpoint's, agrees wherever it knows a size."""
    root = Path(__file__).resolve().parent.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    import workloads
    from test_cli import BASE_CONFIG, FUZZ_MODEL
    from test_plan import PATTERNS_FUZZ_CONFIG
    from test_sparsifier import convs_only

    patterns = {"kind": "patterns8x8", "noise": 0.1}
    cases = [(path.name, config.model_specs, config.dataset)
             for path in sorted((root / "configs").glob("*.json"))
             for config in [load_config(path)]]
    cases += [(w.name, w.config["model"], w.config["dataset"])
              for w in (workloads.ConvTrain, workloads.MlpPerStep)]
    cases += [("test_cli", BASE_CONFIG["model"], BASE_CONFIG["dataset"]),
              ("test_cli fuzz", FUZZ_MODEL, patterns),
              ("test_plan fuzz", PATTERNS_FUZZ_CONFIG["model"], PATTERNS_FUZZ_CONFIG["dataset"]),
              ("mlp", mlp().specs(), BLOBS), ("convnet", convnet().specs(), patterns),
              ("convnet2", convnet2().specs(), patterns), ("convs_only", convs_only(0).specs(), patterns)]
    assert len(cases) == 3 + 2 + 7
    batches = {name: make_dataset(dict(dataset, n=4), Rng(1))[0] for name, _, dataset in cases}
    # prune-sweep has no dataset: its checkpoint is the model alone
    cases.append(("prune-sweep", workloads.PruneSweep.specs, None))
    batches["prune-sweep"] = Rng(1).normal((2, 48, 8, 9))
    for name, specs, dataset in cases:
        model = Model.from_specs(specs, Rng(0))
        x = batches[name]
        want = model.forward(x).shape[1:]
        assert model.forward(x, train=False).shape[1:] == want, name
        if dataset is not None:
            assert input_shape(dataset) == x.shape[1:], name
        assert model.check_shapes(x.shape[1:], "model[{}]") == want, name
        unknown = model.check_shapes(None, "layers[{}].spec")
        assert len(unknown) == len(want), name
        assert all(u in (None, w) for u, w in zip(unknown, want)), name


def test_forward_shape_mismatch():
    with pytest.raises(ValueError):
        mlp(Rng(0)).forward(np.ones((4, 3)))


def _all_params(model):
    for layer in model.layers:
        if layer.weights is not None:
            yield layer, "weights"
            yield layer, "bias"


def _loss(model, x, y):
    return softmax_cross_entropy(model.forward(x), y)[0]


def grad_check(model, x, y, h=1e-5):
    """Central finite differences over every weight and bias entry."""
    _, grad = softmax_cross_entropy(model.forward(x), y)
    model.backward(grad)
    worst = 0.0
    for layer, attr in _all_params(model):
        param = getattr(layer, attr)
        analytic = layer.grad_w if attr == "weights" else layer.grad_b
        flat = param.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = _loss(model, x, y)
            flat[i] = orig - h
            down = _loss(model, x, y)
            flat[i] = orig
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(analytic.ravel()[i]), 1e-8)
            worst = max(worst, abs(numeric - analytic.ravel()[i]) / denom)
    return worst


@pytest.mark.parametrize("arch", ["mlp", "conv", "conv_conv"])
def test_gradients_match_finite_differences(arch):
    for seed in range(3):
        rng = Rng(seed)
        if arch == "mlp":
            model = mlp(rng.child("init"))
            x = rng.normal((5, 2))
        else:
            model = (convnet if arch == "conv" else convnet2)(rng.child("init"))
            x = rng.normal((3, 1, 8, 8))
        y = np.array(rng.integers(0, 2, len(x)))
        assert grad_check(model, x, y) < 1e-5


def _grads(model):
    return [g for l in model.layers if l.weights is not None for g in (l.grad_w, l.grad_b)]


def _assert_same_grads(a, b):
    for ga, gb in zip(_grads(a), _grads(b), strict=True):
        assert ga.tobytes() == gb.tobytes()


def test_eval_forward_drops_training_columns():
    # an eval forward on B after a training forward on A (same batch size) must
    # not leave A's im2col columns for the backward on B's gradient
    rng = Rng(5)
    xa, xb = rng.normal((4, 1, 8, 8)), rng.normal((4, 1, 8, 8))
    gout = rng.normal((4, 2))
    model = convnet2(Rng(6))
    model.forward(xa)
    model.forward(xb, train=False)
    model.backward(gout)
    fresh = convnet2(Rng(6))
    fresh.forward(xb)
    fresh.backward(gout)
    _assert_same_grads(model, fresh)


def test_backward_same_from_cached_and_rebuilt_columns():
    rng = Rng(7)
    x, gout = rng.normal((4, 1, 8, 8)), rng.normal((4, 2))
    cached, rebuilt = convnet2(Rng(8)), convnet2(Rng(8))
    cached.forward(x)
    rebuilt.forward(x, train=False)
    assert all(l._cols is not None for l in cached.layers if l.kind == "conv2d")
    cached.backward(gout)
    rebuilt.backward(gout)
    _assert_same_grads(cached, rebuilt)
    assert all(l._cols is None for l in cached.layers if l.kind == "conv2d")


def test_accuracy_leaves_no_columns():
    model = convnet2(Rng(9))
    x = Rng(10).normal((6, 1, 8, 8))
    model.forward(x)
    accuracy(model, x, np.zeros(6, dtype=np.int64))
    assert all(l._cols is None for l in model.layers if l.kind == "conv2d")


# perfbench's mlp-perstep model
MLP_PERSTEP_SPECS = [
    {"kind": "dense", "in": 2, "out": 256}, {"kind": "relu"},
    {"kind": "dense", "in": 256, "out": 256}, {"kind": "relu"},
    {"kind": "dense", "in": 256, "out": 2},
]
EVAL_BATCH = train_module.EVAL_BATCH
EVAL_SIZES = [1, 2, EVAL_BATCH - 1, EVAL_BATCH, EVAL_BATCH + 1, 2 * EVAL_BATCH + 1, 800]


def _eval_model_and_data(kind, seed=3):
    specs, dataset = {
        "conv": (CONV_TRAIN_SPECS, {"kind": "patterns8x8", "n": 1000, "noise": 0.1}),
        "mlp": (MLP_PERSTEP_SPECS, {"kind": "blobs2d", "n": 1000, "separation": 4.0}),
    }[kind]
    rng = Rng(seed)
    return Model.from_specs(specs, rng.child("init")), make_dataset(dataset, rng.child("data"))


def test_eval_chunks_cover_the_set_in_aligned_near_equal_chunks():
    for n in range(1, 3000):
        chunks = train_module.eval_chunks(n)
        assert len(chunks) == math.ceil(n / EVAL_BATCH)
        assert [c.start for c in chunks[1:]] == [c.stop for c in chunks[:-1]]
        assert chunks[0].start == 0 and chunks[-1].stop == n
        assert all(c.start % 32 == 0 for c in chunks)
        if len(chunks) > 1:
            assert all(64 <= c.stop - c.start < EVAL_BATCH + 32 for c in chunks), n


@pytest.mark.parametrize("n", EVAL_SIZES)
@pytest.mark.parametrize("kind", ["conv", "mlp"])
def test_chunked_logits_bit_equal_whole_batch(kind, n):
    model, (x, _) = _eval_model_and_data(kind)
    whole = model.forward(x[:n], train=False)
    chunked = np.concatenate([model.forward(x[:n][c], train=False)
                              for c in train_module.eval_chunks(n)])
    assert chunked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("n", EVAL_SIZES)
def test_accuracy_is_hit_count_over_n(n):
    model, (x, _) = _eval_model_and_data("conv")
    labels = Rng(4).integers(0, 2, n)
    hits = np.count_nonzero(model.forward(x[:n], train=False).argmax(axis=1) == labels)
    got = accuracy(model, x[:n], labels)
    assert type(got) is float and got == hits / n


def test_accuracy_peak_memory_does_not_grow_with_the_eval_set():
    model = Model.from_specs(CONV_TRAIN_SPECS, Rng(5))
    x = Rng(6).normal((8 * EVAL_BATCH, 1, 8, 8))
    y = np.zeros(len(x), dtype=np.int64)
    peaks = []
    for n in (EVAL_BATCH, 8 * EVAL_BATCH):
        accuracy(model, x[:n], y[:n])  # warm-up
        tracemalloc.start()
        try:
            accuracy(model, x[:n], y[:n])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


@pytest.mark.parametrize("n_labels", [1, 0, 11])
def test_accuracy_refuses_inputs_and_labels_of_different_lengths(n_labels):
    model = mlp(Rng(7))
    x = Rng(8).normal((10, 2))
    with pytest.raises(ValueError, match=f"got 10 inputs and {n_labels} labels"):
        accuracy(model, x, np.ones(n_labels, dtype=np.int64))


def _chwn_memory(a):
    return a.transpose(1, 2, 3, 0).flags.c_contiguous


@pytest.mark.parametrize("kx", [3, 1])
def test_second_conv_layer_reads_its_input_without_a_copy(kx):
    conv1, relu, conv2 = Conv2d(1, 8, 3, 3), ReLU(), Conv2d(8, 4, kx, kx)
    for layer in (conv1, conv2):
        layer.init(Rng(kx))
    h = relu.forward(conv1.forward(Rng(1).normal((32, 1, 8, 8))))
    assert _chwn_memory(h)  # so conv2 gathers its columns from h's own memory
    conv2.forward(h)
    if kx == 1:  # the columns are then h itself
        assert np.shares_memory(conv2._cols, h)


def test_gradient_reaches_the_last_conv_layer_batch_innermost():
    # dense, flatten and relu hand the conv layer below its own layout back,
    # so its backward copies nothing
    model = Model.from_specs(CONV_TRAIN_SPECS, Rng(5))
    x = Rng(6).normal((32, 1, 8, 8))
    model.forward(x)
    grad = Rng(7).normal((32, 2))
    for layer in reversed(model.layers[3:]):
        grad = layer.backward(grad)
    assert grad.shape == (32, 16, 4, 4) and _chwn_memory(grad)


def test_conv_backward_copies_gout_at_most_once(monkeypatch):
    from prunekit import kernels
    seen = []  # the gout each of conv2d_grad_w and conv2d_grad_x gets
    for name, pos in (("conv2d_grad_w", 1), ("conv2d_grad_x", 0)):
        monkeypatch.setattr(kernels, name, lambda *a, k=getattr(kernels, name), p=pos:
                            seen.append(a[p]) or k(*a))
    layer = Conv2d(8, 16, 3, 3)
    layer.init(Rng(2))
    x = Rng(3).normal((32, 8, 6, 6))
    nchw = Rng(4).normal((32, 16, 4, 4))
    chwn = np.ascontiguousarray(nchw.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    results = []
    for gout in (nchw, chwn):
        seen.clear()
        layer.forward(x)
        grad_x = layer.backward(gout)
        g_w, g_x = seen
        # both kernels read one batch-innermost array, and take it as it is
        assert _chwn_memory(g_w) and np.shares_memory(g_w, g_x)
        assert np.shares_memory(kernels.chwn(g_w), g_w)
        results.append([a.tobytes() for a in (grad_x, layer.grad_w, layer.grad_b)])
    assert np.shares_memory(g_w, chwn)  # already batch-innermost: no copy at all
    assert results[0] == results[1]


def test_uniform_logits_zero_bias_gradient():
    model = mlp()
    for layer in model.prunable_layers():
        layer.weights = np.zeros(layer.weight_shape)
        layer.bias = np.zeros(layer.weight_shape[1])
    x = Rng(1).normal((4, 2))
    y = np.array([0, 1, 0, 1])  # balanced
    _, grad = softmax_cross_entropy(model.forward(x), y)
    model.backward(grad)
    np.testing.assert_allclose(model.layers[-1].grad_b, 0.0, atol=1e-15)


def test_masked_weight_still_gets_gradient():
    # masking zeroes the weight value, not its gradient path
    layer = Dense(1, 1)
    layer.weights = np.zeros((1, 1))
    layer.bias = np.zeros(1)
    layer.forward(np.array([[2.0]]))
    layer.backward(np.array([[1.0]]))
    assert layer.grad_w[0, 0] == 2.0


def test_sgd_zero_lr():
    model = mlp(Rng(2))
    before = [l.weights.copy() for l in model.prunable_layers()]
    x = Rng(3).normal((4, 2))
    _, grad = softmax_cross_entropy(model.forward(x), np.array([0, 1, 0, 1]))
    model.backward(grad)
    sgd_step(model, lr=0.0, momentum=0.0, velocities={})
    for b, l in zip(before, model.prunable_layers()):
        np.testing.assert_array_equal(b, l.weights)


def test_sgd_scalar_update():
    layer = Dense(1, 1)
    layer.weights = np.array([[1.0]])
    layer.bias = np.zeros(1)
    layer.grad_w = np.array([[2.0]])
    layer.grad_b = np.zeros(1)
    sgd_step(Model([layer]), lr=0.1, momentum=0.0, velocities={})
    assert layer.weights[0, 0] == pytest.approx(0.8)


def test_sgd_momentum_accumulates():
    layer = Dense(1, 1)
    layer.weights = np.array([[0.0]])
    layer.bias = np.zeros(1)
    layer.grad_w = np.array([[1.0]])
    layer.grad_b = np.zeros(1)
    model = Model([layer])
    velocities = {}
    sgd_step(model, lr=1.0, momentum=0.9, velocities=velocities)
    first = -layer.weights[0, 0]
    sgd_step(model, lr=1.0, momentum=0.9, velocities=velocities)
    second = -layer.weights[0, 0] - first
    assert second == pytest.approx(1.9 * first)


def _sgd_step_with_velocity(model, lr, momentum, velocities):
    """sgd_step with a velocity at every momentum: v <- momentum * v + g."""
    for idx, layer in enumerate(model.layers):
        if layer.weights is None:
            continue
        if idx not in velocities:
            velocities[idx] = (np.zeros_like(layer.weights), np.zeros_like(layer.bias))
        vw, vb = velocities[idx]
        vw *= momentum
        vw += layer.grad_w
        vb *= momentum
        vb += layer.grad_b
        layer.weights -= lr * vw
        layer.bias -= lr * vb


def test_momentum_0_keeps_no_velocity_and_changes_no_bits(monkeypatch):
    # masking writes -0.0 where a negative weight is pruned: the one weight
    # value where subtracting g and subtracting 0 * v + g could differ
    cfg = TrainConfig(epochs=3, batch_size=32, learning_rate=0.05, seed=4,
                      dataset={"kind": "patterns8x8", "n": 200, "noise": 0.1})
    plan = SparsifyPlan(sparsity=70.0, schedule=ScheduleSpec("gradual"))
    seen = []

    def recording(model, lr, momentum, velocities):
        seen.append(velocities)
        sgd_step(model, lr, momentum, velocities)

    monkeypatch.setattr(train_module, "sgd_step", recording)
    model, _ = fit(Model.from_specs(CONV_TRAIN_SPECS, Rng(4).child("init")), cfg,
                   callbacks=[SparsifyCallback(plan)])
    assert len(seen) == 3 * 5 and all(v == {} for v in seen)
    monkeypatch.setattr(train_module, "sgd_step", _sgd_step_with_velocity)
    reference, _ = fit(Model.from_specs(CONV_TRAIN_SPECS, Rng(4).child("init")), cfg,
                       callbacks=[SparsifyCallback(plan)])
    assert sum(np.count_nonzero((l.weights == 0) & np.signbit(l.weights))
               for l in model.prunable_layers()) > 0
    for got, want in zip(model.layers, reference.layers):
        if got.weights is not None:
            assert got.weights.tobytes() == want.weights.tobytes()
            assert got.bias.tobytes() == want.bias.tobytes()


def _loss_with_mean(logits, labels):
    """softmax_cross_entropy through ndarray.mean and a copied gradient."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    n = len(labels)
    loss = -np.log(probs[np.arange(n), labels] + 1e-300).mean()
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


@pytest.mark.parametrize("n, classes, scale", [(32, 2, 1.0), (7, 10, 3.0), (32, 2, 800.0)])
def test_loss_bits_equal_mean_formula(n, classes, scale):
    # scale 800 drives some probabilities to 0, where the 1e-300 term decides
    rng = Rng(n * classes)
    logits = scale * rng.normal((n, classes))
    labels = rng.integers(0, classes, n)
    loss, grad = softmax_cross_entropy(logits, labels)
    want_loss, want_grad = _loss_with_mean(logits, labels)
    assert type(loss) is type(want_loss) and loss.tobytes() == want_loss.tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def test_relu_backward_same_bits_after_forward_and_forward_eval():
    # a batch-innermost input, as a conv layer returns it, and an NCHW gradient,
    # so the two layouts differ; zeros of both signs sit on the mask's edge
    rng = Rng(12)
    x = np.ascontiguousarray(rng.normal((8, 6, 6, 4))).transpose(3, 0, 1, 2)
    x[:, :, 0] = 0.0
    x[:, :, 1] = -0.0
    gout = rng.normal(x.shape)
    relu = ReLU()
    out = relu.forward(x)
    assert relu._keep.dtype == np.float64 and relu._keep.strides == x.strides
    grad = relu.backward(gout)
    out_eval = relu.forward_eval(x)
    grad_eval = relu.backward(gout)
    assert out.tobytes() == out_eval.tobytes()
    assert grad.tobytes() == grad_eval.tobytes()


def test_fit_baseline_separable():
    cfg = TrainConfig(epochs=30, batch_size=32, learning_rate=0.1, seed=17, dataset=BLOBS)
    model, log = fit(mlp(Rng(17).child("init")), cfg)
    data = make_dataset(BLOBS, Rng(17).child("data"))
    assert accuracy(model, *data) >= 0.95


def test_hook_counts_and_order():
    events = []

    class Tracer(Callback):
        def on_train_begin(self, state):
            events.append("train_begin")

        def on_epoch_begin(self, state):
            events.append("epoch_begin")

        def on_step_end(self, state):
            events.append("step_end")

        def on_epoch_end(self, state):
            events.append("epoch_end")

        def on_train_end(self, state):
            events.append("train_end")

    cfg = TrainConfig(epochs=3, batch_size=50, learning_rate=0.1, seed=1, dataset=BLOBS)
    fit(mlp(Rng(1)), cfg, callbacks=[Tracer()])
    n_train = int(200 * 0.8)
    steps = math.ceil(n_train / 50)
    assert events.count("step_end") == 3 * steps
    assert events[0] == "train_begin" and events[-1] == "train_end"
    expected_epoch = ["epoch_begin"] + ["step_end"] * steps + ["epoch_end"]
    assert events[1:-1] == expected_epoch * 3


def test_first_layer_input_gradient_not_computed(monkeypatch):
    from prunekit import kernels
    grad_x = kernels.conv2d_grad_x
    calls = []
    monkeypatch.setattr(kernels, "conv2d_grad_x",
                        lambda gout, w: calls.append(w.shape) or grad_x(gout, w))
    model = Model.from_specs(
        [{"kind": "conv2d", "in_ch": 1, "out_ch": 2, "kx": 3, "ky": 3}, {"kind": "relu"},
         {"kind": "conv2d", "in_ch": 2, "out_ch": 3, "kx": 3, "ky": 3}, {"kind": "relu"},
         {"kind": "flatten"}, {"kind": "dense", "in": 48, "out": 2}], Rng(0))
    cfg = TrainConfig(epochs=1, batch_size=64, learning_rate=0.1, seed=0,
                      dataset={"kind": "patterns8x8", "n": 40, "noise": 0.1})
    _, log = fit(model, cfg)
    assert len(log) == 1
    assert calls == [(2, 3, 3, 3)]  # the second conv layer only
    assert model.layers[0].grad_w.shape == (1, 2, 3, 3)


def test_first_layer_overriding_only_backward_gets_gradients():
    from prunekit.layers import Layer

    class Scale(Layer):  # a parameter layer that defines backward() only
        weights = np.array(2.0)

        def forward(self, x):
            self._x = x
            return x * self.weights

        def backward(self, gout):
            self.grad_w = (self._x * gout).sum()
            return gout * self.weights

    model = Model([Scale(), Dense(2, 2)])
    model.init(Rng(0))
    x = np.random.default_rng(0).normal(size=(5, 2))
    model.forward(x)
    model.backward(np.ones((5, 2)))
    want = (x * model.layers[1].weights.sum(axis=1)).sum()
    assert model.layers[0].grad_w == pytest.approx(want)


def test_fit_deterministic():
    cfg = TrainConfig(epochs=5, batch_size=32, learning_rate=0.1, seed=23, dataset=BLOBS)
    m1, log1 = fit(mlp(Rng(23).child("init")), cfg)
    m2, log2 = fit(mlp(Rng(23).child("init")), cfg)
    for a, b in zip(m1.prunable_layers(), m2.prunable_layers()):
        np.testing.assert_array_equal(a.weights, b.weights)
    assert log1 == log2


def test_loss_decreasing_early():
    cfg = TrainConfig(epochs=5, batch_size=160, learning_rate=0.1, seed=9, dataset=BLOBS)
    _, log = fit(mlp(Rng(9).child("init")), cfg)
    per_epoch = [r["train_loss"] for r in log]  # one full batch per epoch
    assert all(a > b for a, b in zip(per_epoch, per_epoch[1:]))


def test_callback_error_aborts_at_its_epoch():
    """A callback's error stops fit where it is raised: no later epoch begins."""
    class Boom(Callback):
        def __init__(self):
            self.epochs = []

        def on_epoch_begin(self, state):
            self.epochs.append(state["epoch"])
            if state["epoch"] == 1:
                raise RuntimeError("boom")

    boom = Boom()
    cfg = TrainConfig(epochs=3, batch_size=32, learning_rate=0.1, seed=4, dataset=BLOBS)
    with pytest.raises(TrainingAborted, match="^training aborted: boom$") as err:
        fit(mlp(Rng(4)), cfg, callbacks=[boom])
    assert boom.epochs == [0, 1]
    assert isinstance(err.value.__cause__, RuntimeError)


def test_nan_weight_aborts_at_first_step():
    # ReLU passes a NaN activation on, so a NaN weight reaches the loss at once
    model = Model.from_specs(CONV_TRAIN_SPECS, Rng(3).child("init"))
    model.layers[2].weights[0, 0, 0, 0] = np.nan
    cfg = TrainConfig(epochs=2, batch_size=32, learning_rate=0.05, seed=3,
                      dataset={"kind": "patterns8x8", "n": 200, "noise": 0.1})
    with pytest.raises(TrainingAborted, match="non-finite train_loss nan at epoch 0, step 0"):
        fit(model, cfg)


def test_blobs_separable_and_balanced():
    for seed in range(20):
        x, y = make_dataset(BLOBS, Rng(seed))
        assert abs(int((y == 0).sum()) - int((y == 1).sum())) <= 1
        # the x=0 line separates the clusters for virtually every seed
        assert np.all(x[y == 0, 0] < 0) and np.all(x[y == 1, 0] > 0)


def test_patterns_class_means_differ():
    x, y = make_dataset({"kind": "patterns8x8", "n": 100, "noise": 0.0}, Rng(0))
    diff = np.abs(x[y == 0].mean(axis=0) - x[y == 1].mean(axis=0))
    assert int((diff > 0.01).sum()) >= 8


def test_dataset_determinism_and_split():
    a = make_dataset(BLOBS, Rng(5))
    b = make_dataset(BLOBS, Rng(5))
    np.testing.assert_array_equal(a[0], b[0])
    (xtr, ytr), (xev, yev) = train_eval_split(*a)
    assert len(ytr) == 160 and len(yev) == 40


def _dataset_by_loop(kind, n, rng, separation=4.0, noise=0.1):
    """The dataset drawn sample by sample, in the draw order make_dataset keeps:
    half the labels 0 from the front, then the inputs, then one shuffle."""
    labels = np.zeros(n, dtype=np.int64)
    labels[n // 2:] = 1
    if kind == "blobs2d":
        centers = np.array([[-separation / 2.0, 0.0], [separation / 2.0, 0.0]])
        inputs = BLOB_STD * rng.normal((n, 2)) + centers[labels]
    else:
        inputs = np.zeros((n, 1, 8, 8))
        positions = rng.integers(0, 8, n)
        for i in range(n):
            if labels[i] == 0:
                inputs[i, 0, positions[i], :] = 1.0
            else:
                inputs[i, 0, :, positions[i]] = 1.0
        inputs += noise * rng.normal(inputs.shape)
    perm = rng.permutation(n)
    return inputs[perm], labels[perm]


@pytest.mark.parametrize("n", [2, 7, 200, 4000])
@pytest.mark.parametrize("seed", [1, 42])
@pytest.mark.parametrize("kind, params", [
    ("blobs2d", {}), ("blobs2d", {"separation": 2.5}),
    ("patterns8x8", {}), ("patterns8x8", {"noise": 0.3}),
])
def test_dataset_draw_matches_a_per_sample_loop(kind, params, seed, n):
    x, y = make_dataset({"kind": kind, "n": n, **params}, Rng(seed))
    want_x, want_y = _dataset_by_loop(kind, n, Rng(seed), **params)
    assert x.shape[1:] == input_shape({"kind": kind})
    assert (x.dtype, y.dtype) == (want_x.dtype, want_y.dtype)
    assert x.tobytes() == want_x.tobytes() and y.tobytes() == want_y.tobytes()


def test_dataset_too_small():
    with pytest.raises(ValueError):
        make_dataset({"kind": "blobs2d", "n": 1}, Rng(0))


@pytest.mark.parametrize("extra, field", [({"bogus": 1}, "dataset.bogus"),
                                          ({"noise": 0.2}, "dataset.noise")])
def test_fit_rejects_dataset_key_its_kind_does_not_read(extra, field):
    cfg = TrainConfig(epochs=1, batch_size=32, learning_rate=0.1, dataset={**BLOBS, **extra})
    with pytest.raises(FieldError) as info:
        fit(mlp(Rng(0)), cfg)
    assert info.value.field == field


@pytest.mark.parametrize("bad, problem", [
    ({"epochs": 2.5}, "not an integer: 2.5"),
    ({"batch_size": 2.5}, "not an integer: 2.5"),
    ({"learning_rate": math.nan}, "not a finite number: nan"),
    ({"epochs": True}, "not an integer: True"),
    ({"seed": 1.5}, "not an integer: 1.5"),
    ({"epochs": 0}, "must be >= 1, got 0"),
    ({"learning_rate": -0.1}, "must be positive, got -0.1"),
    ({"momentum": 1.0}, "1.0 out of [0, 1)"),
], ids=["epochs_fraction", "batch_size_fraction", "learning_rate_nan", "epochs_bool", "seed_fraction",
        "epochs_zero", "learning_rate_negative", "momentum_one"])
def test_train_config_rejects_bad_field(bad, problem):
    """TrainConfig checks each field where it is built, not inside fit."""
    with pytest.raises(FieldError) as info:
        TrainConfig(**{"epochs": 1, "batch_size": 32, "learning_rate": 0.1, **bad})
    [field] = bad
    assert (info.value.field, info.value.problem) == (field, problem)


def test_train_config_takes_integral_numbers():
    cfg = TrainConfig(epochs=2.0, batch_size=np.int64(8), learning_rate=1, seed=np.int64(3))
    assert (cfg.epochs, cfg.batch_size, cfg.learning_rate, cfg.seed) == (2, 8, 1.0, 3)
    assert all(type(v) is t for v, t in ((cfg.epochs, int), (cfg.batch_size, int),
                                         (cfg.learning_rate, float), (cfg.seed, int)))
