"""Minimal training loop: softmax cross-entropy, SGD(+momentum), and a
callback hook system the sparsifier subscribes to.

Hooks fire in registration order, exactly once per event:
on_train_begin, per epoch on_epoch_begin, per batch on_step_end (after
the optimizer update), per epoch on_epoch_end, on_train_end. Each hook
receives the mutable training state dict.

accuracy forwards the eval set in contiguous chunks of about EVAL_BATCH
rows and sums their hit counts, so it holds one chunk's activations at a
time, whatever the eval set's size. The chunks are cut so that their
logits are those of one whole-batch forward (see EVAL_BATCH).
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .datasets import make_dataset, train_eval_split
from .fields import FieldError, integer, number
from .layers import Model
from .rng import Rng


@dataclass
class TrainConfig:
    """Training settings. __post_init__ is the one check of the `train`
    schema: a bad field raises FieldError naming it."""
    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float = 0.0
    seed: int = 0
    dataset: dict = field(default_factory=dict)

    def __post_init__(self):
        self.epochs = integer(self.epochs, "epochs", low=1)
        self.batch_size = integer(self.batch_size, "batch_size", low=1)
        self.learning_rate = number(self.learning_rate, "learning_rate")
        if self.learning_rate <= 0:
            raise FieldError("learning_rate", f"must be positive, got {self.learning_rate!r}")
        self.momentum = number(self.momentum, "momentum")
        if not 0 <= self.momentum < 1:
            raise FieldError("momentum", f"{self.momentum!r} out of [0, 1)")
        self.seed = integer(self.seed, "seed")


class Callback:
    """Subscriber base; override the events you care about."""

    def on_train_begin(self, state):
        pass

    def on_epoch_begin(self, state):
        pass

    def on_step_end(self, state):
        pass

    def on_epoch_end(self, state):
        pass

    def on_train_end(self, state):
        pass


class TrainingAborted(RuntimeError):
    """A callback raised or the loss went non-finite."""

    def __init__(self, cause):
        super().__init__(f"training aborted: {cause}")


def softmax_cross_entropy(logits, labels):
    """Mean loss and logits gradient for integer class labels."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    n = len(labels)
    rows = np.arange(n)
    # sum / n is what ndarray.mean computes, without its Python wrapper
    loss = -np.log(probs[rows, labels] + 1e-300).sum() / n
    probs[rows, labels] -= 1.0
    probs /= n
    return loss, probs


def sgd_step(model: Model, lr: float, momentum: float, velocities: dict) -> None:
    """w <- w - lr * v with v the momentum-accumulated gradient. At momentum 0,
    v is the gradient and no velocity is kept: 0 * v + g differs from g only
    for g = -0.0, which no BLAS-computed weight gradient is, and subtracting
    -0.0 instead of +0.0 changes no bias that started at +0.0."""
    for idx, layer in enumerate(model.layers):
        if layer.weights is None:
            continue
        if not momentum:
            layer.weights -= lr * layer.grad_w
            layer.bias -= lr * layer.grad_b
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


# About the rows per forward in accuracy. BLAS picks kernels by shape: a
# forward of 1-7 rows moved logits by up to 3.6e-15 against a whole-batch
# one, and a dense layer's last n % 4 rows take another kernel than the rest.
# So the eval set is cut at multiples of 32 rows into ceil(n / EVAL_BATCH)
# near-equal chunks of at least 64 rows. Their logits were byte-equal to one
# whole-batch forward at every eval size up to 3200 on perfbench's conv model,
# and below 1954 on its mlp, whose whole-batch [n, 256] @ [256, 2] switches
# kernel there.
EVAL_BATCH = 128


def eval_chunks(n: int) -> list:
    """Contiguous slices covering range(n): one if n <= EVAL_BATCH, else
    ceil(n / EVAL_BATCH) of 64-159 rows, each starting at a multiple of 32."""
    k = -(-n // EVAL_BATCH)
    bounds = [i * n // k // 32 * 32 for i in range(k)] + [n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def accuracy(model: Model, inputs, labels) -> float:
    """Share of inputs whose argmax logit is their label: the hit count of
    each eval_chunks forward, summed and divided by n. Inputs and labels of
    different lengths, or none, raise ValueError."""
    n = len(labels)
    if len(inputs) != n or n == 0:
        raise ValueError(f"accuracy needs as many inputs as labels, at least one: "
                         f"got {len(inputs)} inputs and {n} labels")
    hits = sum(np.count_nonzero(model.forward(inputs[s], train=False).argmax(axis=1) == labels[s])
               for s in eval_chunks(n))
    return float(hits / n)


def _fire(callbacks, event, state):
    for cb in callbacks:
        try:
            getattr(cb, event)(state)
        except Exception as exc:
            raise TrainingAborted(exc) from exc


def fit(model: Model, config: TrainConfig, callbacks=()):
    """Train the model; returns (model, metric_log).

    Metric rows: epoch, step, train_loss, train_acc, model_sparsity,
    target_sparsity. The sparsity fields default to 0 and are filled in
    by a sparsify callback through the state dict.
    """
    rng = Rng(config.seed)
    data = make_dataset(config.dataset, rng.child("data"))
    (x_train, y_train), (x_eval, y_eval) = train_eval_split(*data)
    shuffle_rng = rng.child("shuffle")

    n = len(y_train)
    steps_per_epoch = math.ceil(n / config.batch_size)
    velocities: dict = {}
    log: list[dict] = []
    state = {
        "model": model, "config": config, "epoch": 0, "step": 0, "global_step": 0,
        "steps_per_epoch": steps_per_epoch, "total_epochs": config.epochs,
        "x_train": x_train, "y_train": y_train, "x_eval": x_eval, "y_eval": y_eval,
        "model_sparsity": 0.0, "target_sparsity": 0.0, "log": log,
    }

    _fire(callbacks, "on_train_begin", state)
    for epoch in range(config.epochs):
        state["epoch"] = epoch
        _fire(callbacks, "on_epoch_begin", state)
        perm = shuffle_rng.permutation(n)
        for step in range(steps_per_epoch):
            batch = perm[step * config.batch_size:(step + 1) * config.batch_size]
            xb, yb = x_train[batch], y_train[batch]
            logits = model.forward(xb)
            loss, grad = softmax_cross_entropy(logits, yb)
            if not math.isfinite(loss):
                raise TrainingAborted(f"non-finite train_loss {loss} at epoch {epoch}, step {step}")
            model.backward(grad)
            sgd_step(model, config.learning_rate, config.momentum, velocities)
            state["step"] = step
            state["global_step"] = epoch * steps_per_epoch + step + 1
            state["train_loss"] = loss
            state["train_acc"] = np.count_nonzero(logits.argmax(axis=1) == yb) / len(yb)
            _fire(callbacks, "on_step_end", state)
            log.append({
                "epoch": epoch, "step": step,
                "train_loss": loss, "train_acc": state["train_acc"],
                "model_sparsity": state["model_sparsity"],
                "target_sparsity": state["target_sparsity"],
            })
        _fire(callbacks, "on_epoch_end", state)
    _fire(callbacks, "on_train_end", state)
    return model, log
