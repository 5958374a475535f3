"""Minimal training loop: softmax cross-entropy, SGD(+momentum), and a
callback hook system the sparsifier subscribes to.

Hooks fire in registration order, exactly once per event:
on_train_begin, per epoch on_epoch_begin, per batch on_step_end (after
the optimizer update), per epoch on_epoch_end, on_train_end. Each hook
receives the mutable training state dict.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .datasets import make_dataset, train_eval_split
from .layers import Model
from .rng import Rng


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float = 0.0
    seed: int = 0
    dataset: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.epochs <= 0 or self.batch_size <= 0 or self.learning_rate <= 0:
            raise ValueError("epochs, batch_size and learning_rate must be positive")


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
    """A callback raised or the loss went non-finite; training state was
    checkpointed if a handler was given."""

    def __init__(self, cause, state):
        super().__init__(f"training aborted: {cause}")
        self.cause = cause
        self.state = state


def softmax_cross_entropy(logits, labels):
    """Mean loss and logits gradient for integer class labels."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    probs = expd / expd.sum(axis=1, keepdims=True)
    n = len(labels)
    loss = -np.log(probs[np.arange(n), labels] + 1e-300).mean()
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def sgd_step(model: Model, lr: float, momentum: float, velocities: dict) -> None:
    """w <- w - lr * v with v the momentum-accumulated gradient."""
    for idx, layer in enumerate(model.layers):
        if layer.weights is None:
            continue
        vw, vb = velocities.setdefault(idx, (np.zeros_like(layer.weights), np.zeros_like(layer.bias)))
        vw = momentum * vw + layer.grad_w
        vb = momentum * vb + layer.grad_b
        velocities[idx] = (vw, vb)
        layer.weights -= lr * vw
        layer.bias -= lr * vb


def accuracy(model: Model, inputs, labels) -> float:
    logits = model.forward(inputs)
    return float((logits.argmax(axis=1) == labels).mean())


def _abort(cause, state, abort_handler) -> TrainingAborted:
    if abort_handler is not None:
        abort_handler(state)
    return TrainingAborted(cause, state)


def _fire(callbacks, event, state, abort_handler):
    for cb in callbacks:
        try:
            getattr(cb, event)(state)
        except Exception as exc:
            raise _abort(exc, state, abort_handler) from exc


def fit(model: Model, config: TrainConfig, callbacks=(), data=None, abort_handler=None):
    """Train the model; returns (model, metric_log).

    Metric rows: epoch, step, train_loss, train_acc, model_sparsity,
    target_sparsity. The sparsity fields default to 0 and are filled in
    by a sparsify callback through the state dict.
    """
    rng = Rng(config.seed)
    if data is None:
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

    _fire(callbacks, "on_train_begin", state, abort_handler)
    for epoch in range(config.epochs):
        state["epoch"] = epoch
        _fire(callbacks, "on_epoch_begin", state, abort_handler)
        perm = shuffle_rng.permutation(n)
        for step in range(steps_per_epoch):
            batch = perm[step * config.batch_size:(step + 1) * config.batch_size]
            xb, yb = x_train[batch], y_train[batch]
            logits = model.forward(xb)
            loss, grad = softmax_cross_entropy(logits, yb)
            if not math.isfinite(loss):
                raise _abort(f"non-finite train_loss {loss} at epoch {epoch}, step {step}",
                             state, abort_handler)
            model.backward(grad)
            sgd_step(model, config.learning_rate, config.momentum, velocities)
            state["step"] = step
            state["global_step"] = epoch * steps_per_epoch + step + 1
            state["train_loss"] = loss
            state["train_acc"] = float((logits.argmax(axis=1) == yb).mean())
            _fire(callbacks, "on_step_end", state, abort_handler)
            log.append({
                "epoch": epoch, "step": step,
                "train_loss": loss, "train_acc": state["train_acc"],
                "model_sparsity": state["model_sparsity"],
                "target_sparsity": state["target_sparsity"],
            })
        _fire(callbacks, "on_epoch_end", state, abort_handler)
    _fire(callbacks, "on_train_end", state, abort_handler)
    return model, log
