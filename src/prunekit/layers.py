"""Layer vocabulary and model container for the training substrate.

Dense weights are [I, O] (forward is x @ W + b), conv weights are
[I, O, Kx, Ky]. Prunable layers (dense, conv2d) carry an optional mask
and weight-history snapshot managed by the sparsifier.
"""

import numpy as np

from . import kernels
from .rng import Rng
from .tensor import init_weights


class Layer:
    kind = "base"
    prunable = False
    weight_shape: tuple | None = None  # bias, where a layer has one, is [weight_shape[1]]
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None

    def init(self, rng: Rng):
        pass

    def forward(self, x):
        raise NotImplementedError

    def backward(self, gout):
        raise NotImplementedError

    def spec(self) -> dict:
        return {"kind": self.kind}


class Dense(Layer):
    kind = "dense"
    prunable = True

    def __init__(self, n_in: int, n_out: int):
        self.n_in, self.n_out = n_in, n_out
        self.weight_shape = (n_in, n_out)
        self.weights = None
        self.bias = np.zeros(n_out)
        self.mask = None
        self.history = None
        self.grad_w = None
        self.grad_b = None

    def init(self, rng):
        self.weights = init_weights(self.weight_shape, "uniform", rng)
        self.bias = np.zeros(self.n_out)

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ValueError(f"dense expects [N, {self.n_in}], got {x.shape}")
        self._x = x
        return x @ self.weights + self.bias

    def backward(self, gout):
        self.grad_w = self._x.T @ gout
        self.grad_b = gout.sum(axis=0)
        return gout @ self.weights.T

    def spec(self):
        return {"kind": self.kind, "in": self.n_in, "out": self.n_out}


class Conv2d(Layer):
    kind = "conv2d"
    prunable = True

    def __init__(self, in_ch: int, out_ch: int, kx: int, ky: int):
        self.in_ch, self.out_ch, self.kx, self.ky = in_ch, out_ch, kx, ky
        self.weight_shape = (in_ch, out_ch, kx, ky)
        self.weights = None
        self.bias = np.zeros(out_ch)
        self.mask = None
        self.history = None
        self.grad_w = None
        self.grad_b = None

    def init(self, rng):
        self.weights = init_weights(self.weight_shape, "uniform", rng)
        self.bias = np.zeros(self.out_ch)

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.in_ch:
            raise ValueError(f"conv2d expects [N, {self.in_ch}, H, W], got {x.shape}")
        if x.shape[2] < self.kx or x.shape[3] < self.ky:
            raise ValueError(f"input {x.shape} smaller than kernel ({self.kx}, {self.ky})")
        self._x = x
        return kernels.conv2d_forward(x, self.weights) + self.bias[None, :, None, None]

    def backward(self, gout):
        self.grad_w = kernels.conv2d_grad_w(self._x, gout)
        self.grad_b = gout.sum(axis=(0, 2, 3))
        return kernels.conv2d_grad_x(gout, self.weights)

    def spec(self):
        return {"kind": self.kind, "in_ch": self.in_ch, "out_ch": self.out_ch,
                "kx": self.kx, "ky": self.ky}


class ReLU(Layer):
    kind = "relu"

    def forward(self, x):
        self._keep = x > 0
        return np.where(self._keep, x, 0.0)

    def backward(self, gout):
        return gout * self._keep


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gout):
        return gout.reshape(self._shape)


_LAYER_KINDS = {"dense": Dense, "conv2d": Conv2d, "relu": ReLU, "flatten": Flatten}


def layer_from_spec(spec: dict) -> Layer:
    kind = spec.get("kind")
    if kind == "dense":
        return Dense(int(spec["in"]), int(spec["out"]))
    if kind == "conv2d":
        return Conv2d(int(spec["in_ch"]), int(spec["out_ch"]), int(spec["kx"]), int(spec["ky"]))
    if kind in ("relu", "flatten"):
        return _LAYER_KINDS[kind]()
    raise ValueError(f"unknown layer kind {kind!r}")


class Model:
    def __init__(self, layers: list[Layer]):
        self.layers = layers

    @classmethod
    def from_specs(cls, specs: list[dict], rng: Rng | None = None) -> "Model":
        model = cls([layer_from_spec(s) for s in specs])
        if rng is not None:
            model.init(rng)
        return model

    def init(self, rng: Rng):
        for i, layer in enumerate(self.layers):
            layer.init(rng.child(f"layer{i}"))

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, gout: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            gout = layer.backward(gout)
        return gout

    def prunable_layers(self) -> list[Layer]:
        return [l for l in self.layers if l.prunable]

    def specs(self) -> list[dict]:
        return [l.spec() for l in self.layers]

    def copy(self) -> "Model":
        clone = Model.from_specs(self.specs())
        for src, dst in zip(self.layers, clone.layers):
            if src.weights is not None:
                dst.weights = src.weights.copy()
                dst.bias = src.bias.copy()
            if src.prunable:
                dst.mask = None if src.mask is None else src.mask.copy()
                dst.history = None if src.history is None else src.history.copy()
        return clone
