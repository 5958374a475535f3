"""Layer vocabulary and model container for the training substrate.

Dense weights are [I, O] (forward is x @ W + b), conv weights are
[I, O, Kx, Ky]. Prunable layers (dense, conv2d) carry the sparsifier's mask
and, under a criterion that reads one, its weight history; else None.

Each layer kind has one shape rule, `out_shape`: one sample's input shape
to its output shape, with None for a size that is not known. The same rule
checks a whole model at load (`Model.check_shapes`, from the dataset's
sample shape for a config and from an unknown shape for a checkpoint) and
each batch in `Dense.forward` and `Conv2d.forward`.
"""

import math

import numpy as np

from . import kernels
from .fields import FieldError, checked_object, integer, under
from .rng import Rng
from .tensor import init_weights


class Layer:
    kind = "base"
    prunable = False
    spec_keys: tuple = ()  # integer constructor arguments, in order, as named in spec()
    weight_shape: tuple | None = None  # bias, where a layer has one, is [weight_shape[1]]
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None

    def init(self, rng: Rng):
        pass

    def out_shape(self, in_shape: tuple | None) -> tuple | None:
        """One sample's output shape for its input shape: a tuple whose
        unknown sizes are None, or None where even the rank is unknown. An
        input this layer cannot take raises FieldError naming the spec key
        it contradicts. The default passes the shape through."""
        return in_shape

    def forward(self, x):
        raise NotImplementedError

    def forward_eval(self, x):
        """forward for a pass whose result is only read, as in evaluation.
        Layers that keep large buffers for backward override this to keep
        none; backward after it must still be correct. The default runs
        forward."""
        return self.forward(x)

    def backward(self, gout):
        """Store the parameter gradients and return the input gradient."""
        raise NotImplementedError

    def backward_params(self, gout):
        """Store the parameter gradients only, for a layer whose input
        gradient nothing reads. Layers with parameters override this to
        skip the input gradient; the default runs backward and drops it."""
        self.backward(gout)

    def spec(self) -> dict:
        return {"kind": self.kind}


class Weighted(Layer):
    """A prunable layer whose sizes, in spec_keys order, are its weight shape."""
    prunable = True

    def __init__(self, *sizes: int):
        self.weight_shape = sizes
        self.weights = None
        self.bias = np.zeros(sizes[1])
        self.mask = None
        self.history = None
        self.grad_w = None
        self.grad_b = None

    def init(self, rng):
        self.weights = init_weights(self.weight_shape, rng)

    def spec(self):
        return {"kind": self.kind, **dict(zip(self.spec_keys, self.weight_shape))}

    def _refuse(self, key: str, in_shape: tuple):
        size = self.weight_shape[self.spec_keys.index(key)]
        raise FieldError(key, f"{size}, but its input is {list(in_shape)}")


class Dense(Weighted):
    kind = "dense"
    spec_keys = ("in", "out")

    def out_shape(self, in_shape):
        """[in] or [None] gives [out]."""
        if in_shape is not None and in_shape not in (self.weight_shape[:1], (None,)):
            self._refuse("in", in_shape)
        return self.weight_shape[1:2]

    def forward(self, x):
        self.out_shape(x.shape[1:])
        self._x = x
        return x @ self.weights + self.bias

    def backward_params(self, gout):
        self.grad_w = self._x.T @ gout
        self.grad_b = gout.sum(axis=0)

    def backward(self, gout):
        self.backward_params(gout)
        if self._x.flags.c_contiguous:
            return gout @ self.weights.T
        # x is a Flatten view of a conv layer's [C, H, W, N] memory, and the
        # F-ordered input gradient comes back in that layout
        return (self.weights @ gout.T).T


class Conv2d(Weighted):
    kind = "conv2d"
    spec_keys = ("in_ch", "out_ch", "kx", "ky")
    _cols = None

    def out_shape(self, in_shape):
        """[in_ch, H, W] with H >= kx and W >= ky gives [out_ch, H-kx+1, W-ky+1]."""
        in_ch, out_ch, kx, ky = self.weight_shape
        if in_shape is None:
            return (out_ch, None, None)
        if len(in_shape) != 3 or in_shape[0] != in_ch:
            self._refuse("in_ch", in_shape)
        _, h, w = in_shape
        if h is not None and h < kx:
            self._refuse("kx", in_shape)
        if w is not None and w < ky:
            self._refuse("ky", in_shape)
        return (out_ch, None if h is None else h - kx + 1, None if w is None else w - ky + 1)

    def forward(self, x):
        self.out_shape(x.shape[1:])
        self._x = x
        # the im2col columns live until backward multiplies them for grad_w
        out, self._cols = kernels.conv2d_forward(x, self.weights, self.bias, return_columns=True)
        return out

    def forward_eval(self, x):
        self.out_shape(x.shape[1:])
        self._x, self._cols = x, None
        return kernels.conv2d_forward(x, self.weights, self.bias)

    def backward_params(self, gout):
        g = kernels.chwn(gout)  # no copy when gout is a view of [O, Ho, Wo, N] memory
        # without columns from a training forward, grad_w rebuilds them from _x
        self.grad_w = kernels.conv2d_grad_w(self._x, g.transpose(3, 0, 1, 2), self._cols)
        self._cols = None
        self.grad_b = g.reshape(len(g), -1).sum(axis=1)

    def backward(self, gout):
        # the one batch-innermost copy of gout, if any: grad_w, grad_b and
        # grad_x all read it
        g = kernels.chwn(gout).transpose(3, 0, 1, 2)
        self.backward_params(g)
        return kernels.conv2d_grad_x(g, self.weights)


class ReLU(Layer):
    kind = "relu"

    def forward(self, x):
        # a multiply passes a NaN on to the loss; it writes -0.0 for x < 0. The
        # mask is float64 in x's memory layout, so neither multiply casts it.
        self._keep = np.greater(x, 0, out=np.empty_like(x))
        return x * self._keep

    def forward_eval(self, x):
        # a bool mask: at evaluation's large batch a float one costs memory,
        # and backward after it gives the same bits
        self._keep = x > 0
        return x * self._keep

    def backward(self, gout):
        return gout * self._keep


class Flatten(Layer):
    kind = "flatten"

    def out_shape(self, in_shape):
        """[prod of the sizes], or [None] if any is unknown."""
        return (None,) if in_shape is None or None in in_shape else (math.prod(in_shape),)

    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, gout):
        return gout.reshape(self._shape)


_LAYER_KINDS = {"dense": Dense, "conv2d": Conv2d, "relu": ReLU, "flatten": Flatten}


def layer_from_spec(spec: dict) -> Layer:
    """Build a layer from its spec; a bad spec raises FieldError("<key>: <problem>")."""
    kind = checked_object(spec).get("kind")
    cls = _LAYER_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise FieldError("kind", f"unknown layer kind {kind!r}")
    checked_object(spec, ("kind",) + cls.spec_keys, *cls.spec_keys)
    args = []
    for key in cls.spec_keys:
        args.append(integer(spec[key], key))
        if args[-1] < 1:
            raise FieldError(key, f"not a positive integer: {spec[key]!r}")
    return cls(*args)


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

    def check_shapes(self, in_shape: tuple | None, path: str) -> tuple | None:
        """One sample's output shape for its input shape (None if not known),
        through every layer's out_shape. An input a layer cannot take raises
        FieldError naming `path.format(i)` + its key, e.g. path "model[{}]"
        gives "model[3].in"."""
        for i, layer in enumerate(self.layers):
            in_shape = under(path.format(i), layer.out_shape, in_shape)
        return in_shape

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        """The model output; train=False runs each layer's forward_eval."""
        for layer in self.layers:
            x = layer.forward(x) if train else layer.forward_eval(x)
        return x

    def backward(self, gout: np.ndarray) -> None:
        """Store every layer's parameter gradients. Nothing reads the
        gradient with respect to the model input, so the first layer does
        not compute its input gradient."""
        for layer in reversed(self.layers[1:]):
            gout = layer.backward(gout)
        if self.layers:
            self.layers[0].backward_params(gout)

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
