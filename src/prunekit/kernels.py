"""Conv2d kernels, the only hot numeric loops in the engine, in numpy.

Conventions: inputs [N, I, H, W], weights [I, O, Kx, Ky], valid
cross-correlation with stride 1 and no padding.

The forward pass and grad_w are one matmul each over the same im2col
columns (Chellapilla et al., 2006): one row per output position, N*Ho*Wo
rows, and one column per (kernel offset, input channel) pair, channel
innermost. The columns are gathered from a channels-last copy of the
input, so each copied run is Ky*I doubles long, not Ky. The forward pass
adds the bias into its contiguous [N*Ho*Wo, O] product and can return the
columns with the output; grad_w multiplies columns it is given instead of
building them again. Conv2d keeps a training forward's columns until its
backward and keeps none from an eval forward.

grad_x loops over the Kx*Ky kernel offsets instead and adds one matmul per
offset into a shifted channels-last window: an im2col grad_x, over the
zero-padded output gradient, took 2 to 2.5 times as long at the
conv_train_1, conv_train_2 and large shapes of benchmarks/bench_kernels.py.
Each offset multiplies a contiguous [O, I] slice of one transposed copy of
the weights, made once per call: a strided w[:, :, u, v].T is copied by
numpy before every matmul, and BLAS gets the same matrix either way.
"""

import numpy as np


def _columns(x, kx, ky):
    """im2col columns [N*Ho*Wo, Kx*Ky*I] of x [N, I, H, W], ordered (u, v, i)."""
    n, ci, h, wd = x.shape
    xc = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    sn, sh, sw, _ = xc.strides
    # windows[n, p, q, u, j] = xc[n, p + u, q + j // ci, j % ci]: a window row's
    # Ky*I values are one contiguous run of xc. The ndarray constructor builds
    # the view in a fifth of as_strided's time, which matters at conv-train's
    # shapes; read-only, as a 1x1 kernel's columns are a view of x itself.
    windows = np.ndarray((n, h - kx + 1, wd - ky + 1, kx, ky * ci), xc.dtype, buffer=xc,
                         offset=0, strides=(sn, sh, sw, sh, xc.itemsize))
    windows.setflags(write=False)
    return windows.reshape(-1, kx * ky * ci)


def conv2d_forward(x, w, b=None, return_columns=False):
    """[N, O, Ho, Wo] output, plus the im2col columns it multiplied when
    return_columns is set; the bias b [O], if given, is added to the
    contiguous [N*Ho*Wo, O] product."""
    o, kx, ky = w.shape[1:]
    n, ho, wo = x.shape[0], x.shape[2] - kx + 1, x.shape[3] - ky + 1
    cols = _columns(x, kx, ky)
    out = cols @ w.transpose(2, 3, 0, 1).reshape(-1, o)
    if b is not None:
        out += b
    out = out.reshape(n, ho, wo, o).transpose(0, 3, 1, 2)
    return (out, cols) if return_columns else out


def conv2d_grad_w(x, gout, cols=None):
    """dw [I, O, Kx, Ky] from inputs x and output gradient gout [N, O, Ho, Wo];
    cols, if given, are x's im2col columns from conv2d_forward."""
    _, o, ho, wo = gout.shape
    ci, kx, ky = x.shape[1], x.shape[2] - ho + 1, x.shape[3] - wo + 1
    if cols is None:
        cols = _columns(x, kx, ky)
    g = gout.transpose(0, 2, 3, 1).reshape(-1, o)
    return (g.T @ cols).reshape(o, kx, ky, ci).transpose(3, 0, 1, 2)


def conv2d_grad_x(gout, w):
    """dx [N, I, H, W]: each offset's g @ w[:, :, u, v].T lands in its shifted window."""
    n, o, ho, wo = gout.shape
    ci, _, kx, ky = w.shape
    g = np.ascontiguousarray(gout.transpose(0, 2, 3, 1)).reshape(-1, o)
    wt = np.ascontiguousarray(w.transpose(2, 3, 1, 0))  # wt[u, v] is w[:, :, u, v].T, contiguous
    dx = np.zeros((n, ho + kx - 1, wo + ky - 1, ci))
    for u in range(kx):
        for v in range(ky):
            dx[:, u:u + ho, v:v + wo] += (g @ wt[u, v]).reshape(n, ho, wo, ci)
    return dx.transpose(0, 3, 1, 2)
