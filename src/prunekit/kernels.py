"""Conv2d kernels, the only hot numeric loops in the engine, in numpy.

Conventions: inputs [N, I, H, W], weights [I, O, Kx, Ky], valid
cross-correlation with stride 1 and no padding.

The forward pass and grad_w are one matmul each over the same im2col
columns (Chellapilla et al., 2006): one row per output position, N*Ho*Wo
rows, and one column per (kernel offset, input channel) pair, channel
innermost. The columns are gathered from a channels-last copy of the
input, so each copied run is Ky*I doubles long, not Ky. grad_x loops over
the Kx*Ky kernel offsets instead and adds one matmul per offset into a
shifted channels-last window: an im2col grad_x, over the zero-padded
output gradient, took 2 to 2.5 times as long at the conv_train_1,
conv_train_2 and large shapes of benchmarks/bench_kernels.py.
"""

import numpy as np


def _columns(x, kx, ky):
    """im2col columns [N*Ho*Wo, Kx*Ky*I] of x [N, I, H, W], ordered (u, v, i)."""
    n, ci, h, wd = x.shape
    xc = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    sn, sh, sw, _ = xc.strides
    # windows[n, p, q, u, j] = xc[n, p + u, q + j // ci, j % ci]: a window row's
    # Ky*I values are one contiguous run of xc. as_strided builds the view in a
    # third of sliding_window_view's time, which matters at conv-train's shapes.
    windows = np.lib.stride_tricks.as_strided(
        xc, (n, h - kx + 1, wd - ky + 1, kx, ky * ci), (sn, sh, sw, sh, xc.itemsize), writeable=False)
    return windows.reshape(-1, kx * ky * ci)


def conv2d_forward(x, w):
    o, kx, ky = w.shape[1:]
    n, ho, wo = x.shape[0], x.shape[2] - kx + 1, x.shape[3] - ky + 1
    out = _columns(x, kx, ky) @ w.transpose(2, 3, 0, 1).reshape(-1, o)
    return out.reshape(n, ho, wo, o).transpose(0, 3, 1, 2)


def conv2d_grad_w(x, gout):
    """dw [I, O, Kx, Ky] from inputs x and output gradient gout [N, O, Ho, Wo]."""
    _, o, ho, wo = gout.shape
    ci, kx, ky = x.shape[1], x.shape[2] - ho + 1, x.shape[3] - wo + 1
    g = gout.transpose(0, 2, 3, 1).reshape(-1, o)
    return (g.T @ _columns(x, kx, ky)).reshape(o, kx, ky, ci).transpose(3, 0, 1, 2)


def conv2d_grad_x(gout, w):
    """dx [N, I, H, W]: each offset's g @ w[:, :, u, v].T lands in its shifted window."""
    n, o, ho, wo = gout.shape
    ci, _, kx, ky = w.shape
    g = np.ascontiguousarray(gout.transpose(0, 2, 3, 1)).reshape(-1, o)
    dx = np.zeros((n, ho + kx - 1, wo + ky - 1, ci))
    for u in range(kx):
        for v in range(ky):
            dx[:, u:u + ho, v:v + wo] += (g @ w[:, :, u, v].T).reshape(n, ho, wo, ci)
    return dx.transpose(0, 3, 1, 2)
