"""Conv2d kernels, the only hot numeric loops in the engine, in numpy.

Conventions: inputs [N, I, H, W], weights [I, O, Kx, Ky], valid
cross-correlation with stride 1 and no padding.

The forward pass is one einsum over sliding windows. Both gradients loop
over the Kx*Ky kernel offsets instead and do one matmul per offset, with
the N*Ho*Wo output positions as the contracted axis (grad_w) or as rows
added into a shifted channels-last window (grad_x). This beat the einsum
formulation at every shape in benchmarks/bench_kernels.py.
"""

import numpy as np


def conv2d_forward(x, w):
    windows = np.lib.stride_tricks.sliding_window_view(x, w.shape[2:], axis=(2, 3))
    return np.einsum("nihwxy,ioxy->nohw", windows, w, optimize=True)


def conv2d_grad_w(x, gout):
    """dw [I, O, Kx, Ky] from inputs x and output gradient gout [N, O, Ho, Wo]."""
    _, o, ho, wo = gout.shape
    ci, kx, ky = x.shape[1], x.shape[2] - ho + 1, x.shape[3] - wo + 1
    g = np.ascontiguousarray(gout.transpose(1, 0, 2, 3)).reshape(o, -1)
    xc = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    dw = np.empty((ci, o, kx, ky))
    for u in range(kx):
        for v in range(ky):
            dw[:, :, u, v] = (g @ xc[:, u:u + ho, v:v + wo].reshape(-1, ci)).T
    return dw


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
