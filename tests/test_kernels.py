import numpy as np
import pytest

from prunekit import Rng, kernels

# (x shape [N, I, H, W], w shape [I, O, Kx, Ky])
SHAPES = {
    "conv_train_layer1": ((4, 1, 8, 8), (1, 8, 3, 3)),
    "conv_train_layer2": ((4, 8, 6, 6), (8, 16, 3, 3)),
    "batch_1": ((1, 3, 5, 6), (3, 2, 3, 3)),
    "in_channels_1": ((2, 1, 5, 5), (1, 3, 2, 2)),
    "out_channels_1": ((2, 3, 5, 4), (3, 1, 3, 3)),
    "kernel_3x2": ((2, 2, 6, 5), (2, 3, 3, 2)),
    "kernel_1x1": ((2, 3, 4, 5), (3, 2, 1, 1)),
    "kernel_fills_input": ((2, 3, 4, 3), (3, 2, 4, 3)),
}


# Direct definitions, one output element (or one gradient contribution) at a time.

def forward_loops(x, w):
    n, _, h, wd = x.shape
    _, co, kx, ky = w.shape
    out = np.zeros((n, co, h - kx + 1, wd - ky + 1))
    for b, o, p, q in np.ndindex(out.shape):
        out[b, o, p, q] = np.sum(x[b, :, p:p + kx, q:q + ky] * w[:, o])
    return out


def grad_w_loops(x, gout):
    ho, wo = gout.shape[2:]
    dw = np.zeros((x.shape[1], gout.shape[1], x.shape[2] - ho + 1, x.shape[3] - wo + 1))
    for i, o, u, v in np.ndindex(dw.shape):
        dw[i, o, u, v] = np.sum(x[:, i, u:u + ho, v:v + wo] * gout[:, o])
    return dw


def grad_x_loops(gout, w):
    n, _, ho, wo = gout.shape
    ci, _, kx, ky = w.shape
    dx = np.zeros((n, ci, ho + kx - 1, wo + ky - 1))
    for b, o, p, q in np.ndindex(gout.shape):
        dx[b, :, p:p + kx, q:q + ky] += gout[b, o, p, q] * w[:, o]
    return dx


def _case(x_shape, w_shape, seed=0):
    rng = Rng(seed)
    x = rng.normal(x_shape)
    w = rng.normal(w_shape)
    gout = rng.normal((x_shape[0], w_shape[1], x_shape[2] - w_shape[2] + 1,
                       x_shape[3] - w_shape[3] + 1))
    return x, w, gout


def _check_all(x, w, gout):
    np.testing.assert_allclose(kernels.conv2d_forward(x, w), forward_loops(x, w), rtol=1e-12)
    np.testing.assert_allclose(kernels.conv2d_grad_w(x, gout), grad_w_loops(x, gout), rtol=1e-12)
    np.testing.assert_allclose(kernels.conv2d_grad_x(gout, w), grad_x_loops(gout, w), rtol=1e-12)


@pytest.mark.parametrize("name", SHAPES)
def test_kernels_match_direct_loops(name):
    _check_all(*_case(*SHAPES[name]))


def test_kernels_accept_non_contiguous_inputs():
    x, w, gout = _case((2, 3, 6, 5), (3, 2, 2, 3))
    # the same values behind transposed views, so no argument is C-contiguous
    xt = np.ascontiguousarray(x.transpose(3, 2, 1, 0)).transpose(3, 2, 1, 0)
    wt = np.ascontiguousarray(w.transpose(1, 0, 3, 2)).transpose(1, 0, 3, 2)
    gt = np.ascontiguousarray(gout.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    assert not any(a.flags.c_contiguous for a in (xt, wt, gt))
    _check_all(xt, wt, gt)


@pytest.mark.parametrize("name", ["conv_train_layer1", "kernel_3x2", "kernel_fills_input"])
def test_grad_x_matches_finite_differences(name):
    # L(x) = sum(forward(x, w) * gout), so dL/dx is grad_x(gout, w)
    x, w, gout = _case(*SHAPES[name], seed=1)
    x = x[:2]
    gout = gout[:2]
    eps = 1e-6
    numeric = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += eps
        xm[idx] -= eps
        numeric[idx] = (np.sum(kernels.conv2d_forward(xp, w) * gout)
                        - np.sum(kernels.conv2d_forward(xm, w) * gout)) / (2 * eps)
    np.testing.assert_allclose(kernels.conv2d_grad_x(gout, w), numeric, rtol=1e-6, atol=1e-6)


def test_forward_hand_value():
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    w = np.zeros((1, 1, 2, 2))
    w[0, 0, 0, 0] = 1.0  # pick out the top-left of each window
    out = kernels.conv2d_forward(x, w)
    np.testing.assert_array_equal(out[0, 0], [[0, 1, 2], [4, 5, 6], [8, 9, 10]])
