import tracemalloc

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
    "width_1": ((2, 3, 4, 1), (3, 2, 2, 1)),
}

# perfbench's conv-train layers at the training batch: the im2col columns
# are 32*Ho*Wo long
BATCH32_SHAPES = {
    "conv_train_layer1": ((32, 1, 8, 8), (1, 8, 3, 3)),
    "conv_train_layer2": ((32, 8, 6, 6), (8, 16, 3, 3)),
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


def grad_x_window_adds(gout, w, copy_weights=True):
    """grad_x as one [I, O] @ [O, Ho*Wo*N] matmul per offset, added into the
    offset's strided window of dx [I, H, W, N]; each offset's weights are a
    contiguous copy of w[:, :, u, v], or the strided view itself."""
    n, o, ho, wo = gout.shape
    ci, _, kx, ky = w.shape
    g = np.ascontiguousarray(gout.transpose(1, 2, 3, 0)).reshape(o, -1)
    dx = np.zeros((ci, ho + kx - 1, wo + ky - 1, n))
    for u in range(kx):
        for v in range(ky):
            wuv = np.ascontiguousarray(w[:, :, u, v]) if copy_weights else w[:, :, u, v]
            dx[:, u:u + ho, v:v + wo] += (wuv @ g).reshape(ci, ho, wo, n)
    return dx.transpose(3, 0, 1, 2)


def grad_x_strided_weights(gout, w):
    """conv2d_grad_x with each offset's matmul on the strided view w[:, :, u, v]."""
    return grad_x_window_adds(gout, w, copy_weights=False)


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


@pytest.mark.parametrize("name", BATCH32_SHAPES)
def test_kernels_match_direct_loops_at_batch_32(name):
    """Each kernel within 1e-12 of its direct loops, relative to the summed
    magnitude of each output's terms (the loops on |x|, |w|, |gout|). At
    batch 32 some outputs cancel to ~1e-3 from terms of order 1, and there
    no two summation orders agree to 1e-12 of the output itself: neither the
    per-offset grad_x nor an einsum forward passes rtol 1e-12 here."""
    x, w, gout = _case(*BATCH32_SHAPES[name])
    ax, aw, ag = np.abs(x), np.abs(w), np.abs(gout)
    for got, want, magnitude in (
            (kernels.conv2d_forward(x, w), forward_loops(x, w), forward_loops(ax, aw)),
            (kernels.conv2d_grad_w(x, gout), grad_w_loops(x, gout), grad_w_loops(ax, ag)),
            (kernels.conv2d_grad_x(gout, w), grad_x_loops(gout, w), grad_x_loops(ag, aw))):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / magnitude) <= 1e-12


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


def test_bias_and_reused_columns_change_no_bits():
    x, w, gout = _case(*SHAPES["conv_train_layer2"])
    b = Rng(2).normal((w.shape[1],))
    out, cols = kernels.conv2d_forward(x, w, b, return_columns=True)
    assert out.tobytes() == (kernels.conv2d_forward(x, w) + b[None, :, None, None]).tobytes()
    assert kernels.conv2d_grad_w(x, gout, cols).tobytes() == kernels.conv2d_grad_w(x, gout).tobytes()


# the four shapes pinned first, then every other shape above, bench_kernels'
# "large" and a 5x5 kernel
GRAD_X_BITS_SHAPES = [
    BATCH32_SHAPES["conv_train_layer1"], BATCH32_SHAPES["conv_train_layer2"],
    SHAPES["kernel_1x1"], SHAPES["kernel_3x2"],
    *(shapes for name, shapes in SHAPES.items() if name not in ("kernel_1x1", "kernel_3x2")),
    ((32, 8, 28, 28), (8, 16, 3, 3)), ((32, 8, 12, 12), (8, 16, 5, 5))]


# At in_channels_1 each offset's strided [1, 3] weight row gives BLAS's gemv
# other bits than the contiguous copy conv2d_grad_x multiplies (up to
# 8.9e-16 apart in dx); the next test pins that shape against window adds
# of copied weights.
@pytest.mark.parametrize("x_shape, w_shape",
                         [s for s in GRAD_X_BITS_SHAPES if s != SHAPES["in_channels_1"]])
def test_grad_x_bits_equal_strided_weight_matmuls(x_shape, w_shape):
    _, w, gout = _case(x_shape, w_shape)
    got, want = kernels.conv2d_grad_x(gout, w), grad_x_strided_weights(gout, w)
    assert got.tobytes() == want.tobytes()
    assert got.strides == want.strides


@pytest.mark.parametrize("x_shape, w_shape", GRAD_X_BITS_SHAPES)
def test_grad_x_bits_equal_window_adds_of_copied_weights(x_shape, w_shape):
    _, w, gout = _case(x_shape, w_shape)
    assert kernels.conv2d_grad_x(gout, w).tobytes() == grad_x_window_adds(gout, w).tobytes()


def test_grad_x_bits_equal_strided_weight_matmuls_with_nan_and_inf_weights():
    _, w, gout = _case(*BATCH32_SHAPES["conv_train_layer2"])
    w[1, 2, 0, 1] = np.nan
    w[5, 7, 2, 2] = np.inf
    with np.errstate(invalid="ignore"):
        got, want = kernels.conv2d_grad_x(gout, w), grad_x_strided_weights(gout, w)
    assert np.isnan(got).any() and np.isinf(got).any()
    assert got.tobytes() == want.tobytes()


def test_columns_viewing_the_input_are_read_only():
    # with a 1x1 kernel and a batch-innermost input the columns are x's own memory
    x, w, _ = _case(*SHAPES["kernel_1x1"])
    x = np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    _, cols = kernels.conv2d_forward(x, w, return_columns=True)
    assert np.shares_memory(cols, x)
    assert not cols.flags.writeable


def _layouts(a):
    """a [N, C, H, W] as NCHW-contiguous memory, as an NHWC view and as a CHWN view."""
    return (np.ascontiguousarray(a),
            np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2),
            np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2))


@pytest.mark.parametrize("name", ["conv_train_layer2", "batch_1", "kernel_3x2", "width_1"])
def test_kernels_same_bytes_from_any_input_layout(name):
    x, w, gout = _case(*SHAPES[name])
    runs = [(kernels.conv2d_forward(xl, w).tobytes(), kernels.conv2d_grad_w(xl, gl).tobytes(),
             kernels.conv2d_grad_x(gl, w).tobytes())
            for xl, gl in zip(_layouts(x), _layouts(gout))]
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_forward_and_grad_x_return_batch_innermost_memory():
    x, w, gout = _case(*SHAPES["conv_train_layer2"])
    for out in (kernels.conv2d_forward(x, w), kernels.conv2d_grad_x(gout, w)):
        assert out.transpose(1, 2, 3, 0).flags.c_contiguous
        assert np.shares_memory(kernels.chwn(out), out)


def test_grad_w_reads_batch_innermost_gout_and_columns_without_a_copy():
    x, w, gout = _case(*BATCH32_SHAPES["conv_train_layer2"])
    _, cols = kernels.conv2d_forward(x, w, return_columns=True)
    g = np.ascontiguousarray(gout.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    tracemalloc.start()
    kernels.conv2d_grad_w(x, g, cols)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < gout.nbytes / 2  # dw is 9 kB, gout 64 kB and the columns 330 kB


def test_grad_x_holds_the_gradient_and_one_buffer_of_its_size():
    _, w, gout = _case(*BATCH32_SHAPES["conv_train_layer2"])
    g = np.ascontiguousarray(gout.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    tracemalloc.start()
    dx = kernels.conv2d_grad_x(g, w)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # dx and the zeroed product buffer are 74 kB each and the weight copy
    # 9 kB: the peak measured 159 kB; window adds of a new 33 kB product per
    # offset peak at 183 kB
    assert peak < 2 * dx.nbytes + 2 * w.nbytes


def test_forward_hand_value():
    x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
    w = np.zeros((1, 1, 2, 2))
    w[0, 0, 0, 0] = 1.0  # pick out the top-left of each window
    out = kernels.conv2d_forward(x, w)
    np.testing.assert_array_equal(out[0, 0], [[0, 1, 2], [4, 5, 6], [8, 9, 10]])
