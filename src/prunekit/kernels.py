"""Conv2d kernels, the only hot numeric loops in the engine, in numpy.

Conventions: inputs [N, I, H, W], weights [I, O, Kx, Ky], valid
cross-correlation with stride 1 and no padding.

Activations and gradients are kept batch-innermost, [C, H, W, N] in
memory (chwn()), as cuda-convnet stores them (Krizhevsky et al., 2012),
and handed out as [N, C, H, W] views of that memory. An input in any
other layout is copied once on entry; one in this layout is not copied
at all, so a conv layer's output, and a ReLU's (which keeps its input's
layout), is the next conv layer's input as it stands.

The forward pass and grad_w are one matmul each over the same im2col
columns (Chellapilla et al., 2006): one row per (kernel offset, input
channel) pair, channel innermost, and one column per output position,
Ho*Wo*N columns with the batch innermost. Every run the gather copies is
one window row of Wo*N doubles. The forward pass computes
w[O, K] @ columns, adds the bias per row of that contiguous [O, Ho*Wo*N]
product and can return the columns with the output; grad_w multiplies
columns it is given instead of building them again, summing over
(Ho, Wo, N). Conv2d keeps a training forward's columns until its backward
and keeps none from an eval forward.

grad_x loops over the Kx*Ky kernel offsets instead. Each offset
multiplies a contiguous [I, O] slice of one transposed copy of the
weights, made once per call, by the output gradient one output row at a
time, through matmul's batch axis: Ho products [I, O] @ [O, Wo*N]. Each
row's product is written into a zeroed buffer laid out as the flat
[I, H*W*N] gradient, where that row of the gradient starts; the (Ky-1)*N
doubles after each row and the last Kx-1 rows of each channel are never
written. Offset (u, v) moves every product element by the same
(u*W + v)*N doubles, so the buffer is added to the gradient as one
contiguous 1-D run, not as Ho*I strided rows of a 4-D window, which cost
about 3x as much per double at conv-train's shapes.

The bytes are those of one [I, O] @ [O, Ho*Wo*N] matmul per offset added
into its window. The gradient starts at +0.0, a sum that starts at +0.0
never becomes -0.0 under round-to-nearest, and adding +0.0 to anything
but -0.0 (NaN and inf included) leaves it as it is: the buffer's unwritten
+0.0 change nothing, and each element gets the same products in the same
(u, v) order. A row's product is a Wo*N-column slice of the whole one,
with the same bits wherever BLAS computes those columns as it does in the
whole product. OpenBLAS 0.3.31 on an AVX-512 x86-64 host does wherever
Wo*N is a multiple of 8, as at any batch that is; at other widths, such as
a training split's last batch of one row, the last bits can differ.
"""

import numpy as np


def chwn(a):
    """a [N, C, H, W] as contiguous [C, H, W, N] memory: a's own memory if a
    is a view of such memory, else a copy."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0))


def _columns(x, kx, ky):
    """im2col columns [Kx*Ky*I, Ho*Wo*N] of x [N, I, H, W], rows ordered (u, v, i)."""
    n, ci, h, wd = x.shape
    xc = chwn(x)
    si, sh, sw, _ = xc.strides
    ho, wo = h - kx + 1, wd - ky + 1
    # windows[u, v, i, p, r] = xc[i, p + u, v + r // n, r % n]: one window row's
    # Wo*N values are one contiguous run of xc. The ndarray constructor builds
    # the view in a fifth of as_strided's time, which matters at conv-train's
    # shapes; read-only, as a 1x1 kernel's columns are a view of x itself.
    windows = np.ndarray((kx, ky, ci, ho, wo * n), xc.dtype, buffer=xc,
                         offset=0, strides=(sh, sw, si, sh, xc.itemsize))
    windows.setflags(write=False)
    return windows.reshape(kx * ky * ci, -1)


def conv2d_forward(x, w, b=None, return_columns=False):
    """[N, O, Ho, Wo] output, a view of [O, Ho, Wo, N] memory, plus the im2col
    columns it multiplied when return_columns is set; the bias b [O], if
    given, is added to each row of the contiguous [O, Ho*Wo*N] product."""
    o, kx, ky = w.shape[1:]
    n, ho, wo = x.shape[0], x.shape[2] - kx + 1, x.shape[3] - ky + 1
    cols = _columns(x, kx, ky)
    out = w.transpose(1, 2, 3, 0).reshape(o, -1) @ cols
    if b is not None:
        out += b[:, None]
    out = out.reshape(o, ho, wo, n).transpose(3, 0, 1, 2)
    return (out, cols) if return_columns else out


def conv2d_grad_w(x, gout, cols=None):
    """dw [I, O, Kx, Ky] from inputs x and output gradient gout [N, O, Ho, Wo];
    cols, if given, are x's im2col columns from conv2d_forward."""
    _, o, ho, wo = gout.shape
    ci, kx, ky = x.shape[1], x.shape[2] - ho + 1, x.shape[3] - wo + 1
    if cols is None:
        cols = _columns(x, kx, ky)
    g = chwn(gout).reshape(o, -1)
    return (g @ cols.T).reshape(o, kx, ky, ci).transpose(3, 0, 1, 2)


def conv2d_grad_x(gout, w):
    """dx [N, I, H, W], a view of [I, H, W, N] memory: each offset's
    w[:, :, u, v] @ g, computed one output row at a time into a zeroed
    width-padded buffer, is added to the flat gradient as one contiguous
    run shifted by (u*W + v)*N."""
    n, o, ho, wo = gout.shape
    ci, _, kx, ky = w.shape
    h, wd = ho + kx - 1, wo + ky - 1
    r, span = h * wd * n, ho * wd * n  # one channel of dx; the rows an offset's product reaches
    g = chwn(gout).reshape(o, ho, wo * n).transpose(1, 0, 2)  # [Ho, O, Wo*N], a view
    wt = np.ascontiguousarray(w.transpose(2, 3, 0, 1))  # wt[u, v] is w[:, :, u, v], contiguous
    prod = np.zeros((ci, r))
    # rows[p, i] is the Wo*N run of prod where dx[i, p] starts: [Ho, I, Wo*N]
    rows = prod[:, :span].reshape(ci, ho, wd * n)[:, :, :wo * n].transpose(1, 0, 2)
    body = prod.reshape(-1)[:(ci - 1) * r + span]  # the rest of prod is never written
    dx = np.zeros(ci * r + (ky - 1) * n)  # room for the last shift's add of body
    for u in range(kx):
        for v in range(ky):
            np.matmul(wt[u, v], g, out=rows)
            s = (u * wd + v) * n
            win = dx[s:s + body.size]
            win += body
    return dx[:ci * r].reshape(ci, h, wd, n).transpose(3, 0, 1, 2)
