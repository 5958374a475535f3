"""Reference implementations the benchmark checks the program against.

They are written independently of prunekit's internals: direct loops for
the conv kernels, and a full sort on (score, position) for block
selection. Block layout follows the documented contract: a block spans
the given axes, and blocks are ordered lexicographically over the
remaining axes.
"""

import math

import numpy as np

# spanned axes of the granularity aliases the workloads use
SPANNED = {
    (2, "weight"): (), (2, "column"): (0,), (2, "row"): (1,),
    (4, "weight"): (), (4, "row"): (3,), (4, "kernel"): (2, 3), (4, "filter"): (1, 2, 3),
    (4, "channel"): (1,),
}


def blockify(a, spanned):
    """[n_blocks, block_size] copy of a, one row per block."""
    indexed = [ax for ax in range(a.ndim) if ax not in spanned]
    n_blocks = math.prod(a.shape[ax] for ax in indexed)
    return np.ascontiguousarray(a.transpose(indexed + sorted(spanned))).reshape(n_blocks, -1)


def unblockify(rows, spanned, shape):
    indexed = [ax for ax in range(len(shape)) if ax not in spanned]
    order = indexed + sorted(spanned)
    return rows.reshape([shape[ax] for ax in order]).transpose(np.argsort(order))


def block_counts(mask, spanned):
    """(n_blocks, pruned blocks, every block pure) for a binary mask."""
    rows = blockify(mask, spanned)
    lo, hi = rows.min(axis=1), rows.max(axis=1)
    return rows.shape[0], int(np.count_nonzero(hi == 0)), bool(np.all(lo == hi))


def pruned_blocks(n_blocks, sparsity):
    return math.floor(n_blocks * sparsity / 100.0)


def oracle_masks(weights, spanned, context, sparsity):
    """Masks of large_final pruning by a full sort on (block score, position)."""
    scores = [blockify(np.abs(w), spanned[i]).mean(axis=1) for i, w in enumerate(weights)]
    if context == "local":
        keeps = []
        for s in scores:
            keep = np.ones(len(s))
            keep[np.lexsort((np.arange(len(s)), s))[:pruned_blocks(len(s), sparsity)]] = 0.0
            keeps.append(keep)
    else:
        flat = np.concatenate(scores)
        keep = np.ones(len(flat))
        keep[np.lexsort((np.arange(len(flat)), flat))[:pruned_blocks(len(flat), sparsity)]] = 0.0
        keeps = np.split(keep, np.cumsum([len(s) for s in scores])[:-1])
    return [unblockify(np.repeat(k[:, None], blockify(w, spanned[i]).shape[1], axis=1),
                       spanned[i], w.shape)
            for i, (k, w) in enumerate(zip(keeps, weights))]


# -- conv kernels: valid cross-correlation, x [N, I, H, W], w [I, O, Kx, Ky] ------

def conv_forward_ref(x, w):
    ci, co, kx, ky = w.shape
    ho, wo = x.shape[2] - kx + 1, x.shape[3] - ky + 1
    out = np.zeros((x.shape[0], co, ho, wo))
    for i in range(ci):
        for o in range(co):
            for u in range(kx):
                for v in range(ky):
                    out[:, o] += x[:, i, u:u + ho, v:v + wo] * w[i, o, u, v]
    return out


def conv_grad_w_ref(x, gout):
    ho, wo = gout.shape[2], gout.shape[3]
    kx, ky = x.shape[2] - ho + 1, x.shape[3] - wo + 1
    dw = np.zeros((x.shape[1], gout.shape[1], kx, ky))
    for i in range(x.shape[1]):
        for o in range(gout.shape[1]):
            for u in range(kx):
                for v in range(ky):
                    dw[i, o, u, v] = np.sum(x[:, i, u:u + ho, v:v + wo] * gout[:, o])
    return dw


def conv_grad_x_ref(gout, w):
    ci, co, kx, ky = w.shape
    ho, wo = gout.shape[2], gout.shape[3]
    dx = np.zeros((gout.shape[0], ci, ho + kx - 1, wo + ky - 1))
    for i in range(ci):
        for o in range(co):
            for u in range(kx):
                for v in range(ky):
                    dx[:, i, u:u + ho, v:v + wo] += gout[:, o] * w[i, o, u, v]
    return dx


def check_kernels(kernels, shapes, seed):
    """Compare prunekit's public conv kernels with the loops above.

    shapes: list of (x shape, w shape). Returns a list of (check, ok).
    """
    rng = np.random.default_rng(seed)
    results = []
    for x_shape, w_shape in shapes:
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        gout = rng.normal(size=(x_shape[0], w_shape[1], x_shape[2] - w_shape[2] + 1,
                                x_shape[3] - w_shape[3] + 1))
        tag = f"{list(x_shape)}x{list(w_shape)}"
        for name, fn, ref, fargs in (
                ("forward", kernels.conv2d_forward, conv_forward_ref, (x, w)),
                ("grad_w", kernels.conv2d_grad_w, conv_grad_w_ref, (x, gout)),
                ("grad_x", kernels.conv2d_grad_x, conv_grad_x_ref, (gout, w))):
            got, want = np.asarray(fn(*fargs)), ref(*fargs)
            results.append((f"kernels.{name} {tag}", got.shape == want.shape
                            and np.allclose(got, want, rtol=1e-10, atol=1e-10)))
    return results


def check_selection(prunekit, specs, granularities, sparsity, seed):
    """Compare compute_masks (score -> aggregate -> select_local / select_global)
    with the full-sort oracle on a model built from `specs`.

    Weights are quantised to multiples of 1/64 so that many blocks tie and
    the tie-break by position is exercised; block means of such values are
    exact, so the comparison is exact too. Returns a list of (check, ok).
    """
    from prunekit.criteria import Criterion
    from prunekit.selection import ContextSpec
    from prunekit.sparsifier import compute_masks

    model = prunekit.Model.from_specs(specs, prunekit.Rng(seed))
    layers = model.prunable_layers()
    for layer in layers:
        layer.weights = np.round(layer.weights * 64.0) / 64.0
    weights = [l.weights for l in layers]
    n = sum(w.size for w in weights)
    results = []
    for gran in granularities:
        spanned = [SPANNED[(w.ndim, gran)] for w in weights]
        for context in ("local", "global"):
            got = compute_masks(layers, gran, ContextSpec(context), Criterion("large_final"),
                                sparsity)
            want = oracle_masks(weights, spanned, context, sparsity)
            ok = len(got) == len(want) and all(
                g.shape == m.shape and np.array_equal(g, m) for g, m in zip(got, want))
            results.append((f"select_{context} {gran} n={n} s={sparsity}", ok))
    return results
