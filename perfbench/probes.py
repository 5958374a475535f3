"""Where the benchmark hooks into prunekit, and the per-module metrics.

Each target is patched where the program looks it up: ``prunekit.cli.fit``
(cli imports fit by name), ``prunekit.sparsifier.score``,
``prunekit.kernels.conv2d_grad_x`` (layers calls ``kernels.<name>``), and
so on. The untimed runs install only PROBES, the few spans the end-to-end
metrics are defined by (fit, compute_masks, checkpoint save and load);
traced passes install every target.
"""

import os
import weakref

import numpy as np

KERNELS = ("forward", "grad_w", "grad_x")
MODULES = ("cli", "config", "datasets", "train", "layers", "kernels", "sparsifier",
           "criteria", "granularity", "selection", "checkpoint", "svgplot")


# -- hooks: before(tracer, args) / after(tracer, args, result) ---------------------

def _fit_begin(tr, args):
    tr.state.setdefault("first_layers", set()).add(id(args[0].layers[0]))


def _fit_end(tr, args, result):
    tr.stats["train.steps"] += len(result[1])
    log_bytes = 0
    for cb in tr.state.get("callbacks", ()):
        for entry in getattr(cb, "update_log", ()):
            for value in (entry.values() if isinstance(entry, dict) else ()):
                arrays = value if isinstance(value, (list, tuple)) else [value]
                log_bytes += sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    tr.stats["sparsifier.update_log_bytes"] += log_bytes


def _keep_callback(tr, args, result):
    tr.state.setdefault("callbacks", []).append(result)


def _saved(tr, args, result):
    tr.stats["checkpoint.save.bytes"] += os.path.getsize(args[0])
    tr.state["saved"] = args[1]


def _load_bytes(tr, args):
    tr.stats["checkpoint.load.bytes"] += os.path.getsize(args[0])


def _conv_flops(kind, args):
    """2 * N * O * I * Kx * Ky * Ho * Wo multiply-adds, from the argument shapes."""
    if kind == "forward":
        (n, ci, h, wd), (_, co, kx, ky) = args[0].shape, args[1].shape
        ho, wo = h - kx + 1, wd - ky + 1
    elif kind == "grad_w":
        (n, ci, h, wd), (_, co, ho, wo) = args[0].shape, args[1].shape
        kx, ky = h - ho + 1, wd - wo + 1
    else:
        (n, co, ho, wo), (ci, _, kx, ky) = args[0].shape, args[1].shape
    return 2 * n * co * ci * kx * ky * ho * wo


def _kernel_hook(kind):
    def after(tr, args, result):
        flops = _conv_flops(kind, args)
        tr.stats["kernels.flops"] += flops
        if kind == "grad_x":
            tr.stats["grad_x.flops"] += flops
            # the input gradient of a model's first layer is discarded
            if id(tr.state.get("conv_layer")) not in tr.state.get("first_layers", ()):
                tr.stats["grad_x.useful_flops"] += flops
    return after


def _conv_backward_begin(tr, args):
    tr.state["conv_layer"] = args[0]


def _score_elems(tr, args, result):
    tr.stats["criteria.score.elems"] += args[1].size


def _index_bytes(tr, args, result):
    blocks = getattr(result, "blocks", None)
    if isinstance(blocks, np.ndarray):
        tr.stats["granularity.index_bytes"] += blocks.nbytes


def _sorted_elems(tr, args, result):
    tr.stats["selection.sorted_elems"] += sum(
        len(getattr(layer, "block_scores", ())) for layer in args[0])


def _churn(tr, args, result):
    """Share of mask entries that changed against the same model's previous update."""
    layers, masks = args[0], result
    prev = tr.state.setdefault("prev_masks", {})
    key = id(layers[0])
    ref, old = prev.get(key, (None, None))
    if ref is not None and ref() is layers[0]:
        changed = sum(int(np.count_nonzero(a != b)) for a, b in zip(old, masks))
        tr.stats["churn.sum"] += changed / sum(m.size for m in masks)
        tr.stats["churn.n"] += 1
        tr.stats["churn.noop"] += changed == 0
    prev[key] = (weakref.ref(layers[0]), masks)


def targets(pk, traced):
    """(owner, attribute, span name, before, after) for the installed hooks."""
    cli, sp = pk.cli, pk.sparsifier
    probes = [
        (cli, "fit", "train.fit", _fit_begin, _fit_end),
        (sp, "compute_masks", "sparsifier.update", None, _churn if traced else None),
        (pk.checkpoint, "save", "checkpoint.save", None, _saved),
        (pk.checkpoint, "load", "checkpoint.load", _load_bytes, None),
    ]
    if not traced:
        return probes
    layers = pk.layers
    return probes + [
        (cli, "cmd_run", "cli.run", None, None),
        (cli, "cmd_prune", "cli.prune", None, None),
        (cli, "cmd_inspect", "cli.inspect", None, None),
        (cli, "load_config", "config.load", None, None),
        (cli, "line_chart", "svgplot.line_chart", None, None),
        (cli, "enumerate_blocks", "granularity.partition", None, _index_bytes),
        (cli, "model_sparsity", "sparsifier.publish", None, None),
        (cli, "SparsifyCallback", "sparsifier.callback", None, _keep_callback),
        (pk.train, "make_dataset", "datasets.make", None, None),
        (pk.train, "softmax_cross_entropy", "train.loss", None, None),
        (pk.train, "sgd_step", "train.sgd_step", None, None),
        (layers.Dense, "forward", "layers.dense.forward", None, None),
        (layers.Dense, "backward", "layers.dense.backward", None, None),
        (layers.Conv2d, "forward", "layers.conv2d.forward", None, None),
        (layers.Conv2d, "backward", "layers.conv2d.backward", _conv_backward_begin, None),
        (layers.Model, "copy", "layers.model.copy", None, None),
        (pk.kernels, "conv2d_forward", "kernels.forward", None, _kernel_hook("forward")),
        (pk.kernels, "conv2d_grad_w", "kernels.grad_w", None, _kernel_hook("grad_w")),
        (pk.kernels, "conv2d_grad_x", "kernels.grad_x", None, _kernel_hook("grad_x")),
        (sp.Sparsifier, "prune_model", "sparsifier.prune_model", None, None),
        (sp, "score", "criteria.score", None, _score_elems),
        (sp, "enumerate_blocks", "granularity.partition", None, _index_bytes),
        (sp, "aggregate_scores", "granularity.aggregate", None, None),
        (sp, "select", "selection.select", None, _sorted_elems),
        (sp, "apply_mask", "sparsifier.apply", None, None),
        (sp, "model_sparsity", "sparsifier.publish", None, None),
    ]


def layer_metrics(tr):
    """Per-module metrics of one traced pass: name -> value."""
    summary = tr.summary()
    st = tr.stats

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return summary.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return summary.get(name, (0, 0.0, 0.0))[2]

    m = {}
    for k in KERNELS:
        m[f"kernels.{k}.calls"] = calls(f"kernels.{k}")
        m[f"kernels.{k}.busy_s"] = busy(f"kernels.{k}")
    kernel_s = sum(busy(f"kernels.{k}") for k in KERNELS)
    m["kernels.flops"] = st["kernels.flops"]
    m["kernels.gflops_per_s"] = st["kernels.flops"] / kernel_s / 1e9 if kernel_s else 0.0
    m["kernels.grad_x.useful_share"] = (st["grad_x.useful_flops"] / st["grad_x.flops"]
                                        if st["grad_x.flops"] else 0.0)
    m["layers.dense.forward.busy_s"] = busy("layers.dense.forward")
    m["layers.dense.backward.busy_s"] = busy("layers.dense.backward")
    m["train.sgd_step.busy_s"] = busy("train.sgd_step")
    m["train.loss.busy_s"] = busy("train.loss")
    m["train.fit.self_s"] = own("train.fit")
    m["train.steps"] = st["train.steps"]
    m["sparsifier.update.calls"] = calls("sparsifier.update")
    m["sparsifier.update.self_s"] = own("sparsifier.update")
    m["sparsifier.apply.busy_s"] = busy("sparsifier.apply")
    m["sparsifier.publish.busy_s"] = busy("sparsifier.publish")
    m["sparsifier.churn_mean"] = st["churn.sum"] / st["churn.n"] if st["churn.n"] else 0.0
    m["sparsifier.update.noop_share"] = st["churn.noop"] / st["churn.n"] if st["churn.n"] else 0.0
    m["sparsifier.update_log_bytes"] = st["sparsifier.update_log_bytes"]
    m["criteria.score.busy_s"] = busy("criteria.score")
    m["criteria.score.elems"] = st["criteria.score.elems"]
    m["granularity.partition.busy_s"] = busy("granularity.partition")
    m["granularity.aggregate.busy_s"] = busy("granularity.aggregate")
    m["granularity.index_bytes"] = st["granularity.index_bytes"]
    m["selection.select.busy_s"] = busy("selection.select")
    m["selection.sorted_elems"] = st["selection.sorted_elems"]
    for op in ("save", "load"):
        m[f"checkpoint.{op}.busy_s"] = busy(f"checkpoint.{op}")
        m[f"checkpoint.{op}.bytes"] = st[f"checkpoint.{op}.bytes"]
    m["datasets.make.busy_s"] = busy("datasets.make")
    m["config.load.busy_s"] = busy("config.load")
    m["svgplot.line_chart.busy_s"] = busy("svgplot.line_chart")
    selfs = dict.fromkeys(MODULES, 0.0)
    for name, (_, _, own_s) in summary.items():
        module = name.split(".")[0]
        if module in selfs:
            selfs[module] += own_s
    for module, value in selfs.items():
        m[f"module.{module}.self_s"] = value
    return m


def kernel_shape_timings(kernels, reps=(40, 8)):
    """bench_kernels.py's shapes through the public kernels, median CPU ms per call."""
    from calibrate import clock

    rng = np.random.default_rng(0)
    shapes = {"small": ((32, 1, 8, 8), (1, 4, 3, 3)), "large": ((32, 8, 28, 28), (8, 16, 3, 3))}
    out = {}
    for (label, (x_shape, w_shape)), n in zip(shapes.items(), reps):
        x, w = rng.normal(size=x_shape), rng.normal(size=w_shape)
        gout = kernels.conv2d_forward(x, w)
        for name, fn, fargs in (("forward", kernels.conv2d_forward, (x, w)),
                                ("grad_w", kernels.conv2d_grad_w, (x, gout)),
                                ("grad_x", kernels.conv2d_grad_x, (gout, w))):
            fn(*fargs)
            times = []
            for _ in range(n):
                start = clock()
                fn(*fargs)
                times.append(clock() - start)
            times.sort()
            out[f"kernels.shape.{label}.{name}_ms"] = times[len(times) // 2] * 1e3
    return out
