"""Mask lifecycle orchestration.

Two entry points:

  * Sparsifier      -- static pruning of a layer or whole model; the only
                       code that computes masks and writes them into weights
  * SparsifyCallback -- dynamic pruning during training: a schedule around
                        one Sparsifier; with the plan's lth set it also runs
                        lottery-ticket experiments (reset to a saved snapshot
                        after each pruning round) and keeps the tickets

Sparsifier masks each layer's weights array in place, in static pruning
and in the callback alike, and an LTH rewind or reset_end copies the rewind
snapshot's values into the same arrays: a fit never replaces a parameter
array.

A mask update scores every layer into one flat array of block scores,
laid out once per Sparsifier and list of weight shapes (block_layout), and
selects over that array with a fixed handful of numpy calls; only scoring,
structured block means and writing each layer's mask loop over the layers.
Every mask it returns is a new array of its own.

The callback acts once per completed step, step 0 being the start of
training: at step rewind_epoch * steps_per_epoch it first takes the rewind
snapshot, then it runs the mask update due at that step, if any, and last
it publishes the step's target and model sparsity into the state. Every
step first re-applies the current masks, and only then may an update
recompute them from scratch, so pruned weights are 0 when scored. Only
under a criterion that reads a history are the weights copied into each
layer's `history` at every update. Every lottery ticket shares the one
rewind snapshot.
"""

from dataclasses import asdict, dataclass
import math

import numpy as np

from .criteria import Criterion, score
from .fields import FieldError, checked_object, integer, percent, string, under
from .granularity import enumerate_blocks, aggregate_scores, parse_granularity
from .layers import Model
from .rng import Rng
from .schedule import ScheduleSpec, current_target, eval_schedule, window_steps
from .selection import BlockLayout, BlockScores, ContextSpec, select
from .tensor import mask_in_place
from .train import Callback, accuracy


@dataclass
class SparsifyPlan:
    """The one place that knows a plan's schema; a bad field raises FieldError
    naming its path. `sparsity`, a scalar or one value per prunable layer, is
    the only target; the schedule is a curve and a window towards it."""
    sparsity: float | list
    granularity: str = "weight"
    context: str = "local"
    criterion: str = "large_final"
    schedule: ScheduleSpec | None = ScheduleSpec("one_shot")
    lth: bool = False
    rewind_epoch: int = 0
    reset_end: bool = False

    def __post_init__(self):
        if isinstance(self.sparsity, (list, tuple)):
            if not self.sparsity:
                raise FieldError("sparsity", "empty per-layer list")
            self.sparsity = [percent(s, f"sparsity[{i}]") for i, s in enumerate(self.sparsity)]
        else:
            self.sparsity = percent(self.sparsity, "sparsity")
        string(self.granularity, "granularity")
        under("context", ContextSpec, self.context)
        if self.per_layer and self.context != "local":
            raise FieldError("context", f"{self.context!r} beside a per-layer sparsity list, "
                                        f"which gives each layer its own target: only 'local' does")
        under("criterion", Criterion, self.criterion)
        for name in ("lth", "reset_end"):
            if not isinstance(getattr(self, name), bool):
                raise FieldError(name, f"not a boolean: {getattr(self, name)!r}")
        self.rewind_epoch = integer(self.rewind_epoch, "rewind_epoch", low=0)
        if self.rewind_epoch and not (self.lth or self.reset_end):
            raise FieldError("rewind_epoch", "read only under lth or reset_end")
        # one_cycle is monotone in t: a negative alpha peaks at t = 0
        if self.schedule is not None and self.schedule.kind == "one_cycle":
            top = max(self.sparsity) if self.per_layer else self.sparsity
            start = eval_schedule(self.schedule, 0.0, top)
            if start > 100:
                raise FieldError("schedule.alpha", f"one_cycle starts at {start!r} > 100 "
                                                   f"for sparsity {top!r}")

    @property
    def per_layer(self) -> bool:
        return isinstance(self.sparsity, list)

    def to_dict(self) -> dict:
        """The plan as JSON values, as echoed into checkpoints."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "SparsifyPlan":
        """Inverse of to_dict; a key left out takes the constructor's default."""
        doc = dict(checked_object(doc, cls.__dataclass_fields__, "sparsity"))
        if doc.get("schedule") is not None:
            doc["schedule"] = under("schedule", lambda d: ScheduleSpec(
                **checked_object(d, ScheduleSpec.__dataclass_fields__, "kind")), doc["schedule"])
        return cls(**doc)

    def check_model(self, model: Model, epochs: int | None = None) -> None:
        """Check the plan against the model's prunable layers and, for pruning
        during training, against the run's `epochs`."""
        layers = model.prunable_layers()
        if not layers:
            raise FieldError("", "model has no prunable layer")
        for rank in sorted({len(layer.weight_shape) for layer in layers}):
            under("granularity", parse_granularity, self.granularity, rank)
        if self.per_layer and len(self.sparsity) != len(layers):
            raise FieldError("sparsity", f"per-layer list length {len(self.sparsity)} != "
                                         f"prunable layer count {len(layers)}")
        if epochs is None:
            return
        spec = self.schedule
        if spec is None:
            raise FieldError("schedule", "pruning during training needs a schedule")
        under("schedule", window_steps, spec, 1, epochs)  # raises if the window does not fit
        if (self.lth or self.reset_end) and self.rewind_epoch > spec.start_epoch:
            raise FieldError("rewind_epoch", f"must not exceed the pruning window start {spec.start_epoch}")


class Workspace:
    """The buffers a repeated mask update writes into instead of new arrays,
    each one flat float64 vector, remade where it is shorter than an update
    needs: "blocks", the block scores of every layer; "scores", one layer's
    weight scores where a block holds more than one weight; and "scratch",
    the selection's partitioned copy. Masks are never among them: each
    update returns new arrays. SparsifyCallback makes one for a fit of at
    least _WORKSPACE_BYTES of prunable weights."""

    def __init__(self):
        self._vectors = {}  # name -> buffer

    def vector(self, name: str, n: int) -> np.ndarray:
        """n elements of the buffer `name`."""
        buffer = self._vectors.get(name)
        if buffer is None or len(buffer) < n:
            buffer = self._vectors[name] = np.empty(n)
        return buffer[:n]


def _vector(workspace: Workspace | None, name: str, n: int) -> np.ndarray:
    return np.empty(n) if workspace is None else workspace.vector(name, n)


def block_layout(granularity, layers) -> BlockLayout:
    """Each layer's BlockPartition under `granularity`, placed in one flat
    array of block scores."""
    return BlockLayout(enumerate_blocks(granularity, layer.weights.shape) for layer in layers)


def compute_masks(layers, granularity, context: ContextSpec, criterion: Criterion,
                  sparsity, rng: Rng | None = None,
                  workspace: Workspace | None = None) -> list[np.ndarray]:
    """Score -> aggregate -> select for a list of prunable layers, into one flat
    buffer of block scores, the workspace's where one is given. `granularity`
    is anything enumerate_blocks takes, or the block_layout of these layers'
    shapes, which a Sparsifier resolves once. Under one weight per block each
    layer scores straight into its view of that buffer, checked for
    non-finite values once; otherwise each layer's weights are scored (and
    checked) in turn and their block means written into it."""
    layout = granularity if isinstance(granularity, BlockLayout) else block_layout(granularity,
                                                                                  layers)
    starts = layout.starts
    blocks = _vector(workspace, "blocks", starts[-1])
    if layout.one_weight_blocks:
        views = [blocks[start:end].reshape(part.shape)
                 for part, start, end in zip(layout.partitions, starts, starts[1:])]
        raws = [score(criterion, layer.weights, layer.history, rng, out=view)
                for layer, view in zip(layers, views)]
        _refuse_non_finite(blocks)
        for raw, view in zip(raws, views):
            if raw is not view:  # random's draw, a new array
                np.copyto(view, raw)
    else:  # a layer's weight scores are dropped once aggregated, as they are large
        for layer, part, start, end in zip(layers, layout.partitions, starts, starts[1:]):
            view = _vector(workspace, "scores", layer.weights.size).reshape(part.shape)
            raw = score(criterion, layer.weights, layer.history, rng, out=view)
            _refuse_non_finite(view)
            aggregate_scores(raw, part, out=blocks[start:end])
    return select(BlockScores(layout, blocks), context, sparsity,
                  None if workspace is None else workspace.vector("scratch", len(blocks)))


def _refuse_non_finite(scores: np.ndarray) -> None:
    """Raise unless every score is finite. score leaves |weights| where it
    draws new random scores, and checks a history itself, so a score is
    non-finite exactly where a weight is."""
    if not math.isfinite(scores.max(initial=0.0)):  # NaN and inf both propagate through max
        raise ValueError("non-finite weight values")


def model_sparsity(layers) -> float:
    masks = [l.mask for l in layers if l.mask is not None]
    if not masks:
        return 0.0
    pruned = sum(m.size - m.sum() for m in masks)  # an exact count for 0/1 masks
    return float(pruned / sum(m.size for m in masks))


# A fit whose prunable weights total fewer bytes than this gives its
# Sparsifier no workspace: glibc (whose default mmap threshold this is)
# serves such arrays from its free lists, still in cache, while buffers kept
# between updates an epoch apart go cold. Larger arrays it may hand back to
# the OS and page-fault in again at every update.
_WORKSPACE_BYTES = 128 * 1024


class Sparsifier:
    """Static pruning: compute masks for the current weights and apply them in
    place. The block layout of a list of layers is resolved at its first
    prune and kept, keyed by the layers' weight shapes, for the Sparsifier's
    life. Each prune allocates its scores afresh unless a caller sets
    `workspace`, whose buffers it then reuses; SparsifyCallback does so for
    the length of a fit. Dropping the workspace (None) frees the buffers.

    prune_model's `sparsity` is one target for every layer, pruned together
    under a global context, or a list of one target per prunable layer,
    which prunes each layer to its own target under any context: a list
    beside "global" prunes as "local" does. Only SparsifyPlan refuses that
    pairing."""

    def __init__(self, model: Model, granularity: str, context: str, criterion: str,
                 rng: Rng | None = None):
        self.model = model
        self.granularity = granularity
        self.context = ContextSpec(context)
        self.criterion = Criterion(criterion)
        self.rng = rng
        self.workspace: Workspace | None = None
        self._layouts = {}  # the layers' weight shapes -> their block_layout

    def _prune(self, layers, sparsity) -> list[np.ndarray]:
        shapes = tuple(layer.weights.shape for layer in layers)
        layout = self._layouts.get(shapes)
        if layout is None:
            layout = self._layouts[shapes] = block_layout(self.granularity, layers)
        masks = compute_masks(layers, layout, self.context, self.criterion,
                              sparsity, self.rng, workspace=self.workspace)
        for layer, mask in zip(layers, masks):
            layer.mask = mask
            mask_in_place(layer.weights, mask)
        return masks

    def prune_layer(self, layer_index: int, sparsity: float) -> np.ndarray:
        layer = self.model.layers[layer_index]
        if not layer.prunable:
            raise ValueError(f"layer {layer_index} ({layer.kind}) is not prunable")
        return self._prune([layer], sparsity)[0]  # one layer: local and global agree

    def prune_model(self, sparsity) -> list[np.ndarray]:
        layers = self.model.prunable_layers()
        if not layers:
            raise ValueError("model has no prunable layer")
        return self._prune(layers, sparsity)

    def apply_masks(self) -> None:
        """Multiply every masked layer's weights by its current mask again."""
        for layer in self.model.prunable_layers():
            if layer.mask is not None:
                mask_in_place(layer.weights, layer.mask)


@dataclass
class Ticket:
    """One lottery-ticket round; its weights are the callback's rewind snapshot under `masks`."""
    round: int
    target_sparsity: float
    mask_sparsity: float
    masks: list
    accuracy: float


class SparsifyCallback(Callback):
    """Dynamic pruning attached to the training loop: a schedule around one
    Sparsifier, built from the plan when training begins.

    Every optimizer step re-applies the current masks; only then, at
    schedule boundaries inside the pruning window, are masks recomputed
    from scratch, so pruned weights are 0 when scored. With lth set,
    weights are reset to the rewind snapshot (masked) after each pruning
    round, and each round whose target rises records a Ticket. Each fit
    starts afresh: on_train_begin clears the masks, the tickets and the
    rewind snapshot.
    """

    def __init__(self, plan: SparsifyPlan, rng: Rng | None = None):
        self.plan = plan
        self.rng = rng
        if Criterion(plan.criterion).reads == "rng" and rng is None:
            raise ValueError(f"criterion {plan.criterion!r} reads 'rng', and none was given")

    # -- internals ---------------------------------------------------------

    def _restore(self, state):
        """Copy the rewind snapshot into the model's weights and biases, then
        mask them by the current masks."""
        for layer, (w, b) in zip(state["model"].prunable_layers(), self.rewind_snapshot):
            np.copyto(layer.weights, w)
            np.copyto(layer.bias, b)
        self._sparsifier.apply_masks()

    def _targets(self, step: int):
        spec, window = self.plan.schedule, self._window
        if self.plan.per_layer:
            return [current_target(spec, s, step, window) for s in self.plan.sparsity]
        return current_target(spec, self.plan.sparsity, step, window)

    def _update_masks(self, state, step: int):
        model = state["model"]
        layers = model.prunable_layers()
        target = self._targets(step)
        masks = self._sparsifier.prune_model(target)
        if self._sparsifier.criterion.reads == "history":
            for layer in layers:
                np.copyto(layer.history, layer.weights)
        self._model_sparsity = model_sparsity(layers)
        scalar_target = float(np.mean(target)) if self.plan.per_layer else target
        if self.plan.lth:
            self._restore(state)
            if scalar_target > (self.tickets[-1].target_sparsity if self.tickets else 0.0):
                self.tickets.append(Ticket(
                    round=len(self.tickets) + 1,
                    target_sparsity=scalar_target,
                    mask_sparsity=self._model_sparsity,
                    masks=masks,
                    accuracy=accuracy(model, state["x_eval"], state["y_eval"]),
                ))

    def _step_done(self, state, step: int):
        """Take the rewind snapshot if `step` is the rewind point, run the
        update due at `step`, if any, and publish the step's target_sparsity
        and model_sparsity."""
        if step == self._rewind_step:
            self.rewind_snapshot = [(l.weights.copy(), l.bias.copy())
                                    for l in state["model"].prunable_layers()]
        if step in self._update_steps:
            self._update_masks(state, step)
        target = self._targets(step)
        state["target_sparsity"] = float(np.mean(target)) if self.plan.per_layer else target
        state["model_sparsity"] = self._model_sparsity

    # -- hooks -------------------------------------------------------------

    def on_train_begin(self, state):
        model, plan = state["model"], self.plan
        plan.check_model(model, state["total_epochs"])
        self._sparsifier = Sparsifier(model, plan.granularity, plan.context, plan.criterion,
                                      self.rng)
        layers = model.prunable_layers()
        if sum(layer.weights.nbytes for layer in layers) >= _WORKSPACE_BYTES:
            self._sparsifier.workspace = Workspace()  # it prunes at every update: step 0's fills it
        spec = plan.schedule
        keeps_history = self._sparsifier.criterion.reads == "history"
        for layer in layers:
            layer.history = layer.weights.copy() if keeps_history else None
            layer.mask = None
        spe = state["steps_per_epoch"]
        self._window = window_steps(spec, spe, state["total_epochs"])
        end_step = self._window[1]
        self._update_steps = {epoch * spe + (j * spe) // spec.update_frequency
                              for epoch in range(spec.start_epoch, end_step // spe)
                              for j in range(spec.update_frequency)} | {end_step}
        rewinds = plan.lth or plan.reset_end
        self._rewind_step = plan.rewind_epoch * spe if rewinds else None
        self._model_sparsity = 0.0  # of the current masks; they change only in _update_masks
        self.rewind_snapshot = None
        self.tickets: list[Ticket] = []
        self._step_done(state, 0)

    def on_step_end(self, state):
        self._sparsifier.apply_masks()
        self._step_done(state, state["global_step"])

    def on_train_end(self, state):
        if self.plan.reset_end:
            self._restore(state)
        self._sparsifier.workspace = None  # the buffers live as long as the fit, not the callback

