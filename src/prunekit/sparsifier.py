"""Mask lifecycle orchestration.

Two entry points:

  * Sparsifier      -- static pruning of a layer or whole model; the only
                       code that computes masks and writes them into weights
  * SparsifyCallback -- dynamic pruning during training: a schedule around
                        one Sparsifier; with the plan's lth set it also runs
                        lottery-ticket experiments (reset to a saved snapshot
                        after each pruning round) and keeps the tickets

Sparsifier masks each layer's weights array in place, in static pruning
and in the callback alike; only an LTH rewind or reset_end puts a copy of
the rewind snapshot in its place.

The callback acts once per completed step, step 0 being the start of
training: at step rewind_epoch * steps_per_epoch it first takes the rewind
snapshot, then it runs the mask update due at that step, if any. Masks are
recomputed from scratch at every update; pruned weights stay zero because
the callback has its Sparsifier re-apply the current masks after each
optimizer step without an update. Only under a criterion that reads a
history are the weights copied into each layer's `history` at every
update. Every lottery ticket shares the one rewind snapshot.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .criteria import Criterion, score
from .fields import FieldError, checked_object, integer, percent, string, under
from .granularity import enumerate_blocks, aggregate_scores, parse_granularity
from .layers import Model
from .rng import Rng
from .schedule import ScheduleSpec, current_target, eval_schedule, window_steps
from .selection import ContextSpec, LayerScores, select
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
        under("criterion", Criterion, self.criterion)
        for name in ("lth", "reset_end"):
            if not isinstance(getattr(self, name), bool):
                raise FieldError(name, f"not a boolean: {getattr(self, name)!r}")
        self.rewind_epoch = integer(self.rewind_epoch, "rewind_epoch", low=0)
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


def compute_masks(layers, granularity, context: ContextSpec, criterion: Criterion,
                  sparsity, rng: Rng | None = None) -> list[np.ndarray]:
    """Score -> aggregate -> select for a list of prunable layers."""
    scored = []
    for layer in layers:
        partition = enumerate_blocks(granularity, layer.weights.shape)
        raw = score(criterion, layer.weights, layer.history, rng)
        scored.append(LayerScores(partition, aggregate_scores(raw, partition)))
    return select(scored, context, sparsity)


def model_sparsity(layers) -> float:
    masks = [l.mask for l in layers if l.mask is not None]
    if not masks:
        return 0.0
    pruned = sum(m.size - m.sum() for m in masks)  # an exact count for 0/1 masks
    return float(pruned / sum(m.size for m in masks))


class Sparsifier:
    """Static pruning: compute masks for the current weights and apply them in place."""

    def __init__(self, model: Model, granularity: str, context: str, criterion: str,
                 rng: Rng | None = None):
        self.model = model
        self.granularity = granularity
        self.context = ContextSpec(context)
        self.criterion = Criterion(criterion)
        self.rng = rng

    def _prune(self, layers, sparsity) -> list[np.ndarray]:
        masks = compute_masks(layers, self.granularity, self.context, self.criterion,
                              sparsity, self.rng)
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

    Per optimizer step the current masks are re-applied; at schedule
    boundaries inside the pruning window masks are recomputed from
    scratch. With lth set, weights are reset to the rewind snapshot
    (masked) after each pruning round, and each round whose target rises
    records a Ticket. Each fit starts afresh: on_train_begin clears the
    masks, the tickets and the rewind snapshot.
    """

    def __init__(self, plan: SparsifyPlan, rng: Rng | None = None):
        self.plan = plan
        self.rng = rng
        if Criterion(plan.criterion).reads == "rng" and rng is None:
            raise ValueError(f"criterion {plan.criterion!r} reads 'rng', and none was given")

    # -- internals ---------------------------------------------------------

    def _snapshot(self, state):
        self.rewind_snapshot = [(l.weights.copy(), l.bias.copy()) for l in state["model"].layers
                                if l.weights is not None]

    def _restore(self, state):
        """Put copies of the rewind snapshot in the model, masked by the current masks."""
        params = iter(self.rewind_snapshot)
        for layer in state["model"].layers:
            if layer.weights is not None:
                w, b = next(params)
                layer.weights, layer.bias = w.copy(), b.copy()
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

    def _step_done(self, state, step: int) -> bool:
        """Take the rewind snapshot if `step` is the rewind point, then run the
        update due at `step`; True if one ran, which leaves the weights masked."""
        if step == self._rewind_step:
            self._snapshot(state)
        if step not in self._update_steps:
            return False
        self._update_masks(state, step)
        return True

    def _publish(self, state):
        target = self._targets(state.get("global_step", 0))
        state["target_sparsity"] = float(np.mean(target)) if self.plan.per_layer else target
        state["model_sparsity"] = self._model_sparsity

    # -- hooks -------------------------------------------------------------

    def on_train_begin(self, state):
        model, plan = state["model"], self.plan
        plan.check_model(model, state["total_epochs"])
        self._sparsifier = Sparsifier(model, plan.granularity, plan.context, plan.criterion,
                                      self.rng)
        spec = plan.schedule
        keeps_history = self._sparsifier.criterion.reads == "history"
        for layer in model.prunable_layers():
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
        self._publish(state)

    def on_step_end(self, state):
        if not self._step_done(state, state["global_step"]):
            self._sparsifier.apply_masks()
        self._publish(state)

    def on_train_end(self, state):
        if self.plan.reset_end:
            self._restore(state)
        self._publish(state)

