"""Experiment configuration: JSON file -> validated plan + train config."""

import json

from .criteria import CRITERIA
from .granularity import parse_granularity
from .layers import Model, layer_from_spec
from .schedule import BUILTIN_SCHEDULES, ScheduleSpec, _custom_registry
from .sparsifier import SparsifyPlan
from .train import TrainConfig


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"config error at {field}: {message}")
        self.field = field


def _require(doc: dict, field: str, path: str):
    if field not in doc:
        raise ConfigError(f"{path}{field}", "missing required field")
    return doc[field]


class ExperimentConfig:
    def __init__(self, name: str, seed: int, model_specs: list, dataset: dict,
                 train: TrainConfig, plan: SparsifyPlan | None, output_dir: str | None):
        self.name = name
        self.seed = seed
        self.model_specs = model_specs
        self.dataset = dataset
        self.train = train
        self.plan = plan
        self.output_dir = output_dir

    def build_model(self, rng=None) -> Model:
        return Model.from_specs(self.model_specs, rng)


def _parse_schedule(doc: dict, path: str) -> ScheduleSpec:
    kind = _require(doc, "kind", path)
    if kind not in BUILTIN_SCHEDULES and kind not in _custom_registry:
        raise ConfigError(f"{path}kind", f"unknown schedule {kind!r}")
    try:
        return ScheduleSpec(
            kind=kind,
            final_sparsity=float(doc.get("final_sparsity", 50.0)),
            start_epoch=int(doc.get("start_epoch", 0)),
            end_epoch=None if doc.get("end_epoch") is None else int(doc["end_epoch"]),
            update_frequency=int(doc.get("update_frequency", 1)),
            n_steps=int(doc.get("n_steps", 5)),
            alpha=float(doc.get("alpha", 14.0)),
            beta=float(doc.get("beta", 6.0)),
        )
    except ValueError as exc:
        raise ConfigError(path.rstrip("."), str(exc)) from None


def _parse_plan(doc: dict, model_specs: list, path: str) -> SparsifyPlan:
    granularity = doc.get("granularity", "weight")
    ranks = {2 if s["kind"] == "dense" else 4 for s in model_specs
             if s["kind"] in ("dense", "conv2d")}
    for rank in sorted(ranks):
        try:
            parse_granularity(granularity, rank)
        except ValueError as exc:
            raise ConfigError(f"{path}granularity", str(exc)) from None
    criterion = doc.get("criterion", "large_final")
    if criterion not in CRITERIA:
        raise ConfigError(f"{path}criterion", f"unknown criterion {criterion!r}")
    context = doc.get("context", "local")
    if context not in ("local", "global"):
        raise ConfigError(f"{path}context", f"unknown context {context!r}")
    sparsity = _require(doc, "sparsity", path)
    schedule = _parse_schedule(doc.get("schedule", {"kind": "one_shot"}), f"{path}schedule.")
    if not isinstance(sparsity, (list, tuple)):
        schedule = ScheduleSpec(**{**schedule.__dict__, "final_sparsity": float(sparsity)})
    try:
        return SparsifyPlan(
            sparsity=sparsity if isinstance(sparsity, (list, tuple)) else float(sparsity),
            granularity=granularity, context=context, criterion=criterion,
            schedule=schedule,
            lth=bool(doc.get("lth", False)),
            rewind_epoch=int(doc.get("rewind_epoch", 0)),
            reset_end=bool(doc.get("reset_end", False)),
            save_tickets=bool(doc.get("save_tickets", False)),
        )
    except ValueError as exc:
        raise ConfigError(path.rstrip("."), str(exc)) from None


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc.msg} at offset {exc.pos}") from None
    if not isinstance(doc, dict):
        raise ConfigError("<file>", "top level must be an object")
    name = str(doc.get("name", "experiment"))
    seed = seed_override if seed_override is not None else _require(doc, "seed", "")
    model_specs = _require(doc, "model", "")
    if not isinstance(model_specs, list) or not model_specs:
        raise ConfigError("model", "must be a non-empty list of layer specs")
    for i, spec in enumerate(model_specs):
        if not isinstance(spec, dict):
            raise ConfigError(f"model[{i}]", "layer spec must be an object")
        try:
            layer_from_spec(spec)
        except ValueError as exc:  # "<key>: <problem>", or numpy's own message for a huge size
            key, sep, problem = str(exc).partition(": ")
            if not sep:
                raise ConfigError(f"model[{i}]", str(exc)) from None
            raise ConfigError(f"model[{i}].{key}", problem) from None
    dataset = _require(doc, "dataset", "")
    if dataset.get("kind") not in ("blobs2d", "patterns8x8"):
        raise ConfigError("dataset.kind", f"unknown dataset kind {dataset.get('kind')!r}")
    train_doc = _require(doc, "train", "")
    try:
        train = TrainConfig(
            epochs=int(_require(train_doc, "epochs", "train.")),
            batch_size=int(_require(train_doc, "batch_size", "train.")),
            learning_rate=float(_require(train_doc, "learning_rate", "train.")),
            momentum=float(train_doc.get("momentum", 0.0)),
            seed=int(seed),
            dataset=dataset,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("train", str(exc)) from None
    plan = None
    if doc.get("prune") is not None:
        plan = _parse_plan(doc["prune"], model_specs, "prune.")
    return ExperimentConfig(name=name, seed=int(seed), model_specs=model_specs,
                            dataset=dataset, train=train, plan=plan,
                            output_dir=doc.get("output_dir"))
