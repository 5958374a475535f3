"""Experiment configuration: JSON file -> validated plan + train config."""

from dataclasses import dataclass
import json

from .fields import FieldError, checked_object, integer, number, under
from .layers import Model, layer_from_spec
from .sparsifier import SparsifyPlan
from .train import TrainConfig


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"config error at {field}: {message}")
        self.field = field


def _require(doc: dict, field: str):
    if field not in doc:
        raise FieldError(field, "missing required field")
    return doc[field]


def _section(doc: dict, field: str, keys) -> dict:
    return under(field, checked_object, _require(doc, field), keys)


@dataclass
class ExperimentConfig:
    name: str
    seed: int
    model_specs: list
    dataset: dict
    train: TrainConfig
    plan: SparsifyPlan | None
    output_dir: str | None

    def build_model(self, rng=None) -> Model:
        return Model.from_specs(self.model_specs, rng)


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc.msg} at offset {exc.pos}") from None
    if not isinstance(doc, dict):
        raise ConfigError("<file>", "top level must be an object")
    try:
        return _parse(doc, seed_override)
    except FieldError as exc:
        raise ConfigError(exc.field, exc.problem) from None


def _parse(doc: dict, seed_override: int | None) -> ExperimentConfig:
    checked_object(doc, ("name", "seed", "model", "dataset", "train", "prune", "output_dir"))
    seed = integer(_require(doc, "seed") if seed_override is None else seed_override, "seed")
    specs = _require(doc, "model")
    if not isinstance(specs, list) or not specs:
        raise FieldError("model", "must be a non-empty list of layer specs")
    layers = [under(f"model[{i}]", layer_from_spec, spec) for i, spec in enumerate(specs)]
    dataset = _section(doc, "dataset", ("kind", "n", "separation", "noise"))
    if dataset.get("kind") not in ("blobs2d", "patterns8x8"):
        raise FieldError("dataset.kind", f"unknown dataset kind {dataset.get('kind')!r}")
    if "n" in dataset:
        integer(dataset["n"], "dataset.n", low=2)
    for key in ("separation", "noise"):
        if key in dataset:
            number(dataset[key], f"dataset.{key}")
    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise FieldError("output_dir", f"not a string: {output_dir!r}")
    train_doc = _section(doc, "train", ("epochs", "batch_size", "learning_rate", "momentum"))
    train = under("train", lambda: TrainConfig(
        epochs=integer(_require(train_doc, "epochs"), "epochs"),
        batch_size=integer(_require(train_doc, "batch_size"), "batch_size"),
        learning_rate=number(_require(train_doc, "learning_rate"), "learning_rate"),
        momentum=number(train_doc.get("momentum", 0.0), "momentum"),
        seed=seed,
        dataset=dataset,
    ))
    plan = None
    if doc.get("prune") is not None:
        plan = under("prune", SparsifyPlan.from_dict, doc["prune"])
        under("prune", plan.check_model, Model(layers), train.epochs)
    return ExperimentConfig(name=str(doc.get("name", "experiment")), seed=seed, model_specs=specs,
                            dataset=dataset, train=train, plan=plan,
                            output_dir=output_dir)
