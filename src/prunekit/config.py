"""Experiment configuration: JSON file -> validated plan + train config."""

from dataclasses import dataclass
import json

from .datasets import N_CLASSES, check_spec, input_shape
from .fields import FieldError, checked_list, checked_object, integer, string, under
from .layers import Model, layer_from_spec
from .sparsifier import SparsifyPlan
from .train import TrainConfig


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"config error at {field}: {message}")
        self.field = field


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
    checked_object(doc, ("name", "seed", "model", "dataset", "train", "prune", "output_dir"),
                   "model", "dataset", "train", *(("seed",) if seed_override is None else ()))
    seed = integer(doc["seed"] if seed_override is None else seed_override, "seed")
    name = string(doc.get("name", "experiment"), "name")
    output_dir = None if doc.get("output_dir") is None else string(doc["output_dir"], "output_dir")
    specs = under("model", checked_list, doc["model"], True)
    model = Model([under(f"model[{i}]", layer_from_spec, spec) for i, spec in enumerate(specs)])
    dataset = under("dataset", check_spec, doc["dataset"])
    out = model.check_shapes(input_shape(dataset), "model[{}]")
    if len(out) != 1 or out[0] < N_CLASSES:  # the loss reads one score per class
        raise FieldError(f"model[{len(specs) - 1}]", f"output shape {list(out)} is not a "
                                                    f"vector of at least {N_CLASSES} class scores")
    train = under("train", lambda section: TrainConfig(
        **checked_object(section, ("epochs", "batch_size", "learning_rate", "momentum"),
                         "epochs", "batch_size", "learning_rate"),
        seed=seed, dataset=dataset), doc["train"])
    plan = None
    if doc.get("prune") is not None:
        plan = under("prune", SparsifyPlan.from_dict, doc["prune"])
        under("prune", plan.check_model, model, train.epochs)
    return ExperimentConfig(name=name, seed=seed, model_specs=specs, dataset=dataset, train=train,
                            plan=plan, output_dir=output_dir)
