"""Versioned JSON checkpoints: weights, masks, weight histories (null unless
the criterion reads one), rewind snapshot, plan echo and a metric-log tail.

A checkpoint file is `json.dumps(doc, sort_keys=True, separators=(",", ":"))`
plus a newline, so identical state produces byte-identical files. Every
array, masks included, is `{"data": "<base64>", "shape": [...]}`, where the
data is the base64 of the array's C-order little-endian float64 bytes, so
a round trip is bit-exact (NaN payloads and -0.0 too). `save` writes the
document skeleton itself and each array's base64 in one write, so only one
array's encoding is held at a time.
"""

import base64
from dataclasses import dataclass
import json

import numpy as np

from .fields import FieldError, checked_list, checked_object, under
from .granularity import enumerate_blocks, parse_granularity
from .layers import Layer, Model, layer_from_spec
from .sparsifier import SparsifyPlan

FORMAT_VERSION = 2
_KEYS = ("format_version", "layers", "meta", "metrics_tail", "plan", "rewind_snapshot")
_ARRAYS = ("weights", "bias", "mask", "history")  # a layer entry's arrays; mask and history if prunable


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write_array(fh, a: np.ndarray) -> None:
    fh.write('{"data":"')
    fh.write(base64.b64encode(a.astype("<f8", copy=False).tobytes()).decode())
    fh.write(f'","shape":{_dumps(list(a.shape))}}}')


def _write_object(fh, fields: dict) -> None:
    """Write fields as a JSON object in sorted key order, arrays through _write_array."""
    for n, key in enumerate(sorted(fields)):
        fh.write(("," if n else "{") + f'"{key}":')
        value = fields[key]
        if isinstance(value, np.ndarray):
            _write_array(fh, value)
        else:
            fh.write(_dumps(value))
    fh.write("}")


def _write_list(fh, objects) -> None:
    """Write a JSON list of objects, taking one from the iterable at a time."""
    fh.write("[")
    for n, fields in enumerate(objects):
        fh.write("," if n else "")
        _write_object(fh, fields)
    fh.write("]")


def _dec_array(obj, shape: tuple | None, nullable: bool = True) -> np.ndarray | None:
    """obj decoded: an array of `shape`, or None where `nullable`. A layer
    without weights (shape None) holds no arrays."""
    if obj is None and nullable:
        return None
    checked_object(obj, ("data", "shape"), "data", "shape")
    if shape is None or obj["shape"] != list(shape):
        raise ValueError(f"shape {obj['shape']} != {None if shape is None else list(shape)}")
    try:
        arr = np.frombuffer(base64.b64decode(obj["data"], validate=True), "<f8").reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"corrupt array: {exc}") from None
    return arr.astype(np.float64)  # a writable native copy of the read-only buffer


@dataclass
class Checkpoint:
    model: Model
    rewind_snapshot: list | None
    plan: SparsifyPlan | None
    metrics_tail: list
    meta: dict


def _layer_fields(layer) -> dict:
    fields = {"spec": layer.spec(), "weights": layer.weights,
              "bias": None if layer.bias is None or layer.weights is None else layer.bias}
    if layer.prunable:
        fields["mask"] = layer.mask
        fields["history"] = layer.history
    return fields


def save(path, model: Model, rewind_snapshot=None, plan: dict | None = None,
         metrics_tail: list | None = None, meta: dict | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(f'{{"format_version":{FORMAT_VERSION},"layers":')
        _write_list(fh, map(_layer_fields, model.layers))
        fh.write(f',"meta":{_dumps(meta or {})},"metrics_tail":{_dumps(metrics_tail or [])}'
                 f',"plan":{_dumps(plan)},"rewind_snapshot":')
        if rewind_snapshot is None:
            fh.write("null")
        else:
            _write_list(fh, ({"weights": w, "bias": b} for w, b in rewind_snapshot))
        fh.write("}\n")


def _read_layer(entry) -> Layer:
    """The layer that one entry of `layers` describes, holding its arrays."""
    layer = under("spec", layer_from_spec, checked_object(entry, ("spec",) + _ARRAYS, "spec")["spec"])
    arrays = _ARRAYS if layer.prunable else _ARRAYS[:2]
    checked_object(entry, ("spec",) + arrays, *arrays)
    shape = layer.weight_shape
    layer.weights = under("weights", _dec_array, entry["weights"], shape, shape is None)
    bias = under("bias", _dec_array, entry["bias"], None if shape is None else shape[1:2])
    if bias is not None:
        layer.bias = bias
    if layer.prunable:
        layer.mask = under("mask", _dec_array, entry["mask"], shape)
        layer.history = under("history", _dec_array, entry["history"], shape)
    return layer


def _read_snapshot_entry(entry, shape: tuple) -> tuple:
    checked_object(entry, ("weights", "bias"), "weights", "bias")
    return (under("weights", _dec_array, entry["weights"], shape, False),
            under("bias", _dec_array, entry["bias"], shape[1:2], False))


def _check_mask(mask: np.ndarray, granularity: str | None) -> None:
    """A mask holds only 0 and 1 and, under the plan's granularity, one value per block."""
    bad = (mask != 0) & (mask != 1)
    if bad.any():
        raise ValueError(f"non-binary value {float(mask.ravel()[np.argmax(bad.ravel())])}")
    if granularity is not None:
        blocks = enumerate_blocks(parse_granularity(granularity, mask.ndim), mask.shape).rows(mask)
        if np.any(blocks.min(axis=1) != blocks.max(axis=1)):
            raise ValueError(f"not block-pure under {granularity!r}")


def load(path) -> Checkpoint:
    """Read a checkpoint; a missing, mistyped, misshapen or unknown field, or a
    mask that is not binary or not block-pure under the plan, raises FieldError
    naming its path, e.g. `layers[0].spec.out: missing`."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt checkpoint {path}: {exc.msg} at offset {exc.pos}") from None
    under("checkpoint", checked_object, doc)
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {doc.get('format_version')!r}")
    checked_object(doc, _KEYS, *_KEYS)
    entries = under("layers", checked_list, doc["layers"], True)
    model = Model([under(f"layers[{i}]", _read_layer, entry) for i, entry in enumerate(entries)])
    model.check_shapes(None, "layers[{}].spec")  # a checkpoint records no input shape
    snapshot = doc["rewind_snapshot"]
    if snapshot is not None:
        shapes = [l.weight_shape for l in model.layers if l.weight_shape is not None]
        if len(under("rewind_snapshot", checked_list, snapshot)) != len(shapes):
            raise FieldError("rewind_snapshot", f"{len(snapshot)} entries != "
                                                f"{len(shapes)} layers with weights")
        snapshot = [under(f"rewind_snapshot[{j}]", _read_snapshot_entry, entry, shape)
                    for j, (entry, shape) in enumerate(zip(snapshot, shapes))]
    plan = None if doc["plan"] is None else under("plan", SparsifyPlan.from_dict, doc["plan"])
    if plan is not None:
        under("plan", plan.check_model, model)  # no epochs: a checkpoint does not know them
    granularity = None if plan is None else plan.granularity
    for i, layer in enumerate(model.layers):
        if layer.prunable and layer.mask is not None:
            under(f"layers[{i}].mask", _check_mask, layer.mask, granularity)
    return Checkpoint(model, snapshot, plan,
                      under("metrics_tail", checked_list, doc["metrics_tail"]),
                      under("meta", checked_object, doc["meta"]))
