"""Versioned JSON checkpoints: model weights, masks, weight histories,
optional rewind snapshot, plan echo, and a metric-log tail.

A checkpoint file is `json.dumps(doc, sort_keys=True, separators=(",", ":"))`
plus a newline, so identical state produces byte-identical files. Every
array, masks included, is `{"data": "<base64>", "shape": [...]}`, where the
data is the base64 of the array's C-order little-endian float64 bytes, so
a round trip is bit-exact (NaN payloads and -0.0 too). `save` writes the
document skeleton itself and each array's base64 in one write, so only one
array's encoding is held at a time.
"""

import base64
import json

import numpy as np

from .layers import Model, layer_from_spec

FORMAT_VERSION = 2


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


def _expect(value, kind: type, field: str):
    if not isinstance(value, kind):
        raise ValueError(f"{field}: expected {'an object' if kind is dict else 'a list'}, "
                         f"got {type(value).__name__}")
    return value


def _member(obj: dict, key: str, prefix: str = ""):
    if key not in obj:
        raise ValueError(f"{prefix}{key}: missing")
    return obj[key]


def _dec_array(obj, field: str, shape: tuple | None) -> np.ndarray | None:
    """Decode obj, which must be None or an array of `shape`; a layer
    without weights (shape None) holds no arrays."""
    if obj is None:
        return None
    _expect(obj, dict, field)
    data, dims = _member(obj, "data", f"{field}."), _member(obj, "shape", f"{field}.")
    if shape is None or dims != list(shape):
        raise ValueError(f"{field}: shape {dims} != {None if shape is None else list(shape)}")
    try:
        arr = np.frombuffer(base64.b64decode(data, validate=True), "<f8").reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{field}: corrupt array: {exc}") from None
    return arr.astype(np.float64)  # a writable native copy of the read-only buffer


class Checkpoint:
    def __init__(self, model: Model, rewind_snapshot=None, plan: dict | None = None,
                 metrics_tail: list | None = None, meta: dict | None = None):
        self.model = model
        self.rewind_snapshot = rewind_snapshot
        self.plan = plan
        self.metrics_tail = metrics_tail or []
        self.meta = meta or {}


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


def load(path) -> Checkpoint:
    """Read a checkpoint; a missing, mistyped or misshapen field raises
    ValueError naming its path, e.g. `layers[0].spec.out: missing`."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt checkpoint {path}: {exc.msg} at offset {exc.pos}") from None
    _expect(doc, dict, "checkpoint")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {doc.get('format_version')!r}")
    entries = _expect(_member(doc, "layers"), list, "layers")
    layers = []
    for i, entry in enumerate(entries):
        at = f"layers[{i}]"
        spec = _expect(_member(_expect(entry, dict, at), "spec", f"{at}."), dict, f"{at}.spec")
        try:
            layers.append(layer_from_spec(spec))
        except ValueError as exc:  # "<key>: <problem>", or numpy's own message for a huge size
            raise ValueError(f"{at}.spec.{exc}" if ": " in str(exc) else f"{at}.spec: {exc}") from None
    model = Model(layers)
    for i, (layer, entry) in enumerate(zip(model.layers, entries)):
        shape = layer.weight_shape
        bias_shape = None if shape is None else shape[1:2]
        layer.weights = _dec_array(entry.get("weights"), f"layers[{i}].weights", shape)
        if layer.weights is None and shape is not None:
            raise ValueError(f"layers[{i}].weights: missing")
        bias = _dec_array(entry.get("bias"), f"layers[{i}].bias", bias_shape)
        if bias is not None:
            layer.bias = bias
        if layer.prunable:
            layer.mask = _dec_array(entry.get("mask"), f"layers[{i}].mask", shape)
            layer.history = _dec_array(entry.get("history"), f"layers[{i}].history", shape)
    snapshot = doc.get("rewind_snapshot")
    if snapshot is not None:
        _expect(snapshot, list, "rewind_snapshot")
        shapes = [l.weight_shape for l in model.layers if l.weight_shape is not None]
        if len(snapshot) != len(shapes):
            raise ValueError(f"rewind_snapshot: {len(snapshot)} entries != "
                             f"{len(shapes)} layers with weights")
        decoded = []
        for j, (e, shape) in enumerate(zip(snapshot, shapes)):
            at = f"rewind_snapshot[{j}]"
            _expect(e, dict, at)
            decoded.append((_dec_array(_member(e, "weights", f"{at}."), f"{at}.weights", shape),
                            _dec_array(_member(e, "bias", f"{at}."), f"{at}.bias", shape[1:2])))
        snapshot = decoded
    for key in ("plan", "meta"):
        if doc.get(key) is not None:
            _expect(doc[key], dict, key)
    return Checkpoint(model, rewind_snapshot=snapshot, plan=doc.get("plan"),
                      metrics_tail=doc.get("metrics_tail", []), meta=doc.get("meta", {}))
