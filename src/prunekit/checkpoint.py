"""Versioned JSON checkpoints: model weights, masks, weight histories,
optional rewind snapshot, plan echo, and a metric-log tail.

Numbers are serialized with Python's repr, which round-trips float64
exactly; serialization is key-sorted so identical state produces
byte-identical files.
"""

import json

import numpy as np

from .layers import Model

FORMAT_VERSION = 1


def _enc_array(a: np.ndarray | None, as_int=False):
    if a is None:
        return None
    data = a.ravel().tolist()
    if as_int:
        data = [int(v) for v in data]
    return {"shape": list(a.shape), "data": data}


def _dec_array(obj, field: str, shape: tuple | None) -> np.ndarray | None:
    """Decode obj, which must be None or an array of `shape`; a layer
    without weights (shape None) holds no arrays."""
    if obj is None:
        return None
    try:
        arr = np.array(obj["data"], dtype=np.float64).reshape(obj["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"corrupt checkpoint field {field!r}: {exc}") from None
    if arr.shape != shape:
        raise ValueError(f"{field}: shape {list(arr.shape)} != "
                         f"{None if shape is None else list(shape)}")
    return arr


class Checkpoint:
    def __init__(self, model: Model, rewind_snapshot=None, plan: dict | None = None,
                 metrics_tail: list | None = None, meta: dict | None = None):
        self.model = model
        self.rewind_snapshot = rewind_snapshot
        self.plan = plan
        self.metrics_tail = metrics_tail or []
        self.meta = meta or {}


def save(path, model: Model, rewind_snapshot=None, plan: dict | None = None,
         metrics_tail: list | None = None, meta: dict | None = None) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "layers": [],
        "rewind_snapshot": None,
        "plan": plan,
        "metrics_tail": metrics_tail or [],
        "meta": meta or {},
    }
    for layer in model.layers:
        entry = {"spec": layer.spec(),
                 "weights": _enc_array(layer.weights),
                 "bias": None if layer.bias is None or layer.weights is None
                         else _enc_array(layer.bias)}
        if layer.prunable:
            entry["mask"] = _enc_array(layer.mask, as_int=True)
            entry["history"] = _enc_array(layer.history)
        doc["layers"].append(entry)
    if rewind_snapshot is not None:
        doc["rewind_snapshot"] = [{"weights": _enc_array(w), "bias": _enc_array(b)}
                                  for w, b in rewind_snapshot]
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load(path) -> Checkpoint:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt checkpoint {path}: {exc.msg} at offset {exc.pos}") from None
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {doc.get('format_version')!r}")
    model = Model.from_specs([entry["spec"] for entry in doc["layers"]])
    for i, (layer, entry) in enumerate(zip(model.layers, doc["layers"])):
        shape = layer.weight_shape
        bias_shape = None if shape is None else shape[1:2]
        layer.weights = _dec_array(entry.get("weights"), f"layers[{i}].weights", shape)
        bias = _dec_array(entry.get("bias"), f"layers[{i}].bias", bias_shape)
        if bias is not None:
            layer.bias = bias
        if layer.prunable:
            layer.mask = _dec_array(entry.get("mask"), f"layers[{i}].mask", shape)
            layer.history = _dec_array(entry.get("history"), f"layers[{i}].history", shape)
    snapshot = doc.get("rewind_snapshot")
    if snapshot is not None:
        shapes = [l.weight_shape for l in model.layers if l.weight_shape is not None]
        if len(snapshot) != len(shapes):
            raise ValueError(f"rewind_snapshot: {len(snapshot)} entries != "
                             f"{len(shapes)} layers with weights")
        snapshot = [(_dec_array(e["weights"], f"rewind_snapshot[{j}].weights", shape),
                     _dec_array(e["bias"], f"rewind_snapshot[{j}].bias", shape[1:2]))
                    for j, (e, shape) in enumerate(zip(snapshot, shapes))]
    return Checkpoint(model, rewind_snapshot=snapshot, plan=doc.get("plan"),
                      metrics_tail=doc.get("metrics_tail", []), meta=doc.get("meta", {}))
