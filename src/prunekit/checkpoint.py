"""Versioned JSON checkpoints: weights, masks, weight histories (null unless
the criterion reads one), rewind snapshot, plan echo and a metric-log tail.

A checkpoint file is `json.dumps(doc, sort_keys=True, separators=(",", ":"))`
plus a newline, so identical state produces byte-identical files.
- Weights, biases, histories and the rewind snapshot are `{"data":
  "<base64>", "shape": [...]}`: the base64 of the array's C-order
  little-endian float64 bytes, so a round trip is bit-exact (NaN payloads
  and -0.0 too), but for the pruned weights of the last item.
- A mask is `{"bits": "<base64>", "shape": [...]}`: one bit per entry, 1
  for kept, in C order, packed by `np.packbits` (most significant bit first
  within each byte), the last byte's unused bits zero. `save` refuses a
  mask holding any value but 0.0 and 1.0 before it opens the file, and
  `load` unpacks the bits into the same float64 0/1 array.
- A masked layer's `weights.data` holds only the entries whose mask bit is
  1, in C order, when every pruned entry is 0.0 or -0.0, and every entry
  otherwise (NaN left under a mask, or weights never masked). `load` tells
  the two apart by length, 8 bytes per kept entry or per entry, equal only
  when every bit is 1, and loads kept-only weights with +0.0 at each pruned
  entry, so a pruned -0.0 loses its sign.
`save` writes the document skeleton itself and each array's base64 bytes in
one write to a binary file, so only one weight array's encoding is held at a
time and no text layer encodes it again.
"""

import base64
from dataclasses import dataclass
import json
import math

import numpy as np

from .fields import FieldError, checked_list, checked_object, under
from .granularity import enumerate_blocks
from .layers import Layer, Model, layer_from_spec
from .sparsifier import SparsifyPlan

FORMAT_VERSION = 4
_KEYS = ("format_version", "layers", "meta", "metrics_tail", "plan", "rewind_snapshot")
_ARRAYS = ("weights", "bias", "mask", "history")  # a layer entry's arrays; mask and history if prunable
_ONE = np.array(1.0, "<f8").view("<u8")  # the bits of 1.0; those of 0.0 are all zero


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _write_array(fh, a: np.ndarray, keep: np.ndarray | None = None) -> None:
    """Write a as {data, shape}. Given a mask's flat keep index, data holds
    only the kept entries if every pruned one is +-0.0."""
    data = a.ravel()
    if keep is not None:
        kept = data[keep]
        if np.count_nonzero(kept) == np.count_nonzero(data):  # NaN counts as nonzero
            data = kept
    fh.write(b'{"data":"')
    fh.write(base64.b64encode(data.astype("<f8", copy=False).tobytes()))
    fh.write(b'","shape":' + _dumps(list(a.shape)) + b"}")


def _write_object(fh, fields: dict) -> None:
    """Write fields as a JSON object in sorted key order, arrays through
    _write_array; a tuple is a masked layer's (weights, keep index)."""
    for n, key in enumerate(sorted(fields)):
        fh.write(b"," if n else b"{")
        fh.write(f'"{key}":'.encode())
        value = fields[key]
        if isinstance(value, np.ndarray):
            _write_array(fh, value)
        elif isinstance(value, tuple):
            _write_array(fh, *value)
        else:
            fh.write(_dumps(value))
    fh.write(b"}")


def _write_list(fh, objects) -> None:
    """Write a JSON list of objects, taking one from the iterable at a time."""
    fh.write(b"[")
    for n, fields in enumerate(objects):
        fh.write(b"," if n else b"")
        _write_object(fh, fields)
    fh.write(b"]")


def _mask_entry(mask: np.ndarray) -> tuple[dict, np.ndarray]:
    """A mask's entry in the file, its bits packed beside its shape, and its
    flat boolean keep index in C order."""
    flat = np.ascontiguousarray(mask, "<f8").ravel()
    bits = flat.view("<u8")
    ones = bits == _ONE
    if np.count_nonzero(ones) + np.count_nonzero(bits == 0) != bits.size:
        raise ValueError(f"value {float(flat[np.argmax(~ones & (bits != 0))])!r} is not 0.0 or 1.0")
    return {"bits": base64.b64encode(np.packbits(ones)).decode(), "shape": list(mask.shape)}, ones


def _payload(obj, key: str, shape: tuple | None, what: str) -> bytes:
    """The bytes of obj[key]'s base64, obj checked to be {key, "shape"} of
    `shape`. A layer without weights (shape None) holds no arrays."""
    checked_object(obj, (key, "shape"), key, "shape")
    if shape is None or obj["shape"] != list(shape):
        raise ValueError(f"shape {obj['shape']} != {None if shape is None else list(shape)}")
    try:
        return base64.b64decode(obj[key], validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"corrupt {what}: {exc}") from None


def _dec_floats(raw: bytes, shape: tuple, mask: np.ndarray | None = None) -> np.ndarray:
    """A float64 array of `shape` from raw's bytes: every entry or, beside a
    mask, the kept ones only, scattered into +0.0."""
    size = math.prod(shape)
    if len(raw) == 8 * size:
        return np.frombuffer(raw, "<f8").reshape(shape).astype(np.float64)  # a writable native copy
    if mask is None:
        raise ValueError(f"corrupt array: {len(raw)} bytes for {size} float64")
    keep = mask.ravel() != 0
    kept = np.count_nonzero(keep)
    if len(raw) != 8 * kept:
        raise ValueError(f"corrupt array: {len(raw)} bytes for {kept} kept or {size} float64")
    flat = np.zeros(size)
    flat[keep] = np.frombuffer(raw, "<f8")
    return flat.reshape(shape)


def _dec_array(obj, shape: tuple | None, nullable: bool = True) -> np.ndarray | None:
    """obj decoded: a float64 array of `shape`, or None where `nullable`."""
    if obj is None and nullable:
        return None
    return _dec_floats(_payload(obj, "data", shape, "array"), shape)


def _dec_mask(obj, shape: tuple) -> np.ndarray | None:
    """obj decoded: a float64 0/1 mask of `shape`, or None."""
    if obj is None:
        return None
    packed = np.frombuffer(_payload(obj, "bits", shape, "mask"), np.uint8)
    size = math.prod(shape)
    if packed.size != (size + 7) // 8:
        raise ValueError(f"corrupt mask: {packed.size} bytes for {size} bits")
    if size % 8 and packed[-1] & (0xFF >> size % 8):
        raise ValueError("corrupt mask: nonzero padding bits")
    return np.unpackbits(packed, count=size).reshape(shape).astype(np.float64)


@dataclass
class Checkpoint:
    model: Model
    rewind_snapshot: list | None
    plan: SparsifyPlan | None
    metrics_tail: list
    meta: dict


def _check_shapes(path: str, arrays: dict, shape: tuple) -> None:
    """Refuse, in load's words, an array of `arrays` shaped unlike `shape`
    (a bias unlike shape[1:2]); a missing or None array passes."""
    for name in _ARRAYS:
        got, want = arrays.get(name), shape[1:2] if name == "bias" else shape
        if got is not None and got.shape != want:
            raise FieldError(f"{path}.{name}", f"shape {list(got.shape)} != {list(want)}")


def _snapshot_shapes(model: Model, entries: int) -> list[tuple]:
    """The weight shapes of a rewind snapshot's entries, one per layer with
    weights; another number of entries raises FieldError."""
    shapes = [l.weight_shape for l in model.layers if l.weight_shape is not None]
    if entries != len(shapes):
        raise FieldError("rewind_snapshot", f"{entries} entries != {len(shapes)} layers with weights")
    return shapes


def _layer_fields(i: int, layer) -> dict:
    if layer.weights is None and layer.weight_shape is not None:
        raise FieldError(f"layers[{i}].weights", "None: the model was never initialized")
    fields = {"spec": layer.spec(), "weights": layer.weights, "bias": layer.bias}
    if layer.prunable:
        fields["mask"], fields["history"] = layer.mask, layer.history
        _check_shapes(f"layers[{i}]", fields, layer.weight_shape)
        if layer.mask is not None:
            fields["mask"], keep = under(f"layers[{i}].mask", _mask_entry, layer.mask)
            fields["weights"] = (layer.weights, keep)
    return fields


def save(path, model: Model, rewind_snapshot=None, plan: dict | None = None,
         metrics_tail: list | None = None, meta: dict | None = None) -> None:
    """Write the checkpoint; a layer with a weight shape but no weights, a
    mask value other than 0.0 or 1.0, or an array or rewind snapshot that
    load would refuse for its shape or length raises a FieldError naming
    the field, e.g. `layers[0].mask`, and writes nothing."""
    layers = [_layer_fields(i, layer) for i, layer in enumerate(model.layers)]
    if rewind_snapshot is not None:
        shapes = _snapshot_shapes(model, len(rewind_snapshot))
        for j, ((w, b), shape) in enumerate(zip(rewind_snapshot, shapes)):
            _check_shapes(f"rewind_snapshot[{j}]", {"weights": w, "bias": b}, shape)
    with open(path, "wb") as fh:
        fh.write(b'{"format_version":%d,"layers":' % FORMAT_VERSION)
        _write_list(fh, layers)
        fh.write(b',"meta":' + _dumps(meta or {}) + b',"metrics_tail":' + _dumps(metrics_tail or [])
                 + b',"plan":' + _dumps(plan) + b',"rewind_snapshot":')
        if rewind_snapshot is None:
            fh.write(b"null")
        else:
            _write_list(fh, ({"weights": w, "bias": b} for w, b in rewind_snapshot))
        fh.write(b"}\n")


def _read_layer(entry) -> tuple[Layer, bytes | None]:
    """The layer that one entry of `layers` describes, holding its arrays,
    and the bytes of its weights' data if they are not every entry: those
    are decoded after the mask is checked against the plan."""
    layer = under("spec", layer_from_spec, checked_object(entry, ("spec",) + _ARRAYS, "spec")["spec"])
    arrays = _ARRAYS if layer.prunable else _ARRAYS[:2]
    checked_object(entry, ("spec",) + arrays, *arrays)
    shape = layer.weight_shape
    raw = None
    if entry["weights"] is not None or shape is not None:
        raw = under("weights", _payload, entry["weights"], "data", shape, "array")
        if len(raw) == 8 * math.prod(shape):  # every entry, which needs no mask
            layer.weights, raw = _dec_floats(raw, shape), None
    bias = under("bias", _dec_array, entry["bias"], None if shape is None else shape[1:2])
    if bias is not None:
        layer.bias = bias
    if layer.prunable:
        layer.mask = under("mask", _dec_mask, entry["mask"], shape)
        layer.history = under("history", _dec_array, entry["history"], shape)
    return layer, raw


def _read_snapshot_entry(entry, shape: tuple) -> tuple:
    checked_object(entry, ("weights", "bias"), "weights", "bias")
    return (under("weights", _dec_array, entry["weights"], shape, False),
            under("bias", _dec_array, entry["bias"], shape[1:2], False))


def _check_blocks(mask: np.ndarray, granularity: str) -> None:
    """Under the plan's granularity, each block of the mask holds one value."""
    rows = enumerate_blocks(granularity, mask.shape).rows(mask)
    if np.any(rows != rows[:, :1]):
        raise ValueError(f"not block-pure under {granularity!r}")


def load(path) -> Checkpoint:
    """Read a checkpoint; a missing, mistyped, misshapen, corrupt or unknown
    field, or a mask that is not block-pure under the plan, raises FieldError
    naming its path, e.g. `layers[0].spec.out: missing`."""
    with open(path, "rb") as fh:
        try:
            doc = json.loads(fh.read().decode())
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt checkpoint {path}: {exc.msg} at offset {exc.pos}") from None
    under("checkpoint", checked_object, doc)
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {doc.get('format_version')!r}")
    checked_object(doc, _KEYS, *_KEYS)
    entries = under("layers", checked_list, doc["layers"], True)
    read = [under(f"layers[{i}]", _read_layer, entry) for i, entry in enumerate(entries)]
    model = Model([layer for layer, _ in read])
    model.check_shapes(None, "layers[{}].spec")  # a checkpoint records no input shape
    snapshot = doc["rewind_snapshot"]
    if snapshot is not None:
        shapes = _snapshot_shapes(model, len(under("rewind_snapshot", checked_list, snapshot)))
        snapshot = [under(f"rewind_snapshot[{j}]", _read_snapshot_entry, entry, shape)
                    for j, (entry, shape) in enumerate(zip(snapshot, shapes))]
    plan = None if doc["plan"] is None else under("plan", SparsifyPlan.from_dict, doc["plan"])
    if plan is not None:
        under("plan", plan.check_model, model)  # no epochs: a checkpoint does not know them
    for i, (layer, raw) in enumerate(read):
        if plan is not None and layer.prunable and layer.mask is not None:
            under(f"layers[{i}].mask", _check_blocks, layer.mask, plan.granularity)
        if raw is not None:  # kept entries, or a corrupt array
            layer.weights = under(f"layers[{i}].weights", _dec_floats, raw, layer.weight_shape,
                                  layer.mask)
    return Checkpoint(model, snapshot, plan,
                      under("metrics_tail", checked_list, doc["metrics_tail"]),
                      under("meta", checked_object, doc["meta"]))
