"""Versioned checkpoints: weights, masks, weight histories, the rewind
snapshot, a plan echo and a metric-log tail.

One table, `_arrays`, says which arrays an entry holds, as name -> (shape,
may it be null), and both `save` and `load` go by it:
- `weights` (the layer's weight shape) and `bias` (`[weight_shape[1]]`)
  are null exactly when the layer has no weights, as relu and flatten;
- a layer with weights (every one is prunable) adds `mask` and `history`,
  of the weights' shape, either of which may be null: no mask yet, or a
  criterion that reads no history;
- a rewind-snapshot entry, one per layer with weights, holds that layer's
  first two rows, `weights` and `bias`, neither of them null.
`save` refuses what the table does not allow before it opens the file,
with the field path and message `load` gives for it.

A checkpoint file (format 5, still named `*.json`) is an 8-byte
little-endian header length, the header, and then each array's bytes.
- The header is `json.dumps(doc, sort_keys=True, separators=(",", ":"))`
  padded with spaces to a multiple of 8 bytes, doc being the checkpoint
  document with each array replaced by `{"dtype", "nbytes", "offset",
  "shape"}`. So identical state produces byte-identical files.
- The arrays follow in the order the header names them, sorted keys
  included. Each `offset` counts from the end of the header and is the
  previous array's end rounded up to 8 bytes, zero bytes between; the
  file ends where the last array, float64 weights, ends.
- Weights, biases, histories and the rewind snapshot are `"<f8"`: the
  array's C-order little-endian float64 bytes, so a round trip is
  bit-exact (NaN payloads and -0.0 too), but for the pruned weights of
  the last item.
- A mask is `"|u1"`: one bit per entry, 1 for kept, in C order, packed by
  `np.packbits` (most significant bit first within each byte), the last
  byte's unused bits zero. `save` refuses a mask holding any value but
  0.0 and 1.0 before it opens the file, and `load` unpacks the bits into
  the same float64 0/1 array.
- A masked layer's weights hold only the entries whose mask bit is 1, in
  C order, when every pruned entry is 0.0 or -0.0, and every entry
  otherwise (NaN left under a mask, or weights never masked). `load`
  reads the mask first, as the header does, and tells the two apart by
  `nbytes`, 8 per kept entry or per entry, equal only when every bit is
  1, and loads kept-only weights with +0.0 at each pruned entry, so a
  pruned -0.0 loses its sign.

`load` reads the file once into a bytearray, and every array stored whole
views it, writable, 8-byte aligned and never copied; only a mask's
unpacking and a kept-only scatter allocate. It refuses, naming the field,
a header that is not canonical; a size (of a spec, a shape, an nbytes or
an offset) that is not a JSON integer, since 24.0 would load as 24 and
save back as 24; an array whose dtype or nbytes its table row does not
allow, whose offset is not where the previous array ends rounded up to 8
bytes, with zero bytes between, or that runs past the end of the file;
and bytes after the last array.

A file that starts with "{" is one of formats 1 to 4, one JSON document.
It is parsed, so that one that is not JSON is refused as a corrupt
checkpoint naming the file offset, and then refused as `unsupported
checkpoint format_version <v>`; none of its arrays is read. One that says
format_version 5 is refused as a corrupt checkpoint that is one JSON
document, not a format-5 file, rather than as an unsupported version.
README ("CLI") says how to convert a format-4 file.
"""

from dataclasses import dataclass
import json
import math

import numpy as np

from .fields import FieldError, checked_list, checked_object, integer, under
from .granularity import enumerate_blocks
from .layers import Layer, Model, layer_from_spec
from .sparsifier import SparsifyPlan

FORMAT_VERSION = 5
_KEYS = ("format_version", "layers", "meta", "metrics_tail", "plan", "rewind_snapshot")
_ENTRY = ("dtype", "nbytes", "offset", "shape")  # an array's entry in the header
_ONE = np.array(1.0, "<f8").view("<u8")  # the bits of 1.0; those of 0.0 are all zero


def _arrays(layer: Layer) -> dict:
    """The table of the arrays a layer's entry holds: name -> (shape, may it
    be null). A rewind-snapshot entry holds its first two rows."""
    shape = layer.weight_shape
    if shape is None:
        return {"weights": (None, True), "bias": (None, True)}
    return {"weights": (shape, False), "bias": (shape[1:2], False),
            "mask": (shape, True), "history": (shape, True)}


def _snapshot_tables(model: Model, entries: int) -> list[dict]:
    """The tables of a rewind snapshot's entries, one per layer with weights;
    another number of entries raises FieldError."""
    tables = [dict(list(_arrays(l).items())[:2]) for l in model.layers if l.weight_shape is not None]
    if entries != len(tables):
        raise FieldError("rewind_snapshot", f"{entries} entries != {len(tables)} layers with weights")
    return tables


def _int(value, field: str, low: int | None = None) -> int:
    """fields.integer(value, field, low), but refusing an integral float,
    which a config may hold: a checkpoint writes every size as an int, so
    24.0 would not save back to its bytes."""
    if isinstance(value, float):
        raise FieldError(field, f"not an integer: {value!r}")
    return integer(value, field, low)


def _present(null: bool, shape, want: tuple | None, nullable: bool) -> bool:
    """Whether an array of `shape` is there, False for a null that its table
    row allows; what the row does not allow raises ValueError, in the same
    words for save and load, and a size of the shape that is not an int,
    FieldError("shape")."""
    if null and not nullable:
        raise ValueError("expected an object, got NoneType")
    if not null and (want is None or shape != list(want)):
        raise ValueError(f"shape {shape} != {None if want is None else list(want)}")
    for size in () if null else shape:  # [2.0, 3.0] == [2, 3], but saves as [2, 3]
        _int(size, "shape")
    return not null


def _checked(path: str, arrays: dict, table: dict) -> dict:
    """arrays, name -> array or None, each checked against its table row."""
    for name, row in table.items():
        a = arrays[name]
        under(f"{path}.{name}", _present, a is None, None if a is None else list(a.shape), *row)
    return arrays


def _header(doc) -> bytes:
    """doc's canonical JSON, padded with spaces to a multiple of 8 bytes."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return text + b" " * (-len(text) % 8)


def _parse(path, text, at: int):
    """text, the bytes at offset `at` of the file at path, as JSON, read a
    character a byte so that an error names the file offset."""
    try:
        return json.loads(text.decode("latin-1"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt checkpoint {path}: {exc.msg} at offset {at + exc.pos}") from None
    except RecursionError:
        raise ValueError(f"corrupt checkpoint {path}: JSON nested too deeply") from None


@dataclass(frozen=True)
class _Stored:
    """An array as the file holds it: its shape, and its C-order bytes as
    float64, or as a mask's packed bits."""
    shape: tuple
    data: np.ndarray


def _entry(obj, stored: list) -> dict:
    """The header entry of an array, or of a _Stored one, placed after the
    arrays in stored, which gets its (offset, bytes)."""
    if isinstance(obj, np.ndarray):
        obj = _Stored(obj.shape, np.ascontiguousarray(obj, "<f8"))
    end = stored[-1][0] + stored[-1][1].nbytes if stored else 0
    offset = end + -end % 8
    stored.append((offset, obj.data))
    return {"dtype": obj.data.dtype.str, "nbytes": obj.data.nbytes, "offset": offset,
            "shape": list(obj.shape)}


def _placed(entries: list | None, stored: list) -> list | None:
    """entries, dicts of name -> array, _Stored or other value, with each
    array replaced by its header entry, placed in name order: the file's."""
    return None if entries is None else [
        {name: _entry(v, stored) if isinstance(v, (np.ndarray, _Stored)) else v
         for name, v in sorted(entry.items())} for entry in entries]


def _masked(mask: np.ndarray, weights: np.ndarray) -> tuple[_Stored, _Stored]:
    """A mask and its layer's weights as the file holds them: the mask's
    bits packed, and the weights in C order, only the kept ones if every
    pruned one is +-0.0."""
    flat = np.ascontiguousarray(mask, "<f8").ravel()
    bits = flat.view("<u8")
    ones = bits == _ONE
    if np.count_nonzero(ones) + np.count_nonzero(bits == 0) != bits.size:
        raise ValueError(f"value {float(flat[np.argmax(~ones & (bits != 0))])!r} is not 0.0 or 1.0")
    data = np.ascontiguousarray(weights, "<f8").ravel()
    kept = data[ones]
    if np.count_nonzero(kept) == np.count_nonzero(data):  # NaN counts as nonzero
        data = kept
    return _Stored(mask.shape, np.packbits(ones)), _Stored(weights.shape, data)


class _Data:
    """A file's bytes after its header, which the arrays take in header
    order."""

    def __init__(self, buf: bytearray, start: int):
        self.buf, self.start, self.end = buf, start, start

    def take(self, obj, shape: tuple | None, nullable: bool, dtype: str) -> np.ndarray | None:
        """obj's bytes as a uint8 array viewing the file, obj checked to be
        an entry of `dtype` as its table row (shape, nullable) allows, at
        the previous array's end rounded up to 8 bytes, zero bytes between;
        None for an allowed null."""
        if obj is not None:
            checked_object(obj, _ENTRY, *_ENTRY)
        if not _present(obj is None, None if obj is None else obj["shape"], shape, nullable):
            return None
        if obj["dtype"] != dtype:
            raise FieldError("dtype", f"{obj['dtype']!r} != {dtype!r}")
        nbytes, offset = _int(obj["nbytes"], "nbytes", 0), _int(obj["offset"], "offset", 0)
        at = self.end + -self.end % 8
        if offset != at - self.start:
            raise FieldError("offset", f"{offset} != {at - self.start}, the previous array's "
                                       f"end rounded up to 8 bytes")
        if any(self.buf[self.end:at]):
            raise FieldError("offset", "nonzero padding before it")
        if at + nbytes > len(self.buf):
            raise FieldError("nbytes", f"{nbytes} at offset {offset} past the end of the file, "
                                       f"{len(self.buf) - self.start} bytes after the header")
        self.end = at + nbytes
        return np.frombuffer(self.buf, np.uint8, nbytes, at)


def _dec_floats(raw: np.ndarray, shape: tuple, mask=None) -> np.ndarray:
    """An array's bytes as a float64 array of `shape`, from every entry or,
    beside a mask, the kept ones only, scattered into +0.0."""
    size = math.prod(shape)
    if raw.size == 8 * size:  # the bytes read, converted only on a big-endian host
        return raw.view("<f8").reshape(shape).astype(np.float64, copy=False)
    if mask is None:
        raise ValueError(f"corrupt array: {raw.size} bytes for {size} float64")
    keep = mask.ravel() != 0
    kept = np.count_nonzero(keep)
    if raw.size != 8 * kept:
        raise ValueError(f"corrupt array: {raw.size} bytes for {kept} kept or {size} float64")
    flat = np.zeros(size)
    flat[keep] = raw.view("<f8")
    return flat.reshape(shape)


def _dec_mask(packed: np.ndarray, shape: tuple) -> np.ndarray:
    """A mask's packed bits as a float64 0/1 mask of `shape`."""
    size = math.prod(shape)
    if packed.size != (size + 7) // 8:
        raise ValueError(f"corrupt mask: {packed.size} bytes for {size} bits")
    if size % 8 and packed[-1] & (0xFF >> size % 8):
        raise ValueError("corrupt mask: nonzero padding bits")
    return np.unpackbits(packed, count=size).reshape(shape).astype(np.float64)


def _read(data: _Data, entry, table: dict, plan: SparsifyPlan | None = None,
          keys: tuple = ()) -> dict:
    """The arrays of an entry holding `keys` and the table's, name -> array
    or None, in table order. They are read in header order, which reads a
    mask before its weights: the mask is checked to hold one value in each
    block of the plan's granularity if there is a plan, and the weights
    are read through it."""
    checked_object(entry, keys + tuple(table), *table)
    arrays = dict.fromkeys(table)  # None until read: an allowed null stays None
    for name, (shape, nullable) in sorted(table.items()):
        raw = under(name, data.take, entry[name], shape, nullable, "|u1" if name == "mask" else "<f8")
        if raw is not None and name == "mask":
            arrays[name] = mask = under(name, _dec_mask, raw, shape)
            if plan is not None:
                part = enumerate_blocks(plan.granularity, mask.shape)
                if not np.array_equal(mask, part.unrows(part.rows(mask)[:, :1])):
                    raise FieldError("mask", f"not block-pure under {plan.granularity!r}")
        elif raw is not None:
            arrays[name] = under(name, _dec_floats, raw, shape,
                                 arrays.get("mask") if name == "weights" else None)
    return arrays


@dataclass
class Checkpoint:
    model: Model
    rewind_snapshot: list | None
    plan: SparsifyPlan | None
    metrics_tail: list
    meta: dict


def save(path, model: Model, rewind_snapshot=None, plan: dict | None = None,
         metrics_tail: list | None = None, meta: dict | None = None) -> None:
    """Write the checkpoint. Before it opens the file, save refuses, with a
    FieldError naming the field in load's words (e.g. `layers[0].mask`):
    - an array its table row does not allow: None where the layer has
      weights (its weights or bias, say, if the model was never
      initialized), or an array shaped unlike its row;
    - a mask holding a value other than 0.0 or 1.0;
    - a rewind snapshot whose entry count is not the number of layers with
      weights, or whose entry holds None or a misshapen array."""
    layers = []
    for i, layer in enumerate(model.layers):
        table = _arrays(layer)
        fields = _checked(f"layers[{i}]", {name: getattr(layer, name) for name in table}, table)
        if fields.get("mask") is not None:
            fields["mask"], fields["weights"] = under(f"layers[{i}].mask", _masked, layer.mask,
                                                      layer.weights)
        fields["spec"] = layer.spec()
        layers.append(fields)
    if rewind_snapshot is not None:
        tables = _snapshot_tables(model, len(rewind_snapshot))
        rewind_snapshot = [_checked(f"rewind_snapshot[{j}]", dict(zip(table, entry)), table)
                           for j, (entry, table) in enumerate(zip(rewind_snapshot, tables))]
    stored = []  # the layers' arrays, then the snapshot's: the header's order
    header = _header({"format_version": FORMAT_VERSION, "layers": _placed(layers, stored),
                      "meta": meta or {}, "metrics_tail": list(metrics_tail or ()), "plan": plan,
                      "rewind_snapshot": _placed(rewind_snapshot, stored)})
    with open(path, "wb") as fh:
        fh.write(len(header).to_bytes(8, "little") + header)
        for _, data in stored:  # each zero-padded to 8 bytes, then written from its own buffer
            fh.write(bytes(-fh.tell() % 8))
            fh.write(data)


def load(path) -> Checkpoint:
    """Read a checkpoint; a missing, mistyped, misshapen, corrupt or unknown
    field, a mask that is not block-pure under the plan, or an array out of
    place in the file raises FieldError naming its path, e.g.
    `layers[0].spec.out: missing`; a header that cannot be read raises
    ValueError, `corrupt checkpoint <path>: ...`."""
    with open(path, "rb") as fh:
        # read, then copied: freeing the bytes read raises glibc's mmap threshold; read into
        # place, each later static prune page-faulted 400 times more
        buf = bytearray(fh.read())
    if buf.startswith(b"{"):  # formats 1 to 4, one JSON document each: no header, refused below
        doc, header = _parse(path, buf, 0), None
    else:
        start = 8 + int.from_bytes(buf[:8], "little")
        if len(buf) < 8 or start > len(buf):
            raise ValueError(f"corrupt checkpoint {path}: {len(buf)} bytes, cut short in its header")
        header = bytes(buf[8:start])
        doc, data = _parse(path, header, 8), _Data(buf, start)
    under("checkpoint", checked_object, doc)
    if header is None and doc.get("format_version") == FORMAT_VERSION:
        raise ValueError(f"corrupt checkpoint {path}: one JSON document, "
                         f"not a format-{FORMAT_VERSION} file")
    if header is None or doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {doc.get('format_version')!r}")
    if header != _header(doc):
        raise FieldError("checkpoint", "header is not its canonical JSON padded with spaces to 8 bytes")
    checked_object(doc, _KEYS, *_KEYS)
    plan = None if doc["plan"] is None else under("plan", SparsifyPlan.from_dict, doc["plan"])
    entries = under("layers", checked_list, doc["layers"], True)
    model = Model([under(f"layers[{i}].spec", layer_from_spec,
                         under(f"layers[{i}]", checked_object, entry, None, "spec")["spec"])
                   for i, entry in enumerate(entries)])
    model.check_shapes(None, "layers[{}].spec")  # a checkpoint records no input shape
    if plan is not None:
        under("plan", plan.check_model, model)  # no epochs: a checkpoint does not know them
    for i, (layer, entry) in enumerate(zip(model.layers, entries)):
        for key in layer.spec_keys:  # layer_from_spec, as a config's reader, takes 16.0 as 16
            under(f"layers[{i}].spec", _int, entry["spec"][key], key)
        for name, array in under(f"layers[{i}]", _read, data, entry, _arrays(layer), plan,
                                 ("spec",)).items():
            setattr(layer, name, array)
    snapshot = doc["rewind_snapshot"]
    if snapshot is not None:
        tables = _snapshot_tables(model, len(under("rewind_snapshot", checked_list, snapshot)))
        snapshot = [tuple(under(f"rewind_snapshot[{j}]", _read, data, entry, table).values())
                    for j, (entry, table) in enumerate(zip(snapshot, tables))]
    if len(buf) != data.end:  # the last array, float64 weights, ends 8-byte aligned
        raise FieldError("checkpoint", f"{len(buf) - data.end} bytes after the last array")
    return Checkpoint(model, snapshot, plan,
                      under("metrics_tail", checked_list, doc["metrics_tail"]),
                      under("meta", checked_object, doc["meta"]))
