"""Versioned checkpoints: weights, masks, weight histories, the rewind
snapshot, a plan echo and a metric-log tail.

One table, `_arrays`, says which arrays an entry holds, as name -> (shape,
may it be null), and both `save` and `load` go by it:
- `weights` (the layer's weight shape) and `bias` (`[weight_shape[1]]`)
  are null exactly when the layer has no weights, as relu and flatten;
- a prunable layer adds `mask` and `history`, of the weights' shape, either
  of which may be null: no mask yet, or a criterion that reads no history;
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
a header that is not canonical and an array whose dtype or nbytes its
table row does not allow, whose offset is not where the previous array
ends rounded up to 8 bytes, with zero bytes between, or that runs past
the end of the file, and bytes after the last array.

A file that starts with "{" is one of formats 1 to 4, one JSON document.
Formats 1 to 3 are refused. Format 4, canonical JSON plus a newline,
holds the same document with each array as `{"data": "<base64>",
"shape": [...]}`, or `{"bits": "<base64>", "shape": [...]}` for a mask,
of the same bytes as format 5's, and `load` still reads it: `_Text.take`
stands in for `_Data.take`, so every rule and refusal but those of the
header and the layout is the same, and a save of what it loads writes
format 5. Its base64 goes through `_b64decode` into one fresh buffer per
array: a table, `_PAIRS`, maps each pair of characters, read as a
little-endian uint16, to a little-endian uint32 of the pair's four output
fragments, two for a group's first pair and two for its second, or to
`_BAD`. Whole 4-character groups go through it in chunks of `_GROUPS`,
each one lookup into a reused buffer and three uint8 writes from its
bytes, one of them an OR. A last group padded with "=" goes through
`base64.b64decode`, and so does any text that the table refuses, whole,
so that the error is b64decode's own.
"""

import base64
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
_BAD = 0xFFFFFFFF  # a pair with a bad character; a valid pair's byte 1 has its low 4 bits 0
_GROUPS = 1 << 13  # 4-character groups per chunk: 32 KiB of text, 64 KiB of fragments


def _pair_table() -> np.ndarray:
    """The 65,536 pairs of characters, each read as a little-endian uint16
    (first character in the low byte), to a little-endian uint32 whose four
    bytes are the pair's output fragments. With h the pair's 12 bits, a
    group's first pair gives byte 0, h >> 4, and byte 1, (h & 15) << 4; its
    second pair gives byte 2, h >> 8, and byte 3, h & 255. A pair with a
    character outside the alphabet maps to _BAD. The table is one outer OR
    of two 256-entry rows, each character's bits in those bytes as a first
    and as a second character, all ones outside the alphabet."""
    first, second = [_BAD] * 256, [_BAD] * 256
    for v, c in enumerate(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"):
        first[c] = v << 2 | v >> 2 << 16 | (v & 3) << 30  # bytes 0, 2 and 3
        second[c] = v >> 4 | (v & 15) << 12 | v << 24  # bytes 0, 1 and 3
    second, first = np.array([second, first], "<u4")
    return np.bitwise_or.outer(second, first).ravel().astype("<u4", copy=False)


_PAIRS = _pair_table()


def _arrays(layer: Layer) -> dict:
    """The table of the arrays a layer's entry holds: name -> (shape, may it
    be null). A rewind-snapshot entry holds its first two rows."""
    shape = layer.weight_shape
    if shape is None:
        return {"weights": (None, True), "bias": (None, True)}
    table = {"weights": (shape, False), "bias": (shape[1:2], False)}
    if layer.prunable:
        table.update(mask=(shape, True), history=(shape, True))
    return table


def _snapshot_tables(model: Model, entries: int) -> list[dict]:
    """The tables of a rewind snapshot's entries, one per layer with weights;
    another number of entries raises FieldError."""
    tables = [dict(list(_arrays(l).items())[:2]) for l in model.layers if l.weight_shape is not None]
    if entries != len(tables):
        raise FieldError("rewind_snapshot", f"{entries} entries != {len(tables)} layers with weights")
    return tables


def _present(null: bool, shape, want: tuple | None, nullable: bool) -> bool:
    """Whether an array of `shape` is there, False for a null that its table
    row allows; what the row does not allow raises ValueError, in the same
    words for save and load."""
    if null and not nullable:
        raise ValueError("expected an object, got NoneType")
    if not null and (want is None or shape != list(want)):
        raise ValueError(f"shape {shape} != {None if want is None else list(want)}")
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
        nbytes, offset = integer(obj["nbytes"], "nbytes", 0), integer(obj["offset"], "offset", 0)
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


def _decode_groups(text: str, groups: int, out: np.ndarray) -> bool:
    """Decode the first `groups` 4-character groups of ASCII base64 `text`
    into out[:3 * groups], _GROUPS at a time; False, with out part written,
    if a character is outside the alphabet. Each chunk is one lookup of its
    pairs' fragments and three uint8 writes: a group's bytes are byte 0 of
    its first pair, byte 1 of the first OR byte 2 of the second, and byte 3
    of the second."""
    frags = np.empty(2 * min(groups, _GROUPS), "<u4")  # 4 output fragments per pair of characters
    for start in range(0, groups, _GROUPS):
        n = min(groups - start, _GROUPS)
        pairs, group = frags[:2 * n], out[3 * start:3 * (start + n)].reshape(n, 3)
        # every uint16 indexes the table, so "clip" clips nothing; it only skips a bounds check
        np.take(_PAIRS, np.frombuffer(text[4 * start:4 * (start + n)].encode(), "<u2"),
                out=pairs, mode="clip")
        if pairs.max() == _BAD:
            return False
        b = pairs.view(np.uint8).reshape(n, 2, 4)  # [group, first or second pair, fragment]
        group[:, 0] = b[:, 0, 0]
        np.bitwise_or(b[:, 0, 1], b[:, 1, 2], out=group[:, 1])
        group[:, 2] = b[:, 1, 3]
    return True


def _b64decode(text) -> np.ndarray:
    """base64.b64decode(text, validate=True) as a fresh writable uint8 array:
    the same bytes, or the same error. The whole 4-character groups of an
    ASCII str are decoded through _PAIRS, and a last group padded with "="
    by b64decode. Any other text, or a character outside the alphabet, goes
    to b64decode whole, so that it words the error; it also accepts a few
    texts that the table refuses, such as "=" after a whole group."""
    if isinstance(text, str) and text.isascii() and len(text) % 4 == 0:
        groups = len(text) // 4 - text.endswith("=")
        try:
            tail = base64.b64decode(text[4 * groups:], validate=True)
        except ValueError:
            tail = None
        if tail is not None:
            out = np.empty(3 * groups + len(tail), np.uint8)
            if _decode_groups(text, groups, out):
                out[3 * groups:] = np.frombuffer(tail, np.uint8)
                return out
    return np.frombuffer(bytearray(base64.b64decode(text, validate=True)), np.uint8)


class _Text:
    """A format-4 file's arrays, each base64 text in its own entry."""

    def take(self, obj, shape: tuple | None, nullable: bool, dtype: str) -> np.ndarray | None:
        """obj's bytes as a fresh uint8 array, obj checked to be {"data",
        "shape"}, or {"bits", "shape"} for a mask, as its table row (shape,
        nullable) allows; None for an allowed null."""
        key, what = ("data", "array") if dtype == "<f8" else ("bits", "mask")
        if obj is not None:
            checked_object(obj, (key, "shape"), key, "shape")
        if not _present(obj is None, None if obj is None else obj["shape"], shape, nullable):
            return None
        try:
            return _b64decode(obj[key])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"corrupt {what}: {exc}") from None


def _dec_floats(data: _Data | _Text, obj, shape: tuple | None, nullable: bool, mask=None) -> np.ndarray | None:
    """obj read by its table row: None for an allowed null, else a float64
    array of `shape` from every entry or, beside a mask, the kept ones only,
    scattered into +0.0."""
    raw = data.take(obj, shape, nullable, "<f8")
    if raw is None:
        return None
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


def _dec_mask(data: _Data | _Text, obj, shape: tuple, nullable: bool) -> np.ndarray | None:
    """obj read: a float64 0/1 mask of `shape`, or None."""
    packed = data.take(obj, shape, nullable, "|u1")
    if packed is None:
        return None
    size = math.prod(shape)
    if packed.size != (size + 7) // 8:
        raise ValueError(f"corrupt mask: {packed.size} bytes for {size} bits")
    if size % 8 and packed[-1] & (0xFF >> size % 8):
        raise ValueError("corrupt mask: nonzero padding bits")
    return np.unpackbits(packed, count=size).reshape(shape).astype(np.float64)


def _read(data: _Data | _Text, entry, table: dict, plan: SparsifyPlan | None = None,
          keys: tuple = ()) -> dict:
    """The arrays of an entry holding `keys` and the table's, name -> array
    or None, in table order. They are read in header order, which reads a
    mask before its weights: the mask is checked to hold one value in each
    block of the plan's granularity if there is a plan, and the weights
    are read through it."""
    checked_object(entry, keys + tuple(table), *table)
    arrays = {}
    for name in sorted(table):
        if name == "mask":
            arrays[name] = mask = under(name, _dec_mask, data, entry[name], *table[name])
            if mask is not None and plan is not None:
                rows = enumerate_blocks(plan.granularity, mask.shape).rows(mask)
                if np.any(rows != rows[:, :1]):
                    raise FieldError("mask", f"not block-pure under {plan.granularity!r}")
        else:
            arrays[name] = under(name, _dec_floats, data, entry[name], *table[name],
                                 arrays.get("mask") if name == "weights" else None)
    return {name: arrays[name] for name in table}


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
        # read, then copied: the freed bytes raise glibc's mmap threshold, as format 4's
        # text did; read into place, each later static prune page-faulted 400 times more
        buf = bytearray(fh.read())
    if buf.startswith(b"{"):  # formats 1 to 4, each one JSON document
        doc, data, version = _parse(path, buf, 0), _Text(), 4
    else:
        start = 8 + int.from_bytes(buf[:8], "little")
        if len(buf) < 8 or start > len(buf):
            raise ValueError(f"corrupt checkpoint {path}: {len(buf)} bytes, cut short in its header")
        header = bytes(buf[8:start])
        doc, data, version = _parse(path, header, 8), _Data(buf, start), FORMAT_VERSION
    under("checkpoint", checked_object, doc)
    if doc.get("format_version") != version:
        raise ValueError(f"unsupported checkpoint format_version {doc.get('format_version')!r}")
    if version == FORMAT_VERSION and header != _header(doc):
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
        for name, array in under(f"layers[{i}]", _read, data, entry, _arrays(layer), plan,
                                 ("spec",)).items():
            setattr(layer, name, array)
    snapshot = doc["rewind_snapshot"]
    if snapshot is not None:
        tables = _snapshot_tables(model, len(under("rewind_snapshot", checked_list, snapshot)))
        snapshot = [tuple(under(f"rewind_snapshot[{j}]", _read, data, entry, table).values())
                    for j, (entry, table) in enumerate(zip(snapshot, tables))]
    if version == FORMAT_VERSION and len(buf) != data.end:  # the last array, float64 weights, ends 8-byte aligned
        raise FieldError("checkpoint", f"{len(buf) - data.end} bytes after the last array")
    return Checkpoint(model, snapshot, plan,
                      under("metrics_tail", checked_list, doc["metrics_tail"]),
                      under("meta", checked_object, doc["meta"]))
