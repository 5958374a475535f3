import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prunekit
from prunekit import (BUILTIN_SCHEDULES, Model, Rng, ScheduleSpec, Sparsifier, SparsifyPlan,
                      checkpoint)
from prunekit.cli import main

from checkpoint_files import format_4_text, header_bytes, join, split, stored


def one_shot_bytes(model, rewind_snapshot=None, plan=None, metrics_tail=None, meta=None):
    """The checkpoint file built here in one pass: the document, each array
    replaced by {dtype, nbytes, offset, shape}, as one json.dumps call
    padded with spaces to 8 bytes, after its length and before the arrays'
    bytes, in the header's order, each zero-padded to an offset that is a
    multiple of 8. An array is float64 bytes or, for a mask, one bit per
    entry, in C order. A masked layer's weights keep only the entries its
    mask keeps when every other entry is zero."""
    data = bytearray()

    def entry(shape, dtype, raw):
        data.extend(bytes(-len(data) % 8))
        offset = len(data)
        data.extend(raw)
        return {"dtype": dtype, "nbytes": len(raw), "offset": offset, "shape": list(shape)}

    def array(a, mask=None):
        if a is None:
            return None
        values = list(np.asarray(a, dtype="<f8").ravel())
        if mask is not None:
            pairs = list(zip(values, mask.ravel()))
            if all(v == 0 for v, m in pairs if m == 0):  # NaN != 0
                values = [v for v, m in pairs if m == 1]
        return entry(a.shape, "<f8", np.array(values, dtype="<f8").tobytes())

    def mask(m):
        if m is None:
            return None
        bits = "".join("1" if v == 1 else "0" for v in m.ravel())
        bits += "0" * (-len(bits) % 8)
        return entry(m.shape, "|u1", bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8)))

    layers = []
    for layer in model.layers:  # each entry's arrays in key order: bias, history, mask, weights
        fields = {"spec": layer.spec(),
                  "bias": None if layer.bias is None or layer.weights is None else array(layer.bias)}
        if layer.prunable:
            fields["history"] = array(layer.history)
            fields["mask"] = mask(layer.mask)
        fields["weights"] = array(layer.weights, getattr(layer, "mask", None))
        layers.append(fields)
    snapshot = None if rewind_snapshot is None else [
        {"bias": array(b), "weights": array(w)} for w, b in rewind_snapshot]
    doc = {"format_version": checkpoint.FORMAT_VERSION, "layers": layers,
           "rewind_snapshot": snapshot, "plan": plan,
           "metrics_tail": [list(row) for row in metrics_tail or []], "meta": meta or {}}
    header = header_bytes(doc)
    return len(header).to_bytes(8, "little") + header + bytes(data)


def conv_relu_flatten(masked=True, zeroed=False):
    """conv2d -> relu -> flatten -> dense; the conv layer masked, the dense one
    not. Its weights are left as drawn, or `zeroed` under the mask."""
    model = Model.from_specs(
        [{"kind": "conv2d", "in_ch": 2, "out_ch": 3, "kx": 3, "ky": 2}, {"kind": "relu"},
         {"kind": "flatten"}, {"kind": "dense", "in": 3 * 4 * 5, "out": 2}], Rng(11))
    conv = model.layers[0]
    if masked:
        conv.mask = (Rng(12).normal(conv.weights.shape) > 0).astype(float)
        conv.history = conv.weights * 0.5
        if zeroed:
            conv.weights *= conv.mask
    return model


def snapshot_of(model):
    return [(l.weights.copy(), l.bias.copy()) for l in model.layers if l.weights is not None]


def dense_of(n_out, mask=None):
    model = Model.from_specs([{"kind": "dense", "in": 1, "out": n_out}], Rng(n_out))
    model.layers[0].mask = np.ones((1, n_out)) if mask is None else mask
    model.layers[0].history = model.layers[0].weights.copy()
    return model


def non_finite():
    model = conv_relu_flatten()
    flat = model.layers[3].weights.ravel()
    flat[:4] = [np.nan, np.inf, -np.inf, -0.0]
    # a NaN with a payload, which only a bit-exact encoding keeps
    model.layers[0].history.ravel()[:1] = np.array([0x7FF8_0000_0000_0123], np.uint64).view(
        np.float64)
    return model


CASES = {
    "relu_flatten_mask_and_none": lambda: (conv_relu_flatten(), {}),
    "kept_only": lambda: (conv_relu_flatten(zeroed=True), {}),
    "no_masks": lambda: (conv_relu_flatten(masked=False), {}),
    "snapshot_none": lambda: (conv_relu_flatten(), {"rewind_snapshot": None}),
    # an empty snapshot has one entry per layer with weights only in a model without any
    "snapshot_empty": lambda: (Model.from_specs([{"kind": "relu"}, {"kind": "flatten"}]),
                               {"rewind_snapshot": []}),
    "snapshot": lambda: (lambda m: (m, {"rewind_snapshot": snapshot_of(m)}))(conv_relu_flatten()),
    "nested_plan_meta_metrics": lambda: (conv_relu_flatten(), {
        "plan": {"sparsity": [10.0, 20.5], "schedule": {"kind": "gradual", "alpha": None},
                 "context": "global"},
        "meta": {"seed": 3, "name": "x", "nested": {"b": [1, {"z": 0.1, "a": True}]}},
        "metrics_tail": [(0, 1, 0.25, 1e-300, 50.0), (0, 2, 1 / 3, 2.0, 50.0)]}),
    "non_finite_weights": lambda: (non_finite(), {"meta": {"aborted": True}}),
    # masks of 3, 4 and 5 bits, each 1 byte and 7 bytes of zero padding
    "pad_none": lambda: (dense_of(3), {}),
    "pad_one": lambda: (dense_of(4), {}),
    "pad_two": lambda: (dense_of(5), {}),
}


@pytest.mark.parametrize("case", CASES)
def test_save_writes_canonical_json(tmp_path, case):
    """The header is canonical JSON padded with spaces to 8 bytes, and the
    file is what the one-pass writer above builds."""
    model, kwargs = CASES[case]()
    path = tmp_path / "ckpt.json"
    checkpoint.save(path, model, **kwargs)
    raw = path.read_bytes()
    doc, data = split(path)
    assert raw[8:len(raw) - len(data)] == header_bytes(doc)
    assert raw == one_shot_bytes(model, **kwargs)


@pytest.mark.parametrize("case", CASES)
def test_loaded_arrays_are_writable_and_aligned(tmp_path, case):
    """Every array load returns, rewind snapshot included, is float64,
    writable, C-contiguous and 8-byte aligned."""
    model, kwargs = CASES[case]()
    path = tmp_path / "ckpt.json"
    checkpoint.save(path, model, **dict(kwargs, plan=None))  # one case's plan is save's only
    ckpt = checkpoint.load(path)
    arrays = [getattr(layer, name, None) for layer in ckpt.model.layers
              for name in ("weights", "bias", "mask", "history")]
    arrays += [a for entry in ckpt.rewind_snapshot or () for a in entry]
    for a in arrays:
        if a is not None:
            assert a.dtype == np.float64 and a.flags.writeable and a.flags.c_contiguous
            assert a.flags.aligned and a.ctypes.data % 8 == 0


def test_non_finite_weights_round_trip(tmp_path):
    model = non_finite()
    path = tmp_path / "ckpt.json"
    checkpoint.save(path, model)

    def no_constants(name):
        raise AssertionError(f"non-standard JSON constant {name} in the file")

    raw = path.read_bytes()
    json.loads(raw[8:8 + int.from_bytes(raw[:8], "little")], parse_constant=no_constants)
    loaded = checkpoint.load(path).model
    for a, b in zip(model.layers, loaded.layers):
        for name in ("weights", "bias", "mask", "history"):
            want, got = getattr(a, name, None), getattr(b, name, None)
            if want is None:
                assert got is None
                continue
            assert got.dtype == np.float64 and got.flags.writeable
            assert got.tobytes() == want.tobytes()


def two_dense(mask_value):
    """dense [2, 3] -> relu -> dense [3, 2]; the first layer's mask holds mask_value."""
    model = Model.from_specs([{"kind": "dense", "in": 2, "out": 3}, {"kind": "relu"},
                              {"kind": "dense", "in": 3, "out": 2}], Rng(3))
    first, second = model.prunable_layers()
    first.mask = np.ones((2, 3))
    first.mask[1, 2] = mask_value
    second.mask = np.ones((3, 2))
    return model


@pytest.mark.parametrize("size", range(1, 25))
def test_mask_bits_round_trip(tmp_path, size):
    """Masks of every size mod 8, packed into 1-3 bytes, load back bit-exact,
    and a save of the loaded model writes the same bytes."""
    model = dense_of(size, (Rng(size).normal((1, size)) > 0).astype(float))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    checkpoint.save(a, model)
    assert a.read_bytes() == one_shot_bytes(model)
    loaded = checkpoint.load(a).model.layers[0].mask
    assert loaded.dtype == np.float64 and loaded.flags.writeable
    assert loaded.tobytes() == model.layers[0].mask.tobytes()
    checkpoint.save(b, checkpoint.load(a).model)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("value", [0.5, 2.0, -0.0, np.nan])
def test_save_refuses_a_mask_value_other_than_0_or_1(tmp_path, value):
    """One layer's mask value that is not 0.0 or 1.0 fails the save, whatever
    the other layer holds: the error names the layer and no file is written.
    No value is rounded into a bit, -0.0 neither, which would load as 0.0."""
    path = tmp_path / "ckpt.json"
    with pytest.raises(ValueError) as err:
        checkpoint.save(path, two_dense(value))
    assert str(err.value) == f"layers[0].mask: value {float(value)!r} is not 0.0 or 1.0"
    assert not path.exists()


def test_save_refuses_a_layer_without_weights(tmp_path):
    """Model.from_specs without an rng leaves weights None, which load would
    refuse, so save refuses it, in load's words, before the file is opened."""
    model = Model.from_specs([{"kind": "dense", "in": 2, "out": 3}, {"kind": "relu"}])
    path = tmp_path / "ckpt.json"
    with pytest.raises(ValueError) as err:
        checkpoint.save(path, model)
    assert str(err.value) == "layers[0].weights: expected an object, got NoneType"
    assert not path.exists()


def pruned_model(granularity):
    """A model pruned to 60% by the Sparsifier, which masks its weights in
    place: a negative weight under a 0 bit becomes -0.0."""
    specs = {"weight": [{"kind": "dense", "in": 3, "out": 7}, {"kind": "relu"},
                        {"kind": "dense", "in": 7, "out": 2}],
             "kernel": [{"kind": "conv2d", "in_ch": 2, "out_ch": 3, "kx": 3, "ky": 2},
                        {"kind": "relu"},
                        {"kind": "conv2d", "in_ch": 3, "out_ch": 2, "kx": 2, "ky": 2}]}[granularity]
    model = Model.from_specs(specs, Rng(21))
    Sparsifier(model, granularity, "global", "large_final").prune_model(60.0)
    return model


def stored_bytes(path, layer):
    """The bytes of layer `layer`'s weights in the file at path."""
    return stored(path, "layers", layer, "weights")


@pytest.mark.parametrize("granularity", ["weight", "kernel"])
def test_kept_only_weights_round_trip(tmp_path, granularity):
    """A pruned layer stores only the weights its mask keeps, and loads them
    back in place, +0.0 everywhere else; a save of the loaded model writes
    the same bytes."""
    model = pruned_model(granularity)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    checkpoint.save(a, model)
    assert a.read_bytes() == one_shot_bytes(model)
    loaded = checkpoint.load(a).model
    for i, layer in enumerate(model.layers):
        if not layer.prunable:
            continue
        kept = np.count_nonzero(layer.mask)
        assert 0 < kept < layer.mask.size
        assert stored_bytes(a, i) == layer.weights[layer.mask == 1].astype("<f8").tobytes()
        got = loaded.layers[i].weights
        assert got.dtype == np.float64 and got.flags.writeable
        assert got.tobytes() == np.where(layer.mask == 1, layer.weights, 0.0).tobytes()
        assert loaded.layers[i].mask.tobytes() == layer.mask.tobytes()
    checkpoint.save(b, loaded)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("bit", [1.0, 0.0], ids=["all_kept", "collapsed"])
def test_kept_only_weights_at_a_uniform_mask(tmp_path, bit):
    """Every bit 1 stores every weight; every bit 0, a collapsed layer, stores
    none: an empty `data` that loads as zeros."""
    model = dense_of(6, np.full((1, 6), bit))
    model.layers[0].weights *= bit
    path = tmp_path / "ckpt.json"
    checkpoint.save(path, model)
    assert path.read_bytes() == one_shot_bytes(model)
    assert len(stored_bytes(path, 0)) == (48 if bit else 0)
    got = checkpoint.load(path).model.layers[0].weights
    assert got.tobytes() == (model.layers[0].weights + 0.0).tobytes()


def test_pruned_negative_zero_loads_as_positive_zero(tmp_path):
    """-0.0 under a 0 bit is not stored: it loads as +0.0, and the loaded
    model, like one holding +0.0 there, saves to the same bytes."""
    model = dense_of(4, np.array([[1.0, 0.0, 1.0, 0.0]]))
    model.layers[0].weights[0, 1] = -0.0
    model.layers[0].weights[0, 3] = 0.0
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    checkpoint.save(a, model)
    assert len(stored_bytes(a, 0)) == 16
    got = checkpoint.load(a).model.layers[0].weights
    assert got[0, 1] == 0.0 and not np.signbit(got[0, 1])
    checkpoint.save(b, checkpoint.load(a).model)
    assert a.read_bytes() == b.read_bytes()
    model.layers[0].weights[0, 1] = 0.0
    checkpoint.save(b, model)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("value", [np.nan, 0.5])
def test_nonzero_pruned_weight_stores_every_entry(tmp_path, value):
    """A pruned entry that is not zero, as NaN * 0 leaves it in a crash
    checkpoint, keeps the whole array in the file, loaded bit-exact."""
    model = dense_of(4, np.array([[1.0, 0.0, 1.0, 1.0]]))
    model.layers[0].weights[0, 1] = value
    path = tmp_path / "ckpt.json"
    checkpoint.save(path, model)
    assert path.read_bytes() == one_shot_bytes(model)
    assert stored_bytes(path, 0) == model.layers[0].weights.astype("<f8").tobytes()
    assert checkpoint.load(path).model.layers[0].weights.tobytes() == model.layers[0].weights.tobytes()


@pytest.mark.parametrize("change", [-8, 8], ids=["short", "long"])
def test_kept_only_weights_of_the_wrong_length_exit_1(tmp_path, monkeypatch, capsys, change):
    """Kept-only weights one float64 short or long match neither count: both
    readers exit 1 naming the field, and write nothing."""
    monkeypatch.setenv("PRUNEKIT_OUTPUT_ROOT", str(tmp_path))
    model = pruned_model("weight")
    path = tmp_path / "ckpt.json"
    checkpoint.save(path, model)
    doc, data = split(path)
    weights = doc["layers"][2]["weights"]  # the last array in the file
    assert weights["offset"] + weights["nbytes"] == len(data)
    weights["nbytes"] += change
    join(path, doc, data + bytes(max(change, 0)))
    kept = np.count_nonzero(model.layers[2].mask)
    for command in (["inspect", str(path)], ["prune", str(path), "--sparsity", "70"]):
        assert main(command) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: layers[2].weights: corrupt array: {8 * kept + change} "
                                f"bytes for {kept} kept or 14 float64\n")
        assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == [path]


def b64_outcome(decode, text):
    """decode(text)'s bytes, or the type and message of what it raised."""
    try:
        return bytes(decode(text))
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def with_char(text, at, char):
    return text[:at] + char + text[at + 1:]


CHUNK = 4 * checkpoint._GROUPS  # characters per chunk of _b64decode
ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
# two and a half chunks and a group padded with "=="
LONG = base64.b64encode(bytes(range(256)) * (3 * CHUNK // 1024 * 5 // 2) + b"z").decode()
B64_TEXTS = {
    **{f"bytes_{n}": base64.b64encode(bytes(range(200, 200 + n))).decode() for n in range(7)},
    **{f"cut_{n}": "QUJDREVG"[:n] for n in range(1, 8)},
    "long": LONG,
    "long_unpadded": LONG[:-4],
    "bad_in_first_chunk": with_char(LONG, 5, "!"),
    "bad_in_middle_chunk": with_char(LONG, CHUNK + 7, "-"),
    "bad_in_last_chunk": with_char(LONG, len(LONG) - 9, "_"),
    "bad_in_padded_tail": with_char(LONG, len(LONG) - 3, "*"),
    "pad_mid_string": "QUJD=QUJ",
    "pad_inside_a_group": "QU=DQUJD",
    "group_after_padding": "QQ==QUFB",
    "pad_after_a_whole_group": "QUJD====",  # b64decode accepts it
    "pad_alone": "====",
    "pad_leading": "=QUJ",
    "pad_three": "QUJDQ===",
    "non_ascii": "QUJé",
    "non_ascii_long": with_char(LONG, CHUNK + 1, "é"),
    "newline": "QUJD\nQUJ",
    "space": "QUJD QUJ",
    "one_mod_4": "QUJDR",
    "nonzero_unused_bits": "QR==",
    "not_a_string": [0.0] * 4,
    "null": None,
}


@pytest.mark.parametrize("name", B64_TEXTS)
def test_b64decode_is_b64decode(name):
    """_b64decode gives what base64.b64decode(text, validate=True) gives:
    the same bytes, as a fresh writable uint8 array, or the same error."""
    text = B64_TEXTS[name]
    want = b64_outcome(lambda t: base64.b64decode(t, validate=True), text)
    assert b64_outcome(checkpoint._b64decode, text) == want
    if isinstance(want, bytes):
        got = checkpoint._b64decode(text)
        assert got.dtype == np.uint8 and got.flags.writeable and got.flags.c_contiguous


def test_b64decode_is_b64decode_on_random_edits():
    """The same on short texts with random edits: characters replaced,
    inserted or deleted, "=" appended, or drawn at random."""
    rng = np.random.default_rng(5)
    chars = list("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=!\n é-_")
    for _ in range(2000):
        text = base64.b64encode(rng.bytes(rng.integers(0, 40))).decode()
        at, char, edit = int(rng.integers(0, len(text) + 1)), str(rng.choice(chars)), rng.integers(5)
        if edit == 1:
            text = with_char(text, at, char)
        elif edit == 2:
            text = text[:at] + char + text[at:]
        elif edit == 3:
            text = text[:at] + text[at + 1:]
        elif edit == 4:
            text = "".join(rng.choice(chars, rng.integers(0, 13)))
        for extra in ("", "=" * int(rng.integers(1, 4))):
            want = b64_outcome(lambda t: base64.b64decode(t, validate=True), text + extra)
            assert b64_outcome(checkpoint._b64decode, text + extra) == want, text + extra


def test_pair_table_decodes_every_pair_in_either_place():
    """_PAIRS holds 65,536 little-endian uint32: _BAD for each of the 61,440
    pairs with a character outside the alphabet, and bits 8-11 clear in
    every valid entry, so none equals _BAD. A text holding each of the 4,096
    valid pairs once as a group's first pair and once as its second decodes
    through the table as b64decode decodes it."""
    table = checkpoint._PAIRS
    assert table.dtype.str == "<u4" and table.shape == (1 << 16,)
    valid = np.zeros(256, bool)
    valid[np.frombuffer(ALPHABET.encode(), np.uint8)] = True
    valid = np.logical_and.outer(valid, valid).ravel()
    assert np.count_nonzero(~valid) == 61440
    assert (table[~valid] == checkpoint._BAD).all()
    assert not (table[valid] & 0xF00).any()
    pairs = [a + b for a in ALPHABET for b in ALPHABET]
    text = "".join(first + second for first, second in zip(pairs, pairs[1:] + pairs[:1]))
    out = np.empty(3 * len(pairs), np.uint8)
    assert checkpoint._decode_groups(text, len(pairs), out)
    assert out.tobytes() == base64.b64decode(text, validate=True)


def test_corrupt_weights_past_the_first_chunk_exit_1(tmp_path, monkeypatch, capsys):
    """A file cut short inside a layer's 128 KiB of weights, past their
    first 32 KiB: both readers exit 1 naming the field, and write nothing."""
    monkeypatch.setenv("PRUNEKIT_OUTPUT_ROOT", str(tmp_path))
    path = tmp_path / "ckpt.json"
    checkpoint.save(path, Model.from_specs([{"kind": "dense", "in": 16, "out": 1024}], Rng(4)))
    doc, data = split(path)
    weights = doc["layers"][0]["weights"]
    assert (weights["offset"], weights["nbytes"], len(data)) == (8192, 131072, 8192 + 131072)
    join(path, doc, data[:8192 + 40000])
    for command in (["inspect", str(path)], ["prune", str(path), "--sparsity", "70"]):
        assert main(command) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: layers[0].weights.nbytes: 131072 at offset 8192 past the "
                                "end of the file, 48192 bytes after the header\n")
        assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == [path]


def test_format_3_is_refused(tmp_path, capsys):
    """A format-3 file, one JSON document whose masked weights hold every
    entry, is not read."""
    path = tmp_path / "ckpt.json"
    checkpoint.save(path, conv_relu_flatten())
    doc, _ = split(path)
    doc["format_version"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="^unsupported checkpoint format_version 3$"):
        checkpoint.load(path)
    assert main(["inspect", str(path)]) == 1
    assert capsys.readouterr().err == "error: unsupported checkpoint format_version 3\n"


FORMAT_4 = ('{"format_version":4,"layers":[{"bias":{"data":"AAAAAAAAAAA=","shape":[1]},'
            '"history":null,"mask":null,"spec":{"in":1,"kind":"dense","out":1},'
            '"weights":{"data":"AAAAAAAA8D8=","shape":[1,1]}}],"meta":{},"metrics_tail":[],'
            '"plan":null,"rewind_snapshot":null}\n')


def test_format_4_is_read(tmp_path, monkeypatch, capsys):
    """A format-4 file, one canonical JSON document with base64 arrays,
    loads, both readers read it, and prune writes format 5."""
    monkeypatch.setenv("PRUNEKIT_OUTPUT_ROOT", str(tmp_path))
    path, pruned = tmp_path / "ckpt.json", tmp_path / "pruned.json"
    path.write_text(FORMAT_4)
    layer = checkpoint.load(path).model.layers[0]
    assert layer.weights.tolist() == [[1.0]] and layer.bias.tolist() == [0.0]
    assert main(["inspect", str(path)]) == 0
    assert main(["prune", str(path), "--sparsity", "0", "--out", str(pruned)]) == 0
    capsys.readouterr()
    assert split(pruned)[0]["format_version"] == checkpoint.FORMAT_VERSION
    assert checkpoint.load(pruned).model.layers[0].weights.tolist() == [[1.0]]


def test_format_4_with_bytes_not_utf8_exits_1(tmp_path, monkeypatch, capsys):
    """A format-4 file with bytes that are not UTF-8 in an array's base64
    exits 1 naming the field, in b64decode's words, and writes nothing."""
    monkeypatch.setenv("PRUNEKIT_OUTPUT_ROOT", str(tmp_path))
    path = tmp_path / "ckpt.json"
    path.write_bytes(FORMAT_4.replace("8D8=", "\xff\xfe").encode("latin-1"))
    for command in (["inspect", str(path)], ["prune", str(path), "--sparsity", "50"]):
        assert main(command) == 1
        assert capsys.readouterr().err == ("error: layers[0].weights: corrupt array: string argument "
                                           "should contain only ASCII characters\n")
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("case", CASES)
def test_format_4_file_loads_as_its_format_5_file(tmp_path, case):
    """The format-4 file of a state, as format 4's writer wrote it, loads
    the same arrays, plan, meta and metrics tail as the format-5 file of
    that state, and a save of what it loads writes the format-5 file."""
    model, kwargs = CASES[case]()
    a, b, again = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "again.json"
    checkpoint.save(a, model, **dict(kwargs, plan=None))  # one case's plan is save's only
    b.write_text(format_4_text(a))
    want, got = checkpoint.load(a), checkpoint.load(b)
    for x, y in zip(want.model.layers, got.model.layers, strict=True):
        assert x.spec() == y.spec()
        for name in ("weights", "bias", "mask", "history"):
            u, v = getattr(x, name, None), getattr(y, name, None)
            assert (u is None) == (v is None), name
            if u is not None:
                assert (u.dtype, u.shape, u.tobytes()) == (v.dtype, v.shape, v.tobytes()), name
    assert [[a.tobytes() for a in e] for e in want.rewind_snapshot or ()] == \
        [[a.tobytes() for a in e] for e in got.rewind_snapshot or ()]
    assert (want.plan, want.meta, want.metrics_tail) == (got.plan, got.meta, got.metrics_tail)
    checkpoint.save(again, got.model, rewind_snapshot=got.rewind_snapshot,
                    metrics_tail=got.metrics_tail, meta=got.meta)
    assert again.read_bytes() == a.read_bytes()


@pytest.mark.parametrize("raw, problem", [
    (b"", "0 bytes, cut short in its header"),
    (b"\x08\0\0", "3 bytes, cut short in its header"),
    (b"\x10" + bytes(7) + b"{}      ", "16 bytes, cut short in its header"),
    (b"\xff" * 8 + b"{}", "10 bytes, cut short in its header"),
    (b"\x08" + bytes(7) + b"\xff\xfe{}    ", "Expecting value at offset 8"),
    (b"\x08" + bytes(7) + b'{"a":   ', "Expecting value at offset 16"),
    (b"{\xff\xfe", "Expecting property name enclosed in double quotes at offset 1"),
    (b"\0\x71\x02" + bytes(5) + b"[" * 80000 + b"]" * 80000, "JSON nested too deeply"),
    (b'{"a":' + b"[" * 80000 + b"]" * 80000 + b"}", "JSON nested too deeply"),
], ids=["empty", "short_length", "short_header", "huge_length", "not_utf8", "not_json",
        "brace_not_utf8", "deep", "brace_deep"])
def test_unreadable_header_exits_1(tmp_path, capsys, raw, problem):
    """A file whose header cannot be read, from its 8-byte length on, exits
    1 naming the file, never with a traceback."""
    path = tmp_path / "ckpt.json"
    path.write_bytes(raw)
    assert main(["inspect", str(path)]) == 1
    assert capsys.readouterr().err == f"error: corrupt checkpoint {path}: {problem}\n"


def test_save_refuses_a_mask_shaped_unlike_its_weights(tmp_path):
    """Kept weights are picked by the mask's bits, so a mask of another shape
    fails the save before the file is opened."""
    model = two_dense(1.0)
    model.layers[0].mask = np.ones((3, 3))
    path = tmp_path / "ckpt.json"
    with pytest.raises(ValueError) as err:
        checkpoint.save(path, model)
    assert str(err.value) == "layers[0].mask: shape [3, 3] != [2, 3]"
    assert not path.exists()


def _set(name, value):
    """An edit of a dense [4, 8] model: one array set to value(weights)."""
    def edit(model, snapshot):
        setattr(model.layers[0], name, value(model.layers[0].weights))
        return snapshot
    return edit


@pytest.mark.parametrize("message, edit", [
    ("layers[0].history: shape [8, 4] != [4, 8]", _set("history", lambda w: w.T.copy())),
    ("layers[0].bias: shape [3] != [8]", _set("bias", lambda w: np.zeros(3))),
    ("layers[0].weights: shape [8, 4] != [4, 8]", _set("weights", lambda w: w.T.copy())),
    ("rewind_snapshot: 2 entries != 1 layers with weights", lambda model, snap: snap * 2),
    ("rewind_snapshot[0].weights: shape [4, 4] != [4, 8]",
     lambda model, snap: [(np.zeros((4, 4)), snap[0][1])]),
    ("rewind_snapshot[0].bias: shape [4] != [8]",
     lambda model, snap: [(snap[0][0], np.zeros(4))]),
    ("rewind_snapshot[0].weights: expected an object, got NoneType",
     lambda model, snap: [(None, snap[0][1])]),
    ("rewind_snapshot[0].bias: expected an object, got NoneType",
     lambda model, snap: [(snap[0][0], None)]),
], ids=["history", "bias", "weights", "snapshot-length", "snapshot-weights", "snapshot-bias",
        "snapshot-weights-none", "snapshot-bias-none"])
def test_save_refuses_what_load_refuses_for_its_shape(tmp_path, message, edit):
    """An array or rewind snapshot that load refuses for its shape, its
    length or a null fails the save with load's field path and message,
    before the file is opened."""
    model = Model.from_specs([{"kind": "dense", "in": 4, "out": 8}], Rng(3).child("init"))
    snapshot = edit(model, [(model.layers[0].weights.copy(), model.layers[0].bias.copy())])
    written = tmp_path / "by-hand.json"
    written.write_bytes(one_shot_bytes(model, rewind_snapshot=snapshot))
    with pytest.raises(ValueError) as err:
        checkpoint.load(written)
    assert str(err.value) == message
    path = tmp_path / "ckpt.json"
    with pytest.raises(ValueError) as err:
        checkpoint.save(path, model, rewind_snapshot=snapshot)
    assert str(err.value) == message
    assert not path.exists()


def test_every_builtin_schedule_loads_in_a_fresh_interpreter(tmp_path):
    """A plan's schedule is one of the built-in kinds, so a checkpoint saved
    under any of them loads in a process that has only imported prunekit."""
    model = Model.from_specs([{"kind": "dense", "in": 2, "out": 2}], Rng(1).child("init"))
    paths = []
    for kind in BUILTIN_SCHEDULES:
        paths.append(str(tmp_path / f"{kind}.json"))
        checkpoint.save(paths[-1], model, plan=SparsifyPlan(50.0, schedule=ScheduleSpec(kind)).to_dict())
    code = ("import sys\nfrom prunekit import checkpoint\n"
            "for path in sys.argv[1:]:\n    print(checkpoint.load(path).plan.schedule.kind)")
    src = str(Path(prunekit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code, *paths], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == list(BUILTIN_SCHEDULES)
