import base64
import json

import numpy as np
import pytest

from prunekit import Model, Rng, Sparsifier, checkpoint
from prunekit.cli import main


def canonical(text):
    return json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def one_shot_text(model, rewind_snapshot=None, plan=None, metrics_tail=None, meta=None):
    """The checkpoint document as one json.dumps call, arrays base64-encoded
    here: float64 bytes, or for a mask one bit per entry, in C order. A
    masked layer's weights keep only the entries its mask keeps when every
    other entry is zero."""
    def array(a, mask=None):
        if a is None:
            return None
        values = list(np.asarray(a, dtype="<f8").ravel())
        if mask is not None:
            pairs = list(zip(values, mask.ravel()))
            if all(v == 0 for v, m in pairs if m == 0):  # NaN != 0
                values = [v for v, m in pairs if m == 1]
        data = base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode()
        return {"shape": list(a.shape), "data": data}

    def mask(m):
        if m is None:
            return None
        bits = "".join("1" if v == 1 else "0" for v in m.ravel())
        bits += "0" * (-len(bits) % 8)
        packed = bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))
        return {"shape": list(m.shape), "bits": base64.b64encode(packed).decode()}

    layers = []
    for layer in model.layers:
        entry = {"spec": layer.spec(), "weights": array(layer.weights, getattr(layer, "mask", None)),
                 "bias": None if layer.bias is None or layer.weights is None
                         else array(layer.bias)}
        if layer.prunable:
            entry["mask"] = mask(layer.mask)
            entry["history"] = array(layer.history)
        layers.append(entry)
    doc = {"format_version": checkpoint.FORMAT_VERSION, "layers": layers,
           "rewind_snapshot": None if rewind_snapshot is None else
           [{"weights": array(w), "bias": array(b)} for w, b in rewind_snapshot],
           "plan": plan, "metrics_tail": metrics_tail or [], "meta": meta or {}}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


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
    "snapshot_empty": lambda: (conv_relu_flatten(), {"rewind_snapshot": []}),
    "snapshot": lambda: (lambda m: (m, {"rewind_snapshot": snapshot_of(m)}))(conv_relu_flatten()),
    "nested_plan_meta_metrics": lambda: (conv_relu_flatten(), {
        "plan": {"sparsity": [10.0, 20.5], "schedule": {"kind": "gradual", "alpha": None},
                 "context": "global"},
        "meta": {"seed": 3, "name": "x", "nested": {"b": [1, {"z": 0.1, "a": True}]}},
        "metrics_tail": [(0, 1, 0.25, 1e-300, 50.0), (0, 2, 1 / 3, 2.0, 50.0)]}),
    "non_finite_weights": lambda: (non_finite(), {"meta": {"aborted": True}}),
    # 8 bytes a weight: sizes 0, 2 and 1 mod 3 end their base64 in no, one and two "=";
    # their masks take 1 byte, the first 3, 4 and 5 bits set
    "pad_none": lambda: (dense_of(3), {}),
    "pad_one": lambda: (dense_of(4), {}),
    "pad_two": lambda: (dense_of(5), {}),
}


@pytest.mark.parametrize("case", CASES)
def test_save_writes_canonical_json(tmp_path, case):
    model, kwargs = CASES[case]()
    path = tmp_path / "ckpt.json"
    checkpoint.save(path, model, **kwargs)
    text = path.read_text()
    assert text == canonical(text)
    assert text == one_shot_text(model, **kwargs)


def test_non_finite_weights_round_trip(tmp_path):
    model = non_finite()
    path = tmp_path / "ckpt.json"
    checkpoint.save(path, model)

    def no_constants(name):
        raise AssertionError(f"non-standard JSON constant {name} in the file")

    json.loads(path.read_text(), parse_constant=no_constants)
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
    """Masks of every size mod 8, packed into 1-3 bytes (every base64 padding),
    load back bit-exact, and a save of the loaded model writes the same bytes."""
    model = dense_of(size, (Rng(size).normal((1, size)) > 0).astype(float))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    checkpoint.save(a, model)
    assert a.read_text() == one_shot_text(model)
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
    refuse, so save refuses it before the file is opened."""
    model = Model.from_specs([{"kind": "dense", "in": 2, "out": 3}, {"kind": "relu"}])
    path = tmp_path / "ckpt.json"
    with pytest.raises(ValueError) as err:
        checkpoint.save(path, model)
    assert str(err.value) == "layers[0].weights: None: the model was never initialized"
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
    """The decoded bytes of layer `layer`'s weights.data in the file at path."""
    return base64.b64decode(json.loads(path.read_text())["layers"][layer]["weights"]["data"])


@pytest.mark.parametrize("granularity", ["weight", "kernel"])
def test_kept_only_weights_round_trip(tmp_path, granularity):
    """A pruned layer stores only the weights its mask keeps, and loads them
    back in place, +0.0 everywhere else; a save of the loaded model writes
    the same bytes."""
    model = pruned_model(granularity)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    checkpoint.save(a, model)
    assert a.read_text() == one_shot_text(model)
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
    assert path.read_text() == one_shot_text(model)
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
    assert path.read_text() == one_shot_text(model)
    assert stored_bytes(path, 0) == model.layers[0].weights.astype("<f8").tobytes()
    assert checkpoint.load(path).model.layers[0].weights.tobytes() == model.layers[0].weights.tobytes()


@pytest.mark.parametrize("change", [-8, 8], ids=["short", "long"])
def test_kept_only_weights_of_the_wrong_length_exit_1(tmp_path, monkeypatch, capsys, change):
    """Kept-only data one float64 short or long matches neither count: both
    readers exit 1 naming the field, and write nothing."""
    monkeypatch.setenv("PRUNEKIT_OUTPUT_ROOT", str(tmp_path))
    model = pruned_model("weight")
    path = tmp_path / "ckpt.json"
    checkpoint.save(path, model)
    raw = stored_bytes(path, 2)
    doc = json.loads(path.read_text())
    doc["layers"][2]["weights"]["data"] = base64.b64encode(
        raw[:change] if change < 0 else raw + raw[:change]).decode()
    path.write_text(json.dumps(doc))
    kept = np.count_nonzero(model.layers[2].mask)
    for command in (["inspect", str(path)], ["prune", str(path), "--sparsity", "70"]):
        assert main(command) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: layers[2].weights: corrupt array: {8 * kept + change} "
                                f"bytes for {kept} kept or 14 float64\n")
        assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == [path]


def test_format_3_is_refused(tmp_path, capsys):
    """A format-3 file, whose masked weights hold every entry, is not read."""
    path = tmp_path / "ckpt.json"
    checkpoint.save(path, conv_relu_flatten())
    doc = json.loads(path.read_text())
    doc["format_version"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="^unsupported checkpoint format_version 3$"):
        checkpoint.load(path)
    assert main(["inspect", str(path)]) == 1
    assert capsys.readouterr().err == "error: unsupported checkpoint format_version 3\n"


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
