"""perfbench patches prunekit by attribute name, and its tracer skips a name
that no longer exists, so a rename would zero a per-module metric without
an error. These tests fail instead."""

from pathlib import Path
import types

import prunekit
import prunekit.cli
from prunekit import Model, Rng, Sparsifier, checkpoint
from prunekit import sparsifier as sparsifier_module

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"
# stale probes, listed in ROADMAP item 10: both name code that is gone
STALE = {("prunekit.cli", "enumerate_blocks"), ("prunekit.sparsifier", "apply_mask")}
MLP = [{"kind": "dense", "in": 2, "out": 4}, {"kind": "relu"}, {"kind": "dense", "in": 4, "out": 2}]


def load_probes():
    """perfbench/probes.py executed from its source, writing no bytecode beside it."""
    module = types.ModuleType("probes")
    exec(compile(PROBES.read_text(), str(PROBES), "exec"), module.__dict__)
    return module


def owner_name(owner) -> str:
    return owner.__name__ if isinstance(owner, types.ModuleType) else owner.__qualname__


def test_every_probe_target_resolves():
    targets = load_probes().targets(prunekit, True)
    missing = [(owner_name(owner), attr) for owner, attr, *_ in targets
               if not hasattr(owner, attr)]
    assert sorted(missing) == sorted(STALE)


def test_mask_update_looks_up_the_probed_names(monkeypatch):
    """Sparsifier reaches compute_masks, and compute_masks each phase, through
    prunekit.sparsifier's globals, where perfbench's spans patch them."""
    calls = []
    for name in ("compute_masks", "enumerate_blocks", "score", "aggregate_scores", "select"):
        def counted(*args, _name=name, _orig=getattr(sparsifier_module, name), **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(sparsifier_module, name, counted)
    Sparsifier(Model.from_specs(MLP, Rng(0)), "row", "global", "large_final").prune_model(50)
    assert sorted(set(calls)) == sorted({"compute_masks", "enumerate_blocks", "score",
                                         "aggregate_scores", "select"})
    assert calls.count("score") == calls.count("enumerate_blocks") == 2


def test_commands_look_up_the_probed_names(tmp_path, monkeypatch):
    """main finds cmd_<command> in prunekit.cli's globals at each call, so
    the cli.prune and cli.inspect spans that perfbench patches in after the
    parser was built still see every command."""
    src, out = tmp_path / "dense.json", tmp_path / "pruned.json"
    checkpoint.save(src, Model.from_specs(MLP, Rng(0)))
    assert prunekit.cli.main(["inspect", str(src)]) == 0
    calls = []
    for name in ("cmd_inspect", "cmd_prune"):
        def counted(args, _name=name, _orig=getattr(prunekit.cli, name)):
            calls.append(_name)
            return _orig(args)
        monkeypatch.setattr(prunekit.cli, name, counted)
    assert prunekit.cli.main(["inspect", str(src)]) == 0
    assert prunekit.cli.main(["prune", str(src), "--sparsity", "50", "--out", str(out)]) == 0
    assert calls == ["cmd_inspect", "cmd_prune"]
