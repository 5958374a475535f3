"""benchmarks/harness.py: round order, the rounds, timing and quartile
helpers, the checks on --rounds and --baseline, and how runs are merged
into a benchmark's JSON file; benchmarks/code_lines.py's count; and
bench_kernels.py's refusal of a baseline whose kernel bytes differ."""

import importlib.util
import json
import os
import shutil
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "harness.py"
_SPEC = importlib.util.spec_from_file_location("harness", _PATH)
harness = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(harness)


def test_two_trees_alternate_round_by_round():
    trees = [("new", 1), ("base", 2)]
    assert [label for label, _ in harness.alternate(trees, 3)] == [
        "new", "base", "base", "new", "new", "base"]
    assert list(harness.alternate(trees[:1], 2)) == [("new", 1), ("new", 1)]


@pytest.mark.parametrize("argv, message", [
    (["--rounds", "0"], "--rounds must be at least 1"),
    (["--baseline", "src"], "--baseline takes LABEL=DIR"),
    (["--baseline", "=src"], "--baseline takes LABEL=DIR"),
    (["--baseline", "new=src"], "with LABEL other than --label"),
])
def test_bad_rounds_or_baseline_exit_2(argv, message, capsys):
    parser = harness.argument_parser("doc", "BENCH_x.json", rounds_help="rounds")
    args = parser.parse_args(["--label", "new"] + argv)
    with pytest.raises(SystemExit) as exc:
        harness.trees(parser, args)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_write_runs_keeps_other_labels_and_pairs_both_ways(tmp_path, capsys):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"about": "old", "runs": {"old": {"cases": [1]},
                                                        "new": {"cases": [2]}}}))
    harness.write_runs(out, "now", {"new": {"cases": [3]}, "base": {"cases": [4]}})
    assert json.loads(out.read_text()) == {"about": "now", "runs": {
        "old": {"cases": [1]},
        "new": {"cases": [3], "paired_with": "base"},
        "base": {"cases": [4], "paired_with": "new"}}}
    harness.write_runs(out, "now", {"single": {"cases": [5]}})
    runs = json.loads(out.read_text())["runs"]
    assert runs["single"] == {"cases": [5]} and set(runs) == {"old", "new", "base", "single"}
    assert out.read_text().endswith("}\n")


def test_env_record_names_the_allocator_settings(monkeypatch):
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "8000000")
    monkeypatch.setenv("MALLOC_ARENA_MAX", "2")
    env = harness.env_record()
    assert env["malloc_env"] == {"MALLOC_ARENA_MAX": "2", "MALLOC_TRIM_THRESHOLD_": "8000000"}
    assert "libc" in env
    json.dumps(env)  # every value is a JSON value


@pytest.mark.parametrize("trees, want", [
    ([("new", 1)], {"new": [("new", 1, 0), ("new", 1, 1), ("new", 1, 2)]}),
    ([("new", 1), ("base", 2)], {"new": [("new", 1, 0), ("new", 1, 3), ("new", 1, 4)],
                                 "base": [("base", 2, 1), ("base", 2, 2), ("base", 2, 5)]}),
])
def test_rounds_gives_each_tree_its_results_in_alternate_order(trees, want):
    calls = []

    def run(label, tree):
        calls.append(label)
        return label, tree, len(calls) - 1

    assert harness.rounds(trees, 3, run) == want
    assert calls == [label for label, _ in harness.alternate(trees, 3)]


def test_timed_times_reps_calls_after_one_untimed_call():
    calls = []
    times = harness.timed(lambda: calls.append(1), 4)
    assert len(calls) == 5 and len(times) == 4
    assert all(isinstance(t, float) and t >= 0 for t in times)


def test_quartiles_of_one_and_several_values_scaled():
    assert harness.quartiles([0.002], 1e3) == (2.0, 2.0, 2.0)
    assert harness.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert harness.quartiles([1.0, 2.0, 3.0, 4.0, 5.0], 2.0) == (3.0, 6.0, 9.0)


def test_code_lines_counts_neither_blanks_comments_nor_docstrings(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("code_lines", _PATH.parent / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    snippet = tmp_path / "snippet.py"
    snippet.write_text('''"""A module
docstring."""
import os  # a comment

# a comment line


def f(x):
    """One line."""
    text = """two
lines"""
    return (x +
            1)


class C:
    "a"  "b"
''')
    # the import, the def, the two lines of the assigned string, the
    # return's two lines and the class line
    assert code_lines.count(snippet) == 7
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"     7  {snippet}", "     7  total"]


def test_bench_kernels_refuses_to_time_trees_whose_outputs_differ_in_bytes(
        tmp_path, monkeypatch):
    """A baseline whose conv2d_forward is one ulp off still agrees with the
    direct loops, but its bytes differ from the first tree's: the run exits
    naming the tree, the kernel and the shape, before any timing or write."""
    shutil.copytree(_PATH.parent.parent / "src" / "prunekit", tmp_path / "base" / "prunekit")
    with open(tmp_path / "base" / "prunekit" / "kernels.py", "a") as fh:
        fh.write("\n_forward = conv2d_forward\n\n\n"
                 "def conv2d_forward(x, w, b=None, return_columns=False):\n"
                 "    return np.nextafter(_forward(x, w, b), np.inf)\n")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    monkeypatch.syspath_prepend(str(_PATH.parent))
    spec = importlib.util.spec_from_file_location("bench_kernels", _PATH.parent / "bench_kernels.py")
    bench_kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_kernels)
    out = tmp_path / "BENCH_kernels.json"
    with pytest.raises(SystemExit) as exc:
        bench_kernels.main(["--label", "new", "--baseline", f"base={tmp_path / 'base'}",
                            "--reps", "2", "--out", str(out)])
    assert exc.value.code == "base: forward at conv_train_1 differs from new's output in its bytes"
    assert not out.exists()
