import numpy as np
import pytest

from prunekit import (LayerScores, enumerate_blocks, parse_granularity, pruned_count,
                      select_global, select_local, sparsity_of, Rng)

from test_granularity import index_gather


def singleton_layer(scores, position=0):
    """One block per score. `position` is ignored: selection orders layers by
    their place in the list it is given."""
    scores = np.asarray(scores, dtype=float)
    part = enumerate_blocks(parse_granularity("weight", 2), (len(scores), 1))
    return LayerScores(partition=part, block_scores=scores)


def bruteforce_masks(layer_scores, sparsity, context):
    """Independent oracle: full sort of (score, position) pairs."""
    if context == "local":
        masks = []
        for layer in layer_scores:
            k = int(np.floor(len(layer.block_scores) * sparsity / 100.0))
            ranked = sorted(range(len(layer.block_scores)),
                            key=lambda i: (layer.block_scores[i], i))
            pruned = set(ranked[:k])
            masks.append(_blocks_to_mask(layer, pruned))
        return masks
    pairs = []
    for li, layer in enumerate(layer_scores):
        for bi, s in enumerate(layer.block_scores):
            pairs.append((s, li, bi))
    k = int(np.floor(len(pairs) * sparsity / 100.0))
    pruned_pairs = sorted(pairs, key=lambda p: (p[0], p[1], p[2]))[:k]
    pruned = {}
    for _, li, bi in pruned_pairs:
        pruned.setdefault(li, set()).add(bi)
    return [_blocks_to_mask(layer, pruned.get(li, set()))
            for li, layer in enumerate(layer_scores)]


def _blocks_to_mask(layer, pruned_blocks):
    mask = np.ones(int(np.prod(layer.partition.shape)))
    index = index_gather(layer.partition.spec, layer.partition.shape)
    for b in pruned_blocks:
        mask[index[b]] = 0.0
    return mask.reshape(layer.partition.shape)


@pytest.mark.parametrize("n,s,expected", [(10, 50, 5), (3, 50, 1), (7, 0, 0), (7, 100, 7)])
def test_pruned_count(n, s, expected):
    assert pruned_count(n, s) == expected


def test_pruned_count_range():
    with pytest.raises(ValueError):
        pruned_count(5, 101)


def test_select_local_example():
    [mask] = select_local([singleton_layer([3, 1, 2, 4])], 50)
    np.testing.assert_array_equal(mask.ravel(), [1, 0, 0, 1])


def test_select_local_zero_sparsity():
    masks = select_local([singleton_layer([1, 2]), singleton_layer([3, 4], 1)], 0)
    for m in masks:
        assert sparsity_of(m) == 0.0


def test_select_local_counts_per_layer():
    rng = Rng(0)
    layers = [singleton_layer(rng.normal(10)), singleton_layer(rng.normal(6), 1)]
    for s in (0, 10, 33, 50, 90, 100):
        masks = select_local(layers, s)
        for layer, m in zip(layers, masks):
            assert int((m == 0).sum()) == pruned_count(len(layer.block_scores), s)


def test_select_global_disjoint_ranges():
    layers = [singleton_layer([1, 2]), singleton_layer([3, 4], 1)]
    a, b = select_global(layers, 50)
    np.testing.assert_array_equal(a.ravel(), [0, 0])
    np.testing.assert_array_equal(b.ravel(), [1, 1])


def test_select_global_full():
    layers = [singleton_layer([1, 2]), singleton_layer([3, 4], 1)]
    for m in select_global(layers, 100):
        assert sparsity_of(m) == 1.0


def test_global_tie_break_by_position():
    layers = [singleton_layer([5.0, 5.0]), singleton_layer([5.0, 5.0], 1)]
    a, b = select_global(layers, 50)
    np.testing.assert_array_equal(a.ravel(), [0, 0])
    np.testing.assert_array_equal(b.ravel(), [1, 1])


def test_per_layer_examples():
    layers = [singleton_layer([1, 2, 3, 4]), singleton_layer([1, 2, 3, 4], 1)]
    a, b = select_local(layers, [0, 100])
    assert sparsity_of(a) == 0.0 and sparsity_of(b) == 1.0
    a, b = select_local(layers, [50, 25])
    assert int((a == 0).sum()) == 2 and int((b == 0).sum()) == 1
    # a list of equal targets gives the masks of that one target
    for m1, m2 in zip(select_local(layers, [50, 50]), select_local(layers, 50)):
        np.testing.assert_array_equal(m1, m2)


def test_per_layer_length_mismatch():
    with pytest.raises(ValueError):
        select_local([singleton_layer([1, 2])], [10, 20])


def random_instance(rng):
    n_layers = int(rng.integers(1, 5))
    layers = []
    for li in range(n_layers):
        n_blocks = int(rng.integers(1, 65))
        scores = rng.normal(n_blocks)
        # force ties in roughly half the instances
        if rng.uniform(0, 1) < 0.5 and n_blocks > 2:
            scores[: n_blocks // 2] = scores[0]
        layers.append(singleton_layer(scores, li))
    return layers


def test_oracle_equivalence():
    rng = Rng(42)
    for _ in range(60):
        layers = random_instance(rng)
        s = float(rng.uniform(0, 100))
        for ours, oracle in zip(select_local(layers, s), bruteforce_masks(layers, s, "local")):
            np.testing.assert_array_equal(ours, oracle)
        for ours, oracle in zip(select_global(layers, s), bruteforce_masks(layers, s, "global")):
            np.testing.assert_array_equal(ours, oracle)


def test_monotonicity_in_sparsity():
    rng = Rng(43)
    layers = random_instance(rng)
    prev = None
    for s in (0, 10, 25, 50, 75, 90, 100):
        cur = np.concatenate([m.ravel() for m in select_local(layers, s)])
        if prev is not None:
            assert np.all(cur <= prev)  # pruned set only grows
        prev = cur


def test_block_purity_structured():
    rng = Rng(44)
    shape = (3, 4, 2, 2)
    scores = rng.normal(shape)
    for alias in ("filter", "kernel", "channel", "shared_kernel"):
        spec = parse_granularity(alias, 4)
        part = enumerate_blocks(spec, shape)
        index = index_gather(spec, shape)
        layer = LayerScores(part, scores.ravel()[index].mean(axis=1))
        [mask] = select_local([layer], 50)
        vals = mask.ravel()[index]
        assert np.all(vals.min(axis=1) == vals.max(axis=1))


def _sparsity_for(n, k):
    """A sparsity whose floor rounding prunes exactly k of n blocks."""
    s = 100.0 * k / n
    while pruned_count(n, s) < k:
        s = np.nextafter(s, 101.0)
    assert pruned_count(n, s) == k
    return s


def _stable_sort_keep(scores, k):
    keep = np.ones(len(scores))
    keep[np.argsort(scores, kind="stable")[:k]] = 0.0
    return keep


def test_large_tie_heavy_selection_matches_stable_sort():
    """2*10^5 scores on a 1/64 grid, so the k-th score sits in long runs of ties."""
    rng = Rng(45)
    sizes = (120_000, 50_000, 30_000)
    scores = np.round(rng.normal(sum(sizes)) * 16) / 64
    n = len(scores)
    ranked = np.sort(scores, kind="stable")
    first = np.searchsorted(ranked, 0.0)
    run = np.searchsorted(ranked, 0.0, side="right") - first
    assert run > 1000
    layers = [singleton_layer(part, li)
              for li, part in enumerate(np.split(scores, np.cumsum(sizes)[:-1]))]
    for k in (0, 1, n - 1, n, first + run // 2):
        s = _sparsity_for(n, k)
        keep = np.concatenate([m.ravel() for m in select_global(layers, s)])
        np.testing.assert_array_equal(keep, _stable_sort_keep(scores, k))
        [mask] = select_local([singleton_layer(scores)], s)
        np.testing.assert_array_equal(mask.ravel(), _stable_sort_keep(scores, k))
        for layer, mask in zip(layers, select_local(layers, s)):
            expected = _stable_sort_keep(layer.block_scores, pruned_count(len(layer.block_scores), s))
            np.testing.assert_array_equal(mask.ravel(), expected)


def test_all_tied_cut_at_every_halving_boundary():
    """Every block ties, in a layer longer than the range that counting the ties
    halves down to, then a shorter one: cuts on either side of each halving
    boundary prune exactly the earliest k blocks."""
    sizes = (16_384, 5_000)
    layers = [singleton_layer(np.zeros(size), li) for li, size in enumerate(sizes)]
    n = sum(sizes)
    for k in (1, 4095, 4096, 4097, 8191, 8192, 8193, 16_383, 16_384, 16_385, n - 1):
        keep = np.concatenate([m.ravel() for m in select_global(layers, _sparsity_for(n, k))])
        np.testing.assert_array_equal(keep, _stable_sort_keep(np.zeros(n), k))


def _assert_matches_oracle(layers, sparsity):
    for ours, oracle in zip(select_global(layers, sparsity), bruteforce_masks(layers, sparsity, "global")):
        assert ours.shape == oracle.shape and ours.tobytes() == oracle.tobytes()


def test_tie_run_across_three_layers_prunes_earliest():
    """The run of scores tied at the cut starts in layer 0 and runs through layers 1
    and 2; only its earliest members are pruned, the rest are kept again."""
    layers = [singleton_layer([0.1, 0.5, 0.5]), singleton_layer([0.5, 0.5, 0.9], 1),
              singleton_layer([0.5, 0.0, 0.5, 0.7], 2)]
    n = sum(len(layer.block_scores) for layer in layers)
    for k in range(n + 1):
        _assert_matches_oracle(layers, _sparsity_for(n, k))
    a, b, c = select_global(layers, _sparsity_for(n, 5))  # 0.0, 0.1, then three of six 0.5 ties
    np.testing.assert_array_equal(a.ravel(), [0, 0, 0])
    np.testing.assert_array_equal(b.ravel(), [0, 1, 1])
    np.testing.assert_array_equal(c.ravel(), [1, 0, 1, 1])


@pytest.mark.parametrize("scores", [[[0.3, -1.0], [2.0, 0.3, 0.3]], [[0.5] * 3, [0.5] * 4, [0.5]]])
def test_selection_extremes_match_oracle(scores):
    """Every k from 0 to n, for distinct and for all-equal scores."""
    layers = [singleton_layer(s, li) for li, s in enumerate(scores)]
    n = sum(map(len, scores))
    for k in range(n + 1):
        _assert_matches_oracle(layers, _sparsity_for(n, k))


def test_signed_zeros_tie_at_the_cut():
    """0.0 and -0.0 compare equal, so they tie and the earlier position is pruned."""
    layers = [singleton_layer([0.0, 1.0, -0.0]), singleton_layer([-0.0, -1.0, 0.0], 1)]
    for k in range(7):
        _assert_matches_oracle(layers, _sparsity_for(6, k))
    a, b = select_global(layers, _sparsity_for(6, 3))
    np.testing.assert_array_equal(a.ravel(), [0, 1, 0])
    np.testing.assert_array_equal(b.ravel(), [1, 0, 1])


@pytest.mark.parametrize("alias", ["weight", "kernel", "channel"])
def test_masks_are_fresh_float64_arrays(alias):
    """Every mask is its own writable, C-contiguous float64 array: no view of the
    scores or of another mask, at one weight per block and above."""
    rng = Rng(46)
    parts = [enumerate_blocks(parse_granularity(alias, 4), shape)
             for shape in ((3, 4, 2, 2), (4, 2, 2, 2))]
    layers = [LayerScores(p, np.round(rng.normal(p.n_blocks) * 2) / 4) for p in parts]
    assert (parts[0].block_size == 1) == (alias == "weight")
    for select_fn in (select_global, select_local):
        masks = select_fn(layers, 60.0)
        for i, (mask, part) in enumerate(zip(masks, parts)):
            assert mask.dtype == np.float64 and mask.shape == part.shape
            assert mask.flags.writeable and mask.flags.c_contiguous
            assert not any(np.shares_memory(mask, layer.block_scores) for layer in layers)
            assert not any(np.shares_memory(mask, other) for other in masks[i + 1:])


def _tied_at_extreme(rng, sizes, tie, run):
    """Layers whose blocks tie, in runs of `run`, at 0 below every other score
    ("min", as dead units and pruned weights score) or at 10 above every other
    score ("max"), three runs of every five."""
    layers = []
    for li, size in enumerate(sizes):
        scores = np.abs(rng.normal(size)) + 0.5
        scores[np.arange(size) // run % 5 < 3] = 0.0 if tie == "min" else 10.0
        layers.append(singleton_layer(scores, li))
    return layers


@pytest.mark.parametrize("tie", ["min", "max"])
def test_over_half_tied_at_an_extreme_match_oracle(tie):
    """Every k, global and local, when over half the blocks tie at the lowest or
    at the highest score."""
    layers = _tied_at_extreme(Rng(47), (13, 21, 8), tie, run=2)
    n = sum(len(layer.block_scores) for layer in layers)
    for k in range(n + 1):
        s = _sparsity_for(n, k)
        _assert_matches_oracle(layers, s)
        for ours, oracle in zip(select_local(layers, s), bruteforce_masks(layers, s, "local")):
            assert ours.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("tie", ["min", "max"])
def test_large_over_half_tied_at_an_extreme_matches_stable_sort(tie):
    """6*10^4 blocks, 60% tied in runs of 64 at the lowest or the highest score:
    the cut inside the tied run, just past it and at either end."""
    layers = _tied_at_extreme(Rng(48), (30_000, 20_000, 10_000), tie, run=64)
    scores = np.concatenate([layer.block_scores for layer in layers])
    n = len(scores)
    for k in (1, n // 3, 2 * n // 3, n - 1):
        s = _sparsity_for(n, k)
        keep = np.concatenate([m.ravel() for m in select_global(layers, s)])
        np.testing.assert_array_equal(keep, _stable_sort_keep(scores, k))
        for layer, mask in zip(layers, select_local(layers, s)):
            expected = _stable_sort_keep(layer.block_scores, pruned_count(len(layer.block_scores), s))
            np.testing.assert_array_equal(mask.ravel(), expected)
