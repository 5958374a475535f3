import itertools
import math

import numpy as np
import pytest

from prunekit import (BlockPartition, Rng, aggregate_scores, all_specs, enumerate_blocks,
                      parse_granularity)
from prunekit.granularity import _CHUNK_BYTES, _SHORT_BLOCK


@pytest.mark.parametrize("name,rank,axes", [
    ("weight", 4, set()),
    ("row", 4, {3}),
    ("kernel", 4, {2, 3}),
    ("filter", 4, {1, 2, 3}),
    ("shared_weight", 4, {0}),
    ("channel", 4, {1}),
    ("horizontal_slice", 4, {1, 3}),
    ("shared_kernel", 4, {0, 2, 3}),
    ("weight", 2, set()),
    ("column", 2, {0}),
    ("row", 2, {1}),
])
def test_aliases(name, rank, axes):
    assert parse_granularity(name, rank) == frozenset(axes)


def test_parse_explicit_axes():
    assert parse_granularity("0,2", 4) == frozenset({0, 2})
    assert parse_granularity({1, 3}, 4) == frozenset({1, 3})


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_granularity("filter", 2)
    with pytest.raises(ValueError):
        parse_granularity("nonsense", 4)
    with pytest.raises(ValueError):
        parse_granularity({4}, 4)


def test_spec_counts():
    assert len(list(all_specs(4))) == 16
    assert len(list(all_specs(2))) == 4


def test_filter_blocks():
    part = enumerate_blocks(parse_granularity("filter", 4), (2, 3, 3, 3))
    assert part.n_blocks == 2 and part.block_size == 27


def test_weight_blocks_are_singletons():
    part = enumerate_blocks(parse_granularity("weight", 2), (2, 2))
    assert part.n_blocks == 4 and part.block_size == 1
    np.testing.assert_array_equal(part.rows(np.arange(4).reshape(2, 2)).ravel(), [0, 1, 2, 3])


def test_shared_kernel_blocks_match_bruteforce():
    shape = (2, 3, 2, 2)
    part = enumerate_blocks(parse_granularity("shared_kernel", 4), shape)
    assert part.n_blocks == 3 and part.block_size == 8
    # brute force: group every multi-index by its axis-1 coordinate
    groups = {o: [] for o in range(3)}
    for flat, idx in enumerate(itertools.product(*(range(s) for s in shape))):
        groups[idx[1]].append(flat)
    for o in range(3):
        assert sorted(part.rows(np.arange(24).reshape(shape))[o]) == groups[o]


def test_enumerate_blocks_resolves_a_granularity_at_the_shapes_rank():
    shape = (2, 3, 2, 2)
    expected = enumerate_blocks(parse_granularity("filter", 4), shape)
    for granularity in ("filter", "1,2,3", {1, 2, 3}, frozenset({1, 2, 3})):
        assert enumerate_blocks(granularity, shape) == expected
    assert enumerate_blocks("row", shape).spec == frozenset({3})
    assert enumerate_blocks("row", (2, 3)).spec == frozenset({1})


def test_rank_mismatch():
    with pytest.raises(ValueError):
        enumerate_blocks(parse_granularity("filter", 4), (2, 3))


def test_partition_properties_all_specs():
    rng = Rng(11)
    shapes = [tuple(int(v) for v in rng.integers(1, 5, 4) * [1, 1, 0, 0] + rng.integers(1, 4, 4) * [0, 0, 1, 1])
              for _ in range(20)]
    for shape in shapes:
        total = math.prod(shape)
        for spec in all_specs(4):
            part = enumerate_blocks(spec, shape)
            flat = np.sort(part.rows(np.arange(total).reshape(shape)).ravel())
            np.testing.assert_array_equal(flat, np.arange(total))  # disjoint + exhaustive
            assert part.n_blocks * part.block_size == total
            assert part.block_size == math.prod(shape[a] for a in spec)


def test_full_span_is_one_block():
    part = enumerate_blocks(parse_granularity({0, 1, 2, 3}, 4), (2, 2, 3, 3))
    assert part.n_blocks == 1 and part.block_size == 36


def test_aggregate_singletons():
    scores = np.array([[1.0, 2.0], [3.0, 4.0]])
    part = enumerate_blocks(parse_granularity("weight", 2), (2, 2))
    np.testing.assert_array_equal(aggregate_scores(scores, part), [1.0, 2.0, 3.0, 4.0])


def test_aggregate_mean():
    scores = np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 2)
    part = enumerate_blocks(parse_granularity({0, 1}, 2), (2, 2))
    np.testing.assert_array_equal(aggregate_scores(scores, part), [2.5])


def test_aggregate_constant_scores_spec_invariant():
    scores = np.full((2, 3, 2, 2), 7.0)
    for spec in all_specs(4):
        part = enumerate_blocks(spec, scores.shape)
        np.testing.assert_allclose(aggregate_scores(scores, part), 7.0)


def test_aggregate_shape_mismatch():
    part = enumerate_blocks(parse_granularity("weight", 2), (2, 2))
    with pytest.raises(ValueError):
        aggregate_scores(np.ones((3, 2)), part)


def index_gather(spec, shape):
    """Independent [n_blocks, block_size] flat-index array, as numpy's reshape lays it out."""
    indexed = [ax for ax in range(len(shape)) if ax not in spec]
    flat = np.arange(math.prod(shape)).reshape(shape)
    return flat.transpose(indexed + sorted(spec)).reshape(
        math.prod(shape[ax] for ax in indexed), -1)


@pytest.mark.parametrize("rank,shape", [(4, (16, 12, 3, 5)), (4, (1, 16, 3, 3)), (2, (40, 24))])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_reshape_rows_match_index_gather(rank, shape, layout):
    """For every spec -- spans that are not trailing (shared_weight, channel,
    horizontal_slice, column) included -- rows() holds the gathered rows,
    aggregate_scores is byte-equal to the mean of the gather, and unrows()
    inverts rows()."""
    scores = np.asarray(Rng(12).normal(shape), order=layout)
    specs = list(all_specs(rank))
    assert len(specs) == 2 ** rank
    for spec in specs:
        part = enumerate_blocks(spec, shape)
        index = index_gather(spec, shape)
        gathered = scores.ravel()[index]
        np.testing.assert_array_equal(part.rows(scores), gathered)
        np.testing.assert_array_equal(aggregate_scores(scores, part), gathered.mean(axis=1))
        np.testing.assert_array_equal(part.unrows(part.rows(scores)), scores)
        keep = (np.arange(part.n_blocks) % 3 != 0).astype(float)
        np.testing.assert_array_equal(part.unrows(keep[:, None]).ravel()[index],
                                      np.repeat(keep[:, None], part.block_size, axis=1))


@pytest.mark.parametrize("rank", [2, 4])
def test_c_and_f_order_scores_aggregate_to_the_same_bytes(rank):
    """For every spec, shapes with length-1 axes included, scores stored in
    C order and in F order aggregate to the same bytes."""
    for shape in itertools.product((1, 2, 3), repeat=rank):
        scores = Rng(15).normal(shape)
        for spec in all_specs(rank):
            part = enumerate_blocks(spec, shape)
            want = aggregate_scores(scores, part).tobytes()
            assert aggregate_scores(np.asfortranarray(scores), part).tobytes() == want


def _one_weight_shapes(rank):
    """(spec, shape) for every spec, each spanned axis of length 1, so every block holds one weight."""
    base = {2: (5, 3), 4: (3, 4, 2, 5)}[rank]
    for spec in all_specs(rank):
        yield spec, tuple(1 if ax in spec else s for ax, s in enumerate(base))
    if rank == 4:
        yield parse_granularity("shared_kernel", 4), (1, 4, 1, 1)
        yield parse_granularity({0, 1, 2, 3}, 4), (1, 1, 1, 1)


@pytest.mark.parametrize("rank", [2, 4])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_one_weight_blocks_match_gather_bitwise(rank, layout):
    """With one weight per block, aggregate_scores and unrows skip the mean and
    the transpose; their bytes equal the gather-and-mean path's, non-finite
    scores included. The one exception is -0.0, which the mean turns into +0.0;
    the two compare equal, so selection cannot tell them apart."""
    for spec, shape in _one_weight_shapes(rank):
        part = enumerate_blocks(spec, shape)
        assert part.block_size == 1
        scores = Rng(13).normal(shape)
        flat = scores.reshape(-1)
        flat[::3], flat[1::4], flat[2::5], flat[4::7] = -0.0, np.inf, -np.inf, np.nan
        scores = np.asarray(scores, order=layout)
        index = index_gather(spec, shape)
        want = scores.ravel()[index].mean(axis=1)
        got = aggregate_scores(scores, part)
        assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)
        assert got[want != 0].tobytes() == want[want != 0].tobytes()
        keep = Rng(14).normal(part.n_blocks)[:, None] > 0
        want = np.empty(shape, dtype=keep.dtype)
        want.ravel()[index.ravel()] = keep.ravel()
        got = part.unrows(keep)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            aggregate_scores(np.ones(shape + (1,)), part)


def test_partition_counts_are_stored_and_leave_equality_alone():
    """The axis order, n_blocks and block_size are stored when a partition is
    made, and only `spec` and `shape` take part in its equality and hash."""
    part = enumerate_blocks("kernel", (2, 3, 4, 5))
    assert {"_order", "n_blocks", "block_size"} <= vars(part).keys()
    assert (part.n_blocks, part.block_size, part._order) == (6, 20, [0, 1, 2, 3])
    assert part == BlockPartition(frozenset({2, 3}), (2, 3, 4, 5))
    assert hash(part) == hash(BlockPartition(frozenset({2, 3}), (2, 3, 4, 5)))
    assert repr(part) == "BlockPartition(spec=frozenset({2, 3}), shape=(2, 3, 4, 5))"


def test_one_weight_unrows_is_a_c_contiguous_reshape():
    """With one weight per block, unrows of C-contiguous rows is a view of them,
    and of strided rows a C-contiguous copy."""
    part = enumerate_blocks("weight", (3, 4))
    rows = np.arange(12.0)[:, None]
    got = part.unrows(rows)
    assert got.flags.c_contiguous and np.shares_memory(got, rows)
    strided = np.arange(24.0)[::2, None]
    got = part.unrows(strided)
    assert got.flags.c_contiguous and not np.shares_memory(got, strided)
    assert got.tobytes() == np.arange(0.0, 24.0, 2.0).reshape(3, 4).tobytes()


def _hard_rows(n, size, seed):
    """[n, size] scores whose sums depend on the order they are added in:
    magnitudes from 1e-300 to 1e300 with both signs, subnormals, +-0.0, +-inf
    and NaNs of both signs; every 11th row holds -0.0 only."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, size)) * 10.0 ** rng.integers(-300, 301, size=(n, size))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                        2.5e-320, -2.2e-308, 1e-300, 1e300, -1e300, 1.0])
    picked = rng.random((n, size)) < 0.2
    rows[picked] = rng.choice(special, size=int(picked.sum()))
    rows[::11] = -0.0
    return rows


@pytest.mark.parametrize("size", range(1, _SHORT_BLOCK + 5))
@pytest.mark.parametrize("layout", ["C", "F"])
def test_aggregate_is_numpys_row_mean_byte_for_byte(size, layout):
    """aggregate_scores has the bytes of numpy's mean(axis=1) of the same
    rows at every block size up to 4 past the longest one summed column by
    column, for C-contiguous rows ("row", the trailing axis) and F-ordered
    ones ("column", the leading axis), on inputs where the order of the adds
    shows, over more rows than one chunk holds. If a numpy release sums rows
    in another order, this fails. One weight per block and no `out` return
    the scores themselves, whose -0.0 the mean would turn into +0.0 (see
    test_one_weight_blocks_match_gather_bitwise)."""
    n = _CHUNK_BYTES // (8 * size) + 5
    spec = "row" if layout == "C" else "column"
    for seed in range(3):
        scores = _hard_rows(n, size, seed)
        if layout == "F":
            scores = np.ascontiguousarray(scores.T)
        part = enumerate_blocks(spec, scores.shape)
        rows = part.rows(scores)
        assert rows.flags.c_contiguous if layout == "C" else rows.flags.f_contiguous
        with np.errstate(all="ignore"):
            want = rows.mean(axis=1).tobytes()
            if size > 1:
                assert aggregate_scores(scores, part).tobytes() == want
            out = np.full(part.n_blocks, 7.0)
            assert aggregate_scores(scores, part, out=out) is out and out.tobytes() == want


@pytest.mark.parametrize("rank,shape", [(2, (5, 3)), (2, (1, 4)), (4, (3, 4, 2, 5)),
                                        (4, (2, 1, 3, 1))])
def test_trailing_span_unrows_is_the_broadcast_copy(rank, shape):
    """Under every trailing span, unrows of one column per block equals the
    C-contiguous copy of that column broadcast over each block, in dtype
    and bytes."""
    for k in range(rank + 1):
        part = enumerate_blocks(range(rank - k, rank), shape)
        for keep in (np.arange(part.n_blocks) % 3 != 0, Rng(16).normal(part.n_blocks)):
            want = np.broadcast_to(keep[:, None], (part.n_blocks, part.block_size))
            want = np.array(want.reshape(shape), order="C")
            got = part.unrows(keep[:, None])
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
