"""Pruning granularities: which axes a removable block spans.

A granularity is a subset of a weight tensor's axes. A block is the set
of positions obtained by fixing the remaining (indexed) axes and letting
the spanned axes run free. The empty span is unstructured (single
weights); spanning every axis makes the whole layer one block.

Conv weights follow the [I, O, Kx, Ky] axis order, dense weights [I, O].
"""

from dataclasses import dataclass, field
from itertools import combinations
import math

import numpy as np

ALIASES_RANK4 = {
    "weight": frozenset(),
    "row": frozenset({3}),
    "kernel": frozenset({2, 3}),
    "filter": frozenset({1, 2, 3}),
    "shared_weight": frozenset({0}),
    "channel": frozenset({1}),
    "horizontal_slice": frozenset({1, 3}),
    "shared_kernel": frozenset({0, 2, 3}),
}

ALIASES_RANK2 = {
    "weight": frozenset(),
    "column": frozenset({0}),
    "row": frozenset({1}),
}

_ALIASES = {2: ALIASES_RANK2, 4: ALIASES_RANK4}


@dataclass(frozen=True)
class BlockPartition:
    """Blocks of a `shape` tensor under the granularity `spec`, the set of
    axes they span: rows(a) is a transpose + reshape, one row per block,
    lexicographic over the indexed axes; no index array is built. The axis
    order and the counts are computed once, when the partition is made."""
    spec: frozenset
    shape: tuple
    _order: list = field(init=False, repr=False, compare=False)  # indexed axes, then spanned
    n_blocks: int = field(init=False, repr=False, compare=False)
    block_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape, spec = self.shape, self.spec
        object.__setattr__(self, "_order", sorted(range(len(shape)), key=lambda ax: ax in spec))
        object.__setattr__(self, "n_blocks",
                           math.prod(s for ax, s in enumerate(shape) if ax not in spec))
        object.__setattr__(self, "block_size", math.prod(shape[ax] for ax in spec))

    def rows(self, a: np.ndarray) -> np.ndarray:
        """[n_blocks, block_size] view (or reshape copy) of `a` in C order; row
        means add in gather order, in an order set by that memory layout. The
        rows are C-contiguous where the spanned axes are the trailing ones or
        the reshape copies; some other spans give a strided, F-ordered view,
        e.g. {0} at shape (16, 12, 3, 5). aggregate_scores sums short
        C-contiguous rows one block column at a time, to the bytes of numpy's
        mean(axis=1) of the same rows."""
        return np.ascontiguousarray(a).transpose(self._order).reshape(self.n_blocks, self.block_size)

    def unrows(self, rows: np.ndarray) -> np.ndarray:
        """Inverse of rows: a C-contiguous `shape` array of rows' dtype, block i = rows[i]
        (broadcast). With one weight per block it is rows reshaped, a view where that
        view is C-contiguous. Under trailing spanned axes, one column of rows is
        np.repeat-ed block_size times, the bytes of the broadcast copy."""
        if self.block_size == 1:  # every spanned axis has length 1: the transpose moves nothing
            out = rows.reshape(self.shape)
            return out if out.flags.c_contiguous else out.copy()
        if rows.shape == (self.n_blocks, 1) and self._order == sorted(self._order):  # trailing span
            return np.repeat(rows, self.block_size).reshape(self.shape)
        order = self._order
        split = np.broadcast_to(rows, (self.n_blocks, self.block_size))
        split = split.reshape([self.shape[ax] for ax in order]).transpose(np.argsort(order))
        return np.array(split, order="C")


def parse_granularity(name_or_axes, rank: int) -> frozenset:
    """The spanned axes, at `rank`, of an alias string, a comma-separated
    axis string, or an axis iterable."""
    if rank not in (2, 4):
        raise ValueError(f"unsupported rank {rank}: expected 2 or 4")
    if isinstance(name_or_axes, str):
        name = name_or_axes.strip()
        if name in _ALIASES[rank]:
            return _ALIASES[rank][name]
        if name in _ALIASES[6 - rank]:
            raise ValueError(f"granularity {name!r} is not defined for rank {rank}")
        try:
            axes = frozenset(int(tok) for tok in name.split(",") if tok.strip() != "")
        except ValueError:
            raise ValueError(f"unknown granularity {name!r} for rank {rank}") from None
    else:
        axes = frozenset(int(a) for a in name_or_axes)
    if any(a < 0 or a >= rank for a in axes):
        raise ValueError(f"granularity axes {sorted(axes)} out of range for rank {rank}")
    return axes


def all_specs(rank: int):
    """Every distinct granularity for the rank, as spanned axes (16 for rank 4, 4 for rank 2)."""
    for k in range(rank + 1):
        for axes in combinations(range(rank), k):
            yield frozenset(axes)


def enumerate_blocks(granularity, shape) -> BlockPartition:
    """Partition `shape` into blocks under `granularity`, anything
    parse_granularity takes, resolved at len(shape), in the reproducible
    BlockPartition order."""
    shape = tuple(int(s) for s in shape)
    return BlockPartition(parse_granularity(granularity, len(shape)), shape)


# Longest block whose C-contiguous float64 rows are summed one block column at
# a time: numpy's mean(axis=1) pays its per-row loop cost once per block, 2.5-7x
# the column sums' time at 3-12 weights, while at 16 the two about break even.
_SHORT_BLOCK = 16
# Bytes of rows summed per pass, so that the column passes after the first
# read the chunk from cache: 8192 rows of 16 weights.
_CHUNK_BYTES = 1 << 20


def aggregate_scores(scores: np.ndarray, partition: BlockPartition,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Per-block score = mean of member scores, in partition block order,
    written into `out` (n_blocks long) where given. With one weight per block
    and no `out`, the scores themselves are returned, flattened. Blocks of at
    most 16 float64 weights in C-contiguous rows are summed one block column
    at a time, in numpy's own pairwise order, so that every mean has the
    bytes of `partition.rows(scores).mean(axis=1)`; longer blocks and
    F-ordered rows, which numpy sums in another order, are left to that mean."""
    if tuple(scores.shape) != partition.shape:
        raise ValueError(f"shape mismatch: scores {scores.shape}, partition {partition.shape}")
    if partition.block_size == 1 and out is None:  # the mean of one value is that value
        return scores.reshape(-1)
    rows = partition.rows(scores)
    if (0 < partition.block_size <= _SHORT_BLOCK and rows.flags.c_contiguous
            and rows.dtype == np.float64
            and (out is None or (out.dtype == np.float64 and out.shape == (len(rows),)))):
        return _short_means(rows, np.empty(len(rows)) if out is None else out)
    return rows.mean(axis=1, out=out)


def _short_means(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = rows.mean(axis=1) byte for byte, one add per block column and
    chunk. numpy's pairwise sum adds fewer than 8 values one after another;
    from 8 on it keeps 8 accumulators, r_j starting at value j and adding
    every 8th value after it while a whole group of 8 remains, combines them
    as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and adds the rest one
    at a time. The reduction adds that sum to +0.0, and the mean divides it
    by the block size."""
    size = rows.shape[1]
    whole = size - size % 8  # values that go to the 8 accumulators
    step = max(1, _CHUNK_BYTES // rows.strides[0])
    for start in range(0, len(rows), step):
        r, o = rows[start:start + step], out[start:start + step]
        if size < 8:  # +0.0 first or last gives the same bytes
            np.add(r[:, 0], 0.0, out=o)
            for j in range(1, size):
                np.add(o, r[:, j], out=o)
        else:
            acc = r[:, :8]
            for j in range(8, whole, 8):
                acc = acc + r[:, j:j + 8]
            t, u = np.empty(len(o)), np.empty(len(o))
            np.add(acc[:, 0], acc[:, 1], out=o)
            # numpy 2.4's compiled loop (x86-64) adds this pair as r3 + r2,
            # which shows only in which of two NaNs the sum keeps
            np.add(acc[:, 3], acc[:, 2], out=t)
            np.add(o, t, out=o)
            np.add(acc[:, 4], acc[:, 5], out=t)
            np.add(acc[:, 6], acc[:, 7], out=u)
            np.add(t, u, out=t)
            np.add(o, t, out=o)
            for j in range(whole, size):
                np.add(o, r[:, j], out=o)
            np.add(o, 0.0, out=o)
        np.divide(o, size, out=o)
    return out
