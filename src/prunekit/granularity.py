"""Pruning granularities: which axes a removable block spans.

A granularity is a subset of a weight tensor's axes. A block is the set
of positions obtained by fixing the remaining (indexed) axes and letting
the spanned axes run free. The empty span is unstructured (single
weights); spanning every axis makes the whole layer one block.

Conv weights follow the [I, O, Kx, Ky] axis order, dense weights [I, O].
"""

from dataclasses import dataclass
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
    lexicographic over the indexed axes; no index array is built."""
    spec: frozenset
    shape: tuple

    @property
    def _order(self) -> list:  # the indexed axes, then the spanned axes
        return sorted(range(len(self.shape)), key=lambda ax: ax in self.spec)

    @property
    def n_blocks(self) -> int:
        return math.prod(s for ax, s in enumerate(self.shape) if ax not in self.spec)

    @property
    def block_size(self) -> int:
        return math.prod(self.shape[ax] for ax in self.spec)

    def rows(self, a: np.ndarray) -> np.ndarray:
        """[n_blocks, block_size] view (or reshape copy) of `a`; row means add in gather order."""
        return np.ascontiguousarray(a).transpose(self._order).reshape(self.n_blocks, self.block_size)

    def unrows(self, rows: np.ndarray) -> np.ndarray:
        """Inverse of rows: a C-contiguous `shape` array of rows' dtype, block i = rows[i]
        (broadcast). With one weight per block it is rows reshaped, a view where no copy is
        needed."""
        if self.block_size == 1:  # every spanned axis has length 1: the transpose moves nothing
            return np.asarray(rows.reshape(self.shape), order="C")
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


def aggregate_scores(scores: np.ndarray, partition: BlockPartition) -> np.ndarray:
    """Per-block score = mean of member scores, in partition block order."""
    if tuple(scores.shape) != partition.shape:
        raise ValueError(f"shape mismatch: scores {scores.shape}, partition {partition.shape}")
    if partition.block_size == 1:  # the mean of one value is that value
        return scores.reshape(-1)
    return partition.rows(scores).mean(axis=1)
