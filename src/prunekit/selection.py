"""Turn per-block scores into binary masks under local or global context.

Every layer's block scores sit in one flat array, layer after layer
(BlockScores); a list of LayerScores is joined into one. Rounding is floor
(never overshoot the requested sparsity). np.partition of the negated flat
array finds the k-th lowest score in O(n); one comparison per layer then
writes its float64 keep-mask, pruning every block at or below that score.
Only when a tie straddles the cut (a block past the first k of the partition
also scores the k-th score) are the tied blocks after the earliest ones kept
again, in layer-then-block order: counting the flat tie flags in halving
ranges finds the last pruned one, and one comparison from just past it keeps
the rest. So masks are deterministic: the first k of a stable sort of
(score, layer, block). Every mask is a new array: under one weight per block
the comparison is written in the layer's shape, otherwise it is broadcast
over each block's weights.
"""

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .granularity import BlockPartition

CONTEXTS = ("local", "global")
_SPAN = 4096  # _past_nth's last range: below it, halving steps cost more than they save


@dataclass(frozen=True)
class ContextSpec:
    kind: str

    def __post_init__(self):
        if self.kind not in CONTEXTS:
            raise ValueError(f"unknown context {self.kind!r}; expected one of {CONTEXTS}")


@dataclass(frozen=True)
class LayerScores:
    partition: BlockPartition
    block_scores: np.ndarray


def pruned_count(n_blocks: int, sparsity: float) -> int:
    if not 0 <= sparsity <= 100:
        raise ValueError(f"sparsity {sparsity} out of [0, 100]")
    return int(np.floor(n_blocks * sparsity / 100.0))


class BlockLayout:
    """Where each layer of a list sits in one flat array of block scores:
    layer i's blocks at [starts[i], starts[i + 1])."""

    def __init__(self, partitions):
        self.partitions = tuple(partitions)
        self.starts = (0, *accumulate(p.n_blocks for p in self.partitions))
        self.one_weight_blocks = all(p.block_size == 1 for p in self.partitions)


class BlockScores:
    """The block scores of a list of layers, one flat array laid out by `layout`."""

    def __init__(self, layout: BlockLayout, scores: np.ndarray):
        self.layout, self.scores = layout, scores

    @classmethod
    def join(cls, layers: list[LayerScores]) -> "BlockScores":
        """The concatenation of each layer's block scores."""
        return cls(BlockLayout(layer.partition for layer in layers),
                   np.concatenate([layer.block_scores for layer in layers] or [np.empty(0)]))

    def __iter__(self):
        """Each layer's LayerScores, its block scores a view of the flat array."""
        starts = self.layout.starts
        for part, start, end in zip(self.layout.partitions, starts, starts[1:]):
            yield LayerScores(part, self.scores[start:end])


def select_local(layers, sparsity, scratch: np.ndarray | None = None) -> list[np.ndarray]:
    """Per layer independently, prune the lowest-scoring blocks of `layers`, a
    BlockScores or a list of LayerScores: `sparsity` is every layer's target,
    or a list of one target per layer."""
    layers = list(layers)
    if not isinstance(sparsity, (list, tuple)):
        sparsity = [sparsity] * len(layers)
    elif len(sparsity) != len(layers):
        raise ValueError(f"per-layer list length {len(sparsity)} != layer count {len(layers)}")
    return [_select(layer.block_scores, (layer.partition,), (0, len(layer.block_scores)), s,
                    scratch)[0] for layer, s in zip(layers, sparsity)]


def select_global(layers, sparsity: float, scratch: np.ndarray | None = None) -> list[np.ndarray]:
    """Prune the lowest-scoring blocks over all of `layers`, a BlockScores or a
    list of LayerScores, which is joined into one. `scratch`, at least as long
    as the blocks, holds the partitioned copy of their scores instead of a new
    array; the masks are new arrays either way."""
    if not isinstance(layers, BlockScores):
        layers = BlockScores.join(layers)
    return _select(layers.scores, layers.layout.partitions, layers.layout.starts, sparsity,
                   scratch)


def _select(scores: np.ndarray, partitions, starts, sparsity,
            scratch: np.ndarray | None) -> list[np.ndarray]:
    """The masks of the layers whose blocks `scores` holds, layer i's at
    [starts[i], starts[i + 1]), pruned together to `sparsity`."""
    # Negated, the k lowest scores are the k highest values, from n - k on. numpy
    # 2.x's quickselect makes no progress while its pivot is the minimum of its
    # range, and sorts the range after ~2 log2(n) wasted passes: the lowest
    # score is the one many blocks share, as pruned weights and dead units
    # score 0. Ties at the maximum cost it nothing.
    n = len(scores)
    flipped = np.negative(scores, out=np.empty(n) if scratch is None else scratch[:n])
    k = pruned_count(n, sparsity)
    if k:
        flipped.partition(n - k)  # in place: positions are read from `scores` below
    threshold = -flipped[n - k] if k else -np.inf  # k = 0 prunes nothing
    cut = n  # every block scoring the threshold before `cut` is pruned, every later one kept
    if 0 < k < n and flipped[:n - k].max() == flipped[n - k]:  # a tie straddles the cut
        cut = _past_nth(scores == threshold,
                        k - np.count_nonzero(flipped[n - k:] > flipped[n - k]))
    masks = []
    for part, start, end in zip(partitions, starts, starts[1:]):
        keep = np.empty(part.shape if part.block_size == 1 else part.n_blocks)
        flat = keep.reshape(-1)
        np.greater(scores[start:end], threshold, out=flat)
        if cut < end:
            kept = max(cut, start)
            np.greater_equal(scores[kept:end], threshold, out=flat[kept - start:])
        masks.append(keep if part.block_size == 1 else part.unrows(keep[:, None]))
    return masks


def _past_nth(flags: np.ndarray, n: int) -> int:
    """The index just past the n-th True of flags (1 <= n <= their count).
    Halving steps, each counting one half of the range left, narrow it to
    _SPAN flags, so the counts add up to one pass and the index array is
    built over that short range only, not over every True."""
    lo, hi = 0, len(flags)
    while hi - lo > _SPAN:
        mid = (lo + hi) // 2
        left = np.count_nonzero(flags[lo:mid])
        if left >= n:
            hi = mid
        else:
            lo, n = mid, n - left
    return lo + int(np.flatnonzero(flags[lo:hi])[n - 1]) + 1


def select(layers, context: ContextSpec, sparsity,
           scratch: np.ndarray | None = None) -> list[np.ndarray]:
    """The masks of `layers`, a BlockScores or a list of LayerScores. A list of
    sparsities gives each layer its own target, as the local context does
    (SparsifyPlan refuses one beside any other context).
    `scratch` is select_global's, as long as the blocks of all layers."""
    if context.kind == "global" and not isinstance(sparsity, (list, tuple)):
        return select_global(layers, sparsity, scratch)
    return select_local(layers, sparsity, scratch)
