"""Turn per-block scores into binary masks under local or global context.

Rounding is floor (never overshoot the requested sparsity). np.partition
finds the k-th lowest score in O(n); one comparison per layer then writes its
float64 keep-mask, pruning every block at or below that score. Only when a
tie straddles the cut (a block past the first k of the partition also scores
the k-th score) are the tied blocks after the earliest ones kept again, in
layer-then-block order: counting ties in halving ranges finds the last pruned
one, and one comparison from just past it keeps the rest. So masks are
deterministic: the first k of a stable sort of (score, layer, block).
"""

from dataclasses import dataclass

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


def select_local(layers: list[LayerScores], sparsity) -> list[np.ndarray]:
    """Per layer independently, prune the lowest-scoring blocks: `sparsity`
    is every layer's target, or a list of one target per layer."""
    if not isinstance(sparsity, (list, tuple)):
        sparsity = [sparsity] * len(layers)
    elif len(sparsity) != len(layers):
        raise ValueError(f"per-layer list length {len(sparsity)} != layer count {len(layers)}")
    return [select_global([layer], s)[0] for layer, s in zip(layers, sparsity)]


def select_global(layers: list[LayerScores], sparsity: float) -> list[np.ndarray]:
    """Prune the lowest-scoring blocks over the concatenation of all layers."""
    # Negated, the k lowest scores are the k highest values, from n - k on. numpy
    # 2.x's quickselect makes no progress while its pivot is the minimum of its
    # range, and sorts the range after ~2 log2(n) wasted passes: the lowest
    # score is the one many blocks share, as pruned weights and dead units
    # score 0. Ties at the maximum cost it nothing.
    flipped = np.empty(sum(len(layer.block_scores) for layer in layers))
    start = 0
    for layer in layers:
        end = start + len(layer.block_scores)
        np.negative(layer.block_scores, out=flipped[start:end])
        start = end
    n = len(flipped)
    k = pruned_count(n, sparsity)
    if k:
        flipped.partition(n - k)  # in place: positions are read from the layers below
    threshold = -flipped[n - k] if k else -np.inf  # k = 0 prunes nothing
    keeps = [np.greater(layer.block_scores, threshold, out=np.empty(len(layer.block_scores)))
             for layer in layers]  # every tie pruned: exactly k unless a tie straddles the cut
    if 0 < k < n and flipped[:n - k].max() == flipped[n - k]:
        pruned_ties = k - np.count_nonzero(flipped[n - k:] > flipped[n - k])
        for layer, keep in zip(layers, keeps):
            cut = 0  # every tie from here on is kept
            if pruned_ties:
                tied = layer.block_scores == threshold
                count = np.count_nonzero(tied)
                cut = len(tied) if count <= pruned_ties else _past_nth(tied, pruned_ties)
                pruned_ties = max(0, pruned_ties - count)
            np.greater_equal(layer.block_scores[cut:], threshold, out=keep[cut:])
    return [layer.partition.unrows(keep[:, None]) for layer, keep in zip(layers, keeps)]


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


def select(layers: list[LayerScores], context: ContextSpec, sparsity) -> list[np.ndarray]:
    """A list of sparsities gives each layer its own target, whatever the context."""
    if context.kind == "global" and not isinstance(sparsity, (list, tuple)):
        return select_global(layers, sparsity)
    return select_local(layers, sparsity)
