"""Turn per-block scores into binary masks under local or global context.

Rounding is floor (never overshoot the requested sparsity). Blocks below the
k-th lowest score (found by np.partition, O(n)) are pruned, then the earliest
blocks tied at it, so masks are deterministic: the first k of a stable sort.
"""

from dataclasses import dataclass

import numpy as np

from .granularity import BlockPartition

CONTEXTS = ("local", "global")


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


def select_local(layers: list[LayerScores], sparsity: float) -> list[np.ndarray]:
    """Per layer independently, prune the lowest-scoring blocks."""
    return [select_global([layer], sparsity)[0] for layer in layers]


def select_global(layers: list[LayerScores], sparsity: float) -> list[np.ndarray]:
    """Prune the lowest-scoring blocks over the concatenation of all layers."""
    ranked = np.concatenate([layer.block_scores for layer in layers])
    k = pruned_count(len(ranked), sparsity)
    if k:
        ranked.partition(k - 1)  # in place: positions are read from the layers below
    threshold = ranked[k - 1] if k else -np.inf  # k = 0 prunes nothing
    pruned = np.concatenate([layer.block_scores < threshold for layer in layers])
    tied = np.concatenate([layer.block_scores == threshold for layer in layers])
    pruned[np.flatnonzero(tied)[:k - np.count_nonzero(pruned)]] = True
    ends = np.cumsum([0] + [len(layer.block_scores) for layer in layers])
    return [layer.partition.unrows(~pruned[start:end, None], float)
            for layer, start, end in zip(layers, ends, ends[1:])]


def select_per_layer(layers: list[LayerScores], per_layer) -> list[np.ndarray]:
    """select_local with each layer's own target sparsity."""
    if len(per_layer) != len(layers):
        raise ValueError(f"per-layer list length {len(per_layer)} != layer count {len(layers)}")
    return [select_local([layer], s)[0] for layer, s in zip(layers, per_layer)]


def select(layers: list[LayerScores], context: ContextSpec, sparsity) -> list[np.ndarray]:
    """A list of sparsities gives each layer its own target, whatever the context."""
    if isinstance(sparsity, (list, tuple)):
        return select_per_layer(layers, sparsity)
    if context.kind == "local":
        return select_local(layers, sparsity)
    return select_global(layers, sparsity)
