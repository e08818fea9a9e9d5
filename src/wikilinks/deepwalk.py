"""Random-walk node embeddings trained with skip-gram negative sampling.

Walks treat edges as undirected by default (directed walks strand at
sink nodes); the SGNS pass makes a single epoch over the walks with a
linearly decaying learning rate and negatives drawn from the
unigram^0.75 node-frequency distribution, word2vec style. Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np
from scipy.special import expit

from .graph import DocumentNetwork
from .lsa import row_cosines

_LOG_FLOOR = 1e-12
# Walks whose windows and negatives are precomputed together. The index
# arrays of a whole epoch cost too much memory; one walk at a time costs
# too many small numpy calls.
_BLOCK_WALKS = 64
# Negative-sampling grid buckets per table entry, before rounding up to a
# power of two: few draws land in a bucket that needs a binary search.
_BUCKETS_PER_ENTRY = 16


class UnsupportedModeError(RuntimeError):
    """A predictor was asked to score outside its supported mode."""


@dataclass(frozen=True)
class DeepWalkParams:
    walks_per_node: int = 80
    walk_length: int = 40
    window: int = 10
    negatives: int = 10
    dimension: int = 512
    learning_rate: float = 0.025
    undirected: bool = True


@dataclass
class DeepWalkModel:
    """Trained node and context embeddings."""

    node_vectors: np.ndarray
    context_vectors: np.ndarray
    trained_nodes: frozenset[int] = field(default_factory=frozenset)


def sgns_loss(center: np.ndarray, context: np.ndarray, negatives: np.ndarray) -> float:
    """Negative-sampling loss for one (center, context, negatives) triple:
    -log s(u_o . v_c) - sum_k log s(-u_k . v_c)."""
    pos = expit(float(context @ center))
    neg = expit(-(negatives @ center))
    return float(
        -np.log(max(pos, _LOG_FLOOR)) - np.log(np.clip(neg, _LOG_FLOOR, None)).sum()
    )


def sgns_gradients(
    center: np.ndarray, context: np.ndarray, negatives: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of :func:`sgns_loss` w.r.t. all three inputs."""
    g_pos = expit(float(context @ center)) - 1.0
    g_neg = expit(negatives @ center)
    grad_center = g_pos * context + g_neg @ negatives
    grad_context = g_pos * center
    grad_negatives = np.outer(g_neg, center)
    return grad_center, grad_context, grad_negatives


def _center_gradients(
    center: np.ndarray, rows: np.ndarray, n_contexts: int
) -> tuple[np.ndarray, np.ndarray]:
    """Summed SGNS gradients for one center against its gathered rows:
    ``n_contexts`` context rows, then the negatives of each context in
    turn (k rows per context).

    Returns the gradient w.r.t. ``center`` and one gradient row per row
    of ``rows``. Equals the sum of :func:`sgns_gradients` over the
    (context, negatives) triples evaluated at the same parameters. The
    context and negative dot products stay separate: one fused product
    rounds differently.
    """
    contexts, negatives = rows[:n_contexts], rows[n_contexts:]
    g = expit(np.concatenate((contexts @ center, negatives @ center)))
    g[:n_contexts] -= 1.0
    grad_center = g[:n_contexts] @ contexts + g[n_contexts:] @ negatives
    # A k = 1 matrix product: the same single rounded product per cell as
    # ``g[:, None] * center``, through BLAS.
    return grad_center, np.dot(g[:, None], center[None, :])


def generate_walks(
    network: DocumentNetwork,
    nodes: Sequence[int],
    params: DeepWalkParams,
    rng: np.random.Generator,
) -> list[list[int]]:
    """Uniform random walks: ``walks_per_node`` starts from every node,
    each up to ``walk_length`` steps, ending early at nodes without
    neighbors. Node order is reshuffled every pass."""
    if params.undirected:
        adjacency = {node: network.undirected_neighbors(node) for node in nodes}
    else:
        adjacency = {node: network.out_neighbors(node) for node in nodes}
    walks: list[list[int]] = []
    nodes_arr = np.asarray(nodes)
    for _ in range(params.walks_per_node):
        for start in rng.permutation(nodes_arr):
            walk = [int(start)]
            current = int(start)
            for _ in range(params.walk_length - 1):
                neighbors = adjacency.get(current, ())
                if not neighbors:
                    break
                current = neighbors[rng.integers(len(neighbors))]
                walk.append(current)
            walks.append(walk)
    return walks


class _NegativeTable:
    """``np.searchsorted(cumulative, draws)`` for draws in [0, 1), read
    from a grid of equal buckets.

    The grid has a power-of-two number of buckets, so a draw's bucket
    ``floor(draw * buckets)`` and the bucket edges are exact. A bucket
    that holds no table entry maps every draw in it to the same id, the
    one searchsorted gives at its lower edge; draws in the few buckets
    that hold an entry take searchsorted itself.
    """

    def __init__(self, cumulative: np.ndarray) -> None:
        self._cumulative = cumulative
        self._buckets = 1 << (_BUCKETS_PER_ENTRY * cumulative.size).bit_length()
        edges = np.searchsorted(cumulative, np.arange(self._buckets + 1) / self._buckets)
        self._first = edges[:-1]
        self._holds_entry = edges[1:] != edges[:-1]

    def lookup(self, draws: np.ndarray) -> np.ndarray:
        bucket = (draws * self._buckets).astype(np.intp)
        ids = self._first[bucket]
        mixed = self._holds_entry[bucket]
        ids[mixed] = np.searchsorted(self._cumulative, draws[mixed])
        return ids


def _block_windows(
    centers: np.ndarray,
    lengths: np.ndarray,
    window: int,
    negatives: int,
    table: _NegativeTable,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Context windows and negatives of every position in a block of
    walks, given as the concatenated ``centers`` and the walk ``lengths``.

    Returns the context count C of each position and one id array that
    holds, position after position, the C contexts (left window, then
    right window) followed by k negatives per context. Negatives come
    from one ``rng.random`` call in position order, which draws the same
    stream as one ``rng.random((C, k))`` call per position.
    """
    ends = np.cumsum(lengths)
    walk_start = np.repeat(ends - lengths, lengths)
    walk_end = np.repeat(ends, lengths)
    position = np.arange(centers.size)
    reach = min(window, int(lengths.max()) - 1)
    offsets = np.concatenate((np.arange(-reach, 0), np.arange(1, reach + 1)))
    neighbor = position[:, None] + offsets
    inside = (neighbor >= walk_start[:, None]) & (neighbor < walk_end[:, None])
    contexts = centers[neighbor[inside]]
    n_contexts = inside.sum(axis=1)
    drawn = table.lookup(rng.random((contexts.size, negatives)))

    owner_first = np.repeat(np.cumsum(n_contexts) - n_contexts, n_contexts)
    owner_count = np.repeat(n_contexts, n_contexts)
    context = np.arange(contexts.size)
    ids = np.empty(contexts.size * (1 + negatives), dtype=np.intp)
    ids[context + negatives * owner_first] = contexts
    ids[(owner_first + owner_count + negatives * context)[:, None] + np.arange(negatives)] = drawn
    return n_contexts, ids


def fit_deepwalk(
    network: DocumentNetwork,
    params: DeepWalkParams | None = None,
    seed: int = 0,
    nodes: Sequence[int] | None = None,
) -> DeepWalkModel:
    """Train DeepWalk embeddings on (a subset of the nodes of) a network.

    One SGD epoch over the generated walks, processing each center
    position as one batched update. The learning rate decays linearly
    over the epoch with the usual 1e-4 relative floor. Windows and
    negatives are precomputed one block of walks at a time; the result
    is bit-identical to updating position by position.
    """
    params = params or DeepWalkParams()
    if network.node_count == 0:
        raise ValueError("cannot fit DeepWalk on an empty network")
    if nodes is None:
        nodes = range(network.node_count)
    nodes = sorted(nodes)
    if not nodes:
        raise ValueError("no nodes to train on")

    rng = np.random.default_rng(seed)
    d = params.dimension
    node_vectors = (rng.random((network.node_count, d)) - 0.5) / d
    context_vectors = np.zeros((network.node_count, d))

    walks = generate_walks(network, nodes, params, rng)
    lengths = np.fromiter(map(len, walks), dtype=np.intp, count=len(walks))
    centers = np.fromiter(chain.from_iterable(walks), dtype=np.intp, count=int(lengths.sum()))
    del walks

    # Negative-sampling table over node frequencies in the walks.
    weights = np.bincount(centers, minlength=network.node_count).astype(float) ** 0.75
    table = _NegativeTable(np.cumsum(weights / weights.sum()))

    k = params.negatives
    flat_context = context_vectors.reshape(-1)
    # Flat index of every context_vectors entry, gathered by row ids.
    flat_index = np.arange(context_vectors.size).reshape(context_vectors.shape)
    walk_bounds = np.concatenate(([0], np.cumsum(lengths)))
    for first in range(0, len(lengths), _BLOCK_WALKS):
        last = min(first + _BLOCK_WALKS, len(lengths))
        start, stop = walk_bounds[first], walk_bounds[last]
        block = centers[start:stop]
        n_contexts, ids = _block_windows(
            block, lengths[first:last], params.window, k, table, rng
        )
        rates = params.learning_rate * np.maximum(
            1e-4, 1.0 - np.arange(start, stop) / centers.size
        )
        segment_ends = np.cumsum(n_contexts) * (1 + k)
        for center, n, end, lr in zip(
            block.tolist(), n_contexts.tolist(), segment_ends.tolist(), rates.tolist()
        ):
            if not n:
                continue
            row_ids = ids[end - n * (1 + k) : end]
            v = node_vectors[center]
            # grad_rows is built from v before v's row is overwritten.
            grad_center, grad_rows = _center_gradients(v, context_vectors[row_ids], n)
            node_vectors[center] = v - lr * grad_center
            # A 1-D ufunc.at over flat indices applies the row updates in
            # the same order as a 2-D one, at a fraction of its cost.
            np.subtract.at(flat_context, flat_index[row_ids].ravel(), (lr * grad_rows).ravel())
    return DeepWalkModel(
        node_vectors=node_vectors,
        context_vectors=context_vectors,
        trained_nodes=frozenset(nodes),
    )


def score_deepwalk(model: DeepWalkModel, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Link scores (1 + cos)/2 between the trained node embeddings of
    each (source, target) pair.

    Ids outside the trained node set raise :class:`UnsupportedModeError`:
    DeepWalk has no inductive mode.
    """
    ids = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    for node in np.unique(ids).tolist():
        if node not in model.trained_nodes:
            raise UnsupportedModeError(
                f"node {node} was not in the training network; "
                "DeepWalk cannot score unseen documents"
            )
    vectors = model.node_vectors
    return (1.0 + row_cosines(vectors[ids[:, 0]], vectors[ids[:, 1]])) / 2.0
