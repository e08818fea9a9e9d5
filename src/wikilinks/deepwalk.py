"""Random-walk node embeddings trained with skip-gram negative sampling.

Walks treat edges as undirected by default (directed walks strand at
sink nodes); the SGNS pass makes a single epoch over the walks with a
linearly decaying learning rate and negatives drawn from the
unigram^0.75 node-frequency distribution, word2vec style. Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .graph import DocumentNetwork
from .lsa import pair_scores

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


def check_int(name: str, value, minimum: int) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer
    (numpy's too, but not a bool) of at least ``minimum``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")


@dataclass(frozen=True)
class DeepWalkParams:
    """Walk and SGNS settings; a bad value raises ValueError naming it."""

    walks_per_node: int = 80
    walk_length: int = 40
    window: int = 10
    negatives: int = 10
    dimension: int = 512
    learning_rate: float = 0.025
    undirected: bool = True

    def __post_init__(self) -> None:
        for name in ("walks_per_node", "walk_length", "window", "negatives", "dimension"):
            check_int(name, getattr(self, name), 1)
        rate = self.learning_rate
        if isinstance(rate, bool) or not (
            isinstance(rate, numbers.Real) and math.isfinite(rate) and rate > 0
        ):
            raise ValueError("learning_rate must be a finite number above 0")
        if not isinstance(self.undirected, bool):
            raise ValueError("undirected must be true or false")


@dataclass
class DeepWalkModel:
    """Trained node and context embeddings."""

    node_vectors: np.ndarray
    context_vectors: np.ndarray
    trained_nodes: frozenset[int] = field(default_factory=frozenset)


def expit(x):
    """The logistic sigmoid 1 / (1 + e^-x). e^-x overflows to inf for x
    below about -709, which gives the exact limit 0; numpy's overflow
    warning is silenced."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


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
    rounds differently. Overflow in the sigmoid is the caller's to
    silence.
    """
    contexts, negatives = rows[:n_contexts], rows[n_contexts:]
    g = np.empty(len(rows))
    g_contexts, g_negatives = g[:n_contexts], g[n_contexts:]
    np.dot(contexts, center, out=g_contexts)
    np.dot(negatives, center, out=g_negatives)
    # The sigmoid 1 / (1 + e^-x) of :func:`expit`, one step at a time in
    # place; the reciprocal is the same correctly rounded division.
    np.negative(g, out=g)
    np.exp(g, out=g)
    g += 1.0
    np.reciprocal(g, out=g)
    g_contexts -= 1.0
    grad_center = g_contexts @ contexts + g_negatives @ negatives
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
    neighbors. Node order is reshuffled every pass. A node's neighbors,
    ascending, are its out-link targets, and its in-link sources too when
    ``params.undirected``; a walk ends at a node outside ``nodes``."""
    neighbors: dict[int, set[int]] = {}
    for source, target in network.edges():
        neighbors.setdefault(source, set()).add(target)
        if params.undirected:
            neighbors.setdefault(target, set()).add(source)
    adjacency = {node: tuple(sorted(neighbors.get(node, ()))) for node in nodes}
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
    params: DeepWalkParams,
    seed: int,
    nodes: Sequence[int],
) -> DeepWalkModel:
    """Train DeepWalk embeddings on (a subset of the nodes of) a network.

    One SGD epoch over the generated walks, processing each center
    position as one batched update. The learning rate decays linearly
    over the epoch with the usual 1e-4 relative floor. Windows and
    negatives are precomputed one block of walks at a time; the result
    is bit-identical to updating position by position.
    """
    if network.node_count == 0:
        raise ValueError("cannot fit DeepWalk on an empty network")
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
    with np.errstate(over="ignore"):  # for the sigmoid in _center_gradients
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
                grad_center, grad_rows = _center_gradients(
                    v, context_vectors.take(row_ids, axis=0), n
                )
                grad_center *= lr
                v -= grad_center
                grad_rows *= lr
                # A 1-D ufunc.at over flat indices applies the row updates in
                # the same order as a 2-D one, at a fraction of its cost.
                np.subtract.at(
                    flat_context, flat_index.take(row_ids, axis=0).ravel(), grad_rows.ravel()
                )
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
    return pair_scores(model.node_vectors, ids)
