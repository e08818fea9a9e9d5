"""Random-walk node embeddings trained with skip-gram negative sampling.

Walks treat edges as undirected by default (directed walks strand at
sink nodes); each pass over the start nodes reads its steps from one
buffer of 32-bit draws, mapped to neighbors as ``rng.integers`` maps
them, so the walks and the generator state are those of one
``rng.integers`` call per step. The SGNS pass makes a single epoch over
the walks with a linearly decaying learning rate and negatives drawn
from the unigram^0.75 node-frequency distribution, word2vec style. Each
center position takes one SGD step: its contexts and negatives are
grouped into distinct rows, and a row that occurs several times takes
the sum of its occurrences' gradients, all taken at the same parameters,
in one update. The node vectors are held negated through the epoch,
which saves one negation per step and rounds alike. Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Sequence

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


def _sgd_step(negated_center: np.ndarray, rows: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """One position's SGD step, in place, on its negated center vector
    and its distinct context-table ``rows``.

    A row that occurs m times among the position's contexts and
    negatives, c of them as a context, takes ``a = lr * m`` and
    ``b = lr * c``. Each occurrence's gradient is taken at the same
    parameters, so the summed update of :func:`sgns_gradients` over the
    position's (context, negatives) triples is, with x the row's dot
    product with the center, ``coef = a * s(x) - b`` times the center
    for the row and ``coef @ rows`` for the center. The center is held
    negated: IEEE negation is exact and rounding is symmetric, so the
    dot product with it is exactly -x, and adding ``coef`` times it or
    ``coef @ rows`` to it gives bit for bit the step on the center
    itself. Overflow in the sigmoid is the caller's to silence.
    """
    coef = rows.dot(negated_center)
    np.exp(coef, out=coef)
    np.add(coef, 1.0, coef)
    np.divide(a, coef, out=coef)
    np.subtract(coef, b, coef)
    # A k = 1 matrix product: the same single rounded product per cell as
    # ``coef[:, None] * negated_center``, through BLAS, taken before the
    # center moves.
    grad_rows = coef[:, None].dot(negated_center[None, :])
    negated_center += coef.dot(rows)
    rows += grad_rows


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
    ``params.undirected``; a walk ends at a node outside ``nodes``.

    The walks, and the state ``rng`` is left in, are those of one
    ``rng.integers(len(neighbors))`` call per step (see
    :func:`_random_walks`)."""
    neighbors: dict[int, set[int]] = {}
    for source, target in network.edges():
        neighbors.setdefault(source, set()).add(target)
        if params.undirected:
            neighbors.setdefault(target, set()).add(source)
    adjacency = {node: tuple(sorted(neighbors.get(node, ()))) for node in nodes}
    return _random_walks(adjacency, nodes, params, rng)


def _random_walks(
    adjacency: Mapping[int, Sequence[int]],
    nodes: Sequence[int],
    params: DeepWalkParams,
    rng: np.random.Generator,
) -> list[list[int]]:
    """The walks of :func:`generate_walks` over ``adjacency``, each
    node's neighbors in the order a step picks from; a node that is not
    a key has none.

    A step from a node with k neighbors picks ``neighbors[j]`` with j
    the value of ``rng.integers(k)``: Lemire's bounded method on the
    generator's 32-bit stream, as numpy computes it. One neighbor takes
    no draw. With k >= 2 a step reads draws u until ``(u * k) mod 2**32``
    is at least ``(2**32 - k) % k`` and takes ``j = (u * k) >> 32``; for
    k = 2**32 that is j = u, numpy's one unbounded draw. A degree above
    2**32, which only a network of more than 2**32 nodes can have, makes
    numpy draw 64 bits and raises ValueError here.

    Each pass reads its draws from one ``rng.integers(0, 2**32, n,
    dtype=np.uint32)`` buffer, with n the most draws the pass can take
    without a redraw. Each redraw adds one to that budget, and a budget
    past the buffer doubles it with the draws that follow in the stream.
    After the pass the generator is set back and advanced by the draws
    read, which leaves it where the per-step calls would.
    """
    # Per node with a neighbor: its neighbors, their count and the least
    # accepted low word of Lemire's product.
    choices = {}
    for node, neighbors in adjacency.items():
        k = len(neighbors)
        if k > 2**32:
            raise ValueError(f"node {node} has {k} neighbors; walks take at most 2**32")
        if k:
            choices[node] = neighbors, k, (2**32 - k) % k
    steps = params.walk_length - 1
    walks: list[list[int]] = []
    nodes_arr = np.asarray(nodes)
    for _ in range(params.walks_per_node):
        starts = rng.permutation(nodes_arr).tolist()
        state = rng.bit_generator.state
        # The draws the pass may read: one per step, and one per redraw.
        budget = len(starts) * steps
        draws = memoryview(rng.integers(0, 2**32, budget, dtype=np.uint32))
        used = 0
        for current in starts:
            walk = [current]
            for _ in range(steps):
                choice = choices.get(current)
                if choice is None:
                    break
                neighbors, k, threshold = choice
                if k == 1:
                    current = neighbors[0]
                else:
                    product = draws[used] * k
                    used += 1
                    while (product & 0xFFFFFFFF) < threshold:
                        budget += 1
                        if budget > len(draws):
                            # The stream goes on after the buffer's draws.
                            more = rng.integers(0, 2**32, len(draws), dtype=np.uint32)
                            draws = memoryview(np.concatenate((draws, more)))
                        product = draws[used] * k
                        used += 1
                    current = neighbors[product >> 32]
                walk.append(current)
            walks.append(walk)
        rng.bit_generator.state = state
        rng.integers(0, 2**32, used, dtype=np.uint32)
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
    rates: np.ndarray,
    node_count: int,
    params: DeepWalkParams,
    table: _NegativeTable,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Context windows and negatives of every position in a block of
    walks, given as the concatenated ``centers``, the walk ``lengths``
    and each position's learning rate, grouped into distinct rows; every
    id is below ``node_count``.

    A position's contexts are its left and right window; it draws k
    negatives per context. The negatives come from one ``rng.random``
    call in position order, which draws the same stream as one
    ``rng.random((C, k))`` call per position. Sorting (position, id) keys
    groups them: returns the end of each position's rows, and for each
    distinct row, position after position in ascending id order, its id
    and the ``a`` and ``b`` coefficients of :func:`_sgd_step`.
    """
    ends = np.cumsum(lengths)
    walk_start = np.repeat(ends - lengths, lengths)
    walk_end = np.repeat(ends, lengths)
    position = np.arange(centers.size)
    reach = min(params.window, int(lengths.max()) - 1)
    offsets = np.concatenate((np.arange(-reach, 0), np.arange(1, reach + 1)))
    neighbor = position[:, None] + offsets
    inside = (neighbor >= walk_start[:, None]) & (neighbor < walk_end[:, None])
    contexts = centers[neighbor[inside]]
    drawn = table.lookup(rng.random((contexts.size, params.negatives)))

    owner_base = position * node_count
    owner = np.repeat(owner_base, inside.sum(axis=1))
    keys = np.concatenate((owner + contexts, (owner[:, None] + drawn).ravel()))
    distinct, occurrences = np.unique(keys, return_counts=True)
    context_keys, context_counts = np.unique(keys[: contexts.size], return_counts=True)
    as_context = np.zeros_like(occurrences)
    as_context[np.searchsorted(distinct, context_keys)] = context_counts
    # Position p's keys lie in [p * node_count, (p + 1) * node_count).
    row_ends = np.searchsorted(distinct, owner_base + node_count)
    rows_per_position = np.diff(row_ends, prepend=0)
    row_ids = distinct - np.repeat(owner_base, rows_per_position)
    lr = np.repeat(rates, rows_per_position)
    return row_ends, row_ids, lr * occurrences, lr * as_context


def fit_deepwalk(
    network: DocumentNetwork,
    params: DeepWalkParams,
    seed: int,
    nodes: Sequence[int],
) -> DeepWalkModel:
    """Train DeepWalk embeddings on (a subset of the nodes of) a network.

    One SGD epoch over the generated walks, processing each center
    position as one update of its center vector and of each distinct
    context-table row among its contexts and negatives
    (:func:`_sgd_step`). The learning rate decays linearly over the epoch
    with the usual 1e-4 relative floor. Windows, negatives and their
    grouping into distinct rows are precomputed one block of walks at a
    time; the result is bit-identical to grouping and updating position
    by position. The node vectors are negated before the epoch and back
    after it, both exact, and each step works on the negated center; the
    embeddings are bit-identical to steps on the center itself. Against
    applying each (context, negatives) triple's gradients one occurrence
    at a time, only the rounding within a position differs.
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

    walk_bounds = np.concatenate(([0], np.cumsum(lengths)))
    np.negative(node_vectors, out=node_vectors)  # held negated through the epoch
    with np.errstate(over="ignore"):  # for the sigmoid in _sgd_step
        for first in range(0, len(lengths), _BLOCK_WALKS):
            last = min(first + _BLOCK_WALKS, len(lengths))
            start, stop = walk_bounds[first], walk_bounds[last]
            block = centers[start:stop]
            rates = params.learning_rate * np.maximum(
                1e-4, 1.0 - np.arange(start, stop) / centers.size
            )
            row_ends, row_ids, a, b = _block_windows(
                block, lengths[first:last], rates, network.node_count, params, table, rng
            )
            row_start = 0
            for center, row_end in zip(block.tolist(), row_ends.tolist()):
                if row_end == row_start:
                    continue
                ids = row_ids[row_start:row_end]
                rows = context_vectors.take(ids, axis=0)
                _sgd_step(node_vectors[center], rows, a[row_start:row_end], b[row_start:row_end])
                # The ids are distinct, so a plain assignment writes each row once.
                context_vectors[ids] = rows
                row_start = row_end
    np.negative(node_vectors, out=node_vectors)
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
