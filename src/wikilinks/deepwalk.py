"""Random-walk node embeddings trained with skip-gram negative sampling.

Walks treat edges as undirected by default (directed walks strand at
sink nodes); the SGNS pass makes a single epoch over the walks with a
linearly decaying learning rate and negatives drawn from the
unigram^0.75 node-frequency distribution, word2vec style. Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import expit

from .graph import DocumentNetwork
from .lsa import row_cosines

_LOG_FLOOR = 1e-12


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
    """Trained node and context embeddings plus the run configuration."""

    node_vectors: np.ndarray
    context_vectors: np.ndarray
    params: DeepWalkParams
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
    center: np.ndarray, contexts: np.ndarray, negatives: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Summed SGNS gradients for one center against C contexts, each with
    its own row of negatives (shape (C, k)).

    Equals the sum of :func:`sgns_gradients` over the C triples evaluated
    at the same parameters.
    """
    g_pos = expit(contexts @ center) - 1.0  # (C,)
    g_neg = expit(negatives.reshape(-1, negatives.shape[-1]) @ center)  # (C*k,)
    grad_center = g_pos @ contexts + g_neg @ negatives.reshape(-1, negatives.shape[-1])
    grad_contexts = np.outer(g_pos, center)
    grad_negatives = np.outer(g_neg, center)
    return grad_center, grad_contexts, grad_negatives


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


def fit_deepwalk(
    network: DocumentNetwork,
    params: DeepWalkParams | None = None,
    seed: int = 0,
    nodes: Sequence[int] | None = None,
) -> DeepWalkModel:
    """Train DeepWalk embeddings on (a subset of the nodes of) a network.

    One SGD epoch over the generated walks, processing each center
    position as one batched update. The learning rate decays linearly
    over the epoch with the usual 1e-4 relative floor.
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

    # Negative-sampling table over node frequencies in the walks.
    counts = np.zeros(network.node_count)
    total_centers = 0
    for walk in walks:
        total_centers += len(walk)
        for node in walk:
            counts[node] += 1.0
    weights = counts**0.75
    cumulative = np.cumsum(weights / weights.sum())

    lr0 = params.learning_rate
    window = params.window
    k = params.negatives
    step = 0
    for walk in walks:
        length = len(walk)
        for i, center in enumerate(walk):
            lr = lr0 * max(1e-4, 1.0 - step / total_centers)
            step += 1
            contexts = walk[max(0, i - window) : i] + walk[i + 1 : i + 1 + window]
            if not contexts:
                continue
            ctx_ids = np.asarray(contexts)
            neg_ids = np.searchsorted(cumulative, rng.random((len(contexts), k)))
            v = node_vectors[center]
            grad_center, grad_contexts, grad_negatives = _center_gradients(
                v, context_vectors[ctx_ids], context_vectors[neg_ids]
            )
            node_vectors[center] = v - lr * grad_center
            np.subtract.at(context_vectors, ctx_ids, lr * grad_contexts)
            np.subtract.at(context_vectors, neg_ids.ravel(), lr * grad_negatives)
    return DeepWalkModel(
        node_vectors=node_vectors,
        context_vectors=context_vectors,
        params=params,
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
