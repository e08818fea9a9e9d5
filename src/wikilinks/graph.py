"""Directed hyperlink networks, each link stored once: PageRank with restarts, top-k, stats."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .lsa import tokenize

PPR_SUM_TOLERANCE = 1e-9


class DocumentNetwork:
    """Directed, unweighted document graph.

    Parallel links between the same pair of documents are merged into a
    single edge carrying the multiset of anchor strings that realize it.
    Self-loops are rejected; every edge must carry at least one anchor.
    One map, in ascending (source, target) order, holds each edge's sorted
    anchor tuple; readers derive neighbor lists from :meth:`edges`.
    Instances are immutable after construction and safe to share.
    """

    __slots__ = ("node_count", "_edges")

    def __init__(
        self, node_count: int, anchors_by_edge: Mapping[tuple[int, int], Sequence[str]]
    ) -> None:
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        self.node_count = node_count
        edges: dict[tuple[int, int], tuple[str, ...]] = {}
        for (source, target), anchors in anchors_by_edge.items():
            if source == target:
                raise ValueError(f"self-loop at node {source}")
            if not (0 <= source < node_count and 0 <= target < node_count):
                raise ValueError(f"edge ({source}, {target}) outside 0..{node_count - 1}")
            anchors = tuple(sorted(anchors))
            if not anchors:
                raise ValueError(f"edge ({source}, {target}) carries no anchor string")
            edges[(source, target)] = anchors
        self._edges = dict(sorted(edges.items()))

    @classmethod
    def _derived(
        cls, node_count: int, edges: dict[tuple[int, int], tuple[str, ...]]
    ) -> "DocumentNetwork":
        """A network over ``edges`` as they are, without the checks and
        sorts of ``__init__``: for maps taken from a valid network, whose
        keys are already in ascending order and whose anchor tuples are
        already sorted and non-empty."""
        network = cls.__new__(cls)
        network.node_count = node_count
        network._edges = edges
        return network

    @classmethod
    def from_links(
        cls, node_count: int, links: Iterable[tuple[int, int, str]]
    ) -> "DocumentNetwork":
        """Build from (source, target, anchor) triples, merging parallel
        links and silently dropping self-links."""
        anchors_by_edge: dict[tuple[int, int], list[str]] = {}
        for source, target, anchor in links:
            if source == target:
                continue
            anchors_by_edge.setdefault((source, target), []).append(anchor)
        return cls(node_count, anchors_by_edge)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def has_edge(self, source: int, target: int) -> bool:
        return (source, target) in self._edges

    def edges(self) -> Iterator[tuple[int, int]]:
        return iter(self._edges)

    def edge_items(self) -> Iterator[tuple[tuple[int, int], tuple[str, ...]]]:
        return iter(self._edges.items())

    def remove_edges(self, edges: Iterable[tuple[int, int]]) -> "DocumentNetwork":
        removed = set(edges)
        missing = removed - self._edges.keys()
        if missing:
            raise ValueError(f"cannot remove absent edges: {sorted(missing)[:5]}")
        kept = {edge: anchors for edge, anchors in self._edges.items() if edge not in removed}
        return DocumentNetwork._derived(self.node_count, kept)

    def restricted_to(self, nodes: Iterable[int]) -> "DocumentNetwork":
        """Same id space, keeping only edges with both endpoints in ``nodes``."""
        keep = set(nodes)
        kept = {
            (s, t): anchors
            for (s, t), anchors in self._edges.items()
            if s in keep and t in keep
        }
        return DocumentNetwork._derived(self.node_count, kept)

    def relabeled_subgraph(
        self, ordered_nodes: Sequence[int]
    ) -> tuple["DocumentNetwork", dict[int, int]]:
        """Induced subgraph with ids remapped to 0..len(ordered_nodes)-1
        following the given order. Returns the subgraph and the old-to-new
        id table."""
        old_to_new = {old: new for new, old in enumerate(ordered_nodes)}
        if len(old_to_new) != len(ordered_nodes):
            raise ValueError("duplicate nodes in subgraph selection")
        kept = sorted(
            ((old_to_new[s], old_to_new[t]), anchors)
            for (s, t), anchors in self._edges.items()
            if s in old_to_new and t in old_to_new
        )
        return DocumentNetwork._derived(len(ordered_nodes), dict(kept)), old_to_new


@dataclass(frozen=True)
class PprScores:
    """Personalized PageRank vector for one seed node."""

    scores: np.ndarray
    converged: bool
    iterations: int

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=float)
        if scores.min(initial=0.0) < 0:
            raise ValueError("PPR scores must be non-negative")
        if abs(scores.sum() - 1.0) > PPR_SUM_TOLERANCE:
            raise ValueError(f"PPR scores sum to {scores.sum()}, expected 1")


def check_damping(damping: float) -> None:
    """Raise ValueError unless ``damping`` lies strictly between 0 and 1."""
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must lie strictly between 0 and 1, got {damping}")


def personalized_pagerank(
    network: DocumentNetwork,
    seed: int,
    damping: float = 0.85,
    tolerance: float = 1e-10,
    max_iters: int = 200,
) -> PprScores:
    """Power iteration on the out-link transition matrix with restarts.

    The walk restarts at ``seed`` with probability ``1 - damping``;
    dangling nodes (no out-links) send their full mass to the seed.
    Iteration stops when the L1 change drops below ``tolerance``; hitting
    ``max_iters`` first returns the last iterate flagged unconverged.
    """
    n = network.node_count
    if not 0 <= seed < n:
        raise ValueError(f"seed {seed} outside 0..{n - 1}")
    check_damping(damping)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")

    edges = np.array(list(network.edges()), dtype=np.intp).reshape(-1, 2)
    sources, targets = edges[:, 0], edges[:, 1]
    out_degree = np.bincount(sources, minlength=n).astype(float)
    weights = 1.0 / out_degree[sources]
    dangling = out_degree == 0.0

    x = np.zeros(n)
    x[seed] = 1.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        # The transposed transition matrix times x. Edges come sorted by
        # source, so each target sums its terms in ascending source order,
        # as a CSR row of that matrix would.
        nxt = damping * np.bincount(targets, weights=weights * x[sources], minlength=n)
        nxt[seed] += damping * x[dangling].sum() + (1.0 - damping)
        delta = np.abs(nxt - x).sum()
        x = nxt
        if delta < tolerance:
            converged = True
            break
    return PprScores(scores=x, converged=converged, iterations=iterations)


def topk_subgraph(
    network: DocumentNetwork,
    scores: np.ndarray,
    k: int,
    titles: Sequence[str],
) -> tuple[DocumentNetwork, dict[int, int]]:
    """Induced subgraph on the k highest-scored nodes.

    Ties at the rank-k boundary break by ascending title and then by node
    id, so the cut is deterministic. New ids run 0..k-1 in
    descending-score order; the old-to-new table is returned alongside
    the subgraph.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if k > network.node_count:
        raise ValueError(f"k={k} exceeds node count {network.node_count}")
    if len(scores) != network.node_count:
        raise ValueError("scores length does not match node count")
    order = sorted(range(network.node_count), key=lambda i: (-scores[i], titles[i], i))
    return network.relabeled_subgraph(order[:k])


@dataclass(frozen=True)
class NetworkStats:
    """Dataset statistics: document, link, vocabulary and sample counts."""

    n_docs: int
    n_links: int
    density_pct: float
    n_vocab: int
    doc_length_mean: float
    doc_length_std: float
    positives_per_doc_mean: float
    positives_per_doc_std: float
    negatives_per_doc_mean: float
    negatives_per_doc_std: float


def network_stats(network: DocumentNetwork, articles, candidates) -> NetworkStats:
    """Summary statistics of a dataset.

    ``candidates`` maps each document to its anchor-map candidate target
    ids (:meth:`wikilinks.dataset.Dataset.anchor_candidates`); those that
    are edges of ``network`` count as positives, the rest as negatives.
    """
    n = network.node_count
    density = 0.0
    if n > 1:
        density = 100.0 * network.edge_count / (n * (n - 1))
    token_counts: list[int] = []
    vocab: set[str] = set()
    for article in articles:
        tokens = tokenize(article.abstract)
        token_counts.append(len(tokens))
        vocab.update(tokens)
    lengths = np.array(token_counts, dtype=float)
    pos = np.array(
        [sum(1 for t in candidates.get(i, ()) if network.has_edge(i, t)) for i in range(n)],
        dtype=float,
    )
    neg = np.array([len(candidates.get(i, ())) for i in range(n)], dtype=float) - pos
    return NetworkStats(
        n_docs=n,
        n_links=network.edge_count,
        density_pct=density,
        n_vocab=len(vocab),
        doc_length_mean=float(lengths.mean()) if len(lengths) else 0.0,
        doc_length_std=float(lengths.std()) if len(lengths) else 0.0,
        positives_per_doc_mean=float(pos.mean()) if n else 0.0,
        positives_per_doc_std=float(pos.std()) if n else 0.0,
        negatives_per_doc_mean=float(neg.mean()) if n else 0.0,
        negatives_per_doc_std=float(neg.std()) if n else 0.0,
    )
