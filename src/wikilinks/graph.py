"""Directed hyperlink networks: PageRank with restarts, top-k extraction, stats."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .lsa import tokenize

PPR_SUM_TOLERANCE = 1e-9


class DocumentNetwork:
    """Directed, unweighted document graph.

    Parallel links between the same pair of documents are merged into a
    single edge carrying the multiset of anchor strings that realize it.
    Self-loops are rejected; every edge must carry at least one anchor.
    Instances are immutable after construction and safe to share.
    """

    __slots__ = ("node_count", "_edges", "_out", "_in")

    def __init__(
        self, node_count: int, edge_anchors: Mapping[tuple[int, int], Sequence[str]]
    ) -> None:
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        self.node_count = node_count
        edges: dict[tuple[int, int], tuple[str, ...]] = {}
        out: dict[int, list[int]] = {}
        inc: dict[int, list[int]] = {}
        for (source, target), anchors in edge_anchors.items():
            if source == target:
                raise ValueError(f"self-loop at node {source}")
            if not (0 <= source < node_count and 0 <= target < node_count):
                raise ValueError(f"edge ({source}, {target}) outside 0..{node_count - 1}")
            anchors = tuple(sorted(anchors))
            if not anchors:
                raise ValueError(f"edge ({source}, {target}) carries no anchor string")
            edges[(source, target)] = anchors
            out.setdefault(source, []).append(target)
            inc.setdefault(target, []).append(source)
        self._edges = dict(sorted(edges.items()))
        self._out = {node: tuple(sorted(nbrs)) for node, nbrs in out.items()}
        self._in = {node: tuple(sorted(nbrs)) for node, nbrs in inc.items()}

    @classmethod
    def from_links(
        cls, node_count: int, links: Iterable[tuple[int, int, str]]
    ) -> "DocumentNetwork":
        """Build from (source, target, anchor) triples, merging parallel
        links and silently dropping self-links."""
        edge_anchors: dict[tuple[int, int], list[str]] = {}
        for source, target, anchor in links:
            if source == target:
                continue
            edge_anchors.setdefault((source, target), []).append(anchor)
        return cls(node_count, edge_anchors)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def has_edge(self, source: int, target: int) -> bool:
        return (source, target) in self._edges

    def edges(self) -> Iterator[tuple[int, int]]:
        return iter(self._edges)

    def edge_items(self) -> Iterator[tuple[tuple[int, int], tuple[str, ...]]]:
        return iter(self._edges.items())

    def out_neighbors(self, node: int) -> tuple[int, ...]:
        return self._out.get(node, ())

    def undirected_neighbors(self, node: int) -> tuple[int, ...]:
        return tuple(sorted(set(self._out.get(node, ())) | set(self._in.get(node, ()))))

    def remove_edges(self, edges: Iterable[tuple[int, int]]) -> "DocumentNetwork":
        removed = set(edges)
        missing = removed - self._edges.keys()
        if missing:
            raise ValueError(f"cannot remove absent edges: {sorted(missing)[:5]}")
        kept = {edge: anchors for edge, anchors in self._edges.items() if edge not in removed}
        return DocumentNetwork(self.node_count, kept)

    def restricted_to(self, nodes: Iterable[int]) -> "DocumentNetwork":
        """Same id space, keeping only edges with both endpoints in ``nodes``."""
        keep = set(nodes)
        kept = {
            (s, t): anchors
            for (s, t), anchors in self._edges.items()
            if s in keep and t in keep
        }
        return DocumentNetwork(self.node_count, kept)

    def relabeled_subgraph(
        self, ordered_nodes: Sequence[int]
    ) -> tuple["DocumentNetwork", dict[int, int]]:
        """Induced subgraph with ids remapped to 0..len(ordered_nodes)-1
        following the given order. Returns the subgraph and the old-to-new
        id table."""
        old_to_new = {old: new for new, old in enumerate(ordered_nodes)}
        if len(old_to_new) != len(ordered_nodes):
            raise ValueError("duplicate nodes in subgraph selection")
        kept = {
            (old_to_new[s], old_to_new[t]): anchors
            for (s, t), anchors in self._edges.items()
            if s in old_to_new and t in old_to_new
        }
        return DocumentNetwork(len(ordered_nodes), kept), old_to_new


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
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must lie strictly between 0 and 1")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")

    out_degree = np.zeros(n, dtype=float)
    for source, _ in network.edges():
        out_degree[source] += 1.0
    rows, cols, vals = [], [], []
    for source, target in network.edges():
        rows.append(target)
        cols.append(source)
        vals.append(1.0 / out_degree[source])
    transition_t = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    dangling = out_degree == 0.0

    x = np.zeros(n)
    x[seed] = 1.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        nxt = damping * (transition_t @ x)
        nxt[seed] += damping * x[dangling].sum() + (1.0 - damping)
        delta = np.abs(nxt - x).sum()
        x = nxt
        if delta < tolerance:
            converged = True
            break
    return PprScores(scores=x, converged=converged, iterations=iterations)


def topk_subgraph(
    network: DocumentNetwork,
    scores: PprScores | np.ndarray,
    k: int,
    titles: Sequence[str] | None = None,
) -> tuple[DocumentNetwork, dict[int, int]]:
    """Induced subgraph on the k highest-scored nodes.

    Ties at the rank-k boundary break by ascending title (when titles are
    given) and then by node id, so the cut is deterministic. New ids run
    0..k-1 in descending-score order; the old-to-new table is returned
    alongside the subgraph.
    """
    values = scores.scores if isinstance(scores, PprScores) else np.asarray(scores, dtype=float)
    if k <= 0:
        raise ValueError("k must be positive")
    if k > network.node_count:
        raise ValueError(f"k={k} exceeds node count {network.node_count}")
    if len(values) != network.node_count:
        raise ValueError("scores length does not match node count")

    if titles is not None:
        order = sorted(range(network.node_count), key=lambda i: (-values[i], titles[i], i))
    else:
        order = sorted(range(network.node_count), key=lambda i: (-values[i], i))
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
    positives_per_doc_mean: float | None = None
    positives_per_doc_std: float | None = None
    negatives_per_doc_mean: float | None = None
    negatives_per_doc_std: float | None = None


def network_stats(network: DocumentNetwork, articles, samples=None) -> NetworkStats:
    """Summary statistics of a dataset.

    ``samples``, when given, is the per-document labeled candidate map
    from :func:`wikilinks.anchors.build_eval_samples`; it feeds the
    positive/negative per-document averages.
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
    pos_mean = pos_std = neg_mean = neg_std = None
    if samples is not None:
        pos = np.array(
            [sum(1 for p in samples.get(i, []) if p.label) for i in range(n)], dtype=float
        )
        neg = np.array(
            [sum(1 for p in samples.get(i, []) if not p.label) for i in range(n)], dtype=float
        )
        pos_mean, pos_std = float(pos.mean()), float(pos.std())
        neg_mean, neg_std = float(neg.mean()), float(neg.std())
    return NetworkStats(
        n_docs=n,
        n_links=network.edge_count,
        density_pct=density,
        n_vocab=len(vocab),
        doc_length_mean=float(lengths.mean()) if len(lengths) else 0.0,
        doc_length_std=float(lengths.std()) if len(lengths) else 0.0,
        positives_per_doc_mean=pos_mean,
        positives_per_doc_std=pos_std,
        negatives_per_doc_mean=neg_mean,
        negatives_per_doc_std=neg_std,
    )
