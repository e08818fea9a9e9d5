"""Network invariants, personalized PageRank vs a dense oracle, top-k, stats."""

from __future__ import annotations

import numpy as np
import pytest

from wikilinks.graph import (
    DocumentNetwork,
    network_stats,
    personalized_pagerank,
    topk_subgraph,
)
from wikilinks.ingest import Article


def dense_ppr_oracle(
    n: int,
    edges: list[tuple[int, int]],
    seed: int,
    damping: float,
    iters: int = 2000,
) -> np.ndarray:
    """Straight-line power iteration over the full dense transition matrix.

    Dangling rows send all mass to the seed, matching the production
    contract; no sparsity, no early stopping.
    """
    transition = np.zeros((n, n))
    out_degree = np.zeros(n)
    for s, _ in edges:
        out_degree[s] += 1
    for s, t in edges:
        transition[s, t] = 1.0 / out_degree[s]
    for node in range(n):
        if out_degree[node] == 0:
            transition[node, seed] = 1.0
    restart = np.zeros(n)
    restart[seed] = 1.0
    x = restart.copy()
    for _ in range(iters):
        x = damping * (x @ transition) + (1 - damping) * restart
    return x


def _net(n: int, edges: list[tuple[int, int]]) -> DocumentNetwork:
    return DocumentNetwork.from_links(n, [(s, t, "a") for s, t in edges])


def _random_edges(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    edges = set()
    for _ in range(rng.integers(0, n * 2)):
        s, t = rng.integers(n), rng.integers(n)
        if s != t:
            edges.add((int(s), int(t)))
    return sorted(edges)


class TestDocumentNetwork:
    def test_parallel_links_merge_into_anchor_multiset(self):
        net = DocumentNetwork.from_links(
            3, [(0, 1, "one"), (0, 1, "uno"), (0, 1, "one"), (1, 2, "x")]
        )
        assert net.edge_count == 2
        assert dict(net.edge_items())[(0, 1)] == ("one", "one", "uno")

    def test_self_links_silently_dropped(self):
        net = DocumentNetwork.from_links(2, [(0, 0, "loop"), (0, 1, "ok")])
        assert list(net.edges()) == [(0, 1)]

    def test_invalid_endpoint_rejected(self):
        with pytest.raises(ValueError):
            DocumentNetwork(2, {(0, 5): ("a",)})

    def test_edge_without_anchor_rejected(self):
        with pytest.raises(ValueError):
            DocumentNetwork(2, {(0, 1): ()})

    def test_neighbors(self):
        net = _net(4, [(0, 1), (0, 2), (3, 0)])
        assert net.out_neighbors(0) == (1, 2)
        assert net.undirected_neighbors(0) == (1, 2, 3)  # 3 links only into 0
        assert net.undirected_neighbors(3) == (0,)

    def test_remove_edges_rejects_absent(self):
        net = _net(3, [(0, 1)])
        with pytest.raises(ValueError):
            net.remove_edges([(1, 2)])


class TestPersonalizedPagerank:
    def test_single_node_all_mass_at_seed(self):
        scores = personalized_pagerank(_net(1, []), seed=0)
        assert scores.scores.tolist() == [1.0]

    def test_damping_to_zero_is_pure_restart(self):
        net = _net(3, [(0, 1), (1, 2)])
        scores = personalized_pagerank(net, seed=0, damping=1e-12)
        assert np.allclose(scores.scores, [1.0, 0.0, 0.0], atol=1e-9)

    def test_three_node_chain_matches_dense_oracle(self):
        edges = [(0, 1), (1, 2)]
        result = personalized_pagerank(_net(3, edges), seed=0, damping=0.85, tolerance=1e-14)
        oracle = dense_ppr_oracle(3, edges, seed=0, damping=0.85)
        assert np.abs(result.scores - oracle).sum() < 1e-8

    def test_random_graphs_match_dense_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            edges = _random_edges(rng, n)
            seed = int(rng.integers(n))
            result = personalized_pagerank(
                _net(n, edges), seed=seed, damping=0.85, tolerance=1e-14, max_iters=3000
            )
            oracle = dense_ppr_oracle(n, edges, seed=seed, damping=0.85)
            assert np.abs(result.scores - oracle).sum() < 1e-8

    def test_scores_sum_to_one_and_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            result = personalized_pagerank(_net(n, _random_edges(rng, n)), seed=0)
            assert result.scores.min() >= 0
            assert abs(result.scores.sum() - 1.0) <= 1e-9

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = 6
            edges = _random_edges(rng, n)
            perm = rng.permutation(n)
            seed = int(rng.integers(n))
            base = personalized_pagerank(_net(n, edges), seed=seed, tolerance=1e-13)
            mapped_edges = [(int(perm[s]), int(perm[t])) for s, t in edges]
            mapped = personalized_pagerank(
                _net(n, mapped_edges), seed=int(perm[seed]), tolerance=1e-13
            )
            # Node i of the base graph became node perm[i] in the mapped one.
            assert np.allclose(base.scores, mapped.scores[perm], atol=1e-9)

    def test_invalid_arguments(self):
        net = _net(2, [(0, 1)])
        with pytest.raises(ValueError):
            personalized_pagerank(net, seed=5)
        with pytest.raises(ValueError):
            personalized_pagerank(net, seed=0, damping=1.0)
        with pytest.raises(ValueError):
            personalized_pagerank(net, seed=0, tolerance=0.0)

    def test_unconverged_flag(self):
        net = _net(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        result = personalized_pagerank(net, seed=0, tolerance=1e-15, max_iters=1)
        assert not result.converged
        assert result.iterations == 1


class TestTopkSubgraph:
    def test_full_k_is_isomorphic_copy(self):
        net = _net(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
        scores = personalized_pagerank(net, seed=0)
        sub, old_to_new = topk_subgraph(net, scores, k=4)
        assert sub.node_count == 4
        remapped = {(old_to_new[s], old_to_new[t]) for s, t in net.edges()}
        assert set(sub.edges()) == remapped

    def test_five_node_fixture_hand_enumerated(self):
        # Scores pick nodes 0, 2, 4; the induced edges are (0,2) and (4,0).
        net = _net(5, [(0, 2), (2, 1), (4, 0), (3, 4), (1, 3)])
        scores = np.array([0.5, 0.1, 0.3, 0.05, 0.2])
        sub, old_to_new = topk_subgraph(net, scores, k=3)
        assert sorted(old_to_new) == [0, 2, 4]
        assert old_to_new == {0: 0, 2: 1, 4: 2}
        assert set(sub.edges()) == {(0, 1), (2, 0)}

    def test_tie_break_by_title_then_id(self):
        net = _net(3, [])
        scores = np.array([0.2, 0.2, 0.6])
        _, by_title = topk_subgraph(net, scores, k=2, titles=["Zebra", "Apple", "Mid"])
        assert sorted(by_title) == [1, 2]  # "Apple" wins the tie
        _, by_id = topk_subgraph(net, scores, k=2)
        assert sorted(by_id) == [0, 2]

    def test_invalid_k(self):
        net = _net(2, [(0, 1)])
        scores = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            topk_subgraph(net, scores, k=0)
        with pytest.raises(ValueError):
            topk_subgraph(net, scores, k=3)


def _articles(abstracts: list[str]) -> list[Article]:
    return [Article(id=i, title=f"T{i}", abstract=a) for i, a in enumerate(abstracts)]


class TestNetworkStats:
    def test_complete_directed_graph_density(self):
        net = _net(3, [(s, t) for s in range(3) for t in range(3) if s != t])
        stats = network_stats(net, _articles(["a", "b", "c"]))
        assert stats.density_pct == 100.0

    def test_density_formula(self):
        net = _net(4, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0)])
        stats = network_stats(net, _articles(["a"] * 4))
        assert stats.density_pct == pytest.approx(100.0 * 5 / 12)
        assert round(stats.density_pct, 2) == 41.67

    def test_vocabulary_and_lengths(self):
        articles = _articles(["one two two", "two three"])
        stats = network_stats(_net(2, [(0, 1)]), articles)
        assert stats.n_vocab == 3
        assert stats.doc_length_mean == pytest.approx(2.5)
        assert stats.doc_length_std == pytest.approx(0.5)

    def test_sample_counts(self, fixture_dataset):
        samples = fixture_dataset.eval_samples()
        stats = network_stats(fixture_dataset.network, fixture_dataset.articles, samples)
        total_pos = sum(1 for ps in samples.values() for p in ps if p.label)
        assert stats.positives_per_doc_mean == pytest.approx(
            total_pos / fixture_dataset.network.node_count
        )
        assert stats.negatives_per_doc_std >= 0

    def test_topk_then_stats_reports_k_nodes(self, fixture_dataset):
        scores = personalized_pagerank(fixture_dataset.network, seed=0)
        sub, old_to_new = topk_subgraph(fixture_dataset.network, scores, k=7)
        kept = sorted(old_to_new, key=old_to_new.get)
        articles = [
            Article(id=new, title=fixture_dataset.articles[old].title,
                    abstract=fixture_dataset.articles[old].abstract)
            for new, old in enumerate(kept)
        ]
        stats = network_stats(sub, articles)
        assert stats.n_docs == 7
