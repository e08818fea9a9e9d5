"""Network invariants, personalized PageRank vs a dense oracle and the
scipy CSR iteration it replaced, top-k, stats."""

from __future__ import annotations

import gc
import io
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from wikilinks.deepwalk import DeepWalkParams, generate_walks
from wikilinks.graph import (
    DocumentNetwork,
    network_stats,
    personalized_pagerank,
    topk_subgraph,
)
from wikilinks.ingest import Article, build_corpus, parse_dump
from wikilinks.synthetic import PlantedCorpusParams, planted_dump_xml


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


def reference_pagerank(
    network: DocumentNetwork, seed: int, damping: float, tolerance: float, max_iters: int
) -> tuple[np.ndarray, bool, int]:
    """The power iteration that ``personalized_pagerank`` replaced: the
    transposed transition matrix as a scipy CSR matrix, one sparse
    product per iteration. Returns (scores, converged, iterations)."""
    n = network.node_count
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
    for iterations in range(1, max_iters + 1):
        nxt = damping * (transition_t @ x)
        nxt[seed] += damping * x[dangling].sum() + (1.0 - damping)
        delta = np.abs(nxt - x).sum()
        x = nxt
        if delta < tolerance:
            return x, True, iterations
    return x, False, max_iters


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
        # A walk's first steps from each start; 3 links only into 0, so
        # only undirected walks step from 0 to 3.
        net = _net(4, [(0, 1), (0, 2), (3, 0)])

        def first_steps(undirected: bool, start: int) -> set[int]:
            params = DeepWalkParams(walks_per_node=50, walk_length=2, undirected=undirected)
            walks = generate_walks(net, range(4), params, np.random.default_rng(0))
            return {walk[1] for walk in walks if walk[0] == start and len(walk) == 2}

        assert first_steps(False, 0) == {1, 2}
        assert first_steps(True, 0) == {1, 2, 3}
        assert first_steps(True, 3) == {0}

    def test_network_retains_few_bytes_per_edge(self):
        # The build benchmark's corpus at seed 0: 1,000 documents, 4,000
        # edges. One edge map, a key tuple and an anchor tuple per edge,
        # retains about 141 bytes per edge; with sorted out- and in-
        # neighbor tuples per node beside it, about 195.
        params = PlantedCorpusParams(topics=10, docs_per_topic=100, aliases=50, seed=0)
        xml = planted_dump_xml(params).encode("utf-8")
        articles, links = build_corpus(parse_dump(io.BytesIO(xml)))
        gc.collect()
        tracemalloc.start()
        try:
            network = DocumentNetwork.from_links(len(articles), links)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert network.edge_count == 4000
        assert retained / network.edge_count < 170

    def test_remove_edges_rejects_absent(self):
        net = _net(3, [(0, 1)])
        with pytest.raises(ValueError):
            net.remove_edges([(1, 2)])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_derived_networks_equal_the_validated_construction(self, data):
        # remove_edges, restricted_to and relabeled_subgraph skip the checks
        # and sorts of __init__; each must give the network that __init__
        # builds from the same edges.
        n = data.draw(st.integers(1, 8))
        node = st.integers(0, n - 1)
        links = data.draw(st.lists(st.tuples(node, node, st.sampled_from("cba")), max_size=30))
        net = DocumentNetwork.from_links(n, links)
        edges = list(net.edges())
        removed = data.draw(st.sets(st.sampled_from(edges))) if edges else set()
        keep = data.draw(st.sets(node))
        order = data.draw(st.lists(st.integers(0, n + 1), unique=True))
        new_id = {old: new for new, old in enumerate(order)}
        items = list(net.edge_items())
        derived = [
            (net.remove_edges(removed), DocumentNetwork(
                n, {e: a for e, a in items if e not in removed})),
            (net.restricted_to(keep), DocumentNetwork(
                n, {(s, t): a for (s, t), a in items if s in keep and t in keep})),
            (net.relabeled_subgraph(order)[0], DocumentNetwork(
                len(order),
                {(new_id[s], new_id[t]): a for (s, t), a in items if s in new_id and t in new_id},
            )),
        ]
        for got, validated in derived:
            assert got.node_count == validated.node_count
            assert list(got.edge_items()) == list(validated.edge_items())


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

    def test_iterates_equal_the_csr_product_bit_for_bit(self):
        rng = np.random.default_rng(12)
        # Nodes 2 and 4 are dangling, and seed 4 has no out-links; then a
        # graph without edges.
        cases = [(_net(5, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 2)]), 4), (_net(3, []), 1)]
        for _ in range(40):
            n = int(rng.integers(2, 40))
            cases.append((_net(n, _random_edges(rng, n)), int(rng.integers(n))))
        for net, seed in cases:
            for tolerance, max_iters in ((1e-14, 500), (1e-10, 200), (1e-15, 3)):
                got = personalized_pagerank(
                    net, seed=seed, damping=0.85, tolerance=tolerance, max_iters=max_iters
                )
                scores, converged, iterations = reference_pagerank(
                    net, seed, 0.85, tolerance, max_iters
                )
                assert np.array_equal(got.scores, scores)
                assert (got.converged, got.iterations) == (converged, iterations)

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
        scores = personalized_pagerank(net, seed=0).scores
        sub, old_to_new = topk_subgraph(net, scores, k=4, titles=["A", "B", "C", "D"])
        assert sub.node_count == 4
        remapped = {(old_to_new[s], old_to_new[t]) for s, t in net.edges()}
        assert set(sub.edges()) == remapped

    def test_five_node_fixture_hand_enumerated(self):
        # Scores pick nodes 0, 2, 4; the induced edges are (0,2) and (4,0).
        net = _net(5, [(0, 2), (2, 1), (4, 0), (3, 4), (1, 3)])
        scores = np.array([0.5, 0.1, 0.3, 0.05, 0.2])
        sub, old_to_new = topk_subgraph(net, scores, k=3, titles=["A", "B", "C", "D", "E"])
        assert sorted(old_to_new) == [0, 2, 4]
        assert old_to_new == {0: 0, 2: 1, 4: 2}
        assert set(sub.edges()) == {(0, 1), (2, 0)}

    def test_tie_break_by_title_then_id(self):
        net = _net(3, [])
        scores = np.array([0.2, 0.2, 0.6])
        _, by_title = topk_subgraph(net, scores, k=2, titles=["Zebra", "Apple", "Mid"])
        assert sorted(by_title) == [1, 2]  # "Apple" wins the tie
        _, by_id = topk_subgraph(net, scores, k=2, titles=["Same", "Same", "Mid"])
        assert sorted(by_id) == [0, 2]

    def test_invalid_k(self):
        net = _net(2, [(0, 1)])
        scores = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            topk_subgraph(net, scores, k=0, titles=["A", "B"])
        with pytest.raises(ValueError):
            topk_subgraph(net, scores, k=3, titles=["A", "B"])


def _articles(abstracts: list[str]) -> list[Article]:
    return [Article(id=i, title=f"T{i}", abstract=a) for i, a in enumerate(abstracts)]


class TestNetworkStats:
    def test_complete_directed_graph_density(self):
        net = _net(3, [(s, t) for s in range(3) for t in range(3) if s != t])
        stats = network_stats(net, _articles(["a", "b", "c"]), {})
        assert stats.density_pct == 100.0

    def test_density_formula(self):
        net = _net(4, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0)])
        stats = network_stats(net, _articles(["a"] * 4), {})
        assert stats.density_pct == pytest.approx(100.0 * 5 / 12)
        assert round(stats.density_pct, 2) == 41.67

    def test_vocabulary_and_lengths(self):
        articles = _articles(["one two two", "two three"])
        stats = network_stats(_net(2, [(0, 1)]), articles, {})
        assert stats.n_vocab == 3
        assert stats.doc_length_mean == pytest.approx(2.5)
        assert stats.doc_length_std == pytest.approx(0.5)

    def test_sample_counts(self, fixture_dataset):
        network = fixture_dataset.network
        candidates = fixture_dataset.anchor_candidates()
        stats = network_stats(network, fixture_dataset.articles, candidates)
        total_pos = sum(network.has_edge(s, t) for s, ts in candidates.items() for t in ts)
        assert stats.positives_per_doc_mean == pytest.approx(
            total_pos / fixture_dataset.network.node_count
        )
        assert stats.negatives_per_doc_std >= 0

    def test_topk_then_stats_reports_k_nodes(self, fixture_dataset):
        scores = personalized_pagerank(fixture_dataset.network, seed=0).scores
        titles = [a.title for a in fixture_dataset.articles]
        sub, old_to_new = topk_subgraph(fixture_dataset.network, scores, k=7, titles=titles)
        kept = sorted(old_to_new, key=old_to_new.get)
        articles = [
            Article(id=new, title=fixture_dataset.articles[old].title,
                    abstract=fixture_dataset.articles[old].abstract)
            for new, old in enumerate(kept)
        ]
        stats = network_stats(sub, articles, {})
        assert stats.n_docs == 7
