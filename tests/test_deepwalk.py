"""SGNS gradients vs finite differences, walks, clique separation, and
the blocked SGD epoch against the per-position reference loop."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import expit

from wikilinks.deepwalk import (
    _BLOCK_WALKS,
    DeepWalkParams,
    UnsupportedModeError,
    _center_gradients,
    _NegativeTable,
    fit_deepwalk,
    generate_walks,
    score_deepwalk,
    sgns_gradients,
    sgns_loss,
)
from wikilinks.graph import DocumentNetwork
from wikilinks.lsa import row_cosines

from test_lsa import cosine_oracle

SMALL = DeepWalkParams(
    walks_per_node=20, walk_length=10, window=3, negatives=4, dimension=16
)


def finite_difference(func, point: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, one coordinate at
    a time."""
    grad = np.zeros_like(point)
    flat = point.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        up = func()
        flat[i] = saved - h
        down = func()
        flat[i] = saved
        out[i] = (up - down) / (2 * h)
    return grad


def _relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def _two_cliques_with_bridge(size: int = 4) -> DocumentNetwork:
    links = []
    for base in (0, size):
        for i in range(size):
            for j in range(size):
                if i != j:
                    links.append((base + i, base + j, "a"))
    links.append((0, size, "bridge"))
    return DocumentNetwork.from_links(2 * size, links)


class TestSgnsGradients:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            d = int(rng.integers(3, 9))
            k = int(rng.integers(1, 6))
            center = rng.standard_normal(d)
            context = rng.standard_normal(d)
            negatives = rng.standard_normal((k, d))

            g_center, g_context, g_negatives = sgns_gradients(center, context, negatives)
            loss = lambda: sgns_loss(center, context, negatives)  # noqa: E731
            assert _relative_error(g_center, finite_difference(loss, center)) < 1e-4
            assert _relative_error(g_context, finite_difference(loss, context)) < 1e-4
            assert _relative_error(g_negatives, finite_difference(loss, negatives)) < 1e-4

    def test_batched_step_is_sum_of_triples(self):
        rng = np.random.default_rng(14)
        d, contexts_n, k = 6, 3, 2
        center = rng.standard_normal(d)
        contexts = rng.standard_normal((contexts_n, d))
        negatives = rng.standard_normal((contexts_n, k, d))
        rows = np.concatenate((contexts, negatives.reshape(-1, d)))

        g_center, g_rows = _center_gradients(center, rows, contexts_n)
        expected_center = np.zeros(d)
        for c in range(contexts_n):
            gc, gx, gn = sgns_gradients(center, contexts[c], negatives[c])
            expected_center += gc
            assert np.allclose(g_rows[c], gx)
            first = contexts_n + c * k
            assert np.allclose(g_rows[first : first + k], gn)
        assert np.allclose(g_center, expected_center)


    def test_gradient_rows_are_the_elementwise_outer_product(self):
        # The reference loop below calls the same helper, so its rows are
        # checked here against the broadcast product, bit for bit.
        rng = np.random.default_rng(15)
        for _ in range(300):
            d = int(rng.integers(1, 80))
            n = int(rng.integers(1, 12))
            k = int(rng.integers(0, 7))
            center = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 3)
            rows = rng.standard_normal((n * (1 + k), d))
            _, g_rows = _center_gradients(center, rows, n)
            g = expit(np.concatenate((rows[:n] @ center, rows[n:] @ center)))
            g[:n] -= 1.0
            assert np.array_equal(g_rows, g[:, None] * center)


class TestNegativeTable:
    @staticmethod
    def _check(cumulative, draws):
        got = _NegativeTable(cumulative).lookup(draws)
        assert np.array_equal(got, np.searchsorted(cumulative, draws))

    def test_zero_weight_nodes_repeat_table_entries(self):
        weights = np.array([0.0, 3.0, 0.0, 0.0, 1.0, 0.0, 2.0, 0.0]) ** 0.75
        cumulative = np.cumsum(weights / weights.sum())
        rng = np.random.default_rng(16)
        self._check(cumulative, rng.random((2000, 5)))
        # Draws on the repeated entries and on every table entry.
        self._check(cumulative, np.concatenate((cumulative[cumulative < 1.0], [0.0])))

    def test_first_and_last_buckets(self):
        rng = np.random.default_rng(17)
        weights = rng.random(50) ** 3
        cumulative = np.cumsum(weights / weights.sum())
        table = _NegativeTable(cumulative)
        width = 1.0 / table._buckets
        draws = np.array([0.0, width / 2, np.nextafter(width, 0.0), width,
                          1.0 - width, np.nextafter(1.0 - width, 0.0), np.nextafter(1.0, 0.0)])
        self._check(cumulative, draws)

    def test_random_tables_and_draws(self):
        rng = np.random.default_rng(18)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            weights = rng.random(n) ** 4 * (rng.random(n) < 0.7)
            weights[int(rng.integers(n))] += 1.0
            cumulative = np.cumsum(weights / weights.sum())
            draws = np.concatenate((rng.random(500), cumulative[rng.integers(0, n, 20)]))
            self._check(cumulative, draws[draws < 1.0])


def reference_fit(network, params, seed, nodes=None):
    """The per-position SGD loop that ``fit_deepwalk`` replaced: Python
    windows, one ``rng.random`` call and one 2-D ``np.subtract.at`` per
    position. Returns (node_vectors, context_vectors)."""
    if nodes is None:
        nodes = range(network.node_count)
    nodes = sorted(nodes)
    rng = np.random.default_rng(seed)
    d = params.dimension
    node_vectors = (rng.random((network.node_count, d)) - 0.5) / d
    context_vectors = np.zeros((network.node_count, d))

    walks = generate_walks(network, nodes, params, rng)

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
        for i, center in enumerate(walk):
            lr = lr0 * max(1e-4, 1.0 - step / total_centers)
            step += 1
            contexts = walk[max(0, i - window) : i] + walk[i + 1 : i + 1 + window]
            if not contexts:
                continue
            ctx_ids = np.asarray(contexts)
            neg_ids = np.searchsorted(cumulative, rng.random((len(contexts), k)))
            ids = np.concatenate((ctx_ids, neg_ids.ravel()))
            v = node_vectors[center]
            grad_center, grad_rows = _center_gradients(v, context_vectors[ids], len(contexts))
            node_vectors[center] = v - lr * grad_center
            np.subtract.at(context_vectors, ids, lr * grad_rows)
    return node_vectors, context_vectors


def _directed_with_sinks() -> DocumentNetwork:
    # 0 -> 1 -> 2 -> 3 (sink); 4 -> 3; 5 is isolated: walks from 3 and 5
    # have length 1 and no contexts.
    links = [(0, 1, "a"), (1, 2, "a"), (2, 3, "a"), (4, 3, "a"), (1, 0, "a")]
    return DocumentNetwork.from_links(6, links)


def _random_network(n: int, m: int, seed: int) -> DocumentNetwork:
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, (m, 2))
    return DocumentNetwork.from_links(n, [(int(a), int(b), "a") for a, b in pairs if a != b])


# (network, params, nodes) cases for the blocked epoch against the reference.
ORACLE_CASES = {
    "two-cliques": (_two_cliques_with_bridge(), SMALL, None),
    "directed-sinks": (
        _directed_with_sinks(),
        DeepWalkParams(
            walks_per_node=5, walk_length=6, window=2, negatives=3, dimension=8, undirected=False
        ),
        None,
    ),
    "window-past-walk": (
        _two_cliques_with_bridge(),
        DeepWalkParams(walks_per_node=4, walk_length=5, window=9, negatives=2, dimension=7),
        None,
    ),
    "one-negative": (
        _two_cliques_with_bridge(),
        DeepWalkParams(walks_per_node=6, walk_length=8, window=3, negatives=1, dimension=5),
        None,
    ),
    "node-subset": (_random_network(40, 120, 1), SMALL, range(0, 40, 3)),
    "many-blocks": (
        _random_network(60, 200, 2),
        DeepWalkParams(walks_per_node=3, walk_length=12, window=4, negatives=5, dimension=64),
        None,
    ),
}


class TestBlockedEpochMatchesReference:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_bit_identical_to_per_position_loop(self, case, seed):
        network, params, nodes = ORACLE_CASES[case]
        model = fit_deepwalk(network, params, seed=seed, nodes=nodes)
        node_vectors, context_vectors = reference_fit(network, params, seed, nodes)
        assert np.array_equal(model.node_vectors, node_vectors)
        assert np.array_equal(model.context_vectors, context_vectors)

    def test_many_blocks_case_crosses_block_boundaries(self):
        network, params, _ = ORACLE_CASES["many-blocks"]
        assert network.node_count * params.walks_per_node > 2 * _BLOCK_WALKS


class TestWalks:
    def test_walk_counts_and_lengths(self):
        net = _two_cliques_with_bridge()
        rng = np.random.default_rng(0)
        walks = generate_walks(net, range(8), SMALL, rng)
        assert len(walks) == 8 * SMALL.walks_per_node
        assert all(1 <= len(w) <= SMALL.walk_length for w in walks)

    def test_isolated_node_walks_have_length_one(self):
        net = DocumentNetwork.from_links(3, [(0, 1, "a")])
        rng = np.random.default_rng(0)
        walks = generate_walks(net, [2], SMALL, rng)
        assert all(w == [2] for w in walks)

    def test_directed_walks_strand_at_sinks(self):
        net = DocumentNetwork.from_links(2, [(0, 1, "a")])
        params = DeepWalkParams(walks_per_node=3, walk_length=5, undirected=False)
        walks = generate_walks(net, [0, 1], params, np.random.default_rng(0))
        assert all(w == [1] for w in walks if w[0] == 1)


class TestFitDeepwalk:
    def test_empty_network_errors(self):
        with pytest.raises(ValueError):
            fit_deepwalk(DocumentNetwork(0, {}))

    def test_deterministic_given_seed(self):
        net = _two_cliques_with_bridge()
        a = fit_deepwalk(net, SMALL, seed=3)
        b = fit_deepwalk(net, SMALL, seed=3)
        assert np.array_equal(a.node_vectors, b.node_vectors)
        assert np.array_equal(a.context_vectors, b.context_vectors)

    def test_isolated_node_embedding_stays_at_initialization(self):
        net = DocumentNetwork.from_links(5, [(0, 1, "a"), (1, 2, "a"), (2, 0, "a")])
        model = fit_deepwalk(net, SMALL, seed=1)
        isolated = model.node_vectors[4]
        init_scale = 0.5 / SMALL.dimension * np.sqrt(SMALL.dimension)
        assert np.linalg.norm(isolated) < 1.5 * init_scale

    def test_clique_separation(self):
        net = _two_cliques_with_bridge(size=4)
        model = fit_deepwalk(net, SMALL, seed=2)
        pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        values = row_cosines(
            model.node_vectors[[i for i, _ in pairs]], model.node_vectors[[j for _, j in pairs]]
        )
        intra = [v for (i, j), v in zip(pairs, values) if (i < 4) == (j < 4)]
        inter = [v for (i, j), v in zip(pairs, values) if (i < 4) != (j < 4)]
        assert min(intra) > max(inter)

    def test_score_contract(self):
        net = _two_cliques_with_bridge()
        model = fit_deepwalk(net, SMALL, seed=0, nodes=range(8))
        same, cross = score_deepwalk(model, [(3, 3), (0, 5)])
        assert same == pytest.approx(1.0)
        assert 0.0 <= cross <= 1.0
        pairs = [(i, j) for i in range(8) for j in range(8)]
        expected = [
            (1 + cosine_oracle(model.node_vectors[i], model.node_vectors[j])) / 2
            for i, j in pairs
        ]
        np.testing.assert_allclose(score_deepwalk(model, pairs), expected, rtol=0, atol=1e-12)
        assert score_deepwalk(model, []).shape == (0,)

    def test_untrained_node_raises_unsupported_mode(self):
        net = _two_cliques_with_bridge()
        model = fit_deepwalk(net, SMALL, seed=0, nodes=range(4))
        with pytest.raises(UnsupportedModeError):
            score_deepwalk(model, [(0, 1), (0, 6)])

    def test_clique_scores_intra_above_inter(self):
        net = _two_cliques_with_bridge(size=4)
        model = fit_deepwalk(net, SMALL, seed=2)
        intra, inter = score_deepwalk(model, [(1, 2), (1, 6)])
        assert intra > inter
