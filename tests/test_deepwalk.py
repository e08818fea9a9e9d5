"""The sigmoid vs scipy's, SGNS gradients vs finite differences, walks,
clique separation, and the blocked SGD epoch against the per-position
reference loop."""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wikilinks.deepwalk import (
    _BLOCK_WALKS,
    DeepWalkParams,
    UnsupportedModeError,
    _center_gradients,
    _NegativeTable,
    expit,
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


class TestExpit:
    def test_within_rounding_of_scipy_and_silent(self):
        limits = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf]
        grid = np.concatenate((np.linspace(-800.0, 800.0, 400_001), limits))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(grid)
            scalars = [expit(x) for x in limits]
        want = scipy.special.expit(grid)
        # numpy's exp and the C library's each round within one unit in the
        # last place, so each sigmoid is within 2 eps of the exact value
        # (one more rounding for the sum, one for the quotient); results
        # below the normal range keep an absolute error of a subnormal step.
        tiny = np.finfo(float).smallest_subnormal
        np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps, atol=2 * tiny)
        assert got[-len(limits):].tolist() == want[-len(limits):].tolist()
        assert scalars == [0.5, 0.5, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]


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
            with np.errstate(over="ignore"):
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
        if nodes is None:
            nodes = range(network.node_count)
        model = fit_deepwalk(network, params, seed=seed, nodes=nodes)
        node_vectors, context_vectors = reference_fit(network, params, seed, nodes)
        assert np.array_equal(model.node_vectors, node_vectors)
        assert np.array_equal(model.context_vectors, context_vectors)

    def test_many_blocks_case_crosses_block_boundaries(self):
        network, params, _ = ORACLE_CASES["many-blocks"]
        assert network.node_count * params.walks_per_node > 2 * _BLOCK_WALKS


def has_edge_walks(network, nodes, params, seed):
    """Walks drawn from ``default_rng(seed)`` as ``generate_walks`` draws
    them, over neighbor lists found by asking ``has_edge`` of every
    ordered pair: a node outside ``nodes`` has no neighbors."""
    adjacency = {
        u: [
            v
            for v in range(network.node_count)
            if network.has_edge(u, v) or (params.undirected and network.has_edge(v, u))
        ]
        for u in nodes
    }
    rng = np.random.default_rng(seed)
    walks = []
    for _ in range(params.walks_per_node):
        for start in rng.permutation(np.asarray(nodes)):
            walk = [int(start)]
            while len(walk) < params.walk_length and adjacency.get(walk[-1]):
                neighbors = adjacency[walk[-1]]
                walk.append(neighbors[rng.integers(len(neighbors))])
            walks.append(walk)
    return walks


@st.composite
def _walk_graphs(draw):
    """(node_count, edges, nodes): up to 7 nodes, so isolated nodes, sinks
    and 2-cycles are common; ``nodes`` is an ordered subset."""
    n = draw(st.integers(1, 7))
    node = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=16))
    nodes = draw(st.one_of(st.just(list(range(n))), st.lists(node, unique=True)))
    return n, sorted(edges), nodes


class TestWalks:
    @given(
        _walk_graphs(),
        st.booleans(),
        st.integers(1, 3),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    # A 2-cycle, a sink (2) and a node outside ``nodes`` (3, reached from 2).
    @example((4, [(0, 1), (1, 0), (1, 2), (2, 3)], [2, 0, 1]), False, 3, 5, 0)
    @example((4, [(0, 1), (1, 0), (1, 2), (2, 3)], [2, 0, 1]), True, 3, 5, 0)
    # An isolated node (3) and in-links only (2 has no out-links).
    @example((4, [(0, 2), (1, 2)], [0, 1, 2, 3]), False, 2, 4, 7)
    @example((4, [(0, 2), (1, 2)], [0, 1, 2, 3]), True, 2, 4, 7)
    @settings(max_examples=200, deadline=None)
    def test_walks_match_has_edge_oracle(self, graph, undirected, per_node, length, seed):
        n, edges, nodes = graph
        network = DocumentNetwork.from_links(n, [(u, v, "a") for u, v in edges])
        params = DeepWalkParams(
            walks_per_node=per_node, walk_length=length, undirected=undirected
        )
        walks = generate_walks(network, nodes, params, np.random.default_rng(seed))
        assert walks == has_edge_walks(network, nodes, params, seed)

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


class TestParams:
    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("window", 0, "window must be at least 1"),
            ("negatives", -1, "negatives must be at least 1"),
            ("walk_length", "20", "walk_length must be an integer, got '20'"),
            ("dimension", True, "dimension must be an integer, got True"),
            ("learning_rate", 0, "learning_rate must be a finite number above 0"),
            ("learning_rate", float("nan"), "learning_rate must be a finite number above 0"),
            ("undirected", 1, "undirected must be true or false"),
        ],
        ids=["window-zero", "negatives-negative", "walk-length-string", "dimension-bool",
             "learning-rate-zero", "learning-rate-nan", "undirected-int"],
    )
    def test_bad_value_raises_naming_the_field(self, name, value, message):
        # window=0 would make no SGD update and return the random start.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DeepWalkParams(**{name: value})

    def test_numpy_integer_counts_accepted(self):
        counts = dict(walks_per_node=2, walk_length=5, window=2, negatives=1, dimension=4)
        params = DeepWalkParams(**{name: np.int64(v) for name, v in counts.items()})
        assert params == DeepWalkParams(**counts)


class TestFitDeepwalk:
    def test_empty_network_errors(self):
        with pytest.raises(ValueError):
            fit_deepwalk(DocumentNetwork(0, {}), DeepWalkParams(), seed=0, nodes=range(0))

    def test_deterministic_given_seed(self):
        net = _two_cliques_with_bridge()
        a = fit_deepwalk(net, SMALL, seed=3, nodes=range(net.node_count))
        b = fit_deepwalk(net, SMALL, seed=3, nodes=range(net.node_count))
        assert np.array_equal(a.node_vectors, b.node_vectors)
        assert np.array_equal(a.context_vectors, b.context_vectors)

    def test_isolated_node_embedding_stays_at_initialization(self):
        net = DocumentNetwork.from_links(5, [(0, 1, "a"), (1, 2, "a"), (2, 0, "a")])
        model = fit_deepwalk(net, SMALL, seed=1, nodes=range(net.node_count))
        isolated = model.node_vectors[4]
        init_scale = 0.5 / SMALL.dimension * np.sqrt(SMALL.dimension)
        assert np.linalg.norm(isolated) < 1.5 * init_scale

    def test_clique_separation(self):
        net = _two_cliques_with_bridge(size=4)
        model = fit_deepwalk(net, SMALL, seed=2, nodes=range(net.node_count))
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
        model = fit_deepwalk(net, SMALL, seed=2, nodes=range(net.node_count))
        intra, inter = score_deepwalk(model, [(1, 2), (1, 6)])
        assert intra > inter
