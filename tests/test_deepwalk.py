"""The sigmoid vs scipy's, SGNS gradients vs finite differences, walks
and their generator state vs one ``rng.integers`` call per step, clique
separation, and the blocked SGD epoch against the per-position reference
loop (bit for bit) and the per-occurrence loop it replaced (within
rounding)."""

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
    _NegativeTable,
    _random_walks,
    _sgd_step,
    expit,
    fit_deepwalk,
    generate_walks,
    sgns_gradients,
    sgns_loss,
)
from wikilinks.graph import DocumentNetwork
from wikilinks.lsa import pair_scores, row_cosines
from wikilinks.synthetic import PlantedCorpusParams, planted_dataset

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
        d, k, lr = 6, 2, 0.3
        table = rng.standard_normal((5, d))
        center = rng.standard_normal(d)
        # Row 1 is a context of one triple and a negative of another; row 3
        # is drawn twice as a negative of one context.
        contexts = [1, 2, 2]
        negatives = [[3, 3], [1, 4], [4, 2]]
        expected_center, expected = center.copy(), table.copy()
        for context, drawn in zip(contexts, negatives):
            g_center, g_context, g_negatives = sgns_gradients(
                center, table[context], table[drawn]
            )
            expected_center -= lr * g_center
            expected[context] -= lr * g_context
            np.subtract.at(expected, drawn, lr * g_negatives)

        ids, occurrences = np.unique(contexts + sum(negatives, []), return_counts=True)
        assert ids.tolist() == [1, 2, 3, 4]
        assert occurrences.tolist() == [2, 3, 2, 2]
        as_context = np.array([contexts.count(row) for row in ids.tolist()])
        negated, rows = -center, table[ids]
        _sgd_step(negated, rows, lr * occurrences, lr * as_context)
        np.testing.assert_allclose(-negated, expected_center, rtol=0, atol=1e-14)
        np.testing.assert_allclose(rows, expected[ids], rtol=0, atol=1e-14)

    def test_gradient_rows_are_the_elementwise_outer_product(self):
        # The reference loop below calls reference_sgd_step, so its updates
        # are checked here against the broadcast product, bit for bit, and
        # the step on the negated center against it.
        rng = np.random.default_rng(15)
        for _ in range(300):
            d = int(rng.integers(1, 80))
            n = int(rng.integers(1, 40))
            center = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 3)
            rows = rng.standard_normal((n, d))
            occurrences = rng.integers(1, 8, n)
            lr = rng.random()
            a, b = lr * occurrences, lr * rng.integers(0, occurrences + 1)
            stepped_center, stepped_rows = center.copy(), rows.copy()
            negated, negated_rows = -center, rows.copy()
            with np.errstate(over="ignore"):
                reference_sgd_step(stepped_center, stepped_rows, a, b)
                _sgd_step(negated, negated_rows, a, b)
                coef = a / (1.0 + np.exp(-np.dot(rows, center))) - b
            assert np.array_equal(stepped_rows, rows - coef[:, None] * center)
            assert np.array_equal(stepped_center, center - np.dot(coef, rows))
            assert np.array_equal(negated_rows, stepped_rows)
            assert np.array_equal(-negated, stepped_center)


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


def _center_gradients(
    center: np.ndarray, rows: np.ndarray, n_contexts: int
) -> tuple[np.ndarray, np.ndarray]:
    """Summed SGNS gradients for one center against its gathered rows,
    one row per occurrence: ``n_contexts`` context rows, then the
    negatives of each context in turn (k rows per context). Returns the
    gradient w.r.t. ``center`` and one gradient row per row of ``rows``,
    the sum of :func:`sgns_gradients` over the triples at the same
    parameters."""
    contexts, negatives = rows[:n_contexts], rows[n_contexts:]
    g = expit(np.concatenate((contexts @ center, negatives @ center)))
    g[:n_contexts] -= 1.0
    grad_center = g[:n_contexts] @ contexts + g[n_contexts:] @ negatives
    return grad_center, np.dot(g[:, None], center[None, :])


def reference_sgd_step(center: np.ndarray, rows: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """The distinct-row SGD step on the center itself, in place: with x
    each row's dot product with ``center``, ``coef = a * s(x) - b``;
    each row moves by ``-coef`` times the center and the center by
    ``-coef @ rows``, both taken before either moves. ``fit_deepwalk``
    holds the center negated instead."""
    coef = np.dot(rows, center)
    np.negative(coef, out=coef)
    np.exp(coef, out=coef)
    coef += 1.0
    np.divide(a, coef, out=coef)
    coef -= b
    grad_rows = np.dot(coef[:, None], center[None, :])
    center -= np.dot(coef, rows)
    rows -= grad_rows


def _reference_setup(network, params, seed):
    """Initial vectors, walks and the negative-sampling table of a fit,
    drawn as ``fit_deepwalk`` draws them, the walks by one
    ``rng.integers`` call per step (:func:`has_edge_walks`)."""
    rng = np.random.default_rng(seed)
    d = params.dimension
    node_vectors = (rng.random((network.node_count, d)) - 0.5) / d
    context_vectors = np.zeros((network.node_count, d))

    walks = has_edge_walks(network, params, rng)

    counts = np.zeros(network.node_count)
    for walk in walks:
        for node in walk:
            counts[node] += 1.0
    weights = counts**0.75
    cumulative = np.cumsum(weights / weights.sum())
    return rng, node_vectors, context_vectors, walks, cumulative


def _positions(walks, params, rng, cumulative):
    """(center, learning rate, contexts, negatives) of every position
    with a context, in epoch order: Python windows and one
    ``rng.random((C, k))`` call per position."""
    total_centers = sum(map(len, walks))
    step = 0
    for walk in walks:
        for i, center in enumerate(walk):
            lr = 0.025 * max(1e-4, 1.0 - step / total_centers)
            step += 1
            contexts = walk[max(0, i - params.window) : i] + walk[i + 1 : i + 1 + params.window]
            if not contexts:
                continue
            drawn = np.searchsorted(cumulative, rng.random((len(contexts), params.negatives)))
            yield center, lr, contexts, drawn


def reference_fit(network, params, seed):
    """The epoch position by position: each position's contexts and
    negatives grouped by ``np.unique`` into distinct rows, then
    :func:`reference_sgd_step` on the center. Returns (node_vectors,
    context_vectors)."""
    rng, node_vectors, context_vectors, walks, cumulative = _reference_setup(
        network, params, seed
    )
    with np.errstate(over="ignore"):
        for center, lr, contexts, drawn in _positions(walks, params, rng, cumulative):
            ids, occurrences = np.unique(contexts + drawn.ravel().tolist(), return_counts=True)
            as_context = np.array([contexts.count(row) for row in ids.tolist()])
            rows = context_vectors[ids]
            reference_sgd_step(node_vectors[center], rows, lr * occurrences, lr * as_context)
            context_vectors[ids] = rows
    return node_vectors, context_vectors


def per_occurrence_fit(network, params, seed):
    """The per-occurrence SGD loop that the distinct-row step replaced:
    one gradient row per context and negative occurrence, applied in turn
    by a 2-D ``np.subtract.at``. Returns (node_vectors, context_vectors)."""
    rng, node_vectors, context_vectors, walks, cumulative = _reference_setup(
        network, params, seed
    )
    for center, lr, contexts, drawn in _positions(walks, params, rng, cumulative):
        ids = np.concatenate((contexts, drawn.ravel()))
        v = node_vectors[center]
        grad_center, grad_rows = _center_gradients(v, context_vectors[ids], len(contexts))
        node_vectors[center] = v - lr * grad_center
        np.subtract.at(context_vectors, ids, lr * grad_rows)
    return node_vectors, context_vectors


def _directed_with_sinks() -> DocumentNetwork:
    # 0 -> 1 -> 2 -> 3 (sink); 4 -> 3; 5 is isolated: walks step back from
    # the sink 3 along its in-links, and walks from 5 have length 1 and no
    # contexts.
    links = [(0, 1, "a"), (1, 2, "a"), (2, 3, "a"), (4, 3, "a"), (1, 0, "a")]
    return DocumentNetwork.from_links(6, links)


def _random_network(n: int, m: int, seed: int) -> DocumentNetwork:
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, (m, 2))
    return DocumentNetwork.from_links(n, [(int(a), int(b), "a") for a, b in pairs if a != b])


# (network, params) cases for the blocked epoch against the reference.
ORACLE_CASES = {
    "two-cliques": (_two_cliques_with_bridge(), SMALL),
    "directed-sinks": (
        _directed_with_sinks(),
        DeepWalkParams(walks_per_node=5, walk_length=6, window=2, negatives=3, dimension=8),
    ),
    "window-past-walk": (
        _two_cliques_with_bridge(),
        DeepWalkParams(walks_per_node=4, walk_length=5, window=9, negatives=2, dimension=7),
    ),
    "one-negative": (
        _two_cliques_with_bridge(),
        DeepWalkParams(walks_per_node=6, walk_length=8, window=3, negatives=1, dimension=5),
    ),
    "many-blocks": (
        _random_network(60, 200, 2),
        DeepWalkParams(walks_per_node=3, walk_length=12, window=4, negatives=5, dimension=64),
    ),
    # No position has a context, so no block groups a row.
    "walk-length-one": (
        _two_cliques_with_bridge(),
        DeepWalkParams(walks_per_node=3, walk_length=1, window=2, negatives=2, dimension=4),
    ),
}
# The largest |difference| allowed between the epoch and the per-occurrence
# loop. They round each position's sum of gradients differently; the
# vectors of these cases stay below 1 in magnitude, and the differences
# below 1e-14.
PER_OCCURRENCE_BOUND = 1e-12


class TestBlockedEpochMatchesReference:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_bit_identical_to_per_position_loop(self, case, seed):
        network, params = ORACLE_CASES[case]
        model = fit_deepwalk(network, params, seed=seed)
        node_vectors, context_vectors = reference_fit(network, params, seed)
        assert np.array_equal(model.node_vectors, node_vectors)
        assert np.array_equal(model.context_vectors, context_vectors)

    @pytest.mark.parametrize("case", ORACLE_CASES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_within_bound_of_per_occurrence_loop(self, case, seed):
        network, params = ORACLE_CASES[case]
        model = fit_deepwalk(network, params, seed=seed)
        node_vectors, context_vectors = per_occurrence_fit(network, params, seed)
        assert np.abs(model.node_vectors - node_vectors).max() <= PER_OCCURRENCE_BOUND
        assert np.abs(model.context_vectors - context_vectors).max() <= PER_OCCURRENCE_BOUND

    def test_walk_length_one_case_trains_nothing(self):
        network, params = ORACLE_CASES["walk-length-one"]
        model = fit_deepwalk(network, params, seed=0)
        assert not model.context_vectors.any()

    def test_many_blocks_case_crosses_block_boundaries(self):
        network, params = ORACLE_CASES["many-blocks"]
        assert network.node_count * params.walks_per_node > 2 * _BLOCK_WALKS


def per_step_walks(adjacency, node_count, params, rng):
    """Walks from nodes ``0 .. node_count - 1`` over ``adjacency`` with
    one ``rng.integers(len(neighbors))`` call per step from a node with
    neighbors; a node that is not a key has none. Each pass permutes the
    node list, which draws as ``rng.permutation(node_count)`` does."""
    walks = []
    for _ in range(params.walks_per_node):
        for start in rng.permutation(np.asarray(list(range(node_count)))):
            walk = [int(start)]
            while len(walk) < params.walk_length and adjacency.get(walk[-1]):
                neighbors = adjacency[walk[-1]]
                walk.append(neighbors[rng.integers(len(neighbors))])
            walks.append(walk)
    return walks


def has_edge_walks(network, params, rng):
    """:func:`per_step_walks` over neighbor lists found by asking
    ``has_edge`` of every pair, both ways."""
    adjacency = {
        u: [
            v
            for v in range(network.node_count)
            if network.has_edge(u, v) or network.has_edge(v, u)
        ]
        for u in range(network.node_count)
    }
    return per_step_walks(adjacency, network.node_count, params, rng)


@st.composite
def _walk_graphs(draw):
    """(node_count, edges): up to 7 nodes, so isolated nodes, sinks and
    2-cycles are common."""
    n = draw(st.integers(1, 7))
    node = st.integers(0, n - 1)
    edges = draw(st.sets(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=16))
    return n, sorted(edges)


class TestWalks:
    @given(
        _walk_graphs(),
        st.integers(1, 3),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    # A 2-cycle and a path out of it (1 -> 2 -> 3).
    @example((4, [(0, 1), (1, 0), (1, 2), (2, 3)]), 3, 5, 0)
    # An isolated node (3) and in-links only (2 has no out-links).
    @example((4, [(0, 2), (1, 2)]), 2, 4, 7)
    @settings(max_examples=200, deadline=None)
    def test_walks_match_has_edge_oracle(self, graph, per_node, length, seed):
        n, edges = graph
        network = DocumentNetwork.from_links(n, [(u, v, "a") for u, v in edges])
        params = DeepWalkParams(walks_per_node=per_node, walk_length=length)
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        assert generate_walks(network, params, rng) == has_edge_walks(network, params, oracle)
        assert rng.bit_generator.state == oracle.bit_generator.state

    # k = 2**31 + 1 rejects (u * k) mod 2**32 below 2**31 - 1, about half of
    # all draws, so the redraw loop runs on every seed; 2**32 - 1 and 2**32
    # are the largest degrees of one 32-bit draw. No graph of such degree is
    # built: a range is the neighbor list.
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 2**31 + 1, 2**32 - 1, 2**32])
    def test_draw_mapping_matches_integers(self, k):
        adjacency = {0: range(k)}
        # A walk steps on only from node 0, and a pass's buffer holds three
        # draws: with 2**31 + 1, three redraws in a row overrun it.
        params = DeepWalkParams(walks_per_node=4, walk_length=4)
        for seed in range(100):
            rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _random_walks(adjacency, 1, params, rng) == per_step_walks(
                adjacency, 1, params, oracle
            )
            assert rng.bit_generator.state == oracle.bit_generator.state

    def test_degree_above_2_32_raises(self):
        # rng.integers(k) draws 64 bits for such k; no network of at most
        # 2**32 nodes has such a degree.
        params = DeepWalkParams(walks_per_node=1, walk_length=2)
        message = r"^node 5 has 4294967297 neighbors; walks take at most 2\*\*32$"
        with pytest.raises(ValueError, match=message):
            _random_walks({5: range(2**32 + 1)}, 6, params, np.random.default_rng(0))

    def test_eval_text_sized_graph_matches_oracle(self):
        # The eval-text workload's corpus and walks: 500 documents, 2 walks
        # of 20 from each.
        network = planted_dataset(PlantedCorpusParams(
            topics=25, docs_per_topic=20, topic_vocab=10, filler_vocab=20, body_tokens=30,
            links_per_doc=3, mentions_per_doc=12, diffuse_fraction=0.9, aliases=25, seed=0,
        )).network
        assert network.node_count == 500
        params = DeepWalkParams(walks_per_node=2, walk_length=20)
        rng, oracle = np.random.default_rng(3), np.random.default_rng(3)
        walks = generate_walks(network, params, rng)
        assert walks == has_edge_walks(network, params, oracle)
        assert rng.bit_generator.state == oracle.bit_generator.state

    def test_walk_counts_and_lengths(self):
        net = _two_cliques_with_bridge()
        rng = np.random.default_rng(0)
        walks = generate_walks(net, SMALL, rng)
        assert len(walks) == 8 * SMALL.walks_per_node
        assert all(1 <= len(w) <= SMALL.walk_length for w in walks)

    def test_isolated_node_walks_have_length_one(self):
        net = DocumentNetwork.from_links(3, [(0, 1, "a")])
        rng = np.random.default_rng(0)
        walks = [w for w in generate_walks(net, SMALL, rng) if w[0] == 2]
        assert walks == [[2]] * SMALL.walks_per_node


class TestParams:
    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("window", 0, "window must be at least 1"),
            ("negatives", -1, "negatives must be at least 1"),
            ("walk_length", "20", "walk_length must be an integer, got '20'"),
            ("dimension", True, "dimension must be an integer, got True"),
        ],
        ids=["window-zero", "negatives-negative", "walk-length-string", "dimension-bool"],
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
            fit_deepwalk(DocumentNetwork(0, {}), DeepWalkParams(), seed=0)

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
        model = fit_deepwalk(net, SMALL, seed=0)
        same, cross = pair_scores(model.node_vectors, [(3, 3), (0, 5)])
        assert same == pytest.approx(1.0)
        assert 0.0 <= cross <= 1.0
        pairs = [(i, j) for i in range(8) for j in range(8)]
        expected = [
            (1 + cosine_oracle(model.node_vectors[i], model.node_vectors[j])) / 2
            for i, j in pairs
        ]
        scores = pair_scores(model.node_vectors, pairs)
        np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)
        assert pair_scores(model.node_vectors, []).shape == (0,)

    def test_clique_scores_intra_above_inter(self):
        net = _two_cliques_with_bridge(size=4)
        model = fit_deepwalk(net, SMALL, seed=2)
        intra, inter = pair_scores(model.node_vectors, [(1, 2), (1, 6)])
        assert intra > inter
