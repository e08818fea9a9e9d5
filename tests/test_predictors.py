"""AT / LSA / ATILP / random predictors and their oracles."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import wikilinks.predictors as predictors
from wikilinks.anchors import AnchorMap, CandidatePair, build_anchor_map, scan_corpus
from wikilinks.graph import DocumentNetwork
from wikilinks.ingest import Article
from wikilinks.lsa import build_tfidf, embed_text, fit_lsa, row_cosines, tokenize
from wikilinks.predictors import (
    AtilpModel,
    EvalModelConfig,
    ExternalFileMethod,
    Method,
    RunContext,
    atilp_features,
    fit_atilp,
    make_method,
    ols_fit,
)

from conftest import BENCH_CONFIG, write_predictions
from test_lsa import cosine_oracle, dense_svd_oracle


def _map(patterns: dict[str, set[int]], count: int, mode: str = "anchor") -> AnchorMap:
    return AnchorMap(
        mode=mode,
        patterns={p: frozenset(ids) for p, ids in patterns.items()},
        article_count=count,
    )


def _article(doc_id: int, abstract: str, title: str | None = None) -> Article:
    return Article(id=doc_id, title=title or f"T{doc_id}", abstract=abstract)


def _lsa_over(texts: list[str], d: int = 3):
    corpus = [tokenize(t) for t in texts]
    matrix, vocab = build_tfidf(corpus)
    return fit_lsa(matrix, d=d, vocabulary=vocab), matrix


def _context(texts: list[str], d: int = 3, train=None) -> RunContext:
    """A run over ``texts`` whose training documents are ``train`` (all by
    default); the LSA space matches ``_lsa_over`` on those documents."""
    return RunContext(
        articles=[_article(i, t) for i, t in enumerate(texts)],
        train_network=DocumentNetwork.from_links(len(texts), []),
        train_nodes=range(len(texts)) if train is None else train,
        seed=0,
        candidates={},
        title_candidates={},
        config=EvalModelConfig(lsa_dimension=d),
    )


def _triples_per_pair(lsa, doc_matrix, pair: CandidatePair) -> np.ndarray:
    """Loop reference for the batch features: one pair, one anchor at a time."""
    source, target = doc_matrix[pair.source], doc_matrix[pair.target]
    s3 = cosine_oracle(source, target)
    rows = []
    for text in pair.anchor_texts():
        anchor = embed_text(lsa, text)
        rows.append((cosine_oracle(anchor, source), cosine_oracle(anchor, target), s3))
    return np.array(rows)


class TestPrediction:
    """A prediction is a score in [0, 1]; the harness rejects any other."""

    def test_rejects_out_of_range_scores(self, fixture_dataset):
        from wikilinks.evaluation import run_eval

        class Constant(Method):
            def __init__(self, name: str, value: float) -> None:
                self.name, self.value = name, value

            def make_scorer(self, ctx):
                return lambda pairs: np.full(len(pairs), self.value)

        methods = [Constant("high", 1.5), Constant("nan", float("nan")), Constant("one", 1.0)]
        report = run_eval(
            fixture_dataset, methods, runs=1, modes=("transductive",), config=BENCH_CONFIG
        )
        assert sorted(f.method for f in report.failures) == ["high", "nan"]
        assert all("within [0, 1]" in f.error for f in report.failures)
        assert report.entry("one", "transductive") is not None


def _at_scores(method: str, ctx, pairs) -> list[float]:
    return make_method(method).make_scorer(ctx)(pairs).tolist()


class TestPredictAt:
    def test_true_edge_is_predicted_with_anchor_map(self, fixture_dataset):
        ctx = SimpleNamespace(candidates=fixture_dataset.eval_samples())
        edges = list(fixture_dataset.network.edges())[:20]
        assert _at_scores("at_anchor", ctx, edges) == [1.0] * len(edges)

    def test_absent_patterns_predict_zero(self):
        anchor_map = _map({"missing phrase": {1}}, 2)
        ctx = SimpleNamespace(
            candidates=scan_corpus(anchor_map, [_article(0, "unrelated text")])
        )
        assert _at_scores("at_anchor", ctx, [(0, 1)]) == [0.0]

    def test_title_vs_anchor_mode_on_derived_forms(self):
        # "political" is not the title "Politics": the title map misses it,
        # an anchor map that saw "political" on an edge catches it.
        abstract = "the country faced a political crisis"
        article = _article(0, abstract)
        title_map = _map({"politics": {1}}, 2, mode="title")
        anchor_map = _map({"political": {1}}, 2, mode="anchor")
        ctx = SimpleNamespace(
            candidates=scan_corpus(anchor_map, [article]),
            title_candidates=scan_corpus(title_map, [article]),
        )
        assert _at_scores("at_title", ctx, [(0, 1)]) == [0.0]
        assert _at_scores("at_anchor", ctx, [(0, 1)]) == [1.0]


class TestScoreLsa:
    def test_identical_abstracts_score_one(self):
        ctx = _context(["alpha beta gamma", "alpha beta gamma", "other words here"])
        (score,) = make_method("lsa").make_scorer(ctx)([(0, 1)])
        assert score == pytest.approx(1.0, abs=1e-9)

    def test_all_oov_document_scores_half(self):
        # Document 3 is hidden; its text has no known token and folds in to 0.
        texts = ["shared shared alpha", "shared beta", "completely different", "nothing known"]
        ctx = _context(texts, train=[0, 1, 2])
        assert make_method("lsa").make_scorer(ctx)([(3, 0)]).tolist() == [0.5]

    def test_four_doc_fixture_matches_dense_oracle(self):
        texts = [
            "war army battle victory",
            "army battle defeat",
            "market economy trade",
            "trade economy war",
        ]
        _, matrix = _lsa_over(texts, d=3)
        u, s, _ = dense_svd_oracle(matrix.toarray())
        oracle_embeddings = u[:, :3] * s[:3]
        pairs = [(i, j) for i in range(4) for j in range(4)]
        expected = [
            (1 + cosine_oracle(oracle_embeddings[i], oracle_embeddings[j])) / 2 for i, j in pairs
        ]
        scores = make_method("lsa").make_scorer(_context(texts, d=3))(pairs)
        np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)


class TestDocMatrix:
    def test_training_rows_and_hidden_fold_in(self, monkeypatch):
        texts = ["war army battle", "army victory", "economy trade market", "trade war army"]
        ctx = _context(texts, train=[0, 1, 2])
        folded = []

        def counting_embed(model, text):
            folded.append(text)
            return embed_text(model, text)

        monkeypatch.setattr(predictors, "embed_text", counting_embed)
        docs = ctx.doc_matrix()
        assert ctx.doc_matrix() is docs
        model, rows = ctx.lsa()
        for doc, row in rows.items():
            np.testing.assert_array_equal(docs[doc], model.doc_embeddings[row])
        np.testing.assert_array_equal(docs[3], embed_text(model, texts[3]))
        assert folded == [texts[3]]  # each hidden document folds in once


class TestComputeAtilpScores:
    def test_anchor_equal_to_source_abstract(self):
        texts = ["lincoln led the union", "economy of trade", "battles of the war"]
        model, _ = _lsa_over(texts)
        pair = CandidatePair(source=0, target=1, matched=((texts[0], (0, len(texts[0]))),))
        (triple,), _ = atilp_features(model, model.doc_embeddings, [pair], {})
        assert triple[0] == pytest.approx(1.0, abs=1e-6)

    def test_all_oov_anchor(self):
        model, _ = _lsa_over(["alpha beta", "beta gamma", "gamma delta"])
        pair = CandidatePair(source=0, target=1, matched=(("zzz qqq", (0, 7)),))
        (triple,), _ = atilp_features(model, model.doc_embeddings, [pair], {})
        assert triple[0] == 0.0
        assert triple[1] == 0.0

    def test_triples_match_dense_oracle(self):
        texts = ["war army battle", "army victory", "economy trade market"]
        model, matrix = _lsa_over(texts, d=2)
        u, s, vt = dense_svd_oracle(matrix.toarray())
        doc_vecs = u[:, :2] * s[:2]
        anchor = "army battle"
        pair = CandidatePair(source=0, target=2, matched=((anchor, (0, 11)),))
        (triple,), _ = atilp_features(model, model.doc_embeddings, [pair], {})

        counts = {t: anchor.split().count(t) for t in set(anchor.split())}
        q = np.zeros(matrix.shape[1])
        _, vocab = build_tfidf([tokenize(t) for t in texts])
        idf = vocab.idf()
        for token, count in counts.items():
            q[vocab.index[token]] = count * idf[vocab.index[token]]
        anchor_vec = q @ vt[:2].T
        assert triple[0] == pytest.approx(cosine_oracle(anchor_vec, doc_vecs[0]), abs=1e-12)
        assert triple[1] == pytest.approx(cosine_oracle(anchor_vec, doc_vecs[2]), abs=1e-12)
        assert triple[2] == pytest.approx(cosine_oracle(doc_vecs[0], doc_vecs[2]), abs=1e-12)

    def test_rows_follow_pairs_and_anchor_order(self):
        _, _, _, samples, model = _candidate_fixture()
        two_anchors = CandidatePair(
            source=4, target=1, matched=(("red apples", (0, 10)), ("apples", (4, 10)))
        )
        pairs = [p for ps in samples.values() for p in ps] + [two_anchors]
        cache: dict = {}
        features, counts = atilp_features(model, model.doc_embeddings, pairs, cache)
        expected = [_triples_per_pair(model, model.doc_embeddings, p) for p in pairs]
        assert counts.tolist() == [len(rows) for rows in expected]
        np.testing.assert_allclose(features, np.vstack(expected), rtol=0, atol=1e-12)
        assert set(cache) == {t for p in pairs for t in p.anchor_texts()}


class TestOlsFit:
    def test_recovers_reported_average_coefficients(self):
        # Noise-free targets built from the coefficients the full-scale
        # experiments average to; recovery must be exact to 1e-6.
        rng = np.random.default_rng(17)
        features = rng.uniform(-1, 1, size=(2000, 3))
        true_coef = np.array([0.10, 0.36, 1.06])
        targets = features @ true_coef
        coef, intercept = ols_fit(features, targets)
        assert np.allclose(coef, true_coef, atol=1e-6)
        assert abs(intercept) < 1e-6

    def test_ten_sample_fixture_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(18)
        features = rng.standard_normal((10, 3))
        targets = rng.standard_normal(10)
        design = np.hstack([features, np.ones((10, 1))])
        oracle = np.linalg.solve(design.T @ design, design.T @ targets)
        coef, intercept = ols_fit(features, targets)
        assert np.allclose(coef, oracle[:3], atol=1e-9)
        assert intercept == pytest.approx(oracle[3], abs=1e-9)

    def test_rank_deficient_design_minimum_norm(self):
        features = np.column_stack(
            [np.arange(6.0), np.arange(6.0) * 2, np.full(6, 0.5)]
        )
        targets = np.arange(6.0)
        coef, intercept = ols_fit(features, targets)
        prediction = features @ coef + intercept
        assert np.allclose(prediction, targets, atol=1e-9)
        assert np.all(np.isfinite(coef))


def _candidate_fixture():
    """Tiny corpus where anchors are document titles appearing verbatim."""
    texts = [
        "red apples grow on red trees",
        "apples and fruit baskets of the orchard",
        "blue rivers flow past blue stones",
        "rivers and stones shape the valley",
        "red apples near blue rivers sometimes",
    ]
    articles = [_article(i, t) for i, t in enumerate(texts)]
    net = DocumentNetwork.from_links(
        5,
        [
            (0, 1, "apples"),
            (4, 1, "apples"),
            (2, 3, "rivers"),
            (4, 3, "rivers"),
            (1, 0, "red apples"),
        ],
    )
    anchor_map = build_anchor_map(net)
    from wikilinks.anchors import build_eval_samples

    samples = build_eval_samples(net, anchor_map, articles)
    model, _ = _lsa_over(texts, d=3)
    return articles, net, anchor_map, samples, model


class TestFitScoreAtilp:
    def test_fit_and_score_in_unit_interval(self):
        _, net, _, samples, model = _candidate_fixture()
        atilp = fit_atilp(net, model, samples, seed=0)
        pairs = [p for ps in samples.values() for p in ps]
        scores = atilp.predict(model.doc_embeddings, pairs)
        assert len(scores) == len(pairs)
        assert np.all((0.0 <= scores) & (scores <= 1.0))

    def test_fit_matches_per_pair_design(self):
        _, net, _, samples, model = _candidate_fixture()
        atilp = fit_atilp(net, model, samples, seed=0)
        # Every candidate is sampled: positives first, then negatives.
        pairs = [p for s in sorted(samples) for p in samples[s]]
        ordered = [p for p in pairs if p.label] + [p for p in pairs if not p.label]
        rows = [_triples_per_pair(model, model.doc_embeddings, p) for p in ordered]
        labels = [float(p.label) for p, r in zip(ordered, rows) for _ in r]
        coefficients, intercept = ols_fit(np.vstack(rows), np.array(labels))
        np.testing.assert_allclose(atilp.coefficients, coefficients, rtol=0, atol=1e-9)
        assert atilp.intercept == pytest.approx(intercept, abs=1e-9)

    def test_shortfall_recorded(self):
        _, net, _, samples, model = _candidate_fixture()
        atilp = fit_atilp(net, model, samples, seed=0, n_positive=1000, n_negative=1000)
        total_pos = sum(1 for ps in samples.values() for p in ps if p.label)
        total_neg = sum(1 for ps in samples.values() for p in ps if not p.label)
        assert atilp.n_positive == total_pos < 1000
        assert atilp.n_negative == total_neg < 1000

    def test_fit_requires_both_labels(self):
        _, net, _, samples, model = _candidate_fixture()
        positives_only = {
            s: [p for p in ps if p.label] for s, ps in samples.items()
        }
        with pytest.raises(ValueError):
            fit_atilp(net, model, positives_only, seed=0)

    def test_constant_feature_does_not_crash(self):
        rng = np.random.default_rng(19)
        features = np.column_stack(
            [rng.standard_normal(50), rng.standard_normal(50), np.full(50, 0.7)]
        )
        targets = rng.integers(0, 2, size=50).astype(float)
        coef, intercept = ols_fit(features, targets)
        assert np.all(np.isfinite(coef)) and np.isfinite(intercept)

    def test_pure_s3_model_orders_like_lsa(self):
        _, net, _, samples, model = _candidate_fixture()
        pure_s3 = AtilpModel(
            coefficients=np.array([0.0, 0.0, 1.0]), intercept=0.0, lsa=model
        )
        pairs = [p for ps in samples.values() for p in ps]
        docs = model.doc_embeddings
        atilp_scores = pure_s3.predict(docs, pairs)
        lsa_scores = (
            1 + row_cosines(docs[[p.source for p in pairs]], docs[[p.target for p in pairs]])
        ) / 2
        # All fixture cosines are non-negative, so clamping keeps order.
        assert min(s for s in atilp_scores) >= 0.0
        order_a = sorted(range(len(pairs)), key=lambda i: (atilp_scores[i], i))
        order_l = sorted(range(len(pairs)), key=lambda i: (lsa_scores[i], i))
        assert order_a == order_l

    def test_max_over_anchors_and_clamp(self):
        texts = ["alpha beta gamma", "gamma delta", "epsilon zeta"]
        model, _ = _lsa_over(texts)
        docs = model.doc_embeddings
        pair = CandidatePair(
            source=0, target=1, matched=(("alpha", (0, 5)), ("gamma", (11, 16)))
        )
        atilp = AtilpModel(
            coefficients=np.array([2.0, 2.0, 2.0]), intercept=0.5, lsa=model
        )
        triples, _ = atilp_features(model, docs, [pair], {})
        raw = triples @ atilp.coefficients + atilp.intercept
        (score,) = atilp.predict(docs, [pair])
        assert score == pytest.approx(min(1.0, max(0.0, raw.max())))
        assert score == 1.0  # clamped

        # Unclamped, a batch of pairs: each score is its own anchors' maximum.
        _, _, _, samples, model = _candidate_fixture()
        docs = model.doc_embeddings
        # One pair per anchor order, so the maximum sits first in one of them.
        matched = (("blue rivers", (16, 27)), ("rivers", (21, 27)))
        two_anchors = [
            CandidatePair(source=4, target=3, matched=matched),
            CandidatePair(source=4, target=3, matched=matched[::-1]),
        ]
        pairs = [p for ps in samples.values() for p in ps] + two_anchors
        atilp = AtilpModel(coefficients=np.array([0.3, -0.2, 0.1]), intercept=0.2, lsa=model)
        raw = _triples_per_pair(model, docs, two_anchors[0]) @ atilp.coefficients
        assert 0.0 < raw.min() + atilp.intercept < raw.max() + atilp.intercept < 1.0
        expected = [
            min(1.0, max(0.0, float(
                (_triples_per_pair(model, docs, p) @ atilp.coefficients + atilp.intercept).max()
            )))
            for p in pairs
        ]
        np.testing.assert_allclose(atilp.predict(docs, pairs), expected, rtol=0, atol=1e-12)
        assert atilp.predict(docs, []).shape == (0,)

    def test_atilp_method_embeds_each_anchor_once(self, monkeypatch, fixture_dataset):
        from wikilinks.evaluation import split_inductive

        samples = fixture_dataset.eval_samples()
        split = split_inductive(fixture_dataset.network, samples, 0.2, run_seed=0)
        ctx = RunContext(
            articles=fixture_dataset.articles,
            train_network=split.train_network,
            train_nodes=split.train_nodes,
            seed=0,
            candidates=samples,
            title_candidates={},
            config=BENCH_CONFIG,
        )
        embedded = []

        def counting_embed(model, text):
            embedded.append(text)
            return embed_text(model, text)

        monkeypatch.setattr(predictors, "embed_text", counting_embed)
        scorer = make_method("atilp").make_scorer(ctx)
        scores = scorer([(s, t) for s, t, _ in split.test_pairs])
        assert len(scores) == len(split.test_pairs)
        assert len(embedded) == len(set(embedded))


class TestScoreRandom:
    @staticmethod
    def _scorer(seed: int):
        return make_method("random").make_scorer(SimpleNamespace(seed=seed))

    def test_reproducible_sequence(self):
        pairs = [(0, 1)] * 10
        assert self._scorer(123)(pairs[:1]).tolist() == self._scorer(123)(pairs[:1]).tolist()
        scorer = self._scorer(5)
        seq1 = np.concatenate([scorer(pairs[:4]), scorer(pairs[4:])])
        seq2 = self._scorer(5)(pairs)
        np.testing.assert_array_equal(seq1, seq2)

    def test_mean_near_half(self):
        draws = self._scorer(6)([(0, 1)] * 100_000)
        assert 0.495 <= draws.mean() <= 0.505

    def test_range(self):
        draws = self._scorer(7)([(0, 1)] * 1000)
        assert np.all((0.0 <= draws) & (draws <= 1.0))


class TestExternalFileMethod:
    def test_matches_internal_method_emitting_same_scores(self, tmp_path, fixture_dataset):
        from wikilinks.evaluation import run_eval

        def formula(s: int, t: int) -> float:
            return ((s * 31 + t * 17) % 97) / 96.0

        n = fixture_dataset.network.node_count
        write_predictions(
            tmp_path / "external.tsv",
            ((s, t, formula(s, t)) for s in range(n) for t in range(n) if s != t),
        )

        class FormulaMethod(Method):
            name = "formula"

            def make_scorer(self, ctx):
                return lambda pairs: np.array([formula(s, t) for s, t in pairs])

        external = ExternalFileMethod("external", tmp_path / "external.tsv")
        report = run_eval(
            fixture_dataset,
            [FormulaMethod(), external],
            runs=2,
            base_seed=0,
            config=BENCH_CONFIG,
        )
        for mode in ("inductive", "transductive"):
            internal = report.entry("formula", mode)
            from_file = report.entry("external", mode)
            assert internal.per_run == from_file.per_run

    def test_missing_pairs_score_zero(self, tmp_path):
        write_predictions(tmp_path / "p.tsv", [(0, 1, 0.25)])
        method = ExternalFileMethod("x", tmp_path / "p.tsv")
        scorer = method.make_scorer(None)
        assert scorer([(0, 1), (5, 6)]).tolist() == [0.25, 0.0]


class TestMakeMethod:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_method("nonsense")

    def test_builtins_resolve(self):
        for name in ("random", "at_title", "at_anchor", "lsa", "deepwalk", "atilp"):
            assert make_method(name).name == name


class TestAtilpTrainingRestriction:
    def test_target_restriction_excludes_hidden_documents(self):
        # The only negative candidate targets doc 2; restricting targets to
        # the retained docs {0, 1} must leave the fit without negatives.
        articles, net, _, samples, model = (None,) * 5
        texts = ["alpha beta", "alpha words here", "beta words there"]
        articles = [_article(i, t) for i, t in enumerate(texts)]
        net = DocumentNetwork.from_links(3, [(0, 1, "alpha"), (1, 2, "beta")])
        anchor_map = build_anchor_map(net)
        from wikilinks.anchors import build_eval_samples

        samples = build_eval_samples(net, anchor_map, articles)
        model, _ = _lsa_over(texts, d=2)
        # doc 0 contains "beta" but has no edge to 2: the sole negative.
        negatives = [p for ps in samples.values() for p in ps if not p.label]
        assert [(p.source, p.target) for p in negatives] == [(0, 2)]
        fit_atilp(net, model, samples, seed=0)  # unrestricted: fits fine
        with pytest.raises(ValueError):
            fit_atilp(net, model, samples, seed=0, targets=[0, 1])
