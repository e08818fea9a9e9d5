"""Tokenizer, TF-IDF, truncated SVD vs a dense oracle, fold-in, cosine,
and the Gram-matrix fit and vectorized TF-IDF against the SVD and
per-token loops they replaced."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from wikilinks.lsa import (
    LsaModel,
    Vocabulary,
    build_tfidf,
    embed_text,
    fit_lsa,
    row_cosines,
    tokenize,
)
from wikilinks.synthetic import PlantedCorpusParams, planted_dataset


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """One pair through the row-wise helper."""
    return float(row_cosines(u[None, :], v[None, :])[0])


def cosine_oracle(u: np.ndarray, v: np.ndarray) -> float:
    """Textbook cosine of two nonzero vectors."""
    return float(u @ v) / (math.sqrt(float(u @ u)) * math.sqrt(float(v @ v)))


def dense_svd_oracle(matrix: np.ndarray):
    """Full SVD through a different LAPACK driver than the production path."""
    return scipy.linalg.svd(matrix, full_matrices=False, lapack_driver="gesvd")


def reference_build_tfidf(corpus: list[list[str]]) -> tuple[sp.csr_matrix, Vocabulary]:
    """The per-token TF-IDF loop that ``build_tfidf`` replaced: one
    Counter per document, one cell count * idf[col] at a time."""
    df: Counter[str] = Counter()
    for tokens in corpus:
        df.update(set(tokens))
    token_list = tuple(sorted(df))
    index = {token: i for i, token in enumerate(token_list)}
    df_arr = np.array([df[token] for token in token_list], dtype=float)
    vocabulary = Vocabulary(index=index, document_frequency=df_arr, corpus_size=len(corpus))
    idf = vocabulary.idf()
    rows, cols, vals = [], [], []
    for row, tokens in enumerate(corpus):
        for token, count in Counter(tokens).items():
            col = index[token]
            rows.append(row)
            cols.append(col)
            vals.append(count * idf[col])
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(len(corpus), len(token_list)))
    matrix.eliminate_zeros()
    return matrix, vocabulary


def reference_fit_lsa(matrix, d: int, vocabulary: Vocabulary | None = None) -> LsaModel:
    """The dense path that ``fit_lsa`` replaced: every singular triplet
    of the densified matrix, the top d kept, zero-padded past the rank."""
    u, s, vt = np.linalg.svd(matrix.toarray(), full_matrices=False)
    u, s, vt = u[:, :d], s[:d], vt[:d]
    pad = d - len(s)
    u = np.hstack([u, np.zeros((u.shape[0], pad))])
    s = np.concatenate([s, np.zeros(pad)])
    vt = np.vstack([vt, np.zeros((pad, vt.shape[1]))])
    return LsaModel(
        dimension=d,
        projection=vt.T.copy(),
        doc_embeddings=u * s,
        singular_values=s,
        idf=vocabulary.idf() if vocabulary is not None else None,
        vocabulary=vocabulary,
    )


@pytest.fixture(scope="module")
def planted_texts() -> list[str]:
    """Abstracts of a noisy planted-topic corpus, shaped like the text
    benchmark's at a fifth of its size: more terms than documents."""
    params = PlantedCorpusParams(
        topics=10, docs_per_topic=10, topic_vocab=10, filler_vocab=20, body_tokens=30,
        links_per_doc=3, mentions_per_doc=12, diffuse_fraction=0.9, aliases=10, seed=3,
    )
    return [article.abstract for article in planted_dataset(params).articles]


class TestTokenize:
    def test_words_and_numbers(self):
        assert tokenize("Abraham Lincoln (1809)") == ["abraham", "lincoln", "1809"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_splits(self):
        assert tokenize("U.S. economy") == ["u", "s", "economy"]

    def test_underscore_splits(self):
        assert tokenize("snake_case") == ["snake", "case"]


class TestBuildTfidf:
    def test_token_in_every_document_vanishes(self):
        matrix, vocab = build_tfidf([["common", "alpha"], ["common", "beta"]])
        col = vocab.index["common"]
        assert matrix[:, col].nnz == 0

    def test_cell_value_against_formula(self):
        matrix, vocab = build_tfidf([["only", "only"], ["other"]])
        cell = matrix[0, vocab.index["only"]]
        assert abs(cell - 2 * math.log(2)) < 1e-12
        assert cell == pytest.approx(1.3862943611198906)

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError):
            build_tfidf([])
        with pytest.raises(ValueError):
            build_tfidf([[], []])

    def test_vocabulary_invariants(self):
        _, vocab = build_tfidf([["b", "a"], ["a", "c"]])
        assert vocab.index == {"a": 0, "b": 1, "c": 2}
        assert vocab.document_frequency.min() >= 1
        assert vocab.corpus_size == 2


class TestFitLsa:
    def test_full_rank_reconstruction(self):
        matrix = np.diag([3.0, 2.0, 1.0])
        model = fit_lsa(sp.csr_matrix(matrix), d=3)
        approx = model.doc_embeddings @ model.projection.T
        assert np.linalg.norm(approx - matrix) < 1e-6

    def test_rank_one_singular_value(self):
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([3.0, 4.0])
        model = fit_lsa(sp.csr_matrix(np.outer(u, v)), d=1)
        assert abs(model.singular_values[0] - np.linalg.norm(u) * np.linalg.norm(v)) < 1e-8

    def test_top_values_match_dense_oracle(self):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((20, 30))
        model = fit_lsa(sp.csr_matrix(matrix), d=5)
        _, s_oracle, _ = dense_svd_oracle(matrix)
        assert np.allclose(model.singular_values, s_oracle[:5], atol=1e-6)

    def test_frobenius_error_non_increasing_in_d(self):
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((12, 9))
        errors = []
        for d in range(1, 10):
            model = fit_lsa(sp.csr_matrix(matrix), d=d)
            approx = model.doc_embeddings @ model.projection.T
            errors.append(np.linalg.norm(approx - matrix))
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))

    def test_zero_padding_beyond_rank(self):
        matrix = sp.csr_matrix(np.outer([1.0, 1.0], [1.0, 2.0, 3.0]))
        model = fit_lsa(matrix, d=5)
        assert model.doc_embeddings.shape == (2, 5)
        assert np.allclose(model.doc_embeddings[:, 2:], 0.0)
        assert np.allclose(model.singular_values[2:], 0.0)

    def test_d_below_one_errors(self):
        with pytest.raises(ValueError):
            fit_lsa(sp.csr_matrix(np.eye(2)), d=0)

    def test_randomized_path_recovers_low_rank_exactly(self):
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((200, 50)) @ rng.standard_normal((50, 8))
        matrix = matrix @ rng.standard_normal((8, 300))  # exact rank 8
        model = fit_lsa(sp.csr_matrix(matrix), d=8, seed=5, method="randomized")
        _, s_oracle, _ = dense_svd_oracle(matrix)
        assert np.allclose(model.singular_values, s_oracle[:8], rtol=1e-8, atol=1e-8)

    def test_randomized_path_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        matrix = sp.csr_matrix(rng.standard_normal((40, 60)))
        a = fit_lsa(matrix, d=4, seed=9, method="randomized")
        b = fit_lsa(matrix, d=4, seed=9, method="randomized")
        assert np.array_equal(a.doc_embeddings, b.doc_embeddings)

    def test_unknown_method_errors(self):
        with pytest.raises(ValueError):
            fit_lsa(sp.csr_matrix(np.eye(2)), d=1, method="magic")


class TestAgainstReplacedPaths:
    def test_tfidf_cells_equal_the_per_token_loop(self, planted_texts):
        rng = np.random.default_rng(6)
        words = [f"w{i}" for i in range(30)]
        random_corpus = [rng.choice(words, size=int(rng.integers(0, 12))).tolist()
                         for _ in range(40)]
        for corpus in ([tokenize(t) for t in planted_texts], random_corpus):
            matrix, vocab = build_tfidf(corpus)
            expected, expected_vocab = reference_build_tfidf(corpus)
            assert vocab.index == expected_vocab.index
            assert np.array_equal(vocab.document_frequency, expected_vocab.document_frequency)
            assert vocab.corpus_size == expected_vocab.corpus_size
            assert matrix.shape == expected.shape
            assert np.array_equal(matrix.indptr, expected.indptr)
            assert np.array_equal(matrix.indices, expected.indices)
            assert np.array_equal(matrix.data, expected.data)

    def test_cosines_agree_with_the_svd_path(self, planted_texts):
        corpus = [tokenize(t) for t in planted_texts]
        matrix, vocab = build_tfidf(corpus)
        assert matrix.shape[0] < matrix.shape[1]
        model = fit_lsa(matrix, d=24, vocabulary=vocab)
        expected = reference_fit_lsa(matrix, 24, vocab)
        np.testing.assert_allclose(
            model.singular_values, expected.singular_values, rtol=1e-9, atol=0
        )
        rng = np.random.default_rng(7)
        a, b = rng.integers(0, matrix.shape[0], (2, 2000))
        np.testing.assert_allclose(
            row_cosines(model.doc_embeddings[a], model.doc_embeddings[b]),
            row_cosines(expected.doc_embeddings[a], expected.doc_embeddings[b]),
            rtol=0, atol=1e-9,
        )
        # Fold-ins of spans of the training text, against the documents.
        spans = [" ".join(tokens[i : i + 3]) for tokens in corpus[:50] for i in (0, 5)]
        folded = np.array([embed_text(model, text) for text in spans])
        folded_expected = np.array([embed_text(expected, text) for text in spans])
        targets = rng.integers(0, matrix.shape[0], len(spans))
        np.testing.assert_allclose(
            row_cosines(folded, model.doc_embeddings[targets]),
            row_cosines(folded_expected, expected.doc_embeddings[targets]),
            rtol=0, atol=1e-9,
        )

    @staticmethod
    def _agree_up_to_sign(model: LsaModel, expected: LsaModel, rank: int) -> None:
        signs = np.sign(np.sum(model.projection[:, :rank] * expected.projection[:, :rank], axis=0))
        np.testing.assert_allclose(
            model.singular_values[:rank], expected.singular_values[:rank], atol=1e-9
        )
        np.testing.assert_allclose(
            model.doc_embeddings[:, :rank] * signs, expected.doc_embeddings[:, :rank], atol=1e-9
        )
        np.testing.assert_allclose(
            model.projection[:, :rank] * signs, expected.projection[:, :rank], atol=1e-9
        )

    def test_tall_matrix(self):
        rng = np.random.default_rng(8)
        matrix = sp.csr_matrix(rng.standard_normal((40, 12)) * (rng.random((40, 12)) < 0.5))
        model = fit_lsa(matrix, d=6)
        self._agree_up_to_sign(model, reference_fit_lsa(matrix, 6), 6)
        assert model.doc_embeddings.shape == (40, 6)
        assert model.projection.shape == (12, 6)

    def test_rank_deficient_beyond_rank_is_exactly_zero(self):
        rng = np.random.default_rng(9)
        for shape in ((10, 25), (25, 10)):
            matrix = sp.csr_matrix(
                rng.standard_normal((shape[0], 3)) @ rng.standard_normal((3, shape[1]))
            )
            model = fit_lsa(matrix, d=8)
            self._agree_up_to_sign(model, reference_fit_lsa(matrix, 3), 3)
            assert np.all(model.singular_values[:3] > 0)
            assert np.all(model.singular_values[3:] == 0.0)
            assert np.all(model.doc_embeddings[:, 3:] == 0.0)
            assert np.all(model.projection[:, 3:] == 0.0)

    @pytest.mark.parametrize("shape", [(1, 7), (7, 1)], ids=["one-row", "one-column"])
    def test_single_row_or_column(self, shape):
        matrix = sp.csr_matrix(np.arange(1.0, 8.0).reshape(shape))
        model = fit_lsa(matrix, d=3)
        self._agree_up_to_sign(model, reference_fit_lsa(matrix, 3), 1)
        assert model.singular_values[0] == pytest.approx(math.sqrt(140.0), rel=1e-12)
        assert np.all(model.singular_values[1:] == 0.0)
        approx = model.doc_embeddings @ model.projection.T
        np.testing.assert_allclose(approx, matrix.toarray(), atol=1e-12)

    def test_zero_matrix_embeds_to_zero(self):
        model = fit_lsa(sp.csr_matrix((3, 5)), d=2)
        assert np.all(model.singular_values == 0.0)
        assert np.all(model.doc_embeddings == 0.0)
        assert np.all(model.projection == 0.0)


class TestEmbedText:
    @staticmethod
    def _model(corpus_texts, d=4):
        corpus = [tokenize(t) for t in corpus_texts]
        matrix, vocab = build_tfidf(corpus)
        return fit_lsa(matrix, d=d, vocabulary=vocab)

    def test_fold_in_matches_training_embedding(self):
        texts = [
            "lincoln war president union",
            "war battle army soldier",
            "economy trade market price",
            "market price lincoln trade",
        ]
        model = self._model(texts, d=3)
        for i, text in enumerate(texts):
            folded = embed_text(model, text)
            assert cosine(folded, model.doc_embeddings[i]) > 1 - 1e-6
            np.testing.assert_allclose(folded, model.doc_embeddings[i], rtol=1e-6, atol=1e-9)

    def test_out_of_vocabulary_text_is_zero(self):
        model = self._model(["alpha beta", "beta gamma"])
        assert np.array_equal(embed_text(model, "unknown words"), np.zeros(4))

    def test_anchor_closer_to_its_target_than_to_random_article(self):
        # The anchor's tokens dominate the target article's text.
        texts = [
            "american civil war american civil war battles armies",
            "gardening flowers seeds soil watering",
            "the war between the states was a civil conflict",
        ]
        model = self._model(texts, d=3)
        anchor = embed_text(model, "American Civil War")
        target_cos = cosine(anchor, model.doc_embeddings[0])
        random_cos = cosine(anchor, model.doc_embeddings[1])
        assert target_cos > random_cos

    def test_model_without_vocabulary_rejects_text(self):
        model = fit_lsa(sp.csr_matrix(np.eye(3)), d=2)
        with pytest.raises(ValueError):
            embed_text(model, "anything")


class TestCosine:
    def test_self_similarity(self):
        v = np.array([0.3, -1.2, 4.0])
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_known_value(self):
        got = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert abs(got - 0.70711) < 1e-5
        assert got == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_zero_norm_convention(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0
        rows = row_cosines(np.zeros((2, 3)), np.ones((2, 3)))
        assert rows.tolist() == [0.0, 0.0]

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((50, 6))
        v = rng.standard_normal((50, 6))
        a = rng.uniform(0.1, 10, size=(50, 1))
        b = rng.uniform(0.1, 10, size=(50, 1))
        np.testing.assert_array_equal(row_cosines(u, v), row_cosines(v, u))
        np.testing.assert_allclose(row_cosines(a * u, b * v), row_cosines(u, v), atol=1e-12)

    def test_rows_match_pairwise_oracle(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((40, 9))
        v = rng.standard_normal((40, 9))
        expected = [cosine_oracle(x, y) for x, y in zip(u, v)]
        np.testing.assert_allclose(row_cosines(u, v), expected, rtol=0, atol=1e-12)
        assert row_cosines(np.zeros((0, 9)), np.zeros((0, 9))).shape == (0,)
