"""Text embeddings by latent semantic analysis.

TF-IDF document vectors, held in compressed sparse rows, factored with
an exact truncated SVD: the top eigenpairs of the Gram matrix of the
matrix's smaller side, summed over dense blocks of its long side. New
text folds into the fitted space by projecting its TF-IDF vector
through the right singular vectors (q @ V, without inverse-sigma
scaling), which keeps fold-in vectors on the same scale as the stored
document embeddings U * sigma.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

# The Gram matrix of the smaller side is dense and eigendecomposed
# whole, so that side holds at most this many rows or columns.
_GRAM_SIDE_LIMIT = 5_000
# Dense blocks of the long side hold at most this many cells.
_DENSE_CELL_LIMIT = 2_000_000

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Every ASCII character that is not a letter or a digit, to a space.
_ASCII_SEPARATORS = str.maketrans({c: " " for c in map(chr, range(128)) if not c.isalnum()})


def tokenize(text: str) -> list[str]:
    """Lowercased tokens split on non-alphanumeric boundaries.

    No stemming, no stop-word removal; single characters count. A token
    is a maximal run of ``_TOKEN_RE``'s ``[^\\W_]``, the characters for
    which ``str.isalnum()`` is true. Lowercased text that is all ASCII
    takes a faster path with the same tokens: every other ASCII
    character becomes a space, and ``str.split()`` splits on the spaces.
    """
    lowered = text.lower()
    if lowered.isascii():
        return lowered.translate(_ASCII_SEPARATORS).split()
    return _TOKEN_RE.findall(lowered)


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-index mapping with per-token document frequencies."""

    index: dict[str, int]
    document_frequency: np.ndarray
    corpus_size: int

    def idf(self) -> np.ndarray:
        """ln(N / df) per token; tokens present in every document get 0."""
        return np.log(self.corpus_size / self.document_frequency)


@dataclass(frozen=True)
class CsrMatrix:
    """A sparse matrix in compressed sparse rows: the cells of row i are
    ``data[indptr[i]:indptr[i + 1]]``, at the columns in the same slice
    of ``indices``, ascending."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def toarray(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Rows ``start`` to ``stop`` (all rows by default) as a dense array."""
        stop = self.shape[0] if stop is None else stop
        first, last = self.indptr[start], self.indptr[stop]
        dense = np.zeros((stop - start, self.shape[1]))
        rows = np.repeat(np.arange(stop - start), np.diff(self.indptr[start : stop + 1]))
        dense[rows, self.indices[first:last]] = self.data[first:last]
        return dense

    def transposed(self) -> CsrMatrix:
        """The transpose, in compressed sparse rows: a stable sort by
        column keeps each new row's columns ascending."""
        order = np.argsort(self.indices, kind="stable")
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        counts = np.bincount(self.indices, minlength=self.shape[1])
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return CsrMatrix(self.data[order], rows[order], indptr, self.shape[::-1])


def build_tfidf(corpus: list[list[str]]) -> tuple[CsrMatrix, Vocabulary]:
    """Sparse document-term matrix with raw-count tf and ln(N/df) idf.

    Cells are tf * idf, so tokens appearing in every document vanish
    from the matrix. Raises ValueError for an empty or all-empty corpus.
    """
    if not corpus:
        raise ValueError("corpus is empty")
    token_list = sorted(set(chain.from_iterable(corpus)))
    if not token_list:
        raise ValueError("corpus contains no tokens")
    index = {token: i for i, token in enumerate(token_list)}
    n_docs, n_terms = len(corpus), len(token_list)
    lengths = np.fromiter(map(len, corpus), dtype=np.intp, count=n_docs)
    cols = np.fromiter(
        map(index.__getitem__, chain.from_iterable(corpus)), dtype=np.intp, count=int(lengths.sum())
    )
    rows = np.repeat(np.arange(n_docs), lengths)
    # One key per (row, column) cell, sorted row by row and column by
    # column; its count is the raw term count.
    cells, counts = np.unique(rows * n_terms + cols, return_counts=True)
    rows, cols = np.divmod(cells, n_terms)
    vocabulary = Vocabulary(
        index=index,
        document_frequency=np.bincount(cols, minlength=n_terms).astype(float),
        corpus_size=n_docs,
    )
    data = counts * vocabulary.idf()[cols]
    kept = data != 0.0
    matrix = CsrMatrix(
        data=data[kept],
        indices=cols[kept],
        indptr=np.concatenate(([0], np.cumsum(np.bincount(rows[kept], minlength=n_docs)))),
        shape=(n_docs, n_terms),
    )
    return matrix, vocabulary


@dataclass
class LsaModel:
    """Fitted truncated-SVD space over a TF-IDF corpus.

    ``doc_embeddings`` holds U * sigma rows for the training documents;
    ``projection`` is the n_terms x d matrix of right singular vectors
    used for fold-in. ``vocabulary`` is needed to embed text and may be
    absent for models fitted on bare matrices.
    """

    dimension: int
    projection: np.ndarray
    doc_embeddings: np.ndarray
    singular_values: np.ndarray
    vocabulary: Vocabulary | None = None


def _dense_row_blocks(matrix: CsrMatrix):
    """Consecutive dense row blocks of at most ``_DENSE_CELL_LIMIT``
    cells, one row at least."""
    n_rows, n_cols = matrix.shape
    step = max(1, _DENSE_CELL_LIMIT // max(n_cols, 1))
    for start in range(0, n_rows, step):
        yield matrix.toarray(start, min(start + step, n_rows))


def _gram_svd(matrix: CsrMatrix, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact top-d singular triplets from the eigendecomposition of the
    Gram matrix of the smaller side: A Aᵀ for wide matrices, AᵀA for
    tall ones, summed over dense row blocks of the long side.

    The eigenvalues are the squared singular values and the eigenvectors
    one side's singular vectors; the other side is Aᵀu/σ (or Av/σ),
    recovered block by block. Eigenvalues at or below
    max(shape) * eps * λ_max are below what the Gram matrix resolves and
    count as zero, so fewer than d triplets come back when the matrix
    has lower numerical rank. Largest first.
    """
    n_rows, n_cols = matrix.shape
    wide = n_rows <= n_cols
    if wide:  # turn the long side down the rows
        matrix = matrix.transposed()
    blocks = _dense_row_blocks(matrix)
    block = next(blocks)
    gram = block.T @ block
    for block in blocks:
        gram += block.T @ block
    del block  # freed before the recovery pass densifies its own blocks
    eigenvalues, eigenvectors = np.linalg.eigh(gram)  # ascending
    del gram
    cutoff = max(n_rows, n_cols) * np.finfo(float).eps * max(eigenvalues[-1], 0.0)
    rank = min(d, int(np.count_nonzero(eigenvalues > cutoff)))
    s = np.sqrt(eigenvalues[::-1][:rank])
    vectors = eigenvectors[:, ::-1][:, :rank]
    recovered = np.vstack([block @ vectors for block in _dense_row_blocks(matrix)]) / s
    if wide:
        return vectors, s, recovered.T
    return recovered, s, vectors.T


def fit_lsa(matrix: CsrMatrix, d: int, vocabulary: Vocabulary | None = None) -> LsaModel:
    """Rank-d truncated SVD of a document-term matrix in compressed sparse
    rows, as :func:`build_tfidf` returns it, exact through the Gram matrix
    of its smaller side.

    Raises TypeError for any other matrix type, ValueError when the
    smaller side exceeds ``_GRAM_SIDE_LIMIT``.
    When d exceeds the number of available singular values, the extra
    dimensions are zero-padded so embeddings keep a fixed width;
    singular values too small to resolve are zero as well.
    """
    if d < 1:
        raise ValueError("dimension d must be at least 1")
    if not isinstance(matrix, CsrMatrix):
        raise TypeError(f"fit_lsa takes a CsrMatrix, not {type(matrix).__name__}")
    n_rows, n_cols = matrix.shape
    if min(n_rows, n_cols) > _GRAM_SIDE_LIMIT:
        raise ValueError(f"LSA takes at most {_GRAM_SIDE_LIMIT} documents or terms, whichever "
                         f"are fewer; this matrix is {n_rows} x {n_cols}")
    u, s, vt = _gram_svd(matrix, d)

    rank = len(s)
    if rank < d:
        u = np.hstack([u, np.zeros((n_rows, d - rank))])
        s = np.concatenate([s, np.zeros(d - rank)])
        vt = np.vstack([vt, np.zeros((d - rank, n_cols))])

    return LsaModel(
        dimension=d,
        projection=vt.T.copy(),
        doc_embeddings=u * s,
        singular_values=s,
        vocabulary=vocabulary,
    )


def embed_text(model: LsaModel, texts: Sequence[list[str]]) -> np.ndarray:
    """Fold token lists into the LSA space, one row per text: TF-IDF with
    the training idf, projected through the right singular vectors.

    Unseen tokens are dropped; a text with no known token embeds to the
    zero vector. ``np.add.at`` adds a row's count * idf * projection terms
    in first-occurrence order of its tokens, whatever else is in the batch.
    """
    if model.vocabulary is None:
        raise ValueError("model was fitted without a vocabulary; cannot embed text")
    index = model.vocabulary.index
    terms = [(row, index[token], count) for row, tokens in enumerate(texts)
             for token, count in Counter(tokens).items() if token in index]
    flat = np.fromiter(chain.from_iterable(terms), dtype=np.intp, count=3 * len(terms))
    rows, cols, counts = flat.reshape(-1, 3).T
    weights = counts * model.vocabulary.idf()[cols]
    kept = weights != 0.0
    vectors = np.zeros((len(texts), model.dimension))
    np.add.at(vectors, rows[kept], weights[kept, None] * model.projection[cols[kept]])
    return vectors


def row_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine similarity of each row of ``a`` with the same row of ``b``,
    in [-1, 1]; a pair with a zero-norm row scores 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    dots = np.einsum("ij,ij->i", a, b)
    norms = np.sqrt(np.einsum("ij,ij->i", a, a)) * np.sqrt(np.einsum("ij,ij->i", b, b))
    cosines = np.zeros(len(dots))
    np.divide(dots, norms, out=cosines, where=norms != 0.0)
    return np.clip(cosines, -1.0, 1.0)


def pair_scores(vectors: np.ndarray, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Link score (1 + cos)/2 of the ``vectors`` rows of each (source, target) pair."""
    ids = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    return (1.0 + row_cosines(vectors[ids[:, 0]], vectors[ids[:, 1]])) / 2.0
