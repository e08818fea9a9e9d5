"""Text embeddings by latent semantic analysis.

TF-IDF document vectors factored with a truncated SVD: small matrices
take an exact decomposition, the top eigenpairs of the Gram matrix of
their smaller side, and large ones a seeded randomized subspace
iteration. New text folds into the fitted space by projecting its
TF-IDF vector through the right singular vectors (q @ V, without
inverse-sigma scaling), which keeps fold-in vectors on the same scale
as the stored document embeddings U * sigma.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np
import scipy.sparse as sp

# Above this many cells the exact Gram decomposition gives way to the randomized path.
_DENSE_CELL_LIMIT = 2_000_000

_RANDOMIZED_OVERSAMPLES = 10
_RANDOMIZED_POWER_ITERS = 2

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercased tokens split on non-alphanumeric boundaries.

    No stemming, no stop-word removal; single characters count.
    """
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-index mapping with per-token document frequencies."""

    index: dict[str, int]
    document_frequency: np.ndarray
    corpus_size: int

    def __len__(self) -> int:
        return len(self.index)

    def idf(self) -> np.ndarray:
        """ln(N / df) per token; tokens present in every document get 0."""
        return np.log(self.corpus_size / self.document_frequency)


def build_tfidf(corpus: list[list[str]]) -> tuple[sp.csr_matrix, Vocabulary]:
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
    lengths = np.fromiter(map(len, corpus), dtype=np.intp, count=len(corpus))
    cols = np.fromiter(
        map(index.__getitem__, chain.from_iterable(corpus)), dtype=np.intp, count=int(lengths.sum())
    )
    rows = np.repeat(np.arange(len(corpus)), lengths)
    # The COO-to-CSR conversion sums duplicate cells into raw counts.
    matrix = sp.csr_matrix(
        (np.ones(cols.size), (rows, cols)), shape=(len(corpus), len(token_list))
    )
    vocabulary = Vocabulary(
        index=index,
        document_frequency=np.bincount(matrix.indices, minlength=len(token_list)).astype(float),
        corpus_size=len(corpus),
    )
    matrix.data *= vocabulary.idf()[matrix.indices]
    matrix.eliminate_zeros()
    return matrix, vocabulary


@dataclass
class LsaModel:
    """Fitted truncated-SVD space over a TF-IDF corpus.

    ``doc_embeddings`` holds U * sigma rows for the training documents;
    ``projection`` is the n_terms x d matrix of right singular vectors
    used for fold-in. ``vocabulary`` and ``idf`` are needed to embed raw
    text and may be absent for models fitted on bare matrices.
    """

    dimension: int
    projection: np.ndarray
    doc_embeddings: np.ndarray
    singular_values: np.ndarray
    idf: np.ndarray | None = None
    vocabulary: Vocabulary | None = None


def _randomized_svd(
    matrix, d: int, seed: int, oversamples: int = _RANDOMIZED_OVERSAMPLES,
    power_iters: int = _RANDOMIZED_POWER_ITERS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Halko-style randomized range finder with subspace power iteration.

    Deterministic for a fixed seed. Re-orthonormalizes between power
    iterations to keep the sample matrix well conditioned.
    """
    rng = np.random.default_rng(seed)
    n_rows, n_cols = matrix.shape
    k = min(d + oversamples, n_rows, n_cols)
    omega = rng.standard_normal((n_cols, k))
    q, _ = np.linalg.qr(matrix @ omega)
    for _ in range(power_iters):
        z, _ = np.linalg.qr(matrix.T @ q)
        q, _ = np.linalg.qr(matrix @ z)
    b = (matrix.T @ q).T
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    return (q @ ub)[:, :d], s[:d], vt[:d]


def _gram_svd(matrix, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact top-d singular triplets from the eigendecomposition of the
    Gram matrix of the smaller side: A Aᵀ for wide matrices, AᵀA for
    tall ones.

    The eigenvalues are the squared singular values and the eigenvectors
    one side's singular vectors; the other side is Aᵀu/σ (or Av/σ).
    Eigenvalues at or below max(shape) * eps * λ_max are below what the
    Gram matrix resolves and count as zero, so fewer than d triplets
    come back when the matrix has lower numerical rank. Largest first.
    """
    n_rows, n_cols = matrix.shape
    short = matrix if n_rows <= n_cols else matrix.T
    # Sparse times dense adds the same products in the same order as the
    # sparse product A Aᵀ, so the cells are equal, at half its cost.
    gram = short @ (short.T.toarray() if sp.issparse(short) else short.T)
    eigenvalues, eigenvectors = np.linalg.eigh(gram)  # ascending
    cutoff = max(n_rows, n_cols) * np.finfo(float).eps * max(eigenvalues[-1], 0.0)
    rank = min(d, int(np.count_nonzero(eigenvalues > cutoff)))
    s = np.sqrt(eigenvalues[::-1][:rank])
    vectors = eigenvectors[:, ::-1][:, :rank]
    recovered = (short.T @ vectors) / s
    if short is matrix:
        return vectors, s, recovered.T
    return recovered, s, vectors.T


def fit_lsa(
    matrix,
    d: int = 512,
    seed: int = 0,
    vocabulary: Vocabulary | None = None,
    method: str = "auto",
) -> LsaModel:
    """Rank-d truncated SVD of a (sparse) document-term matrix.

    ``method`` picks the decomposition: "dense" (exact, through the Gram
    matrix of the smaller side), "randomized", or "auto" (dense below a
    size cutoff). When d exceeds the number of available singular
    values, the extra dimensions are zero-padded so embeddings keep a
    fixed width; singular values too small to resolve are zero as well.
    """
    if d < 1:
        raise ValueError("dimension d must be at least 1")
    if method not in ("auto", "dense", "randomized"):
        raise ValueError(f"unknown SVD method {method!r}")
    n_rows, n_cols = matrix.shape
    if method == "auto":
        method = "dense" if n_rows * n_cols <= _DENSE_CELL_LIMIT else "randomized"

    if method == "dense":
        if not sp.issparse(matrix):
            matrix = np.asarray(matrix, dtype=float)
        u, s, vt = _gram_svd(matrix, d)
    else:
        u, s, vt = _randomized_svd(matrix, d, seed)

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
        idf=vocabulary.idf() if vocabulary is not None else None,
        vocabulary=vocabulary,
    )


def embed_text(model: LsaModel, text: str) -> np.ndarray:
    """Fold text into the LSA space: TF-IDF with the training idf,
    projected through the right singular vectors.

    Unseen tokens are dropped; text with no known tokens embeds to the
    zero vector.
    """
    if model.vocabulary is None or model.idf is None:
        raise ValueError("model was fitted without a vocabulary; cannot embed text")
    vector = np.zeros(model.dimension)
    index = model.vocabulary.index
    for token, count in Counter(tokenize(text)).items():
        col = index.get(token)
        if col is not None:
            weight = count * model.idf[col]
            if weight != 0.0:
                vector += weight * model.projection[col]
    return vector


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
