"""Link scoring models under one contract.

Binary string matchers (title and anchor maps), text similarity (LSA),
graph similarity (DeepWalk) and the anchor-informed linear model that
rescores the anchor-map candidates with a least squares fit over three
cosine features: anchor-source, anchor-target and source-target
similarity. Every model exposes a scorer over (source, target) pairs
producing scores in [0, 1]; binary models emit exactly 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .anchors import CandidatePair
from .deepwalk import DeepWalkParams, fit_deepwalk, score_deepwalk
from .graph import DocumentNetwork
from .ingest import Article
from .lsa import LsaModel, build_tfidf, embed_text, fit_lsa, row_cosines, tokenize

Scorer = Callable[[Sequence[tuple[int, int]]], np.ndarray]


def ols_fit(features: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, float]:
    """Ordinary least squares with an intercept, no normalization or
    regularization. Rank-deficient designs get the minimum-norm solution."""
    features = np.asarray(features, dtype=float)
    design = np.hstack([features, np.ones((features.shape[0], 1))])
    solution, *_ = np.linalg.lstsq(design, np.asarray(targets, dtype=float), rcond=None)
    return solution[:-1], float(solution[-1])


@dataclass
class AtilpModel:
    """Linear model over the (s1, s2, s3) anchor/document cosine scores.

    ``anchor_vectors`` caches the LSA embedding of every anchor string
    seen so far, so each distinct string is folded in once.
    """

    coefficients: np.ndarray
    intercept: float
    lsa: LsaModel
    n_positive: int = 0
    n_negative: int = 0
    anchor_vectors: dict[str, np.ndarray] = field(default_factory=dict)

    def predict(self, doc_matrix: np.ndarray, pairs: Sequence[CandidatePair]) -> np.ndarray:
        """Linear prediction of each pair, maximized over its matched
        anchors and clamped to [0, 1]."""
        if len(pairs) == 0:
            return np.zeros(0)
        features, counts = atilp_features(self.lsa, doc_matrix, pairs, self.anchor_vectors)
        raw = features @ self.coefficients + self.intercept
        best = np.maximum.reduceat(raw, np.cumsum(counts) - counts)
        return np.clip(best, 0.0, 1.0)


def atilp_features(
    lsa: LsaModel,
    doc_matrix: np.ndarray,
    pairs: Sequence[CandidatePair],
    anchor_vectors: dict[str, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """(s1, s2, s3) rows, one per distinct matched anchor string of each
    pair, and the number of rows of each pair.

    s1 = cos(anchor, source), s2 = cos(anchor, target),
    s3 = cos(source, target). Rows follow the pairs in order, and each
    pair's anchors in :meth:`CandidatePair.anchor_texts` order.
    ``doc_matrix`` rows are indexed by document id. Anchor strings
    missing from ``anchor_vectors`` are embedded and added to it.
    """
    texts = [pair.anchor_texts() for pair in pairs]
    for anchors in texts:
        for text in anchors:
            if text not in anchor_vectors:
                anchor_vectors[text] = embed_text(lsa, text)
    counts = np.array([len(anchors) for anchors in texts], dtype=np.intp)
    anchor_rows = np.array(
        [anchor_vectors[text] for anchors in texts for text in anchors]
    ).reshape(-1, lsa.dimension)
    sources = doc_matrix[[pair.source for pair in pairs]]
    targets = doc_matrix[[pair.target for pair in pairs]]
    s3 = row_cosines(sources, targets)
    sources, targets, s3 = (np.repeat(x, counts, axis=0) for x in (sources, targets, s3))
    features = np.column_stack(
        [row_cosines(anchor_rows, sources), row_cosines(anchor_rows, targets), s3]
    )
    return features, counts


def fit_atilp(
    network: DocumentNetwork,
    lsa: LsaModel,
    candidates_by_source: Mapping[int, Sequence[CandidatePair]],
    seed: int = 0,
    n_positive: int = 1000,
    n_negative: int = 1000,
    sources: Iterable[int] | None = None,
    targets: Iterable[int] | None = None,
    doc_matrix: np.ndarray | None = None,
) -> AtilpModel:
    """Least squares fit of the anchor-informed link model.

    Positives are sampled uniformly from training edges that appear
    among the anchor-map candidates, negatives from candidate non-edges;
    when fewer than requested exist, all are taken and the shortfall is
    visible in ``n_positive``/``n_negative`` of the returned model. Each
    sampled pair contributes one design row per distinct matched anchor
    string. ``sources``/``targets`` restrict the training pairs to the
    given documents (the harness passes the training documents, so
    hidden documents never reach the fit). ``doc_matrix`` defaults to
    the model's training embeddings, indexed by document id.
    """
    if sources is None:
        sources = sorted(candidates_by_source)
    target_set = None if targets is None else set(targets)
    positives: list[CandidatePair] = []
    negatives: list[CandidatePair] = []
    for source in sorted(sources):
        for pair in candidates_by_source.get(source, ()):
            if target_set is not None and pair.target not in target_set:
                continue
            if network.has_edge(pair.source, pair.target):
                positives.append(pair)
            else:
                negatives.append(pair)
    if not positives or not negatives:
        raise ValueError(
            f"need candidates of both labels to fit: "
            f"{len(positives)} positives, {len(negatives)} negatives"
        )
    rng = np.random.default_rng(seed)

    def sample(pairs: list[CandidatePair], count: int) -> list[CandidatePair]:
        if len(pairs) <= count:
            return pairs
        chosen = rng.permutation(len(pairs))[:count]
        return [pairs[i] for i in sorted(chosen)]

    sampled_pos = sample(positives, n_positive)
    sampled_neg = sample(negatives, n_negative)

    anchor_vectors: dict[str, np.ndarray] = {}
    features, counts = atilp_features(
        lsa,
        lsa.doc_embeddings if doc_matrix is None else doc_matrix,
        sampled_pos + sampled_neg,
        anchor_vectors,
    )
    labels = np.repeat([1.0] * len(sampled_pos) + [0.0] * len(sampled_neg), counts)
    coefficients, intercept = ols_fit(features, labels)
    return AtilpModel(
        coefficients=coefficients,
        intercept=intercept,
        lsa=lsa,
        n_positive=len(sampled_pos),
        n_negative=len(sampled_neg),
        anchor_vectors=anchor_vectors,
    )


@dataclass(frozen=True)
class EvalModelConfig:
    """Model hyperparameters used by the evaluation harness."""

    lsa_dimension: int = 512
    deepwalk: DeepWalkParams = field(default_factory=DeepWalkParams)
    atilp_positives: int = 1000
    atilp_negatives: int = 1000


class RunContext:
    """Everything one evaluation run offers the predictors.

    Exposes the training network and the set of documents whose text may
    be used for fitting; hidden documents contribute only their text at
    scoring time, through :meth:`doc_matrix`. The LSA model for the run
    is fitted lazily on the training documents and shared between the
    LSA and ATILP methods.
    """

    def __init__(
        self,
        articles: Sequence[Article],
        train_network: DocumentNetwork,
        train_nodes: Sequence[int],
        seed: int,
        candidates: Mapping[int, Sequence[CandidatePair]],
        title_candidates: Mapping[int, Sequence[CandidatePair]],
        config: EvalModelConfig,
    ) -> None:
        self.articles = articles
        self.train_network = train_network
        self.train_nodes = frozenset(train_nodes)
        self.seed = seed
        self.candidates = candidates
        self.title_candidates = title_candidates
        self.config = config
        self._lsa: LsaModel | None = None
        self._lsa_rows: dict[int, int] | None = None
        self._doc_matrix: np.ndarray | None = None

    def lsa(self) -> tuple[LsaModel, dict[int, int]]:
        if self._lsa is None:
            docs = sorted(self.train_nodes)
            corpus = [tokenize(self.articles[doc].abstract) for doc in docs]
            matrix, vocabulary = build_tfidf(corpus)
            self._lsa = fit_lsa(
                matrix, self.config.lsa_dimension, seed=self.seed, vocabulary=vocabulary
            )
            self._lsa_rows = {doc: row for row, doc in enumerate(docs)}
        return self._lsa, self._lsa_rows

    def doc_matrix(self) -> np.ndarray:
        """LSA vectors of all documents, rows indexed by document id.

        Training documents keep their fitted embedding; every other
        document is folded in once from its text alone.
        """
        if self._doc_matrix is None:
            model, rows = self.lsa()
            matrix = np.empty((len(self.articles), model.dimension))
            matrix[list(rows)] = model.doc_embeddings[list(rows.values())]
            for doc, article in enumerate(self.articles):
                if doc not in rows:
                    matrix[doc] = embed_text(model, article.abstract)
            self._doc_matrix = matrix
        return self._doc_matrix


class Method:
    """A named predictor the harness can fit once per run and mode."""

    name: str = ""
    binary: bool = False
    supports_inductive: bool = True

    def make_scorer(self, ctx: RunContext) -> Scorer:
        raise NotImplementedError


class RandomMethod(Method):
    name = "random"

    def make_scorer(self, ctx: RunContext) -> Scorer:
        rng = np.random.default_rng(ctx.seed)
        return lambda pairs: rng.random(len(pairs))


class _AtMethod(Method):
    binary = True
    map_attr = ""

    def make_scorer(self, ctx: RunContext) -> Scorer:
        candidates = ctx.candidates if self.map_attr == "anchor" else ctx.title_candidates
        targets = {
            source: {pair.target for pair in pairs} for source, pairs in candidates.items()
        }

        def scorer(pairs: Sequence[tuple[int, int]]) -> np.ndarray:
            return np.array(
                [1.0 if t in targets.get(s, ()) else 0.0 for s, t in pairs]
            )

        return scorer


class AtTitleMethod(_AtMethod):
    name = "at_title"
    map_attr = "title"


class AtAnchorMethod(_AtMethod):
    name = "at_anchor"
    map_attr = "anchor"


class LsaMethod(Method):
    name = "lsa"

    def make_scorer(self, ctx: RunContext) -> Scorer:
        docs = ctx.doc_matrix()

        def scorer(pairs: Sequence[tuple[int, int]]) -> np.ndarray:
            ids = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
            return (1.0 + row_cosines(docs[ids[:, 0]], docs[ids[:, 1]])) / 2.0

        return scorer


class DeepWalkMethod(Method):
    name = "deepwalk"
    supports_inductive = False

    def make_scorer(self, ctx: RunContext) -> Scorer:
        model = fit_deepwalk(
            ctx.train_network,
            ctx.config.deepwalk,
            seed=ctx.seed,
            nodes=sorted(ctx.train_nodes),
        )
        return lambda pairs: score_deepwalk(model, pairs)


class AtilpMethod(Method):
    name = "atilp"

    def make_scorer(self, ctx: RunContext) -> Scorer:
        lsa_model, _ = ctx.lsa()
        docs = ctx.doc_matrix()
        model = fit_atilp(
            ctx.train_network,
            lsa_model,
            ctx.candidates,
            seed=ctx.seed,
            n_positive=ctx.config.atilp_positives,
            n_negative=ctx.config.atilp_negatives,
            sources=sorted(set(ctx.candidates) & ctx.train_nodes),
            targets=ctx.train_nodes,
            doc_matrix=docs,
        )
        by_pair = {
            (pair.source, pair.target): pair
            for pairs in ctx.candidates.values()
            for pair in pairs
        }

        def scorer(pairs: Sequence[tuple[int, int]]) -> np.ndarray:
            found = [by_pair.get((s, t)) for s, t in pairs]
            hits = [i for i, pair in enumerate(found) if pair is not None]
            scores = np.zeros(len(pairs))  # non-candidates stay unlinked
            scores[hits] = model.predict(docs, [found[i] for i in hits])
            return scores

        return scorer


class ExternalFileMethod(Method):
    """Scores read from a predictions.tsv file keyed by (source, target).

    Lets externally produced methods plug into the harness; pairs absent
    from the file score 0.
    """

    def __init__(self, name: str, path) -> None:
        from .dataset import read_predictions_tsv

        self.name = name
        self._scores = {(s, t): score for s, t, score in read_predictions_tsv(path)}

    def make_scorer(self, ctx: RunContext) -> Scorer:
        return lambda pairs: np.array([self._scores.get(pair, 0.0) for pair in pairs])


_BUILTIN_METHODS: dict[str, Callable[[], Method]] = {
    "random": RandomMethod,
    "at_title": AtTitleMethod,
    "at_anchor": AtAnchorMethod,
    "lsa": LsaMethod,
    "deepwalk": DeepWalkMethod,
    "atilp": AtilpMethod,
}


def make_method(spec: str | Method) -> Method:
    """Resolve a method name to its built-in implementation."""
    if isinstance(spec, Method):
        return spec
    try:
        return _BUILTIN_METHODS[spec]()
    except KeyError:
        raise ValueError(
            f"unknown method {spec!r}; available: {', '.join(sorted(_BUILTIN_METHODS))}"
        ) from None
