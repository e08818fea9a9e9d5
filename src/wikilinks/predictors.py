"""Link scoring models under one contract.

Binary string matchers (title and anchor maps), text similarity (LSA),
graph similarity (DeepWalk) and the anchor-informed linear model that
rescores the anchor-map candidates with a least squares fit over three
cosine features: anchor-source, anchor-target and source-target
similarity. Every model exposes a scorer over (source, target) pairs
producing scores in [0, 1]; binary models emit exactly 0 or 1.
Candidates carry no label: a link is an edge of the training network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Collection, Mapping, Sequence

import numpy as np

from .dataset import read_predictions_tsv
from .deepwalk import fit_deepwalk
from .graph import DocumentNetwork
from .lsa import LsaModel, build_tfidf, embed_text, fit_lsa, pair_scores, row_cosines, tokenize

if TYPE_CHECKING:
    from .evaluation import EvalConfig

Scorer = Callable[[Sequence[tuple[int, int]]], np.ndarray]
Candidates = Mapping[int, Mapping[int, Sequence[str]]]  # source -> target -> anchors
Candidate = tuple[int, int, Sequence[str]]  # (source, target, anchors)


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

    ``anchor_vectors`` maps every anchor string the model can score to
    its LSA fold-in.
    """

    coefficients: np.ndarray
    intercept: float
    anchor_vectors: Mapping[str, np.ndarray]
    n_positive: int = 0
    n_negative: int = 0

    def predict(self, doc_matrix: np.ndarray, pairs: Sequence[Candidate]) -> np.ndarray:
        """Linear prediction of each (source, target, anchors) candidate,
        maximized over its matched anchors and clamped to [0, 1]."""
        if len(pairs) == 0:
            return np.zeros(0)
        features, counts = atilp_features(doc_matrix, self.anchor_vectors, pairs)
        raw = features @ self.coefficients + self.intercept
        best = np.maximum.reduceat(raw, np.cumsum(counts) - counts)
        return np.clip(best, 0.0, 1.0)


def atilp_features(
    doc_matrix: np.ndarray,
    anchor_vectors: Mapping[str, np.ndarray],
    pairs: Sequence[Candidate],
) -> tuple[np.ndarray, np.ndarray]:
    """(s1, s2, s3) rows, one per distinct matched anchor string of each
    (source, target, anchors) candidate, and the number of rows of each.

    s1 = cos(anchor, source), s2 = cos(anchor, target),
    s3 = cos(source, target). Rows follow the candidates in order, and
    each one's anchors in their given order. ``doc_matrix`` rows are
    indexed by document id, and ``anchor_vectors`` holds the fold-in of
    every matched anchor string.
    """
    counts = np.array([len(anchors) for _, _, anchors in pairs], dtype=np.intp)
    anchor_rows = np.array(
        [anchor_vectors[text] for _, _, anchors in pairs for text in anchors]
    ).reshape(-1, doc_matrix.shape[1])
    sources = doc_matrix[[source for source, _, _ in pairs]]
    targets = doc_matrix[[target for _, target, _ in pairs]]
    s3 = row_cosines(sources, targets)
    sources, targets, s3 = (np.repeat(x, counts, axis=0) for x in (sources, targets, s3))
    features = np.column_stack(
        [row_cosines(anchor_rows, sources), row_cosines(anchor_rows, targets), s3]
    )
    return features, counts


def fit_atilp(
    network: DocumentNetwork,
    lsa: LsaModel,
    candidates_by_source: Candidates,
    n_positive: int,
    n_negative: int,
    seed: int,
    nodes: Collection[int],
    doc_matrix: np.ndarray,
) -> AtilpModel:
    """Least squares fit of the anchor-informed link model.

    ``candidates_by_source`` maps each source to its candidate targets
    and their matched anchor strings. Positives are sampled uniformly
    from the candidates that are edges of ``network``, negatives from
    the others; when fewer than requested exist, all are taken and the
    shortfall is visible in ``n_positive``/``n_negative`` of the
    returned model. Each sampled pair contributes one design row per
    distinct matched anchor string. ``nodes`` restricts the training
    pairs to those with both ends among the given documents (the harness
    passes the training documents, so hidden documents never reach the
    fit). ``doc_matrix`` holds the document vectors, indexed by document
    id. The model folds in every distinct anchor string of the
    candidates, in one batch.
    """
    candidates = [(source, target, anchors) for source in sorted(candidates_by_source)
                  for target, anchors in candidates_by_source[source].items()]
    positives: list[Candidate] = []
    negatives: list[Candidate] = []
    for pair in candidates:
        source, target, _ = pair
        if source in nodes and target in nodes:
            if network.has_edge(source, target):
                positives.append(pair)
            else:
                negatives.append(pair)
    if not positives or not negatives:
        raise ValueError(
            f"need candidates of both labels to fit: "
            f"{len(positives)} positives, {len(negatives)} negatives"
        )
    rng = np.random.default_rng(seed)

    def sample(pairs: list[Candidate], count: int) -> list[Candidate]:
        if len(pairs) <= count:
            return pairs
        chosen = rng.permutation(len(pairs))[:count]
        return [pairs[i] for i in sorted(chosen)]

    sampled_pos = sample(positives, n_positive)
    sampled_neg = sample(negatives, n_negative)

    texts = list(dict.fromkeys(text for _, _, anchors in candidates for text in anchors))
    anchor_vectors = dict(zip(texts, embed_text(lsa, [tokenize(text) for text in texts])))
    features, counts = atilp_features(doc_matrix, anchor_vectors, sampled_pos + sampled_neg)
    labels = np.repeat([1.0] * len(sampled_pos) + [0.0] * len(sampled_neg), counts)
    coefficients, intercept = ols_fit(features, labels)
    return AtilpModel(
        coefficients=coefficients,
        intercept=intercept,
        anchor_vectors=anchor_vectors,
        n_positive=len(sampled_pos),
        n_negative=len(sampled_neg),
    )


class RunContext:
    """Everything one evaluation run offers the predictors.

    Exposes the training network and the set of documents whose text may
    be used for fitting; hidden documents contribute only their text at
    scoring time, folded in by :meth:`lsa`. The LSA model for the run is
    fitted lazily on the training documents and shared between the LSA
    and ATILP methods. ``tokens`` holds the :func:`tokenize` output
    of every abstract, indexed by document id, so that the runs of one
    evaluation tokenize each abstract once, for fitting and fold-in.
    """

    def __init__(
        self,
        tokens: Sequence[list[str]],
        train_network: DocumentNetwork,
        train_nodes: Sequence[int],
        seed: int,
        candidates: Candidates,
        title_candidates: Mapping[int, frozenset[int]],
        config: EvalConfig,
    ) -> None:
        self.tokens = tokens
        self.train_network = train_network
        self.train_nodes = frozenset(train_nodes)
        self.seed = seed
        self.candidates = candidates
        self.title_candidates = title_candidates
        self.config = config
        self._lsa: tuple[LsaModel, np.ndarray] | Exception | None = None

    def lsa(self) -> tuple[LsaModel, np.ndarray]:
        """The LSA model of the training documents, and the LSA vectors of
        all documents, rows indexed by document id.

        Training documents keep their fitted embedding; every other
        document is folded in from its tokens alone, all in one batch. A
        failed fit is kept, and every call raises its error.
        """
        if self._lsa is None:
            docs = sorted(self.train_nodes)
            try:
                matrix, vocabulary = build_tfidf([self.tokens[doc] for doc in docs])
                model = fit_lsa(matrix, self.config.dimension, vocabulary=vocabulary)
                del matrix  # free the TF-IDF cells before the fold-in
                vectors = np.empty((len(self.tokens), model.dimension))
                vectors[docs] = model.doc_embeddings
                others = sorted(set(range(len(self.tokens))) - self.train_nodes)
                vectors[others] = embed_text(model, [self.tokens[doc] for doc in others])
                self._lsa = (model, vectors)
            except Exception as exc:  # noqa: BLE001 - raised below, now and on every call
                self._lsa = exc
        if isinstance(self._lsa, Exception):
            raise self._lsa
        return self._lsa


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

    def targets(self, ctx: RunContext) -> Mapping[int, Collection[int]]:
        """The candidate target ids of each source document."""
        raise NotImplementedError

    def make_scorer(self, ctx: RunContext) -> Scorer:
        targets = self.targets(ctx)

        def scorer(pairs: Sequence[tuple[int, int]]) -> np.ndarray:
            return np.array(
                [1.0 if t in targets.get(s, ()) else 0.0 for s, t in pairs]
            )

        return scorer


class AtTitleMethod(_AtMethod):
    name = "at_title"

    def targets(self, ctx: RunContext) -> Mapping[int, Collection[int]]:
        return ctx.title_candidates


class AtAnchorMethod(_AtMethod):
    name = "at_anchor"

    def targets(self, ctx: RunContext) -> Mapping[int, Collection[int]]:
        return ctx.candidates


class LsaMethod(Method):
    name = "lsa"

    def make_scorer(self, ctx: RunContext) -> Scorer:
        _, vectors = ctx.lsa()
        return lambda pairs: pair_scores(vectors, pairs)


class DeepWalkMethod(Method):
    name = "deepwalk"
    supports_inductive = False

    def make_scorer(self, ctx: RunContext) -> Scorer:
        model = fit_deepwalk(
            ctx.train_network,
            ctx.config.deepwalk,
            seed=ctx.seed,
        )
        return lambda pairs: pair_scores(model.node_vectors, pairs)


class AtilpMethod(Method):
    name = "atilp"

    def make_scorer(self, ctx: RunContext) -> Scorer:
        lsa_model, vectors = ctx.lsa()
        model = fit_atilp(
            ctx.train_network,
            lsa_model,
            ctx.candidates,
            seed=ctx.seed,
            n_positive=ctx.config.atilp_positives,
            n_negative=ctx.config.atilp_negatives,
            nodes=ctx.train_nodes,
            doc_matrix=vectors,
        )

        def scorer(pairs: Sequence[tuple[int, int]]) -> np.ndarray:
            found = [(s, t, ctx.candidates.get(s, {}).get(t)) for s, t in pairs]
            hits = [i for i, (_, _, anchors) in enumerate(found) if anchors is not None]
            scores = np.zeros(len(pairs))  # non-candidates stay unlinked
            scores[hits] = model.predict(vectors, [found[i] for i in hits])
            return scores

        return scorer


class ExternalFileMethod(Method):
    """Scores read from a predictions.tsv file keyed by (source, target).

    Lets externally produced methods plug into the harness; pairs absent
    from the file score 0.
    """

    def __init__(self, name: str, path) -> None:
        self.name = name
        self._scores = {(s, t): score for s, t, score in read_predictions_tsv(path)}

    def make_scorer(self, ctx: RunContext) -> Scorer:
        return lambda pairs: np.array([self._scores.get(pair, 0.0) for pair in pairs])


_BUILTIN_METHODS: dict[str, type[Method]] = {
    method.name: method
    for method in (RandomMethod, AtTitleMethod, AtAnchorMethod, LsaMethod, DeepWalkMethod,
                   AtilpMethod)
}
METHOD_NAMES = tuple(_BUILTIN_METHODS)


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
