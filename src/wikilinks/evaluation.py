"""Transductive/inductive splits, ranking metrics and the run harness.

The transductive protocol hides a fraction of the edges; the inductive
protocol hides whole documents, whose text (but never whose edges) stays
available to the predictors. Test pairs mix the hidden positives with
the string-matched hard negatives of the same source documents. Metrics
are the average-precision estimate of the area under the
precision-recall curve plus precision/recall at the prevalence
threshold, which forces P = R for probabilistic scorers. Binary
predictors skip thresholding and report their raw precision and recall.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Collection, Mapping, Sequence

import numpy as np

from .dataset import write_links_tsv
from .deepwalk import DeepWalkParams, check_int
from .graph import DocumentNetwork, check_ratio
from .lsa import tokenize
from .predictors import Method, RunContext, make_method

TestPair = tuple[int, int, int]  # (source, target, label)
MODES = ("inductive", "transductive")
# The aggregate keys of a report.json record, each a MethodMetrics field.
_AGGREGATE_KEYS = ("auc_mean", "auc_std", "p_mean", "p_std", "r_mean", "r_std", "runs")


class UndefinedMetricError(ValueError):
    """A metric was requested on a sample set without positives."""


def _round_half_up(value: float) -> int:
    return int(value + 0.5)


@dataclass
class EvalSplit:
    """One train/test split.

    ``hidden`` holds the removed edges (transductive) or the removed
    document ids (inductive). ``train_nodes`` lists the documents whose
    text predictors may train on; in the inductive case the hidden
    documents are excluded and keep no edges in ``train_network``.
    """

    mode: str
    train_network: DocumentNetwork
    train_nodes: tuple[int, ...]
    test_pairs: list[TestPair]
    hidden: tuple

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown split mode {self.mode!r}")
        if len(set(self.test_pairs)) != len(self.test_pairs):
            raise ValueError("test pairs contain duplicates")
        if self.mode == "transductive":
            hidden = set(self.hidden)
            for edge in hidden:
                if self.train_network.has_edge(*edge):
                    raise ValueError(f"hidden edge {edge} leaked into the training network")
            for source, target, label in self.test_pairs:
                if label and (source, target) not in hidden:
                    raise ValueError(f"positive test pair {(source, target)} is not hidden")
        else:
            hidden_nodes = set(self.hidden)
            train_nodes = set(self.train_nodes)
            if hidden_nodes & train_nodes:
                raise ValueError("hidden documents overlap the training documents")
            for source, target in self.train_network.edges():
                if source in hidden_nodes or target in hidden_nodes:
                    raise ValueError("training network touches a hidden document")
            for source, target, _ in self.test_pairs:
                if source not in hidden_nodes:
                    raise ValueError(f"test source {source} is not a hidden document")
                if target not in train_nodes:
                    raise ValueError(f"test target {target} is not a retained document")


def split_transductive(
    network: DocumentNetwork,
    candidates: Mapping[int, Collection[int]],
    ratio: float,
    run_seed: int = 0,
) -> EvalSplit:
    """Hide round(ratio * n_E) edges chosen uniformly without replacement.

    Test pairs cover every source that lost an edge: its hidden edges as
    positives, its ``candidates`` targets that are non-edges of the full
    network as negatives. No connectivity repair is attempted.
    """
    check_ratio("ratio", ratio)
    edges = list(network.edges())
    n_hidden = _round_half_up(ratio * len(edges))
    rng = np.random.default_rng(run_seed)
    order = rng.permutation(len(edges))
    hidden = sorted(edges[i] for i in order[:n_hidden])

    pairs: set[TestPair] = {(s, t, 1) for s, t in hidden}
    for source in {source for source, _ in hidden}:
        for target in candidates.get(source, ()):
            if not network.has_edge(source, target):
                pairs.add((source, target, 0))
    return EvalSplit(
        mode="transductive",
        train_network=network.remove_edges(hidden),
        train_nodes=tuple(range(network.node_count)),
        test_pairs=sorted(pairs),
        hidden=tuple(hidden),
    )


def split_inductive(
    network: DocumentNetwork,
    candidates: Mapping[int, Collection[int]],
    ratio: float,
    run_seed: int = 0,
) -> EvalSplit:
    """Hide round(ratio * n_V) documents chosen uniformly.

    The training network is the induced subgraph on the retained
    documents (ids preserved). Each hidden document contributes its true
    edges to retained documents as positives, taken in one pass over
    ``network.edges()``, and its other ``candidates`` targets among them
    as negatives; only its text reaches the predictors.
    """
    check_ratio("ratio", ratio)
    n = network.node_count
    n_hidden = _round_half_up(ratio * n)
    rng = np.random.default_rng(run_seed)
    order = rng.permutation(n)
    hidden_nodes = sorted(int(i) for i in order[:n_hidden])
    hidden_set = set(hidden_nodes)
    retained = [i for i in range(n) if i not in hidden_set]
    retained_set = set(retained)

    pairs: set[TestPair] = set()
    for source, target in network.edges():
        if source in hidden_set and target in retained_set:
            pairs.add((source, target, 1))
    for source in hidden_nodes:
        for target in candidates.get(source, ()):
            if target in retained_set and not network.has_edge(source, target):
                pairs.add((source, target, 0))
    return EvalSplit(
        mode="inductive",
        train_network=network.restricted_to(retained),
        train_nodes=tuple(retained),
        test_pairs=sorted(pairs),
        hidden=tuple(hidden_nodes),
    )


def _ranking_order(
    scores: Sequence[float], pairs: Sequence[tuple[int, int]] | None
) -> np.ndarray:
    """Indices by descending score; ties break by ascending (source,
    target) pair identity when available, by presentation index
    otherwise: the order of the sort key ``(-score, pair)`` (or
    ``(-score, index)``); 0.0 and -0.0 tie. A score that is not finite
    raises ValueError."""
    negated = -np.asarray(scores, dtype=float)
    if not np.isfinite(negated).all():
        raise ValueError("scores must be finite")
    if pairs is None:
        return np.argsort(negated, kind="stable")
    ids = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    return np.lexsort((ids[:, 1], ids[:, 0], negated))


def pr_auc(
    scores: Sequence[float],
    labels: Sequence[int],
    pairs: Sequence[tuple[int, int]] | None = None,
) -> float:
    """Area under the precision-recall curve by the average-precision
    estimator, as a percentage.

    AP is the mean over positives of the precision at each positive's
    rank. Raises :class:`UndefinedMetricError` without any positive.
    """
    if len(scores) != len(labels):
        raise ValueError("scores and labels length mismatch")
    n_pos = int(sum(labels))
    if n_pos == 0:
        raise UndefinedMetricError("average precision needs at least one positive")
    order = _ranking_order(scores, pairs)
    ranks = np.flatnonzero(np.asarray(labels, dtype=bool)[order]) + 1
    hits = np.arange(1, len(ranks) + 1)
    # A cumulative sum adds the precisions one after another in rank
    # order, as a running total does; np.sum would add them pairwise.
    total = float(np.cumsum(hits / ranks)[-1])
    return 100.0 * total / n_pos


def precision_recall_at_prevalence(
    scores: Sequence[float],
    labels: Sequence[int],
    pairs: Sequence[tuple[int, int]] | None = None,
) -> tuple[float, float]:
    """Precision and recall when predicting positive for the top-k scored
    pairs, k being the true number of positives. P = R exactly."""
    n_pos = int(sum(labels))
    if n_pos == 0:
        raise UndefinedMetricError("prevalence thresholding needs at least one positive")
    order = _ranking_order(scores, pairs)
    tp = int(np.count_nonzero(np.asarray(labels, dtype=bool)[order[:n_pos]]))
    value = 100.0 * tp / n_pos
    return value, value


def binary_precision_recall(
    scores: Sequence[float], labels: Sequence[int]
) -> tuple[float, float]:
    """Raw precision and recall of a 0/1 predictor (no thresholding)."""
    n_pos = int(sum(labels))
    if n_pos == 0:
        raise UndefinedMetricError("recall needs at least one positive")
    predicted = np.asarray(scores, dtype=float) >= 0.5
    n_predicted = int(np.count_nonzero(predicted))
    tp = int(np.count_nonzero(predicted & np.asarray(labels, dtype=bool)))
    precision = 100.0 * tp / n_predicted if n_predicted else 0.0
    recall = 100.0 * tp / n_pos
    return precision, recall


@dataclass
class MethodMetrics:
    """Aggregated metrics of one method in one mode, named as the keys
    of its ``report.json`` record."""

    method: str
    mode: str
    runs: int
    auc_mean: float
    auc_std: float
    p_mean: float
    p_std: float
    r_mean: float
    r_std: float
    per_run: list[tuple[float, float, float]] = field(default_factory=list)


@dataclass
class EvalFailure:
    """A failed method run; its fields and ``dataset`` are its report.json record's keys."""

    method: str
    mode: str
    run: int
    error: str


@dataclass
class MetricsReport:
    """All method/mode aggregates of an evaluation, plus split hashes."""

    dataset: str
    entries: list[MethodMetrics]
    split_hashes: dict[str, str]
    failures: list[EvalFailure] = field(default_factory=list)

    @classmethod
    def from_records(cls, records) -> "MetricsReport":
        """Rebuild a report from the output of :meth:`to_records`.

        Per-run values are not recorded, so entries come back without
        them. Malformed records, such as one whose mode is neither
        "inductive" nor "transductive", raise ValueError.
        """
        if not isinstance(records, list) or not records or not all(
            isinstance(record, dict) for record in records
        ):
            raise ValueError("expected a non-empty list of records")
        entries: list[MethodMetrics] = []
        failures: list[EvalFailure] = []
        split_hashes: dict[str, str] = {}
        try:
            for number, r in enumerate(records):
                if r["mode"] not in MODES:
                    raise ValueError(f"record {number} has unknown mode {r['mode']!r}")
                if "error" in r:
                    failures.append(EvalFailure(**{f.name: r[f.name] for f in fields(EvalFailure)}))
                    continue
                entries.append(MethodMetrics(
                    method=r["method"], mode=r["mode"], **{key: r[key] for key in _AGGREGATE_KEYS}
                ))
                split_hashes[r["mode"]] = r["split_hash"]
            dataset = records[0]["dataset"]
        except KeyError as exc:
            raise ValueError(f"record lacks key {exc}") from None
        return cls(
            dataset=dataset,
            entries=entries,
            split_hashes=split_hashes,
            failures=failures,
        )

    def entry(self, method: str, mode: str) -> MethodMetrics | None:
        for item in self.entries:
            if item.method == method and item.mode == mode:
                return item
        return None

    def to_records(self) -> list[dict]:
        return [
            {"dataset": self.dataset, "mode": item.mode, "method": item.method,
             "split_hash": self.split_hashes[item.mode],
             **{key: getattr(item, key) for key in _AGGREGATE_KEYS}}
            for item in self.entries
        ] + [{"dataset": self.dataset, **asdict(failure)} for failure in self.failures]

    def to_json(self) -> str:
        return json.dumps(self.to_records(), indent=2, sort_keys=True) + "\n"

    def to_markdown(self) -> str:
        """Results table: one row per method, AUC/P/R blocks per mode.

        A mode has a block when it holds at least one entry or failure,
        so a report rebuilt by :meth:`from_records` renders the same
        table. Methods that skip a mode show an em dash.
        """
        recorded = {e.mode for e in self.entries} | {f.mode for f in self.failures}
        modes = [mode for mode in MODES if mode in recorded]
        methods: list[str] = []
        for item in self.entries:
            if item.method not in methods:
                methods.append(item.method)
        for failure in self.failures:
            if failure.method not in methods:
                methods.append(failure.method)

        header = [f"**{self.dataset}**"]
        for mode in modes:
            title = mode.capitalize()
            header += [f"{title} AUC", f"{title} P", f"{title} R"]
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "---|" * len(header),
        ]
        failed = {(f.method, f.mode) for f in self.failures}
        for method in methods:
            row = [method]
            for mode in modes:
                item = self.entry(method, mode)
                if item is None:
                    cell = "failed" if (method, mode) in failed else "—"
                    row += [cell, cell, cell]
                else:
                    row += [
                        f"{item.auc_mean:.2f} ( {item.auc_std:.2f})",
                        f"{item.p_mean:.2f} ( {item.p_std:.2f})",
                        f"{item.r_mean:.2f} ( {item.r_std:.2f})",
                    ]
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"


def _serialize_test_pairs(pairs: Sequence[TestPair]) -> bytes:
    return "".join(f"{s}\t{t}\t{label}\n" for s, t, label in pairs).encode("utf-8")


def _mean_std(per_run: list[tuple[float, float, float]]) -> tuple[list[float], list[float]]:
    """Mean and sample standard deviation (0.0 for one run) of each
    column of ``per_run``. Each column is copied into a contiguous row,
    which numpy sums as it sums a 1-D array; a reduction down the columns
    would add the runs in another order."""
    columns = np.ascontiguousarray(np.asarray(per_run, dtype=float).T)
    stds = columns.std(axis=1, ddof=1) if len(per_run) > 1 else np.zeros(len(columns))
    return columns.mean(axis=1).tolist(), stds.tolist()


@dataclass(frozen=True)
class EvalConfig:
    """The settings of :func:`run_eval`, each a key of ``experiment.json``
    of the same name and JSON type: runs, seeds, the mode (``"both"``,
    ``"inductive"`` or ``"transductive"``), the fraction of edges or
    documents each split hides, the LSA dimension, DeepWalk's settings and
    ATILP's sample sizes. A bad value raises ValueError naming its field; a
    ratio lies strictly between 0 and 1, which NaN does not."""

    runs: int = 5
    base_seed: int = 0
    mode: str = "both"
    transductive_ratio: float = 0.10
    inductive_ratio: float = 0.10
    dimension: int = 512
    deepwalk: DeepWalkParams = field(default_factory=DeepWalkParams)
    atilp_positives: int = 1000
    atilp_negatives: int = 1000

    def __post_init__(self) -> None:
        check_int("runs", self.runs, 1)
        check_int("base_seed", self.base_seed, 0)
        if self.mode not in ("transductive", "inductive", "both"):
            raise ValueError("mode must be transductive, inductive or both")
        for name in ("transductive_ratio", "inductive_ratio"):
            check_ratio(name, getattr(self, name))
        for name in ("dimension", "atilp_positives", "atilp_negatives"):
            check_int(name, getattr(self, name), 1)


def check_method_names(names: Sequence[str]) -> None:
    """Raise ValueError unless ``names`` is a non-empty list of distinct
    method names: a report pools each method's runs under its name."""
    if not names:
        raise ValueError("no methods to evaluate")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"method {name!r} is listed twice")


def run_eval(
    dataset,
    methods: Sequence[str | Method],
    config: EvalConfig | None = None,
    out_dir: str | Path | None = None,
) -> MetricsReport:
    """Evaluate methods over repeated splits of one dataset, with the
    settings of ``config`` (``EvalConfig()`` when none is given).

    Run i uses seed ``base_seed + i`` for both split modes, and every
    method scores the identical test pairs of a split. Metrics aggregate
    as mean and sample standard deviation across runs. Per-run split
    files are persisted under ``out_dir/splits`` when a directory is
    given, replacing whatever an earlier evaluation left there, and
    their content hashes always land in the report. A method
    that raises in a mode it supports is flagged as a failure and its
    aggregate for that mode is dropped; DeepWalk in inductive mode is
    skipped by contract. An unknown method, or a method list that
    :func:`check_method_names` rejects, raises ValueError before
    ``out_dir`` is touched.
    """
    resolved = [make_method(m) for m in methods]
    check_method_names([method.name for method in resolved])
    config = EvalConfig() if config is None else config

    if out_dir is not None and (Path(out_dir) / "splits").is_dir():
        shutil.rmtree(Path(out_dir) / "splits")

    per_method: dict[tuple[str, str], list[tuple[float, float, float]]] = {}
    failures: list[EvalFailure] = []
    modes = MODES if config.mode == "both" else (config.mode,)
    hashers = {mode: hashlib.sha256() for mode in modes}

    candidates = dataset.anchor_candidates()
    title_candidates = dataset.title_candidates()
    # Tokenized once for every run and mode. Interned, the lists share one
    # string per distinct token instead of holding one string per token.
    tokens = [list(map(sys.intern, tokenize(article.abstract))) for article in dataset.articles]
    for run in range(config.runs):
        seed = config.base_seed + run
        for mode in modes:
            if mode == "transductive":
                split = split_transductive(
                    dataset.network, candidates, config.transductive_ratio, run_seed=seed
                )
            else:
                split = split_inductive(
                    dataset.network, candidates, config.inductive_ratio, run_seed=seed
                )

            pair_bytes = _serialize_test_pairs(split.test_pairs)
            hashers[mode].update(pair_bytes)
            if out_dir is not None:
                split_dir = Path(out_dir) / "splits" / f"run_{run}" / mode
                split_dir.mkdir(parents=True, exist_ok=True)
                (split_dir / "test_pairs.tsv").write_bytes(pair_bytes)
                write_links_tsv(split_dir / "train_links.tsv", split.train_network)

            ctx = RunContext(
                tokens=tokens,
                train_network=split.train_network,
                train_nodes=split.train_nodes,
                seed=seed,
                candidates=candidates,
                title_candidates=title_candidates,
                config=config,
            )
            pairs = [(s, t) for s, t, _ in split.test_pairs]
            labels = [label for _, _, label in split.test_pairs]
            for method in resolved:
                if mode == "inductive" and not method.supports_inductive:
                    continue
                try:
                    scores = np.asarray(method.make_scorer(ctx)(pairs), dtype=float)
                    if len(scores) != len(pairs):
                        raise ValueError("scorer returned the wrong number of scores")
                    if len(scores) and (
                        not np.all(np.isfinite(scores))
                        or scores.min() < 0.0
                        or scores.max() > 1.0
                    ):
                        raise ValueError("scores must be finite and within [0, 1]")
                    auc = pr_auc(scores, labels, pairs)
                    if method.binary:
                        precision, recall = binary_precision_recall(scores, labels)
                    else:
                        precision, recall = precision_recall_at_prevalence(
                            scores, labels, pairs
                        )
                except Exception as exc:  # noqa: BLE001 - flagged, not swallowed
                    failures.append(
                        EvalFailure(method=method.name, mode=mode, run=run, error=str(exc))
                    )
                    continue
                per_method.setdefault((method.name, mode), []).append(
                    (auc, precision, recall)
                )

    failed = {(failure.method, failure.mode) for failure in failures}
    entries: list[MethodMetrics] = []
    for method in resolved:
        for mode in modes:
            key = (method.name, mode)
            if key in failed or key not in per_method:
                continue
            values = per_method[key]
            (auc_mean, p_mean, r_mean), (auc_std, p_std, r_std) = _mean_std(values)
            entries.append(MethodMetrics(
                method=method.name, mode=mode, runs=len(values), auc_mean=auc_mean,
                auc_std=auc_std, p_mean=p_mean, p_std=p_std, r_mean=r_mean, r_std=r_std,
                per_run=values,
            ))

    report = MetricsReport(
        dataset=dataset.name,
        entries=entries,
        split_hashes={mode: hashers[mode].hexdigest() for mode in modes},
        failures=failures,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report.to_json(), encoding="utf-8")
        (out / "report.md").write_text(report.to_markdown(), encoding="utf-8")
    return report
