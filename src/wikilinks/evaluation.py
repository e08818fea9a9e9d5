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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .anchors import CandidatePair
from .graph import DocumentNetwork
from .predictors import EvalModelConfig, Method, RunContext, make_method

TestPair = tuple[int, int, int]  # (source, target, label)


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
        if self.mode not in ("transductive", "inductive"):
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
    samples: Mapping[int, Sequence[CandidatePair]],
    ratio: float = 0.10,
    run_seed: int = 0,
) -> EvalSplit:
    """Hide round(ratio * n_E) edges chosen uniformly without replacement.

    Test pairs cover every source that lost an edge: its hidden edges as
    positives, its candidate non-edges (against the full network) as
    negatives. No connectivity repair is attempted.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    edges = list(network.edges())
    n_hidden = _round_half_up(ratio * len(edges))
    rng = np.random.default_rng(run_seed)
    order = rng.permutation(len(edges))
    hidden = sorted(edges[i] for i in order[:n_hidden])

    pairs: set[TestPair] = {(s, t, 1) for s, t in hidden}
    for source in {source for source, _ in hidden}:
        for pair in samples.get(source, ()):
            if not network.has_edge(pair.source, pair.target):
                pairs.add((pair.source, pair.target, 0))
    return EvalSplit(
        mode="transductive",
        train_network=network.remove_edges(hidden),
        train_nodes=tuple(range(network.node_count)),
        test_pairs=sorted(pairs),
        hidden=tuple(hidden),
    )


def split_inductive(
    network: DocumentNetwork,
    samples: Mapping[int, Sequence[CandidatePair]],
    ratio: float = 0.10,
    run_seed: int = 0,
) -> EvalSplit:
    """Hide round(ratio * n_V) documents chosen uniformly.

    The training network is the induced subgraph on the retained
    documents (ids preserved). Each hidden document contributes its true
    edges to retained documents as positives and its remaining
    candidates with retained targets as negatives; only its text reaches
    the predictors.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    n = network.node_count
    n_hidden = _round_half_up(ratio * n)
    rng = np.random.default_rng(run_seed)
    order = rng.permutation(n)
    hidden_nodes = sorted(int(i) for i in order[:n_hidden])
    hidden_set = set(hidden_nodes)
    retained = [i for i in range(n) if i not in hidden_set]
    retained_set = set(retained)

    pairs: set[TestPair] = set()
    for source in hidden_nodes:
        for target in network.out_neighbors(source):
            if target in retained_set:
                pairs.add((source, target, 1))
        for pair in samples.get(source, ()):
            if pair.target in retained_set and not network.has_edge(pair.source, pair.target):
                pairs.add((pair.source, pair.target, 0))
    return EvalSplit(
        mode="inductive",
        train_network=network.restricted_to(retained),
        train_nodes=tuple(retained),
        test_pairs=sorted(pairs),
        hidden=tuple(hidden_nodes),
    )


def _ranking_order(
    scores: Sequence[float], pairs: Sequence[tuple[int, int]] | None
) -> list[int]:
    # Descending score; ties break by ascending (source, target) pair
    # identity when available, by presentation index otherwise.
    if pairs is not None:
        return sorted(range(len(scores)), key=lambda i: (-scores[i], pairs[i]))
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


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
    hits = 0
    total = 0.0
    for rank, i in enumerate(_ranking_order(scores, pairs), start=1):
        if labels[i]:
            hits += 1
            total += hits / rank
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
    tp = sum(1 for i in order[:n_pos] if labels[i])
    value = 100.0 * tp / n_pos
    return value, value


def binary_precision_recall(
    scores: Sequence[float], labels: Sequence[int]
) -> tuple[float, float]:
    """Raw precision and recall of a 0/1 predictor (no thresholding)."""
    n_pos = int(sum(labels))
    if n_pos == 0:
        raise UndefinedMetricError("recall needs at least one positive")
    predicted = [i for i, s in enumerate(scores) if s >= 0.5]
    tp = sum(1 for i in predicted if labels[i])
    precision = 100.0 * tp / len(predicted) if predicted else 0.0
    recall = 100.0 * tp / n_pos
    return precision, recall


@dataclass
class MethodMetrics:
    """Aggregated metrics of one method in one mode."""

    method: str
    mode: str
    binary: bool
    runs: int
    auc_mean: float
    auc_std: float
    precision_mean: float
    precision_std: float
    recall_mean: float
    recall_std: float
    per_run: list[tuple[float, float, float]] = field(default_factory=list)


@dataclass
class EvalFailure:
    method: str
    mode: str
    run: int
    error: str


@dataclass
class MetricsReport:
    """All method/mode aggregates of an evaluation, plus split hashes."""

    dataset: str
    runs: int
    entries: list[MethodMetrics]
    split_hashes: dict[str, str]
    failures: list[EvalFailure] = field(default_factory=list)

    @classmethod
    def from_records(cls, records) -> "MetricsReport":
        """Rebuild a report from the output of :meth:`to_records`.

        Per-run values and the binary flag are not recorded, so entries
        come back without them. Malformed records raise ValueError.
        """
        if not isinstance(records, list) or not records or not all(
            isinstance(record, dict) for record in records
        ):
            raise ValueError("expected a non-empty list of records")
        entries: list[MethodMetrics] = []
        failures: list[EvalFailure] = []
        split_hashes: dict[str, str] = {}
        try:
            for r in records:
                if "error" in r:
                    failures.append(EvalFailure(r["method"], r["mode"], r["run"], r["error"]))
                    continue
                entries.append(
                    MethodMetrics(
                        method=r["method"],
                        mode=r["mode"],
                        binary=False,
                        runs=r["runs"],
                        auc_mean=r["auc_mean"],
                        auc_std=r["auc_std"],
                        precision_mean=r["p_mean"],
                        precision_std=r["p_std"],
                        recall_mean=r["r_mean"],
                        recall_std=r["r_std"],
                    )
                )
                split_hashes[r["mode"]] = r["split_hash"]
            dataset = records[0]["dataset"]
        except KeyError as exc:
            raise ValueError(f"record lacks key {exc}") from None
        return cls(
            dataset=dataset,
            runs=max((item.runs for item in entries), default=0),
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
        records = []
        for item in self.entries:
            records.append(
                {
                    "dataset": self.dataset,
                    "mode": item.mode,
                    "method": item.method,
                    "auc_mean": item.auc_mean,
                    "auc_std": item.auc_std,
                    "p_mean": item.precision_mean,
                    "p_std": item.precision_std,
                    "r_mean": item.recall_mean,
                    "r_std": item.recall_std,
                    "runs": item.runs,
                    "split_hash": self.split_hashes.get(item.mode, ""),
                }
            )
        for failure in self.failures:
            records.append(
                {
                    "dataset": self.dataset,
                    "mode": failure.mode,
                    "method": failure.method,
                    "run": failure.run,
                    "error": failure.error,
                }
            )
        return records

    def to_json(self) -> str:
        return json.dumps(self.to_records(), indent=2, sort_keys=True) + "\n"

    def modes(self) -> list[str]:
        """The modes that have at least one record, in table order."""
        # The only modes, "inductive" and "transductive", sort into table order.
        return sorted({e.mode for e in self.entries} | {f.mode for f in self.failures})

    def to_markdown(self, modes: Sequence[str] = ("inductive", "transductive")) -> str:
        """Results table: one row per method, AUC/P/R blocks per mode.

        Methods that skip a mode show an em dash.
        """
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
                        f"{item.precision_mean:.2f} ( {item.precision_std:.2f})",
                        f"{item.recall_mean:.2f} ( {item.recall_std:.2f})",
                    ]
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"


def _serialize_test_pairs(pairs: Sequence[TestPair]) -> bytes:
    return "".join(f"{s}\t{t}\t{label}\n" for s, t, label in pairs).encode("utf-8")


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return mean, std


def run_eval(
    dataset,
    methods: Sequence[str | Method],
    runs: int = 5,
    base_seed: int = 0,
    modes: Sequence[str] = ("inductive", "transductive"),
    transductive_ratio: float = 0.10,
    inductive_ratio: float = 0.10,
    config: EvalModelConfig | None = None,
    out_dir: str | Path | None = None,
) -> MetricsReport:
    """Evaluate methods over repeated splits of one dataset.

    Run i uses seed ``base_seed + i`` for both split modes, and every
    method scores the identical test pairs of a split. Metrics aggregate
    as mean and sample standard deviation across runs. Per-run split
    files are persisted under ``out_dir/splits`` when a directory is
    given, and their content hashes always land in the report. A method
    that raises in a mode it supports is flagged as a failure and its
    aggregate for that mode is dropped; DeepWalk in inductive mode is
    skipped by contract.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    config = config or EvalModelConfig()
    resolved = [make_method(m) for m in methods]

    from .dataset import write_links_tsv  # local import to avoid a cycle

    per_method: dict[tuple[str, str], list[tuple[float, float, float]]] = {}
    failures: list[EvalFailure] = []
    failed_pairs: set[tuple[str, str]] = set()
    hashers = {mode: hashlib.sha256() for mode in modes}

    samples = dataset.eval_samples()
    title_candidates = dataset.title_candidates()
    for run in range(runs):
        seed = base_seed + run
        for mode in modes:
            if mode == "transductive":
                split = split_transductive(
                    dataset.network, samples, transductive_ratio, run_seed=seed
                )
            elif mode == "inductive":
                split = split_inductive(
                    dataset.network, samples, inductive_ratio, run_seed=seed
                )
            else:
                raise ValueError(f"unknown evaluation mode {mode!r}")

            pair_bytes = _serialize_test_pairs(split.test_pairs)
            hashers[mode].update(pair_bytes)
            if out_dir is not None:
                split_dir = Path(out_dir) / "splits" / f"run_{run}" / mode
                split_dir.mkdir(parents=True, exist_ok=True)
                (split_dir / "test_pairs.tsv").write_bytes(pair_bytes)
                write_links_tsv(
                    split_dir / "train_links.tsv",
                    (
                        (s, t, anchor)
                        for (s, t), anchors in split.train_network.edge_items()
                        for anchor in anchors
                    ),
                )

            ctx = RunContext(
                articles=dataset.articles,
                train_network=split.train_network,
                train_nodes=split.train_nodes,
                seed=seed,
                candidates=samples,
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
                    failed_pairs.add((method.name, mode))
                    continue
                per_method.setdefault((method.name, mode), []).append(
                    (auc, precision, recall)
                )

    entries: list[MethodMetrics] = []
    for method in resolved:
        for mode in modes:
            key = (method.name, mode)
            if key in failed_pairs or key not in per_method:
                continue
            values = per_method[key]
            auc_mean, auc_std = _mean_std([v[0] for v in values])
            p_mean, p_std = _mean_std([v[1] for v in values])
            r_mean, r_std = _mean_std([v[2] for v in values])
            entries.append(
                MethodMetrics(
                    method=method.name,
                    mode=mode,
                    binary=method.binary,
                    runs=len(values),
                    auc_mean=auc_mean,
                    auc_std=auc_std,
                    precision_mean=p_mean,
                    precision_std=p_std,
                    recall_mean=r_mean,
                    recall_std=r_std,
                    per_run=values,
                )
            )

    report = MetricsReport(
        dataset=dataset.name,
        runs=runs,
        entries=entries,
        split_hashes={mode: hashers[mode].hexdigest() for mode in modes},
        failures=failures,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(report.to_json(), encoding="utf-8")
        (out / "report.md").write_text(report.to_markdown(report.modes()), encoding="utf-8")
    return report
