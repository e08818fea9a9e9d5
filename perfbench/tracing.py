"""Spans around the program's public entry points, kept in memory.

The traced run installs wrappers at the module attributes through which
the program reaches each entry point named in ``spec.json`` (for
example ``wikilinks.cli:parse_dump``, the name ``cmd_ingest`` calls),
and passes a :class:`TracedMethod` wrapper for each method to
``run_eval``. Nothing under ``src/`` changes. A span records its trace
id (the iteration), its parent, its name and its start and end; a
layer's self time is its duration minus the time of its child spans.
Counts are taken at the same boundaries from arguments and results.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from wikilinks.predictors import Method, make_method

# Entry points that the benchmark calls itself instead of patching: the
# CLI entry point (span cli.<command>), and the two reached through
# TracedMethod (spans predictors.<method>.fit and lsa.fit).
DIRECT = {
    "wikilinks.cli:main",
    "wikilinks.predictors:Method.make_scorer",
    "wikilinks.predictors:RunContext.lsa",
}

METHODS = ("random", "at_title", "at_anchor", "lsa", "atilp", "deepwalk")


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self) -> None:
        # Each span: [trace_id, span_id, parent_id, name, start, end, child_seconds]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self.trace_id = 0

    def enter(self, name: str) -> None:
        parent = self._stack[-1][1] if self._stack else None
        span = [self.trace_id, len(self.spans), parent, name, time.perf_counter(), None, 0.0]
        self.spans.append(span)
        self._stack.append(span)

    def exit(self) -> None:
        span = self._stack.pop()
        span[5] = time.perf_counter()
        if self._stack:
            self._stack[-1][6] += span[5] - span[4]

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, name: str | None, func, count=None):
        """Time ``func`` as span ``name``; ``count(tracer, args, kwargs,
        result)`` adds counts after the call. A generator function is
        timed per item it yields, so its consumer's own time is excluded."""
        if inspect.isgeneratorfunction(func):
            def traced_generator(*args, **kwargs):
                iterator = func(*args, **kwargs)
                while True:
                    self.enter(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        self.exit()
                    yield item
            return traced_generator

        def traced(*args, **kwargs):
            if name is None:
                result = func(*args, **kwargs)
            else:
                self.enter(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    self.exit()
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return traced

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for trace_id, span_id, parent, name, start, end, _ in self.spans:
                fh.write(json.dumps({"trace": trace_id, "span": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


# Counts taken at span boundaries: (tracer, args, kwargs, result) -> None.

def _count_corpus(tracer, args, kwargs, result):
    counters = args[1] if len(args) > 1 else kwargs.get("counters") or Counter()
    tracer.counts["ingest.pages"] += counters["pages_seen"]
    tracer.counts["ingest.links_kept"] += counters["links_kept"]
    tracer.counts["ingest.recoveries"] += sum(
        n for key, n in counters.items()
        if key not in ("pages_seen", "pages_non_mainspace", "links_kept"))


def _count_anchor_map(tracer, args, kwargs, result):
    tracer.counts["anchors.patterns"] += len(result.patterns)


def _count_scan(tracer, args, kwargs, result):
    articles = args[2] if len(args) > 2 else kwargs["articles"]
    tracer.counts["anchors.scan_bytes"] += sum(len(a.abstract.encode("utf-8")) for a in articles)
    pairs = [pair for pairs in result.values() for pair in pairs]
    tracer.counts["anchors.candidates"] += len(pairs)
    tracer.counts["anchors.positives"] += sum(1 for pair in pairs if pair.label)


def _count_ppr(tracer, args, kwargs, result):
    tracer.counts["graph.ppr_iterations"] += result.iterations


def _count_saved(tracer, args, kwargs, result):
    directory = args[1] if len(args) > 1 else kwargs["directory"]
    tracer.counts["dataset.bytes_written"] += sum(
        entry.stat().st_size for entry in os.scandir(directory) if entry.is_file())


def _count_written(tracer, args, kwargs, result):
    tracer.counts["dataset.bytes_written"] += os.path.getsize(args[0])


def _count_split(tracer, args, kwargs, result):
    tracer.counts["evaluation.test_pairs"] += len(result.test_pairs)
    tracer.counts["evaluation.test_positives"] += sum(label for _, _, label in result.test_pairs)


def _count_walks(tracer, args, kwargs, result):
    tracer.counts["deepwalk.positions"] += sum(len(walk) for walk in result)


def _count_atilp(tracer, args, kwargs, result):
    tracer.counts["predictors.atilp.n_positive"] += result.n_positive
    tracer.counts["predictors.atilp.n_negative"] += result.n_negative


COUNTS = {
    "wikilinks.cli:build_corpus": _count_corpus,
    "wikilinks.dataset:build_anchor_map": _count_anchor_map,
    "wikilinks.dataset:build_eval_samples": _count_scan,
    "wikilinks.cli:personalized_pagerank": _count_ppr,
    "wikilinks.dataset:Dataset.save": _count_saved,
    "wikilinks.cli:write_samples_tsv": _count_written,
    "wikilinks.cli:write_remap_tsv": _count_written,
    "wikilinks.evaluation:split_transductive": _count_split,
    "wikilinks.evaluation:split_inductive": _count_split,
    "wikilinks.deepwalk:generate_walks": _count_walks,
    "wikilinks.predictors:fit_atilp": _count_atilp,
}


def resolve(target: str):
    """(owner, attribute name, raw attribute) for 'module:Attr.path'."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class TracedMethod(Method):
    """A ``Method`` stand-in for ``run_eval`` that times ``make_scorer``,
    the scorer it returns and ``ctx.lsa()``, and counts scored pairs."""

    def __init__(self, method, tracer: Tracer) -> None:
        self._method = method
        self._tracer = tracer
        self.name = method.name
        self.binary = method.binary
        self.supports_inductive = method.supports_inductive

    def make_scorer(self, ctx):
        tracer, prefix = self._tracer, f"predictors.{self.name}"
        if "lsa" not in vars(ctx):  # the first method of this run and mode
            fitted = []

            def count_cells(tracer, args, kwargs, result):
                if not fitted:  # only the first call fits; later ones hit the cache
                    fitted.append(True)
                    model = result[0]
                    tracer.counts["lsa.matrix_cells"] += (
                        model.doc_embeddings.shape[0] * model.projection.shape[0])
            ctx.lsa = tracer.wrap("lsa.fit", ctx.lsa, count_cells)
        scorer = tracer.wrap(f"{prefix}.fit", self._method.make_scorer)(ctx)

        def count_pairs(tracer, args, kwargs, result):
            tracer.counts[f"{prefix}.pairs"] += len(args[0])
        return tracer.wrap(f"{prefix}.score", scorer, count_pairs)


@contextmanager
def installed(tracer: Tracer, entry_points: dict):
    """Wrap every patchable entry point for the duration of the block.

    Resolving each one first makes a renamed or removed entry point fail
    the traced run instead of silently dropping its spans.
    """
    resolved = {target: resolve(target) for target in entry_points}
    originals = []
    try:
        for target, (owner, attr, raw) in resolved.items():
            if target in DIRECT:
                continue
            name, count = entry_points[target], COUNTS.get(target)
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(name, raw.__func__, count))
            elif target == "wikilinks.cli:run_eval":
                wrapped = tracer.wrap(name, wrap_methods(raw, tracer), count)
            else:
                wrapped = tracer.wrap(name, raw, count)
            originals.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        yield
    finally:
        for owner, attr, raw in reversed(originals):
            setattr(owner, attr, raw)


def wrap_methods(run_eval, tracer: Tracer):
    """``run_eval`` replacement that resolves the method names itself and
    passes :class:`TracedMethod` wrappers in their place."""
    def traced_run_eval(dataset, methods, *args, **kwargs):
        methods = [TracedMethod(make_method(m), tracer) for m in methods]
        return run_eval(dataset, methods, *args, **kwargs)
    return traced_run_eval


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def iteration_layers(tracer: Tracer, trace_id: int, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    n_spans = 0
    for span_trace, _, _, name, start, end, child in tracer.spans:
        if span_trace != trace_id:
            continue
        n_spans += 1
        total_s[name] += end - start
        self_s[name] += end - start - child
    c = counts
    m = {
        "ingest.parse_s": self_s["ingest.parse"],
        "ingest.extract_abstract_s": self_s["ingest.extract_abstract"],
        "ingest.render_abstract_s": self_s["ingest.render_abstract"],
        "ingest.build_corpus_s": self_s["ingest.build_corpus"],
        "ingest.mb_per_s": _ratio(c["ingest.dump_bytes"] / 1e6, total_s["ingest.build_corpus"]),
        "ingest.pages": c["ingest.pages"],
        "ingest.links_kept": c["ingest.links_kept"],
        "ingest.recoveries": c["ingest.recoveries"],
        "anchors.anchor_map_s": self_s["anchors.anchor_map"],
        "anchors.automaton_s": self_s["anchors.automaton"],
        "anchors.scan_s": self_s["anchors.scan"],
        "anchors.title_scan_s": self_s["anchors.title_scan"],
        "anchors.scan_kb_per_s": _ratio(c["anchors.scan_bytes"] / 1e3, total_s["anchors.scan"]),
        "anchors.patterns": c["anchors.patterns"],
        "anchors.candidates": c["anchors.candidates"],
        "anchors.positive_frac": _ratio(c["anchors.positives"], c["anchors.candidates"]),
        "graph.from_links_s": self_s["graph.from_links"],
        "graph.ppr_s": self_s["graph.ppr"],
        "graph.ppr_iterations": c["graph.ppr_iterations"],
        "graph.topk_s": self_s["graph.topk"],
        "graph.stats_s": self_s["graph.stats"],
        "dataset.load_s": self_s["dataset.load"],
        "dataset.save_s": self_s["dataset.save"],
        "dataset.bytes_written": c["dataset.bytes_written"],
        "lsa.fit_s": self_s["lsa.fit"],
        "lsa.fold_in_s": self_s["lsa.fold_in"],
        "lsa.matrix_cells": c["lsa.matrix_cells"],
        "deepwalk.walks_s": self_s["deepwalk.walks"],
        "deepwalk.fit_s": self_s["deepwalk.fit"],
        "deepwalk.positions": c["deepwalk.positions"],
        "deepwalk.positions_per_s": _ratio(c["deepwalk.positions"], self_s["deepwalk.fit"]),
    }
    for method in METHODS:
        prefix = f"predictors.{method}"
        m[f"{prefix}.fit_s"] = self_s[f"{prefix}.fit"]
        m[f"{prefix}.score_s"] = self_s[f"{prefix}.score"]
        m[f"{prefix}.pairs_per_s"] = _ratio(c[f"{prefix}.pairs"], self_s[f"{prefix}.score"])
    m["predictors.atilp.n_positive"] = c["predictors.atilp.n_positive"]
    m["predictors.atilp.n_negative"] = c["predictors.atilp.n_negative"]
    m.update({
        "evaluation.harness_s": self_s["evaluation.harness"],
        "evaluation.split_s": self_s["evaluation.split"],
        "evaluation.metrics_s": self_s["evaluation.metrics"],
        "evaluation.test_pairs": c["evaluation.test_pairs"],
        "evaluation.test_positives": c["evaluation.test_positives"],
    })
    for command in ("ingest", "subgraph", "dataset_stats", "eval", "report"):
        m[f"cli.{command}_s"] = total_s[f"cli.{command}"]
    m["trace.spans"] = n_spans
    return m


def median_layers(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(it[name] for it in per_iteration)
            for name in per_iteration[0]}
