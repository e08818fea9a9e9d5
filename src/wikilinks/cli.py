"""Command-line front end for the dataset and evaluation pipeline.

Commands: ingest, subgraph, dataset-stats, eval, report. All randomness
flows from a single base seed, so identical inputs and seeds produce
byte-identical outputs. Exit codes: 0 ok, 1 partial failure (some
method failed during eval), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import bz2
import difflib
import gzip
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path

from .dataset import Dataset, write_remap_tsv, write_samples_tsv
from .deepwalk import DeepWalkParams
from .evaluation import MetricsReport, run_eval
from .graph import DocumentNetwork, network_stats, personalized_pagerank, topk_subgraph
from .ingest import Article, DumpParseError, build_corpus, parse_dump
from .predictors import EvalModelConfig, ExternalFileMethod, make_method

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


@dataclass
class PipelineConfig:
    """Declarative experiment configuration (JSON file)."""

    data: str | None = None
    out: str | None = None
    dimension: int = 512
    deepwalk: dict = field(default_factory=dict)
    atilp_positives: int = 1000
    atilp_negatives: int = 1000
    transductive_ratio: float = 0.10
    inductive_ratio: float = 0.10
    runs: int = 5
    base_seed: int = 0
    mode: str = "both"
    methods: list[str] = field(
        default_factory=lambda: ["random", "at_title", "at_anchor", "lsa", "deepwalk", "atilp"]
    )
    external_methods: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise InputError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise InputError(f"config {path} must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
        return cls(**raw)

    def validate(self) -> None:
        """Check every field's type and range; raise :class:`InputError`
        naming the first bad field."""
        for name in ("data", "out"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise InputError(f"{name} must be a string path")
        if not isinstance(self.methods, list) or not all(isinstance(v, str) for v in self.methods):
            raise InputError("methods must be a list of strings")
        for name, minimum in (
            ("dimension", 1), ("atilp_positives", 1), ("atilp_negatives", 1),
            ("runs", 1), ("base_seed", 0),
        ):
            _require_int(name, getattr(self, name), minimum)
        for name in ("transductive_ratio", "inductive_ratio"):
            value = getattr(self, name)
            if not _is_finite_number(value) or not 0.0 < value < 1.0:
                raise InputError(f"{name} must lie strictly between 0 and 1")
        if self.mode not in ("transductive", "inductive", "both"):
            raise InputError("mode must be transductive, inductive or both")
        for method in self.methods:
            try:
                make_method(method)
            except ValueError as exc:
                raise InputError(str(exc)) from exc
        _validate_deepwalk(self.deepwalk)
        if not isinstance(self.external_methods, dict) or not all(
            isinstance(path, str) for path in self.external_methods.values()
        ):
            raise InputError("external_methods must map method names to file paths")
        if self.data and not Path(self.data).exists():
            raise InputError(f"referenced path does not exist: {self.data}")
        if self.out:
            _output_directory(self.out)
        for name, path in self.external_methods.items():
            if not Path(path).exists():
                raise InputError(f"external predictions for {name!r} missing: {path}")

    def model_config(self) -> EvalModelConfig:
        return EvalModelConfig(
            lsa_dimension=self.dimension,
            deepwalk=DeepWalkParams(**self.deepwalk),
            atilp_positives=self.atilp_positives,
            atilp_negatives=self.atilp_negatives,
        )


def _is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _require_int(name: str, value, minimum: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InputError(f"{name} must be at least {minimum}")


def _validate_deepwalk(raw) -> None:
    """The ``deepwalk`` config object: known :class:`DeepWalkParams` keys
    only; integer fields at least 1, a finite positive learning rate and
    a boolean ``undirected``."""
    if not isinstance(raw, dict):
        raise InputError("deepwalk must be a JSON object")
    unknown = set(raw) - {f.name for f in fields(DeepWalkParams)}
    if unknown:
        raise InputError(f"unknown deepwalk keys: {', '.join(sorted(unknown))}")
    for name, value in raw.items():
        if name == "learning_rate":
            if not _is_finite_number(value) or value <= 0:
                raise InputError("deepwalk.learning_rate must be a finite number above 0")
        elif name == "undirected":
            if not isinstance(value, bool):
                raise InputError("deepwalk.undirected must be true or false")
        else:
            _require_int(f"deepwalk.{name}", value, 1)


def _output_directory(path) -> Path:
    """An output directory that exists or can be made: the nearest part
    of ``path`` that exists must be a directory."""
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise InputError(f"output path is not a directory: {existing}")
    return path


def _output_file(path) -> Path:
    """An output file in a directory that exists."""
    path = Path(path)
    if path.is_dir():
        raise InputError(f"output file is a directory: {path}")
    if not path.parent.is_dir():
        raise InputError(f"output directory not found: {path.parent}")
    return path


def _open_dump(path: Path):
    if not path.exists():
        raise InputError(f"dump not found: {path}")
    if path.suffix == ".bz2":
        return bz2.open(path, "rb")
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def cmd_ingest(args) -> int:
    counters: Counter = Counter()
    out = _output_directory(args.out)
    with _open_dump(Path(args.dump)) as stream:
        try:
            articles, links = build_corpus(parse_dump(stream, counters), counters)
        except DumpParseError as exc:
            offset = f" near byte {exc.byte_offset}" if exc.byte_offset is not None else ""
            raise InputError(f"{exc}{offset}") from exc
    network = DocumentNetwork.from_links(len(articles), links)
    Dataset(name=out.name, articles=articles, network=network).save(out)
    warnings = sum(
        count for key, count in counters.items()
        if key not in ("pages_seen", "pages_non_mainspace", "links_kept")
    )
    print(f"pages: {counters['pages_seen']}")
    print(f"articles: {len(articles)}")
    print(f"links: {len(links)}")
    print(f"warnings: {warnings}")
    return EXIT_OK


def _resolve_seed_article(dataset: Dataset, title: str) -> int:
    doc = dataset.resolve_title(title)
    if doc is not None:
        return doc
    names = [a.title for a in dataset.articles]
    names += [alias for a in dataset.articles for alias in a.aliases]
    near = difflib.get_close_matches(title, names, n=5)
    hint = f" (close matches: {', '.join(near)})" if near else ""
    raise InputError(f"seed article {title!r} not found{hint}")


def cmd_subgraph(args) -> int:
    out = _output_directory(args.out)
    dataset = _load_dataset(args.data)
    seed = _resolve_seed_article(dataset, args.seed_article)
    if args.k < 1:
        raise InputError(f"--k must be at least 1, got {args.k}")
    if args.k > dataset.network.node_count:
        raise InputError(
            f"k={args.k} exceeds the {dataset.network.node_count} articles in the dataset"
        )
    if not 0.0 < args.damping < 1.0:
        raise InputError(f"--damping must lie strictly between 0 and 1, got {args.damping}")
    scores = personalized_pagerank(dataset.network, seed, damping=args.damping)
    if not scores.converged:
        print("warning: PageRank did not converge", file=sys.stderr)
    titles = [a.title for a in dataset.articles]
    subgraph, old_to_new = topk_subgraph(dataset.network, scores, args.k, titles)
    new_articles = []
    for old, new in sorted(old_to_new.items(), key=lambda kv: kv[1]):
        source = dataset.articles[old]
        new_articles.append(
            Article(id=new, title=source.title, abstract=source.abstract,
                    aliases=set(source.aliases))
        )
    Dataset(name=out.name, articles=new_articles, network=subgraph).save(out)
    write_remap_tsv(out / "remap.tsv", old_to_new)
    print(f"articles: {subgraph.node_count}")
    print(f"links: {subgraph.edge_count}")
    return EXIT_OK


def _load_dataset(path: str) -> Dataset:
    directory = Path(path)
    if not directory.is_dir():
        raise InputError(f"dataset directory not found: {directory}")
    try:
        return Dataset.load(directory)
    except (OSError, ValueError, KeyError) as exc:
        raise InputError(f"cannot load dataset from {directory}: {exc}") from exc


def cmd_dataset_stats(args) -> int:
    if args.samples_out:
        _output_file(args.samples_out)
    dataset = _load_dataset(args.data)
    samples = dataset.eval_samples()
    if args.samples_out:
        write_samples_tsv(args.samples_out, samples)
    stats = network_stats(dataset.network, dataset.articles, samples)
    print(f"documents: {stats.n_docs}")
    print(f"links: {stats.n_links} ({stats.density_pct:.2f}%)")
    print(f"vocabulary: {stats.n_vocab}")
    print(f"doc length: {stats.doc_length_mean:.2f} ({stats.doc_length_std:.2f})")
    print(
        f"positives/doc: {stats.positives_per_doc_mean:.2f} "
        f"({stats.positives_per_doc_std:.2f})"
    )
    print(
        f"negatives/doc: {stats.negatives_per_doc_mean:.2f} "
        f"({stats.negatives_per_doc_std:.2f})"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    if args.data:
        config.data = args.data
    if args.out:
        config.out = args.out
    if args.mode:
        config.mode = args.mode
    if args.runs is not None:
        config.runs = args.runs
    if args.base_seed is not None:
        config.base_seed = args.base_seed
    config.validate()
    if not config.data:
        raise InputError("no dataset directory given (--data or config 'data')")

    dataset = _load_dataset(config.data)
    modes = ("inductive", "transductive") if config.mode == "both" else (config.mode,)
    methods: list = list(config.methods)
    for name, path in sorted(config.external_methods.items()):
        try:
            methods.append(ExternalFileMethod(name, path))
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read predictions for {name!r} from {path}: {exc}") from exc
    report = run_eval(
        dataset,
        methods,
        runs=config.runs,
        base_seed=config.base_seed,
        modes=modes,
        transductive_ratio=config.transductive_ratio,
        inductive_ratio=config.inductive_ratio,
        config=config.model_config(),
        out_dir=config.out,
    )
    print(report.to_markdown(report.modes()))
    if report.failures:
        for failure in report.failures:
            print(
                f"FAILED {failure.method} [{failure.mode}, run {failure.run}]: {failure.error}",
                file=sys.stderr,
            )
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_report(args) -> int:
    path = Path(args.report)
    if not path.exists():
        raise InputError(f"report not found: {path}")
    try:
        report = MetricsReport.from_records(json.loads(path.read_text(encoding="utf-8")))
        table = report.to_markdown(report.modes())
    except (OSError, ValueError, TypeError) as exc:
        raise InputError(f"malformed report {path}: {exc}") from exc
    sys.stdout.write(table)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wikilinks",
        description="Build hyperlink-prediction datasets from MediaWiki dumps "
        "and evaluate link predictors on them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse a dump into articles.jsonl + links.tsv")
    p_ingest.add_argument("--dump", required=True, help="pages-articles XML export "
                          "(.bz2/.gz accepted)")
    p_ingest.add_argument("--out", required=True, help="output dataset directory")
    p_ingest.set_defaults(func=cmd_ingest)

    p_sub = sub.add_parser("subgraph", help="extract a topic-centered top-k subgraph")
    p_sub.add_argument("--data", required=True, help="ingested dataset directory")
    p_sub.add_argument("--seed-article", required=True,
                       help="title (or redirect alias) of the center article")
    p_sub.add_argument("--k", type=int, default=1000, help="subgraph size (default 1000)")
    p_sub.add_argument("--damping", type=float, default=0.85,
                       help="PageRank damping factor (default 0.85)")
    p_sub.add_argument("--out", required=True, help="output dataset directory")
    p_sub.set_defaults(func=cmd_subgraph)

    p_stats = sub.add_parser("dataset-stats", help="print dataset statistics")
    p_stats.add_argument("--data", required=True, help="dataset directory")
    p_stats.add_argument("--samples-out",
                         help="also export the labeled evaluation samples as TSV")
    p_stats.set_defaults(func=cmd_dataset_stats)

    p_eval = sub.add_parser("eval", help="run the link-prediction evaluation")
    p_eval.add_argument("--data", help="dataset directory (overrides config)")
    p_eval.add_argument("--config", help="JSON experiment configuration")
    p_eval.add_argument("--out", help="output directory for report + splits")
    p_eval.add_argument("--mode", choices=("transductive", "inductive", "both"),
                        help="evaluation mode (default both)")
    p_eval.add_argument("--runs", type=int, help="number of repeated runs (default 5)")
    p_eval.add_argument("--base-seed", type=int, help="seed of run 0; run i uses base+i")
    p_eval.set_defaults(func=cmd_eval)

    p_report = sub.add_parser("report", help="render a report.json as a markdown table")
    p_report.add_argument("--report", required=True, help="path to report.json")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
