"""Command-line front end for the dataset and evaluation pipeline.

Commands: ingest, subgraph, dataset-stats, eval, report. All randomness
flows from a single base seed, so identical inputs and seeds produce
byte-identical outputs. Exit codes: 0 ok, 1 partial failure (some
method failed during eval), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import bz2
import copy
import difflib
import gzip
import json
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

from .dataset import ARTICLES_FILE, LINKS_FILE, Dataset, write_remap_tsv, write_samples_tsv
from .deepwalk import DeepWalkParams
from .evaluation import EvalConfig, MetricsReport, check_method_names, run_eval
from .graph import (DocumentNetwork, check_ratio, network_stats, personalized_pagerank,
                    topk_subgraph)
from .ingest import Article, DumpParseError, build_corpus, parse_dump
from .predictors import METHOD_NAMES, ExternalFileMethod, make_method

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


# The keys of experiment.json that eval reads itself, with their defaults. Every
# other key is an EvalConfig field of the same name and JSON type.
_EVAL_KEYS = {"data": None, "out": None, "methods": list(METHOD_NAMES), "external_methods": {}}


def _read_config(path) -> dict:
    """The JSON object at ``path``; a key that is neither in :data:`_EVAL_KEYS`
    nor an :class:`EvalConfig` field is an :class:`InputError`."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"config {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"config {path} must be a JSON object")
    unknown = set(raw) - set(_EVAL_KEYS) - {f.name for f in fields(EvalConfig)}
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return raw


def _eval_settings(config: dict) -> EvalConfig:
    """Check the JSON shapes and paths of ``config`` here and every value
    with the library's own checks; return the evaluation settings, or
    raise :class:`InputError` naming the first bad key."""
    for name in ("data", "out"):
        if not isinstance(config[name], (str, type(None))):
            raise InputError(f"{name} must be a string path")
    methods, external = config["methods"], config["external_methods"]
    if not isinstance(methods, list) or not all(isinstance(v, str) for v in methods):
        raise InputError("methods must be a list of strings")
    if not isinstance(external, dict) or not all(isinstance(p, str) for p in external.values()):
        raise InputError("external_methods must map method names to file paths")
    settings = {key: value for key, value in config.items() if key not in _EVAL_KEYS}
    deepwalk = settings.setdefault("deepwalk", {})
    if not isinstance(deepwalk, dict):
        raise InputError("deepwalk must be a JSON object")
    unknown = set(deepwalk) - {f.name for f in fields(DeepWalkParams)}
    if unknown:
        raise InputError(f"unknown deepwalk keys: {', '.join(sorted(unknown))}")
    try:
        for method in methods:
            make_method(method)
        check_method_names(methods + list(external))
        try:
            settings["deepwalk"] = DeepWalkParams(**deepwalk)
        except ValueError as exc:
            raise ValueError(f"deepwalk.{exc}") from None
        eval_config = EvalConfig(**settings)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if config["data"] and _path_kind(Path(config["data"])) is None:
        raise InputError(f"referenced path does not exist: {config['data']}")
    if config["out"]:
        out = _output_directory(config["out"])
        # What eval writes there: the split files, then the reports.
        _output_directory(out / "splits")
        for name in ("report.json", "report.md"):
            if _path_kind(out / name) == "dir":
                raise InputError(f"output file is a directory: {out / name}")
    for name, path in external.items():
        if _path_kind(Path(path)) is None:
            raise InputError(f"external predictions for {name!r} missing: {path}")
    return eval_config


def _path_kind(path: Path) -> str | None:
    """``"dir"``, ``"file"``, or ``None`` when nothing is at ``path``; a
    path the OS rejects, such as a name too long, is an :class:`InputError`."""
    try:
        if not path.exists():
            return None
        return "dir" if path.is_dir() else "file"
    except OSError as exc:
        raise InputError(f"unusable path {path}: {exc.strerror}") from exc


def _output_directory(path) -> Path:
    """An output directory that exists or can be made: the nearest part
    of ``path`` that exists must be a directory."""
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if _path_kind(p))
    if _path_kind(existing) != "dir":
        raise InputError(f"output path is not a directory: {existing}")
    return path


def _output_file(path) -> Path:
    """An output file in a directory that exists."""
    path = Path(path)
    if _path_kind(path) == "dir":
        raise InputError(f"output file is a directory: {path}")
    if _path_kind(path.parent) != "dir":
        raise InputError(f"output directory not found: {path.parent}")
    return path


def _not_an_input(option: str, output, *inputs) -> None:
    """Raise :class:`InputError` when the output path resolves to one of
    the paths read from ``--data``, which writing it would overwrite."""
    if Path(output).resolve() in {Path(path).resolve() for path in inputs}:
        raise InputError(f"{option} {output} would overwrite the dataset given by --data")


def _open_dump(path: Path):
    kind = _path_kind(path)
    if kind is None:
        raise InputError(f"dump not found: {path}")
    if kind == "dir":
        raise InputError(f"dump is a directory: {path}")
    opener = {".bz2": bz2.open, ".gz": gzip.open}.get(path.suffix, open)
    try:
        return opener(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot open dump {path}: {exc.strerror}") from exc


def cmd_ingest(args) -> int:
    counters: Counter = Counter()
    out = _output_directory(args.out)
    with _open_dump(Path(args.dump)) as stream:
        try:
            articles, links = build_corpus(parse_dump(stream, counters), counters)
        except DumpParseError as exc:
            raise InputError(str(exc)) from exc
        except (OSError, EOFError) as exc:  # a corrupt or truncated .gz or .bz2
            raise InputError(f"cannot read dump {args.dump}: {exc}") from exc
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
    _not_an_input("--out", out, args.data)
    if args.k < 1:
        raise InputError(f"--k must be at least 1, got {args.k}")
    try:
        check_ratio("damping", args.damping)
    except ValueError as exc:
        raise InputError(f"--{exc}") from exc
    dataset = _load_dataset(args.data)
    seed = _resolve_seed_article(dataset, args.seed_article)
    if args.k > dataset.network.node_count:
        raise InputError(
            f"k={args.k} exceeds the {dataset.network.node_count} articles in the dataset"
        )
    scores = personalized_pagerank(dataset.network, seed, damping=args.damping)
    if not scores.converged:
        print("warning: PageRank did not converge", file=sys.stderr)
    titles = [a.title for a in dataset.articles]
    subgraph, old_to_new = topk_subgraph(dataset.network, scores.scores, args.k, titles)
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
    if _path_kind(directory) != "dir":
        raise InputError(f"dataset directory not found: {directory}")
    try:
        return Dataset.load(directory)
    except (OSError, ValueError, KeyError) as exc:
        raise InputError(f"cannot load dataset from {directory}: {exc}") from exc


def cmd_dataset_stats(args) -> int:
    if args.samples_out:
        _output_file(args.samples_out)
        data = Path(args.data)
        _not_an_input("--samples-out", args.samples_out, data / ARTICLES_FILE, data / LINKS_FILE)
    dataset = _load_dataset(args.data)
    candidates = dataset.anchor_candidates()
    if args.samples_out:
        write_samples_tsv(args.samples_out, candidates, dataset.network)
    stats = network_stats(dataset.network, dataset.articles, candidates)
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
    config = copy.deepcopy(_EVAL_KEYS) | (_read_config(args.config) if args.config else {})
    for key in ("data", "out", "mode", "runs", "base_seed"):
        value = getattr(args, key)
        # An empty --data or --out leaves the config's path in place.
        if value is not None and (value != "" or key == "mode"):
            config[key] = value
    settings = _eval_settings(config)
    if not config["data"]:
        raise InputError("no dataset directory given (--data or config 'data')")

    dataset = _load_dataset(config["data"])
    methods: list = list(config["methods"])
    for name, path in sorted(config["external_methods"].items()):
        try:
            methods.append(ExternalFileMethod(name, path))
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read predictions for {name!r} from {path}: {exc}") from exc
    report = run_eval(dataset, methods, settings, out_dir=config["out"])
    print(report.to_markdown())
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
    if _path_kind(path) is None:
        raise InputError(f"report not found: {path}")
    try:
        report = MetricsReport.from_records(json.loads(path.read_text(encoding="utf-8")))
        table = report.to_markdown()
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
    p_eval.add_argument("--mode",
                        help="evaluation mode: transductive, inductive or both (default both)")
    p_eval.add_argument("--runs", type=int,
                        help=f"number of repeated runs (default {EvalConfig.runs})")
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
