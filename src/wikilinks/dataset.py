"""Dataset bundle and on-disk formats.

A dataset directory holds ``articles.jsonl`` (one article object per
line) and ``links.tsv`` (one source/target/anchor triple per line, with
tab, line break and backslash escaped inside anchor texts). Subgraph
exports add a ``remap.tsv`` id table; evaluation artifacts use
``samples.tsv``, ``predictions.tsv`` and split files in the same
escaping conventions; ``samples.tsv`` also escapes '|' inside an anchor,
since it joins anchors by '|'.
"""

from __future__ import annotations

import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TextIO

from .anchors import (
    build_anchor_map,
    build_eval_samples,
    build_title_map,
    title_targets,
)
from .graph import DocumentNetwork
from .ingest import Article, normalize_title

ARTICLES_FILE = "articles.jsonl"
LINKS_FILE = "links.tsv"


_ESCAPE_RE = re.compile(r"\\[tnr\\]")
_UNESCAPES = {"\\t": "\t", "\\n": "\n", "\\r": "\r", "\\\\": "\\"}


def escape_field(text: str) -> str:
    """Escape backslash, tab and the line breaks newline and carriage return."""
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")


def unescape_field(text: str) -> str:
    """Undo :func:`escape_field`; a backslash before any other character
    stays as it is."""
    if "\\" not in text:
        return text
    return _ESCAPE_RE.sub(lambda m: _UNESCAPES[m.group()], text)


@contextmanager
def _open_utf8(path, newline: str | None = None) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text. A byte that is not UTF-8 raises
    ValueError naming the file and its line: text mode decodes blocks
    ahead of the line read, so the file's bytes are decoded again line by
    line, and no newline byte occurs inside a UTF-8 sequence."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            for number, line in enumerate(fh, 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ValueError(f"{Path(path).name} line {number}: {exc}") from exc
        raise


def write_articles_jsonl(path, articles: Sequence[Article]) -> None:
    """One JSON object per article and line: ``id``, ``title``,
    ``abstract`` and the sorted ``aliases``. Each line is formatted with
    ``json.encoder.encode_basestring``, the string encoder that
    ``json.dumps(..., ensure_ascii=False)`` calls, and the default
    separators, so it is byte for byte the line ``json.dumps`` writes."""
    with open(path, "w", encoding="utf-8") as fh:
        for article in articles:
            aliases = ", ".join(map(encode_basestring, sorted(article.aliases)))
            fh.write(
                f'{{"id": {article.id}, "title": {encode_basestring(article.title)}, '
                f'"abstract": {encode_basestring(article.abstract)}, "aliases": [{aliases}]}}\n'
            )


def read_articles_jsonl(path) -> list[Article]:
    """Articles of a JSON-lines file, one object per line with an integer
    ``id``, string ``title`` and ``abstract`` and an optional list of
    string ``aliases``; ids must run 0, 1, 2, ... Raises ValueError
    naming the file and the first line that breaks this or is not UTF-8."""
    name = Path(path).name
    articles: list[Article] = []
    with _open_utf8(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{name} line {number}: {exc.msg}: column {exc.colno}") from exc
            aliases = obj.get("aliases", []) if isinstance(obj, dict) else None
            if not (
                isinstance(aliases, list)
                and all(isinstance(alias, str) for alias in aliases)
                and type(obj.get("id")) is int
                and isinstance(obj.get("title"), str)
                and isinstance(obj.get("abstract"), str)
            ):
                raise ValueError(
                    f"{name} line {number} is not an article record with an "
                    f"integer id, string title and abstract and a list of string aliases"
                )
            if obj["id"] != len(articles):
                raise ValueError(f"{name} line {number}: article id {obj['id']} where "
                                 f"{len(articles)} was expected; ids run 0, 1, 2, ...")
            articles.append(
                Article(
                    id=obj["id"],
                    title=obj["title"],
                    abstract=obj["abstract"],
                    aliases=set(aliases),
                )
            )
    return articles


def write_links_tsv(path, network: DocumentNetwork) -> None:
    """One line per link of ``network``, in edge order and each edge's
    anchor order: source, target and the escaped anchor."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for (source, target), anchors in network.edge_items():
            for anchor in anchors:
                fh.write(f"{source}\t{target}\t{escape_field(anchor)}\n")


def read_links_tsv(path) -> Iterator[tuple[int, int, str]]:
    """(source, target, anchor) per non-empty line; a line ends at "\\n",
    "\\r\\n" or a lone "\\r", which no anchor holds unescaped. Raises
    ValueError naming the file and line of one that is not UTF-8 or not
    two integers and an anchor, tab-separated."""
    with _open_utf8(path, newline="") as fh:
        for number, line in enumerate(fh, 1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            try:
                source, target, anchor = line.split("\t", 2)
                yield int(source), int(target), unescape_field(anchor)
            except ValueError as exc:
                raise ValueError(f"{Path(path).name} line {number}: {exc}") from exc


def write_remap_tsv(path, old_to_new: Mapping[int, int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for old, new in sorted(old_to_new.items()):
            fh.write(f"{old}\t{new}\n")


def write_samples_tsv(path, candidates, network: DocumentNetwork) -> None:
    """Per anchor candidate: source, target, label (1 if ``network`` has
    the edge, else 0) and the matched strings joined by '|'. Each string
    is escaped by :func:`escape_field`, and a '|' inside it as '\\|': a
    rendered anchor may hold one. Backslashes are escaped first, so every
    '|' that no backslash escapes separates two anchors. Equal anchor
    tuples recur across candidates, so each distinct one is escaped once."""
    joined: dict[tuple[str, ...], str] = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for source in sorted(candidates):
            for target, anchors in candidates[source].items():
                matched = joined.get(anchors)
                if matched is None:
                    matched = joined[anchors] = "|".join(
                        escape_field(text).replace("|", "\\|") for text in anchors)
                label = 1 if network.has_edge(source, target) else 0
                fh.write(f"{source}\t{target}\t{label}\t{matched}\n")


def read_predictions_tsv(path) -> Iterator[tuple[int, int, float]]:
    """(source, target, score) per non-empty line; raises ValueError
    naming the file and line of one that is not UTF-8, not two integers
    and a finite number, tab-separated, or a pair that an earlier line
    scored."""
    seen: set[tuple[int, int]] = set()
    with _open_utf8(path, newline="") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                source, target, score = line.split("\t")
                row = int(source), int(target), float(score)
                if not math.isfinite(row[2]):
                    raise ValueError(f"score {score} is not finite")
                if row[:2] in seen:
                    raise ValueError(f"pair ({row[0]}, {row[1]}) is scored on an earlier line")
                seen.add(row[:2])
                yield row
            except ValueError as exc:
                raise ValueError(f"{Path(path).name} line {number}: {exc}") from exc


@dataclass
class Dataset:
    """Articles plus their hyperlink network; candidates are scanned on each call."""

    name: str
    articles: list[Article]
    network: DocumentNetwork

    def __post_init__(self) -> None:
        if self.network.node_count != len(self.articles):
            raise ValueError("network node count does not match the article table")

    def anchor_candidates(self) -> dict[int, dict[int, tuple[str, ...]]]:
        """Anchor-map candidates of every document: each target id,
        ascending, to its distinct matched anchor strings. No label is
        kept; a candidate is a link when the network has its edge."""
        anchor_map = build_anchor_map(self.network)
        samples = build_eval_samples(self.network, anchor_map, self.articles)
        return {s: {p.target: p.anchors for p in ps} for s, ps in samples.items()}

    def title_candidates(self) -> dict[int, frozenset[int]]:
        """Title-map candidate target ids per document."""
        return title_targets(build_title_map(self.articles), self.articles)

    def resolve_title(self, title: str) -> int | None:
        """Find an article id by canonical title or redirect alias."""
        wanted = normalize_title(title)
        for article in self.articles:
            if article.title == wanted:
                return article.id
        for article in self.articles:
            if wanted in article.aliases:
                return article.id
        return None

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        write_articles_jsonl(directory / ARTICLES_FILE, self.articles)
        write_links_tsv(directory / LINKS_FILE, self.network)

    @classmethod
    def load(cls, directory) -> "Dataset":
        directory = Path(directory)
        articles = read_articles_jsonl(directory / ARTICLES_FILE)
        network = DocumentNetwork.from_links(
            len(articles), read_links_tsv(directory / LINKS_FILE)
        )
        return cls(name=directory.name, articles=articles, network=network)
