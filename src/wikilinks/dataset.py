"""Dataset bundle and on-disk formats.

A dataset directory holds ``articles.jsonl`` (one article object per
line) and ``links.tsv`` (one source/target/anchor triple per line, with
tab, newline and backslash escaped inside anchor texts). Subgraph
exports add a ``remap.tsv`` id table; evaluation artifacts use
``samples.tsv``, ``predictions.tsv`` and split files in the same
escaping conventions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .anchors import (
    CandidatePair,
    build_anchor_map,
    build_eval_samples,
    build_title_map,
    scan_corpus,
)
from .graph import DocumentNetwork
from .ingest import Article

ARTICLES_FILE = "articles.jsonl"
LINKS_FILE = "links.tsv"


_ESCAPE_RE = re.compile(r"\\[tn\\]")
_UNESCAPES = {"\\t": "\t", "\\n": "\n", "\\\\": "\\"}


def escape_field(text: str) -> str:
    """Escape backslash, tab and newline for TSV fields."""
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def unescape_field(text: str) -> str:
    """Undo :func:`escape_field`; a backslash before any other character
    stays as it is."""
    if "\\" not in text:
        return text
    return _ESCAPE_RE.sub(lambda m: _UNESCAPES[m.group()], text)


def write_articles_jsonl(path, articles: Sequence[Article]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for article in articles:
            fh.write(
                json.dumps(
                    {
                        "id": article.id,
                        "title": article.title,
                        "abstract": article.abstract,
                        "aliases": sorted(article.aliases),
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


def read_articles_jsonl(path) -> list[Article]:
    articles: list[Article] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            obj = json.loads(line)
            articles.append(
                Article(
                    id=obj["id"],
                    title=obj["title"],
                    abstract=obj["abstract"],
                    aliases=set(obj.get("aliases", [])),
                )
            )
    for expected, article in enumerate(articles):
        if article.id != expected:
            raise ValueError(f"article ids are not contiguous at line {expected}")
    return articles


def write_links_tsv(path, links: Iterable[tuple[int, int, str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for source, target, anchor in links:
            fh.write(f"{source}\t{target}\t{escape_field(anchor)}\n")


def read_links_tsv(path) -> Iterator[tuple[int, int, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            source, target, anchor = line.split("\t", 2)
            yield int(source), int(target), unescape_field(anchor)


def write_remap_tsv(path, old_to_new: Mapping[int, int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for old, new in sorted(old_to_new.items()):
            fh.write(f"{old}\t{new}\n")


def write_samples_tsv(path, samples: Mapping[int, Sequence[CandidatePair]]) -> None:
    """source, target, label(0|1) and the matched strings joined by '|'."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for source in sorted(samples):
            for pair in samples[source]:
                matched = "|".join(escape_field(text) for text in pair.anchor_texts())
                label = 1 if pair.label else 0
                fh.write(f"{pair.source}\t{pair.target}\t{label}\t{matched}\n")


def read_predictions_tsv(path) -> Iterator[tuple[int, int, float]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            source, target, score = line.split("\t")
            yield int(source), int(target), float(score)


@dataclass
class Dataset:
    """Articles plus their hyperlink network, with cached candidate scans."""

    name: str
    articles: list[Article]
    network: DocumentNetwork
    _samples: dict[int, list[CandidatePair]] | None = field(default=None, repr=False)
    _title_candidates: dict[int, list[CandidatePair]] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.network.node_count != len(self.articles):
            raise ValueError("network node count does not match the article table")

    def eval_samples(self) -> dict[int, list[CandidatePair]]:
        """Anchor-map candidates per document, labeled against the network."""
        if self._samples is None:
            anchor_map = build_anchor_map(self.network)
            self._samples = build_eval_samples(self.network, anchor_map, self.articles)
        return self._samples

    def title_candidates(self) -> dict[int, list[CandidatePair]]:
        """Title-map candidates per document (unlabeled)."""
        if self._title_candidates is None:
            title_map = build_title_map(self.articles)
            self._title_candidates = scan_corpus(title_map, self.articles)
        return self._title_candidates

    def resolve_title(self, title: str) -> int | None:
        """Find an article id by canonical title or redirect alias."""
        from .ingest import normalize_title

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
        write_links_tsv(
            directory / LINKS_FILE,
            (
                (s, t, anchor)
                for (s, t), anchors in self.network.edge_items()
                for anchor in anchors
            ),
        )

    @classmethod
    def load(cls, directory, name: str | None = None) -> "Dataset":
        directory = Path(directory)
        articles = read_articles_jsonl(directory / ARTICLES_FILE)
        network = DocumentNetwork.from_links(
            len(articles), read_links_tsv(directory / LINKS_FILE)
        )
        return cls(name=name or directory.name, articles=articles, network=network)
