"""String-to-article maps and multi-pattern candidate scanning.

Two map flavors mirror the two string-matching predictors: a title map
(canonical titles plus redirect aliases) and an anchor map (every anchor
text observed on an edge). Documents are scanned against a map over a
normalized view of the abstract, with one compiled regex shaped like the
map's pattern trie; matches must align on token boundaries so that
"art" never fires inside "party". Scanning a corpus against the anchor
map and labeling the hits against the network yields the evaluation
samples: positives are real links, the rest are string-matched hard
negatives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .graph import DocumentNetwork
from .ingest import Article


def normalize_text_with_map(text: str) -> tuple[str, Sequence[int], Sequence[int]]:
    """Lowercase and collapse whitespace, keeping a map back to the original.

    Returns the normalized string plus, per normalized character, the
    start and end offsets of the original character that produced it
    (multi-character lowercase expansions share their source offsets).
    A normalized slice [a, b) therefore covers the original slice
    [starts[a], ends[b-1]). The maps are ranges when the text maps onto
    itself, lists otherwise.

    Whole-string ``lower()`` equals the per-character lowercase when it
    keeps the length and the text holds no capital sigma, whose
    lowercase alone depends on context. Such text that is already
    collapsed and stripped maps onto itself; any other text takes the
    per-character loop.
    """
    lowered = text.lower()
    if (
        len(lowered) != len(text)
        or "\u03a3" in text
        or " ".join(text.split()) != text
    ):
        return _normalize_chars(text)
    return lowered, range(len(text)), range(1, len(text) + 1)


def _normalize_chars(text: str) -> tuple[str, list[int], list[int]]:
    """:func:`normalize_text_with_map` one character at a time."""
    norm: list[str] = []
    starts: list[int] = []
    ends: list[int] = []
    for i, ch in enumerate(text):
        if ch.isspace():
            if norm and norm[-1] != " ":
                norm.append(" ")
                starts.append(i)
                ends.append(i + 1)
            continue
        for low in ch.lower():
            norm.append(low)
            starts.append(i)
            ends.append(i + 1)
    return "".join(norm), starts, ends


def normalize_pattern(text: str) -> str:
    """Matching normalization: lowercase plus whitespace collapse and strip."""
    return normalize_text_with_map(text)[0].strip()


# Deepest group nesting the matcher regex gets: ``re`` parses and compiles
# nested groups recursively and fails a few hundred levels down.
_MAX_NESTING = 100


class _Matcher:
    r"""Token-aligned occurrences of many patterns, found by one regex.

    The regex is the pattern trie written out: runs of single-child
    nodes become one literal, a node that ends a pattern makes the rest
    of its subtree a greedy optional group, and ``(?![^\W_])`` (no
    alphanumeric next; ``[^\W_]`` matches exactly what ``str.isalnum``
    accepts) closes it. ``search`` therefore finds, in C, the leftmost
    start at which some pattern ends on a token boundary, and matches
    the longest such pattern there. Every shorter pattern at the same
    start is a prefix of that one, so the prefix lists hold the rest.
    A subtree deeper than ``_MAX_NESTING`` groups is written as a flat
    alternation of its suffixes, longest first.
    """

    def __init__(self, patterns: Iterable[str]) -> None:
        trie: dict = {}  # the key "" marks the end of a pattern
        # In sorted order a pattern's prefixes come before it, and every
        # pattern sorted between a prefix and the pattern starts with that
        # prefix, so ``chain`` (the previous pattern and its prefixes)
        # holds them all.
        self._prefixes: dict[str, list[str]] = {}
        chain: list[str] = []
        for pattern in sorted(patterns):
            node = trie
            for ch in pattern:
                node = node.setdefault(ch, {})
            node[""] = None
            while chain and not pattern.startswith(chain[-1]):
                chain.pop()
            self._prefixes[pattern] = chain[::-1]
            chain.append(pattern)
        # With no pattern the trie regex would match the empty string;
        # ``(?!)`` matches nothing.
        source = _trie_regex(trie, 0) + r"(?![^\W_])" if trie else "(?!)"
        self._regex = re.compile(source)

    def find_all(self, text: str) -> Iterator[tuple[int, int, str]]:
        """Yield (start, end, pattern) for every occurrence in ``text``
        with no alphanumeric character on either side."""
        search = self._regex.search
        match = search(text)
        while match is not None:
            start, end = match.span()
            if start == 0 or not text[start - 1].isalnum():
                longest = match.group()
                yield start, end, longest
                for prefix in self._prefixes[longest]:
                    stop = start + len(prefix)
                    if not text[stop].isalnum():
                        yield start, stop, prefix
            match = search(text, start + 1)


def _trie_regex(node: dict, nesting: int) -> str:
    """Regex matching the suffixes below a trie node, longer ones first."""
    if nesting == _MAX_NESTING:
        suffixes = []
        stack = [(node, "")]
        while stack:
            below, above = stack.pop()
            stack.extend((child, above + ch) for ch, child in below.items() if ch)
            if "" in below:
                suffixes.append(above)
        suffixes.sort(key=len, reverse=True)
        return "(?:" + "|".join(map(re.escape, suffixes)) + ")"
    branches = []
    for ch, child in node.items():
        if not ch:
            continue
        literal = [ch]
        while len(child) == 1 and "" not in child:
            ((ch, child),) = child.items()
            literal.append(ch)
        branch = re.escape("".join(literal))
        if len(child) > 1:
            branch += _trie_regex(child, nesting + 1)
        branches.append(branch)
    optional = "?" if "" in node else ""
    return "(?:" + "|".join(branches) + ")" + optional


@dataclass
class AnchorMap:
    """Normalized strings mapped to the article ids they may link to."""

    mode: str  # "title" | "anchor"
    patterns: dict[str, frozenset[int]]
    article_count: int
    _automaton: _Matcher | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in ("title", "anchor"):
            raise ValueError(f"unknown anchor map mode {self.mode!r}")
        for pattern, targets in self.patterns.items():
            if not pattern:
                raise ValueError("anchor map contains an empty pattern")
            for target in targets:
                if not 0 <= target < self.article_count:
                    raise ValueError(f"pattern {pattern!r} targets unknown article {target}")

    def automaton(self) -> _Matcher:
        """The matcher over this map's patterns, built on first use."""
        if self._automaton is None:
            self._automaton = _Matcher(self.patterns)
        return self._automaton


def build_title_map(articles: Sequence[Article]) -> AnchorMap:
    """Map each article's canonical title and redirect aliases to its id."""
    patterns: dict[str, set[int]] = {}
    for article in articles:
        for name in (article.title, *article.aliases):
            pattern = normalize_pattern(name)
            if pattern:
                patterns.setdefault(pattern, set()).add(article.id)
    return AnchorMap(
        mode="title",
        patterns={p: frozenset(ids) for p, ids in patterns.items()},
        article_count=len(articles),
    )


def build_anchor_map(network: DocumentNetwork) -> AnchorMap:
    """Map every anchor text observed on an edge to that edge's target.

    Built on the full pre-split network so that candidate generation can
    reach every link of the dataset.
    """
    patterns: dict[str, set[int]] = {}
    for (_, target), anchors in network.edge_items():
        for anchor in anchors:
            pattern = normalize_pattern(anchor)
            if pattern:
                patterns.setdefault(pattern, set()).add(target)
    return AnchorMap(
        mode="anchor",
        patterns={p: frozenset(ids) for p, ids in patterns.items()},
        article_count=network.node_count,
    )


@dataclass(frozen=True)
class CandidatePair:
    """A string-matched candidate link from ``source`` to ``target``.

    ``matched`` lists (pattern, span) hits; each span's abstract
    substring normalizes to its pattern. ``label`` is set once the pair
    has been checked against a network.
    """

    source: int
    target: int
    matched: tuple[tuple[str, tuple[int, int]], ...]
    label: bool | None = None

    def anchor_texts(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for pattern, _ in self.matched:
            seen.setdefault(pattern, None)
        return tuple(seen)


def scan_text(anchor_map: AnchorMap, text: str) -> list[tuple[str, tuple[int, int]]]:
    """All token-boundary-aligned pattern matches in ``text``.

    Spans index the original text; overlapping matches are all reported.
    """
    return _scan(anchor_map.automaton(), text)


def _scan(matcher: _Matcher, text: str) -> list[tuple[str, tuple[int, int]]]:
    """:func:`scan_text` with the map's matcher already fetched."""
    norm, starts, ends = normalize_text_with_map(text)
    matches = [(pattern, (starts[a], ends[b - 1])) for a, b, pattern in matcher.find_all(norm)]
    matches.sort(key=lambda m: (m[1], m[0]))
    return matches


def scan_corpus(
    anchor_map: AnchorMap,
    articles: Sequence[Article],
    network: DocumentNetwork | None = None,
) -> dict[int, list[CandidatePair]]:
    """Candidate links of every document, keyed by document id, found by
    scanning each abstract against a map and labeled against
    ``network`` when given.

    Candidates aggregate per distinct target, keeping all matched
    patterns and spans; self-pairs are removed. Each document's list is
    sorted by target id. The matcher is fetched once for the corpus.
    """
    matcher = anchor_map.automaton()
    return {
        article.id: _candidate_pairs(anchor_map, matcher, article, network)
        for article in articles
    }


def _candidate_pairs(
    anchor_map: AnchorMap,
    matcher: _Matcher,
    article: Article,
    network: DocumentNetwork | None,
) -> list[CandidatePair]:
    """One document's candidates for :func:`scan_corpus`."""
    by_target: dict[int, list[tuple[str, tuple[int, int]]]] = {}
    for pattern, span in _scan(matcher, article.abstract):
        for target in anchor_map.patterns[pattern]:
            if target == article.id:
                continue
            by_target.setdefault(target, []).append((pattern, span))
    return [
        CandidatePair(
            source=article.id,
            target=target,
            matched=tuple(matched),
            label=None if network is None else network.has_edge(article.id, target),
        )
        for target, matched in sorted(by_target.items())
    ]


def build_eval_samples(
    network: DocumentNetwork,
    anchor_map: AnchorMap,
    articles: Sequence[Article],
) -> dict[int, list[CandidatePair]]:
    """Per-document candidates labeled against the full network.

    Positives are candidates backed by a real edge; the remaining
    candidates are the hard negatives. Every document id appears as a
    key, possibly with an empty list.
    """
    if anchor_map.mode != "anchor":
        raise ValueError("evaluation samples require an anchor-mode map")
    return scan_corpus(anchor_map, articles, network)
