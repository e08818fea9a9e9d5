"""String-to-article maps and multi-pattern candidate scanning.

Two map flavors mirror the two string-matching predictors: a title map
(canonical titles plus redirect aliases) and an anchor map (every anchor
text observed on an edge). Documents are scanned against a map over a
normalized view of the abstract, with one compiled regex shaped like the
map's pattern trie; matches must align on token boundaries so that
"art" never fires inside "party". Scanning a corpus against the anchor
map and labeling the hits against the network yields the evaluation
samples: positives are real links, the rest are string-matched hard
negatives. Scanning it against the title map yields, per document, the
set of articles it names. Neither scan keeps match spans.
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
    start is a prefix of that one, so the pattern chains hold the rest.
    A subtree deeper than ``_MAX_NESTING`` groups is written as a flat
    alternation of its suffixes, longest first.
    """

    def __init__(self, patterns: Iterable[str]) -> None:
        trie: dict = {}  # the key "" marks the end of a pattern
        # In sorted order a pattern's prefixes come before it, and every
        # pattern sorted between a prefix and the pattern starts with that
        # prefix, so ``chain`` (the previous pattern and its prefixes)
        # holds them all. A pattern's chain is itself, then its prefixes.
        self._chains: dict[str, tuple[str, ...]] = {}
        chain: list[str] = []
        for pattern in sorted(patterns):
            node = trie
            for ch in pattern:
                node = node.setdefault(ch, {})
            node[""] = None
            while chain and not pattern.startswith(chain[-1]):
                chain.pop()
            chain.append(pattern)
            self._chains[pattern] = tuple(chain[::-1])
        # With no pattern the trie regex would match the empty string;
        # ``(?!)`` matches nothing.
        source = _trie_regex(trie, 0) + r"(?![^\W_])" if trie else "(?!)"
        self._regex = re.compile(source)

    def find_all(self, text: str) -> Iterator[tuple[int, int, str]]:
        """Yield (start, end, pattern) for every occurrence in ``text``
        with no alphanumeric character on either side; each ``pattern``
        is the string object the matcher was built from."""
        search = self._regex.search
        match = search(text)
        while match is not None:
            start, end = match.span()
            if start == 0 or not text[start - 1].isalnum():
                longest, *prefixes = self._chains[match.group()]
                yield start, end, longest
                for prefix in prefixes:
                    stop = start + len(prefix)
                    if not text[stop].isalnum():
                        yield start, stop, prefix
            match = search(text, start + 1)


def _literal(text: str) -> str:
    """``re.escape`` with spaces left bare: it escapes them for
    ``re.VERBOSE``, which the matcher regex is not compiled with. Every
    backslash it writes starts an escape, so each "\\ " is an escaped
    space."""
    return re.escape(text).replace("\\ ", " ")


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
        return "(?:" + "|".join(map(_literal, suffixes)) + ")"
    branches = []
    for ch, child in node.items():
        if not ch:
            continue
        literal = [ch]
        while len(child) == 1 and "" not in child:
            ((ch, child),) = child.items()
            literal.append(ch)
        branch = _literal("".join(literal))
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


def _build_map(mode: str, names: Iterable[tuple[str, int]], article_count: int) -> AnchorMap:
    """The map of each normalized non-empty string to the ids paired
    with it, patterns in first-seen order."""
    patterns: dict[str, set[int]] = {}
    for name, target in names:
        pattern = normalize_pattern(name)
        if pattern:
            patterns.setdefault(pattern, set()).add(target)
    return AnchorMap(mode, {p: frozenset(ids) for p, ids in patterns.items()}, article_count)


def build_title_map(articles: Sequence[Article]) -> AnchorMap:
    """Map each article's canonical title and redirect aliases to its id."""
    names = ((name, a.id) for a in articles for name in (a.title, *a.aliases))
    return _build_map("title", names, len(articles))


def build_anchor_map(network: DocumentNetwork) -> AnchorMap:
    """Map every anchor text observed on an edge to that edge's target.

    Built on the full pre-split network so that candidate generation can
    reach every link of the dataset.
    """
    names = ((anchor, t) for (_, t), anchors in network.edge_items() for anchor in anchors)
    return _build_map("anchor", names, network.node_count)


@dataclass(frozen=True, slots=True)
class CandidatePair:
    """A string-matched candidate link from ``source`` to ``target``.

    ``anchors`` holds the distinct patterns matched in the source's
    abstract that map to ``target``, in first-match order. ``label`` is
    whether the network the scan was given has the edge.
    """

    source: int
    target: int
    anchors: tuple[str, ...]
    label: bool


def scan_text(anchor_map: AnchorMap, text: str) -> list[tuple[str, tuple[int, int]]]:
    """All token-boundary-aligned pattern matches in ``text``.

    Spans index the original text; overlapping matches are all reported.
    """
    norm, starts, ends = normalize_text_with_map(text)
    hits = anchor_map.automaton().find_all(norm)
    matches = [(pattern, (starts[a], ends[b - 1])) for a, b, pattern in hits]
    matches.sort(key=lambda m: (m[1], m[0]))
    return matches


def _matched_targets(
    anchor_map: AnchorMap, matcher: _Matcher, article: Article
) -> dict[int, dict[str, None]]:
    """The distinct patterns matched in an article's abstract, grouped by
    each target they map to, self-pairs removed.

    Hits are taken by normalized (start, end), the order of their
    original spans: the one lowercase expansion to several characters
    (U+0130 to "i" + U+0307) starts with an alphanumeric character, so
    no match starts inside it.
    """
    by_target: dict[int, dict[str, None]] = {}
    for _, _, pattern in sorted(matcher.find_all(normalize_text_with_map(article.abstract)[0])):
        for target in anchor_map.patterns[pattern]:
            if target != article.id:
                by_target.setdefault(target, {})[pattern] = None
    return by_target


def title_targets(title_map: AnchorMap, articles: Sequence[Article]) -> dict[int, frozenset[int]]:
    """Per document id, the ids of the other articles whose title or
    alias its abstract mentions. The matcher is fetched once."""
    matcher = title_map.automaton()
    return {a.id: frozenset(_matched_targets(title_map, matcher, a)) for a in articles}


def build_eval_samples(
    network: DocumentNetwork,
    anchor_map: AnchorMap,
    articles: Sequence[Article],
) -> dict[int, list[CandidatePair]]:
    """Per-document candidates labeled against the full network.

    Candidates aggregate per distinct target, keeping the distinct
    matched patterns in first-match order; each document's list is
    sorted by target id. Positives are candidates backed by a real edge;
    the remaining candidates are the hard negatives. Every document id
    appears as a key, possibly with an empty list. The labels stop here:
    ``Dataset.anchor_candidates`` keeps each target and its anchors.
    """
    if anchor_map.mode != "anchor":
        raise ValueError("evaluation samples require an anchor-mode map")
    matcher = anchor_map.automaton()
    return {
        article.id: [
            CandidatePair(article.id, target, tuple(anchors), network.has_edge(article.id, target))
            for target, anchors in sorted(_matched_targets(anchor_map, matcher, article).items())
        ]
        for article in articles
    }
