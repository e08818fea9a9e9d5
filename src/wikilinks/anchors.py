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
set of articles it names. Neither scan keeps where a match lies: hits
come in the order of the normalized text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from .graph import DocumentNetwork
from .ingest import Article


def normalize_pattern(text: str) -> str:
    """Matching normalization: lowercase, whitespace collapsed to single
    spaces and stripped. Used for patterns and for the scanned text.

    Capital sigma is lowered to "σ" first: whole-string ``lower()`` gives
    the final form "ς" at the end of a word, and no other character
    lowers differently in context. Lowering turns no whitespace character
    into anything but whitespace and no other character into whitespace,
    so the result is the text lowered one character at a time with its
    whitespace runs collapsed and stripped.
    """
    return " ".join(text.replace("\u03a3", "\u03c3").lower().split())


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
    start is a prefix of that one. A subtree deeper than
    ``_MAX_NESTING`` groups is written as a flat alternation of its
    suffixes, longest first.

    The hit tuple of a pattern P, made once here, holds the patterns
    matched at a start where P is the longest match: each pattern p that
    is a prefix of P with ``P[len(p)]`` not alphanumeric, shortest
    first, then P. The text at such a start reads P, so ``P[len(p)]`` is
    the character after p's occurrence, and the tuple is exactly what a
    token-boundary test per hit would keep.
    """

    def __init__(self, patterns: Iterable[str]) -> None:
        trie: dict = {}  # the key "" marks the end of a pattern
        # In sorted order a pattern's prefixes come before it, and every
        # pattern sorted between a prefix and the pattern starts with that
        # prefix, so ``chain`` (the previous pattern and its prefixes,
        # shortest first) holds them all.
        self._hits: dict[str, tuple[str, ...]] = {}
        chain: list[str] = []
        for pattern in sorted(patterns):
            node = trie
            for ch in pattern:
                node = node.setdefault(ch, {})
            node[""] = None
            while chain and not pattern.startswith(chain[-1]):
                chain.pop()
            self._hits[pattern] = (
                *(p for p in chain if not pattern[len(p)].isalnum()), pattern)
            chain.append(pattern)
        # With no pattern the trie regex would match the empty string;
        # ``(?!)`` matches nothing.
        source = _trie_regex(trie, 0) + r"(?![^\W_])" if trie else "(?!)"
        self._regex = re.compile(source)

    def find_all(self, text: str) -> Iterator[tuple[int, tuple[str, ...]]]:
        """Yield (start, hit tuple) for every start in ``text`` at which
        some pattern occurs with no alphanumeric character on either
        side, starts ascending. The tuple holds every such pattern at
        that start, shortest first, so the hits come in (start, end)
        order; each is the string object the matcher was built from."""
        hits = self._hits
        search = self._regex.search
        match = search(text)
        while match is not None:
            start = match.start()
            if start == 0 or not text[start - 1].isalnum():
                yield start, hits[match.group()]
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
        """A matcher over this map's patterns, built on each call."""
        return _Matcher(self.patterns)


def _build_map(mode: str, pairs: Iterable[tuple[str, int]], article_count: int) -> AnchorMap:
    """The map of each non-empty normalized string to the ids paired
    with it, patterns in first-seen order."""
    patterns: dict[str, set[int]] = {}
    for pattern, target in pairs:
        if pattern:
            patterns.setdefault(pattern, set()).add(target)
    return AnchorMap(mode, {p: frozenset(ids) for p, ids in patterns.items()}, article_count)


def build_title_map(articles: Sequence[Article]) -> AnchorMap:
    """Map each article's canonical title and redirect aliases to its id."""
    pairs = ((normalize_pattern(name), a.id) for a in articles for name in (a.title, *a.aliases))
    return _build_map("title", pairs, len(articles))


def build_anchor_map(network: DocumentNetwork) -> AnchorMap:
    """Map every anchor text observed on an edge to that edge's target.

    Built on the full pre-split network so that candidate generation can
    reach every link of the dataset. Anchor texts repeat across edges,
    so each distinct one is normalized once.
    """
    normalized: dict[str, str] = {}
    pairs = []
    for (_, target), anchors in network.edge_items():
        for anchor in anchors:
            pattern = normalized.get(anchor)
            if pattern is None:
                pattern = normalized[anchor] = normalize_pattern(anchor)
            pairs.append((pattern, target))
    return _build_map("anchor", pairs, network.node_count)


class CandidatePair(NamedTuple):
    """A string-matched candidate link from ``source`` to ``target``.

    ``anchors`` holds the distinct patterns matched in the source's
    abstract that map to ``target``, in first-match order. ``label`` is
    whether the network the scan was given has the edge. A named tuple:
    immutable, with no per-instance ``__dict__``, equal to and hashing
    like the plain tuple of its fields.
    """

    source: int
    target: int
    anchors: tuple[str, ...]
    label: bool


def _matched_targets(
    anchor_map: AnchorMap, matcher: _Matcher, article: Article
) -> dict[int, dict[str, None]]:
    """The distinct patterns matched in an article's abstract, grouped by
    each target they map to, self-pairs removed.

    The matcher yields hits in (start, end) order of the normalized
    abstract, so each target's patterns keep their first-match order
    with no sort.
    """
    patterns = anchor_map.patterns
    source = article.id
    by_target: dict[int, dict[str, None]] = {}
    for _, hits in matcher.find_all(normalize_pattern(article.abstract)):
        for pattern in hits:
            for target in patterns[pattern]:
                if target != source:
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
