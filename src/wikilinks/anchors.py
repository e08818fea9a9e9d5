"""String-to-article maps and multi-pattern candidate scanning.

Two map flavors mirror the two string-matching predictors: a title map
(canonical titles plus redirect aliases) and an anchor map (every anchor
text observed on an edge). Documents are scanned against a map with an
Aho-Corasick automaton over a normalized view of the abstract; matches
must align on token boundaries so that "art" never fires inside
"party". Scanning a corpus against the anchor map and labeling the hits
against the network yields the evaluation samples: positives are real
links, the rest are string-matched hard negatives.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
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


def _is_word_char(ch: str) -> bool:
    return ch.isalnum()


class AhoCorasick:
    """Multi-pattern string matcher (Aho-Corasick automaton).

    Three build phases: insert every pattern into a goto trie, compute
    failure links breadth-first (each node's failure link points to the
    longest proper suffix of its path that is also a trie path), and
    propagate output sets down the failure chains so a match of a long
    pattern also reports every shorter pattern ending at the same
    position. A scan then walks the text once, following failure links
    on mismatch, and reports all matches of all patterns.
    """

    def __init__(self, patterns: Iterable[str]) -> None:
        self._patterns = sorted(set(patterns))
        if any(not p for p in self._patterns):
            raise ValueError("patterns must be non-empty")
        self._goto: list[dict[str, int]] = [{}]
        self._fail: list[int] = [0]
        self._output: list[list[int]] = [[]]
        for idx, pattern in enumerate(self._patterns):
            self._insert(pattern, idx)
        self._build_links()

    @property
    def patterns(self) -> list[str]:
        return list(self._patterns)

    def _insert(self, pattern: str, pattern_index: int) -> None:
        state = 0
        for ch in pattern:
            nxt = self._goto[state].get(ch)
            if nxt is None:
                nxt = len(self._goto)
                self._goto.append({})
                self._fail.append(0)
                self._output.append([])
                self._goto[state][ch] = nxt
            state = nxt
        self._output[state].append(pattern_index)

    def _build_links(self) -> None:
        queue: deque[int] = deque()
        for child in self._goto[0].values():
            self._fail[child] = 0
            queue.append(child)
        while queue:
            state = queue.popleft()
            for ch, child in self._goto[state].items():
                fallback = self._fail[state]
                while fallback and ch not in self._goto[fallback]:
                    fallback = self._fail[fallback]
                self._fail[child] = self._goto[fallback].get(ch, 0)
                if self._fail[child] == child:
                    self._fail[child] = 0
                self._output[child] = self._output[child] + self._output[self._fail[child]]
                queue.append(child)

    def find_all(self, text: str) -> Iterator[tuple[int, int, str]]:
        """Yield (start, end, pattern) for every pattern occurrence."""
        state = 0
        goto = self._goto
        fail = self._fail
        output = self._output
        patterns = self._patterns
        for pos, ch in enumerate(text):
            while state and ch not in goto[state]:
                state = fail[state]
            state = goto[state].get(ch, 0)
            for pattern_index in output[state]:
                pattern = patterns[pattern_index]
                yield pos + 1 - len(pattern), pos + 1, pattern


@dataclass
class AnchorMap:
    """Normalized strings mapped to the article ids they may link to."""

    mode: str  # "title" | "anchor"
    patterns: dict[str, frozenset[int]]
    article_count: int
    _automaton: AhoCorasick | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in ("title", "anchor"):
            raise ValueError(f"unknown anchor map mode {self.mode!r}")
        for pattern, targets in self.patterns.items():
            if not pattern:
                raise ValueError("anchor map contains an empty pattern")
            for target in targets:
                if not 0 <= target < self.article_count:
                    raise ValueError(f"pattern {pattern!r} targets unknown article {target}")

    def automaton(self) -> AhoCorasick:
        if self._automaton is None:
            self._automaton = AhoCorasick(self.patterns)
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
    norm, starts, ends = normalize_text_with_map(text)
    matches: list[tuple[str, tuple[int, int]]] = []
    for a, b, pattern in anchor_map.automaton().find_all(norm):
        if a > 0 and _is_word_char(norm[a - 1]):
            continue
        if b < len(norm) and _is_word_char(norm[b]):
            continue
        matches.append((pattern, (starts[a], ends[b - 1])))
    matches.sort(key=lambda m: (m[1], m[0]))
    return matches


def scan_candidates(anchor_map: AnchorMap, article: Article) -> list[CandidatePair]:
    """Candidate links found by scanning one document against a map.

    Candidates aggregate per distinct target, keeping all matched
    patterns and spans; self-pairs are removed. The result is sorted by
    target id.
    """
    by_target: dict[int, list[tuple[str, tuple[int, int]]]] = {}
    for pattern, span in scan_text(anchor_map, article.abstract):
        for target in anchor_map.patterns[pattern]:
            if target == article.id:
                continue
            by_target.setdefault(target, []).append((pattern, span))
    return [
        CandidatePair(source=article.id, target=target, matched=tuple(matched))
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
    samples: dict[int, list[CandidatePair]] = {}
    for article in articles:
        pairs = scan_candidates(anchor_map, article)
        samples[article.id] = [
            replace(pair, label=network.has_edge(pair.source, pair.target)) for pair in pairs
        ]
    return samples
