"""Normalization against its per-character reference, multi-pattern
scanning vs a naive oracle, anchor maps, eval samples."""

from __future__ import annotations

import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikilinks.anchors import (
    AnchorMap,
    CandidatePair,
    _matched_targets,
    _trie_regex,
    build_anchor_map,
    build_eval_samples,
    build_title_map,
    normalize_pattern,
    title_targets,
)
from wikilinks.graph import DocumentNetwork
from wikilinks.ingest import Article
from wikilinks.synthetic import PlantedCorpusParams, planted_dataset

from test_ingest import markup_text


def reference_normalize_text_with_map(text: str) -> tuple[str, list[int], list[int]]:
    """The matching normalization one character at a time, with a map
    back to the original: per normalized character, the start and end
    offsets of the original character that produced it (lowercase
    expansions share their source offsets). A normalized slice [a, b)
    covers the original slice [starts[a], ends[b-1]). Its text is
    :func:`normalize_pattern`'s but for one possible trailing space."""
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


def assert_normalizes_like_reference(text: str) -> None:
    assert normalize_pattern(text) == reference_normalize_text_with_map(text)[0].strip()


def scan_spans(anchor_map: AnchorMap, text: str) -> list[tuple[str, tuple[int, int]]]:
    """Every hit of the map's matcher in ``normalize_pattern(text)``,
    each with its span into ``text`` through the reference's offset
    maps, sorted by span, then pattern. The normalized text is the
    reference's with no trailing space, so its offsets are the
    reference's; no pattern ends in a space, so no hit reaches past it."""
    norm, starts, ends = reference_normalize_text_with_map(text)
    normalized = normalize_pattern(text)
    assert norm.strip() == normalized
    matches = [
        (pattern, (starts[a], ends[a + len(pattern) - 1]))
        for a, hits in anchor_map.automaton().find_all(normalized)
        for pattern in hits
    ]
    matches.sort(key=lambda m: (m[1], m[0]))
    return matches


def naive_scan(patterns: list[str], text: str) -> set[tuple[str, tuple[int, int]]]:
    """Per-pattern substring scan over the reference normalization with
    the same token-boundary rule; the independent reference for the
    matcher."""
    norm, starts, ends = reference_normalize_text_with_map(text)
    found: set[tuple[str, tuple[int, int]]] = set()
    for pattern in patterns:
        begin = norm.find(pattern)
        while begin != -1:
            stop = begin + len(pattern)
            before_ok = begin == 0 or not norm[begin - 1].isalnum()
            after_ok = stop == len(norm) or not norm[stop].isalnum()
            if before_ok and after_ok:
                found.add((pattern, (starts[begin], ends[stop - 1])))
            begin = norm.find(pattern, begin + 1)
    return found


def assert_anchors_have_spans(anchor_map: AnchorMap, text: str, anchors: tuple[str, ...]) -> None:
    """Every one of a candidate's ``anchors`` has a :func:`scan_spans` hit
    in ``text``, and each of its hits' substrings normalizes to it."""
    hits: dict[str, list[tuple[int, int]]] = {}
    for pattern, span in scan_spans(anchor_map, text):
        hits.setdefault(pattern, []).append(span)
    for anchor in anchors:
        assert hits.get(anchor), f"{anchor!r} has no hit"
        for start, end in hits[anchor]:
            assert normalize_pattern(text[start:end]) == anchor


def _map(patterns: dict[str, set[int]], article_count: int, mode: str = "anchor") -> AnchorMap:
    return AnchorMap(
        mode=mode,
        patterns={p: frozenset(ids) for p, ids in patterns.items()},
        article_count=article_count,
    )


def _article(doc_id: int, abstract: str, title: str | None = None) -> Article:
    return Article(id=doc_id, title=title or f"T{doc_id}", abstract=abstract)


def _candidates(anchor_map: AnchorMap, articles: list[Article]) -> dict[int, list[CandidatePair]]:
    """Candidates of ``articles`` labeled against a network with no edge."""
    network = DocumentNetwork.from_links(anchor_map.article_count, [])
    return build_eval_samples(network, anchor_map, articles)


def reference_candidate_pairs(
    anchor_map: AnchorMap, article: Article, network: DocumentNetwork
) -> list[CandidatePair]:
    """The candidate builder that ``build_eval_samples`` replaced: hits
    in the order of their original spans, then pattern."""
    by_target: dict[int, dict[str, None]] = {}
    for pattern, _ in scan_spans(anchor_map, article.abstract):
        for target in anchor_map.patterns[pattern]:
            if target != article.id:
                by_target.setdefault(target, {})[pattern] = None
    return [
        CandidatePair(article.id, target, tuple(anchors), network.has_edge(article.id, target))
        for target, anchors in sorted(by_target.items())
    ]


class ReferenceMatcher:
    """The matcher before per-start hit tuples: pattern chains, longest
    first, and a token-boundary test per hit."""

    def __init__(self, patterns) -> None:
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

    def find_all(self, text: str):
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


def reference_matched_targets(
    anchor_map: AnchorMap, matcher: ReferenceMatcher, article: Article
) -> dict[int, dict[str, None]]:
    """``_matched_targets`` before per-start hit tuples: every hit, sorted."""
    by_target: dict[int, dict[str, None]] = {}
    norm = reference_normalize_text_with_map(article.abstract)[0]
    for _, _, pattern in sorted(matcher.find_all(norm)):
        for target in anchor_map.patterns[pattern]:
            if target != article.id:
                by_target.setdefault(target, {})[pattern] = None
    return by_target


def reference_title_targets(title_map: AnchorMap, articles) -> dict[int, frozenset[int]]:
    matcher = ReferenceMatcher(title_map.patterns)
    return {a.id: frozenset(reference_matched_targets(title_map, matcher, a)) for a in articles}


def reference_build_eval_samples(network, anchor_map, articles) -> dict[int, list[CandidatePair]]:
    matcher = ReferenceMatcher(anchor_map.patterns)
    return {
        article.id: [
            CandidatePair(article.id, target, tuple(anchors), network.has_edge(article.id, target))
            for target, anchors in sorted(
                reference_matched_targets(anchor_map, matcher, article).items())
        ]
        for article in articles
    }


# Capital and final sigma, the dotted capital I (lowered to two
# characters), format characters that are neither whitespace nor
# alphanumeric (soft hyphen, left-to-right mark, zero-width joiner, byte
# order mark), whitespace other than U+0020 (tab, no-break space, line
# separator) and runs of spaces to collapse, lead and trail.
SIGMA_FORMAT_SPACE_PIECES = ["\u03a3", "\u03c2", "\u0130", "\u00ad", "\u200e", "\u200d",
                             "\ufeff", "\t", "\xa0", "\u2028", " ", "  ", "   ", "a", "B"]


class TestNormalization:
    def test_case_and_whitespace(self):
        assert normalize_pattern("  Federal   Government ") == "federal government"

    def test_map_round_trip(self):
        # The reference's offset maps give the spans that scan_spans reports.
        text = "The  BIG\tcat"
        norm, starts, ends = reference_normalize_text_with_map(text)
        assert norm == normalize_pattern(text) == "the big cat"
        assert text[starts[4] : ends[6]] == "BIG"

    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_span_normalizes_to_pattern(self, text):
        norm, starts, ends = reference_normalize_text_with_map(text)
        # Any normalized slice that is stripped-of-spaces maps back to an
        # original slice whose normalization equals it.
        if len(norm) >= 3 and norm[0] != " " and norm[2] != " ":
            piece = norm[0:3]
            original = text[starts[0] : ends[2]]
            assert normalize_pattern(original) == piece.strip()


class TestNormalizationMatchesReference:
    @given(markup_text)
    @settings(max_examples=500, deadline=None)
    def test_fuzzed_markup(self, text):
        assert_normalizes_like_reference(text)

    @pytest.mark.parametrize(
        "text", ["", " ", "a", "Ab Cd", " lead", "trail ", "a  b", "a\tb", "\xa0a\u3000\u3000b ",
                 "İstanbul", "Straße", "a\x1cb\x85", " \t ", "\x1f",
                 "a\u00adb", "\u200ea b", "a b\ufeff", "a  \u00adb", " \u200e", "\ufeff ",
                 "a\u00ad  b", "a\u2028", "a \u00ad b"],
    )
    def test_named_cases(self, text):
        assert_normalizes_like_reference(text)

    @given(st.lists(st.sampled_from(SIGMA_FORMAT_SPACE_PIECES), max_size=30).map("".join))
    @settings(max_examples=500, deadline=None)
    def test_format_characters_and_spaces(self, text):
        assert_normalizes_like_reference(text)

    def test_word_final_capital_sigma_lowers_per_character(self):
        # Whole-string lower() gives the final form "ς"; the reference
        # lowers each character on its own and gives "σ".
        text = "ΟΔΟΣ ΟΔΟΣ"
        assert text.lower() == "οδος οδος"
        assert_normalizes_like_reference(text)
        assert normalize_pattern(text) == "οδοσ οδοσ"

    def test_whole_string_lower_is_per_character_but_for_capital_sigma(self):
        # The first fact normalize_pattern rests on, over every code point
        # but U+03A3, next to letters, spaces and every other code point.
        others = "".join(chr(c) for c in range(0x110000) if c != 0x3A3)
        for text in (others, "A".join(others), " ".join(others)):
            assert text.lower() == "".join(ch.lower() for ch in text)

    def test_lowering_neither_creates_nor_removes_whitespace(self):
        # The second fact, over every code point: a whitespace character
        # lowers to itself, any other to no whitespace, and ``split``
        # splits exactly at what ``isspace`` accepts.
        for code_point in range(0x110000):
            ch = chr(code_point)
            if ch.isspace():
                assert ch.lower() == ch and f"a{ch}b".split() == ["a", "b"], hex(code_point)
            else:
                assert not any(c.isspace() for c in ch.lower()), hex(code_point)
                assert f"a{ch}b".split() == [f"a{ch}b"], hex(code_point)

    def test_every_code_point(self):
        # Code points whose lowercase keeps the length share long texts;
        # every other code point (expansions, capital sigma) is checked in
        # a text of its own.
        alone = []
        batch = []
        for code_point in range(0x110000):
            ch = chr(code_point)
            if len(ch.lower()) != 1 or ch == "\u03a3":
                alone.append(ch)
            else:
                batch.append(ch)
        for ch in alone:
            text = f"{ch}a{ch} {ch}"
            assert_normalizes_like_reference(text)
        for begin in range(0, len(batch), 512):
            text = " ".join(ch * 2 for ch in batch[begin : begin + 512])
            assert_normalizes_like_reference(text)


# The dotted capital I, its lowercase parts and letters around them.
DOTTED_ALPHABET = "abi\u0307\u0130 "

# Regex metacharacters, the underscore that ``\w`` would count as a word
# character, an Arabic-Indic digit (alphanumeric, not ASCII), an accented
# letter and the capital sigma, whose whole-string lowercase depends on
# context.
ORACLE_ALPHABET = "ab_ .*()[]\\?|+'\u0663\u00e9\u03a3"


def assert_scan_matches_oracle(patterns: set[str], text: str) -> None:
    anchor_map = _map({p: {0} for p in patterns}, article_count=1)
    expected = sorted(naive_scan(sorted(patterns), text), key=lambda m: (m[1], m[0]))
    assert scan_spans(anchor_map, text) == expected


class TestMatcher:
    def test_overlapping_patterns_all_reported(self):
        anchor_map = _map({p: {0} for p in ["american", "american civil war", "civil"]}, 1)
        assert set(scan_spans(anchor_map, "american civil war")) == {
            ("american", (0, 8)),
            ("american civil war", (0, 18)),
            ("civil", (9, 14)),
        }

    def test_suffix_pattern_found_inside_longer_match(self):
        anchor_map = _map({p: {0} for p in ["new york city", "york city", "city"]}, 1)
        assert scan_spans(anchor_map, "new york city") == [
            ("new york city", (0, 13)),
            ("york city", (4, 13)),
            ("city", (9, 13)),
        ]
        # Inside a word a suffix pattern is no token: "he" neither in "she"
        # nor in "hers".
        anchor_map = _map({p: {0} for p in ["she", "he", "hers"]}, 1)
        assert scan_spans(anchor_map, "she-he hers") == [
            ("she", (0, 3)),
            ("he", (4, 6)),
            ("hers", (7, 11)),
        ]

    def test_rejects_empty_pattern(self):
        # The matcher is only reachable through a map, which refuses an
        # empty pattern.
        with pytest.raises(ValueError):
            _map({"ok": {0}, "": {0}}, 1)

    def test_empty_map_matches_nothing(self):
        anchor_map = _map({}, 1)
        for text in ["", "a.", "a", " ", "."]:
            assert scan_spans(anchor_map, text) == []

    def test_agrees_with_naive_oracle_on_random_inputs(self):
        rng = np.random.default_rng(8)
        alphabet = "ab "
        for _ in range(150):
            patterns = set()
            for _ in range(rng.integers(1, 8)):
                length = int(rng.integers(1, 5))
                pattern = "".join(alphabet[i] for i in rng.integers(3, size=length))
                pattern = normalize_pattern(pattern)
                if pattern:
                    patterns.add(pattern)
            if not patterns:
                continue
            text = "".join(alphabet[i] for i in rng.integers(3, size=rng.integers(0, 60)))
            anchor_map = _map({p: {0} for p in patterns}, article_count=1)
            got = set(scan_spans(anchor_map, text))
            assert got == naive_scan(sorted(patterns), text)

    @given(
        text=st.text(alphabet=ORACLE_ALPHABET + "AB\u00c9\t", max_size=60),
        drawn=st.lists(st.text(alphabet=ORACLE_ALPHABET, min_size=1, max_size=6), max_size=8),
        cuts=st.lists(st.tuples(st.integers(0, 60), st.integers(1, 8)), max_size=6),
    )
    @settings(max_examples=500, deadline=None)
    def test_agrees_with_naive_oracle_on_fuzzed_inputs(self, text, drawn, cuts):
        # Slices of the normalized text make hits common; the fixed
        # patterns start with punctuation.
        norm = normalize_pattern(text)
        raw = [*drawn, "(a", "'b", ".", "_a"] + [norm[i : i + n] for i, n in cuts]
        patterns = {normalize_pattern(p) for p in raw} - {""}
        assert_scan_matches_oracle(patterns, text)

    def test_thousand_nested_prefix_patterns(self):
        # Every pattern is a prefix of the next, ten times deeper than the
        # regex may nest groups.
        patterns = {"a" * n for n in range(1, 1001)}
        text = f"{'a' * 1000} {'a' * 1001} {'A' * 150}-{'a' * 99}_a a"
        assert_scan_matches_oracle(patterns, text)
        # Token prefixes: every run of words at every start is a match.
        patterns = {" ".join(["w"] * n) for n in range(1, 151)}
        text = " ".join(["W"] * 160) + ". w_w w"
        assert_scan_matches_oracle(patterns, text)

    def test_ten_thousand_character_pattern(self):
        words = [f"w{i % 97}" for i in range(3000)]
        long_pattern = " ".join(words)
        assert len(long_pattern) >= 10_000
        patterns = {long_pattern, words[0], " ".join(words[:3]), long_pattern[:-1]}
        text = f"{long_pattern}. {long_pattern[:-1]}x ({long_pattern.upper()})"
        assert_scan_matches_oracle(patterns, text)


# Patterns one of which is a prefix of another and is followed there by
# a space, a hyphen, a dot or a letter, plus the dotted capital I, whose
# lowercase is "i" + U+0307, and the capital sigma.
PREFIX_PATTERNS = ["new", "new york", "new-york", "newyork", "a", "a.b", "a.", "york",
                   "\u0130", "i", "\u03a3", "\u03a3a"]
PREFIX_WORDS = [*PREFIX_PATTERNS, "New York", "YORK", "yorker", "-", ".", " ", "b", "\u03a3A"]


def _ordered(by_target: dict[int, dict[str, None]]) -> list[tuple[int, tuple[str, ...]]]:
    """A target grouping with its order: targets in first-hit order, each
    with its patterns in first-match order."""
    return [(target, tuple(patterns)) for target, patterns in by_target.items()]


class TestHitTuples:
    @given(
        words=st.lists(st.sampled_from(PREFIX_WORDS), max_size=24),
        chosen=st.lists(
            st.tuples(st.sampled_from(PREFIX_PATTERNS), st.integers(0, 3)), min_size=1, max_size=10
        ),
        drawn=st.lists(
            st.tuples(st.text(alphabet="newyork .-a\u0130\u03a3", min_size=1, max_size=6),
                      st.integers(0, 3)),
            max_size=4,
        ),
    )
    @settings(max_examples=500, deadline=None)
    def test_grouping_matches_sorted_reference(self, words, chosen, drawn):
        patterns: dict[str, set[int]] = {}
        for raw, target in [*chosen, *drawn]:
            pattern = normalize_pattern(raw)
            if pattern:
                patterns.setdefault(pattern, set()).add(target)
        text = "".join(words)
        articles = [_article(0, text), _article(1, "".join(reversed(words))), _article(2, "")]
        anchor_map = _map(patterns, 4)
        matcher, reference = anchor_map.automaton(), ReferenceMatcher(anchor_map.patterns)

        norm = normalize_pattern(text)
        hits = [(start, start + len(p), p) for start, tuple_ in matcher.find_all(norm) for p in tuple_]
        assert hits == sorted(reference.find_all(norm))
        for article in articles:
            assert _ordered(_matched_targets(anchor_map, matcher, article)) == _ordered(
                reference_matched_targets(anchor_map, reference, article)
            )

        network = DocumentNetwork.from_links(4, [(0, 1, "a"), (0, 3, "b"), (1, 2, "c")])
        assert build_eval_samples(network, anchor_map, articles) == reference_build_eval_samples(
            network, anchor_map, articles
        )
        title_map = _map(patterns, 4, mode="title")
        assert title_targets(title_map, articles) == reference_title_targets(title_map, articles)

    def test_prefix_followed_by_letter_is_no_hit(self):
        anchor_map = _map({p: {1} for p in ["new", "new york", "new-york", "newyork"]}, 2)
        ((start, hits),) = anchor_map.automaton().find_all("newyork")
        assert (start, hits) == (0, ("newyork",))
        ((start, hits),) = anchor_map.automaton().find_all("x new-york")
        assert (start, hits) == (2, ("new", "new-york"))


class TestScanText:
    def test_token_boundary_blocks_midword_match(self):
        anchor_map = _map({"art": {0}}, 1)
        assert scan_spans(anchor_map, "the party was art.") == [("art", (14, 17))]

    def test_case_insensitive_match(self):
        anchor_map = _map({"federal government": {0}}, 1)
        assert scan_spans(anchor_map, "The Federal  Government acted.") == [
            ("federal government", (4, 23))
        ]


class TestBuildMaps:
    def test_title_map_includes_aliases(self):
        articles = [
            Article(id=0, title="United Kingdom", abstract="", aliases={"UK"}),
            Article(id=1, title="Politics", abstract=""),
        ]
        title_map = build_title_map(articles)
        assert title_map.patterns["united kingdom"] == frozenset({0})
        assert title_map.patterns["uk"] == frozenset({0})
        assert title_map.patterns["politics"] == frozenset({1})

    def test_shared_alias_maps_to_both_articles(self):
        articles = [
            Article(id=0, title="Mercury (planet)", abstract="", aliases={"Mercury"}),
            Article(id=1, title="Mercury (element)", abstract="", aliases={"Mercury"}),
            Article(id=2, title="Venus", abstract=""),
        ]
        title_map = build_title_map(articles)
        assert title_map.patterns["mercury"] == frozenset({0, 1})

    def test_anchor_map_from_network_edges(self):
        net = DocumentNetwork.from_links(
            3,
            [
                (0, 1, "federal government"),
                (2, 1, "the government"),
                (0, 2, "federal government"),  # same anchor, second target
                (1, 2, "economy"),
            ],
        )
        anchor_map = build_anchor_map(net)
        assert anchor_map.patterns["federal government"] == frozenset({1, 2})
        assert anchor_map.patterns["the government"] == frozenset({1})
        assert anchor_map.patterns["economy"] == frozenset({2})

    def test_anchor_map_exhaustive_edge_scan(self):
        rng = np.random.default_rng(9)
        links = []
        for _ in range(30):
            s, t = int(rng.integers(6)), int(rng.integers(6))
            if s != t:
                links.append((s, t, f"anchor {rng.integers(4)}"))
        net = DocumentNetwork.from_links(6, links)
        anchor_map = build_anchor_map(net)
        expected: dict[str, set[int]] = {}
        for (s, t), anchors in net.edge_items():
            for anchor in anchors:
                expected.setdefault(normalize_pattern(anchor), set()).add(t)
        assert {p: set(ids) for p, ids in anchor_map.patterns.items()} == expected

    def test_map_validates_target_ids(self):
        with pytest.raises(ValueError):
            _map({"x": {5}}, article_count=2)


class TestScanCandidates:
    def test_figure_style_candidate(self):
        anchor_map = _map({"political": {3}}, 4)
        article = _article(0, "A political crisis unfolded.")
        pairs = _candidates(anchor_map, [article])[0]
        assert len(pairs) == 1
        assert pairs[0].target == 3
        assert pairs[0].anchors == ("political",)

    def test_empty_abstract(self):
        anchor_map = _map({"x": {1}}, 2)
        assert _candidates(anchor_map, [_article(0, "")]) == {0: []}

    def test_self_pairs_removed(self):
        anchor_map = _map({"myself": {0, 1}}, 2)
        pairs = _candidates(anchor_map, [_article(0, "all about myself")])[0]
        assert [p.target for p in pairs] == [1]

    def test_aggregates_per_target_with_all_matches(self):
        anchor_map = _map({"american": {1}, "american civil war": {1, 2}}, 3)
        article = _article(0, "the american civil war began")
        pairs = _candidates(anchor_map, [article])[0]
        assert [p.target for p in pairs] == [1, 2]
        by_target = {p.target: p for p in pairs}
        assert by_target[1].anchors == ("american", "american civil war")
        assert by_target[2].anchors == ("american civil war",)

    def test_repeated_matches_keep_first_match_order(self):
        anchor_map = _map({"war": {1}, "civil war": {1}, "peace": {1}}, 2)
        article = _article(0, "War and peace, then civil war and war again.")
        (pair,) = _candidates(anchor_map, [article])[0]
        assert pair.anchors == ("war", "peace", "civil war")

    def test_span_substring_normalizes_to_pattern(self):
        anchor_map = _map({"federal government": {1}}, 2)
        article = _article(0, "The Federal  Government acted swiftly.")
        (pair,) = _candidates(anchor_map, [article])[0]
        assert pair.anchors == ("federal government",)
        assert_anchors_have_spans(anchor_map, article.abstract, pair.anchors)

    @given(
        text=st.text(alphabet=DOTTED_ALPHABET, max_size=40),
        drawn=st.lists(
            st.tuples(st.text(alphabet=DOTTED_ALPHABET, min_size=1, max_size=4), st.integers(0, 3)),
            max_size=6,
        ),
        cuts=st.lists(
            st.tuples(st.integers(0, 40), st.integers(1, 6), st.integers(0, 3)), max_size=6
        ),
    )
    @settings(max_examples=500, deadline=None)
    def test_order_matches_span_sorted_reference(self, text, drawn, cuts):
        # "İ" lowercases to "i" + U+0307, the one expansion to several
        # characters, where normalized and original offsets part. Slices
        # of the normalized text make hits common.
        norm = normalize_pattern(text)
        patterns: dict[str, set[int]] = {}
        for raw, target in [*drawn, *((norm[i : i + n], t) for i, n, t in cuts)]:
            pattern = normalize_pattern(raw)
            if pattern:
                patterns.setdefault(pattern, set()).add(target)
        anchor_map = _map(patterns, 4)
        network = DocumentNetwork.from_links(4, [(0, 1, "a"), (0, 3, "b")])
        article = _article(0, text)
        got = build_eval_samples(network, anchor_map, [article])[0]
        assert got == reference_candidate_pairs(anchor_map, article, network)


class TestCandidatePair:
    def test_slotted_frozen_value(self):
        anchors = ("civil war", "war")
        pair = CandidatePair(source=0, target=2, anchors=anchors, label=True)
        assert not hasattr(pair, "__dict__")
        with pytest.raises(AttributeError):
            pair.target = 3
        twin = CandidatePair(0, 2, anchors, True)
        assert pair == twin and hash(pair) == hash(twin)
        assert hash(pair) == hash((0, 2, anchors, True))
        assert len({pair, twin}) == 1
        assert pair != CandidatePair(0, 2, anchors, False)
        assert pair != CandidatePair(0, 2, anchors[:1], True)


class TestBuildEvalSamples:
    def test_single_edge_fixture(self):
        net = DocumentNetwork.from_links(2, [(0, 1, "target phrase")])
        articles = [
            _article(0, "mentions the target phrase here"),
            _article(1, "nothing relevant"),
        ]
        samples = build_eval_samples(net, build_anchor_map(net), articles)
        assert [p.label for p in samples[0]] == [True]
        assert samples[1] == []

    def test_network_without_links_gives_no_candidates(self):
        net = DocumentNetwork.from_links(2, [])
        articles = [_article(0, "ends with a stop."), _article(1, "")]
        samples = build_eval_samples(net, build_anchor_map(net), articles)
        assert samples == {0: [], 1: []}

    def test_requires_anchor_mode(self):
        articles = [_article(0, "a"), _article(1, "b")]
        net = DocumentNetwork.from_links(2, [(0, 1, "b")])
        with pytest.raises(ValueError):
            build_eval_samples(net, build_title_map(articles), articles)

    def test_five_doc_fixture_matches_exhaustive_enumeration(self):
        abstracts = [
            "alpha beta and the gray goose",
            "beta gamma alpha",
            "gray goose flies over alpha",
            "gamma gamma beta",
            "nothing here",
        ]
        articles = [_article(i, a) for i, a in enumerate(abstracts)]
        net = DocumentNetwork.from_links(
            5,
            [
                (0, 1, "beta"),
                (1, 0, "alpha"),
                (2, 0, "alpha"),
                (0, 2, "gray goose"),
                (3, 1, "beta"),
            ],
        )
        anchor_map = build_anchor_map(net)
        samples = build_eval_samples(net, anchor_map, articles)

        # Oracle: enumerate every (doc, pattern, target) by naive scanning.
        patterns = sorted(anchor_map.patterns)
        for doc, article in enumerate(articles):
            expected_targets = set()
            for pattern, _ in naive_scan(patterns, article.abstract):
                expected_targets |= set(anchor_map.patterns[pattern])
            expected_targets.discard(doc)
            got = {p.target: p.label for p in samples[doc]}
            assert set(got) == expected_targets
            for target, label in got.items():
                assert label == net.has_edge(doc, target)

    def test_recall_one_on_pipeline_dataset(self, fixture_dataset):
        candidates = fixture_dataset.anchor_candidates()
        for source, target in fixture_dataset.network.edges():
            assert target in candidates[source], f"edge ({source}, {target}) missing from candidates"

    def test_hard_negatives_occur_in_source_abstract(self, fixture_dataset):
        network = fixture_dataset.network
        anchor_map = build_anchor_map(network)
        for source, targets in fixture_dataset.anchor_candidates().items():
            abstract = fixture_dataset.articles[source].abstract
            for target, anchors in targets.items():
                if not network.has_edge(source, target):
                    assert_anchors_have_spans(anchor_map, abstract, anchors)


# A smaller corpus shaped like the eval-text benchmark's: noisy text,
# many mentions per document and redirect aliases in the title map.
NOISY_PLANTED = PlantedCorpusParams(
    topics=5, docs_per_topic=8, topic_vocab=10, filler_vocab=20, body_tokens=30,
    links_per_doc=3, mentions_per_doc=12, diffuse_fraction=0.9, aliases=5, seed=1,
)


def _anchor_candidates(dataset):
    """(anchor map, its candidates) of a dataset."""
    anchor_map = build_anchor_map(dataset.network)
    return anchor_map, build_eval_samples(dataset.network, anchor_map, dataset.articles)


@pytest.fixture(scope="module", params=["fixture", "noisy"])
def scanned_dataset(request, fixture_dataset):
    if request.param == "fixture":
        return fixture_dataset
    return planted_dataset(NOISY_PLANTED, name="noisy40")


class TestCandidateAnchors:
    def test_anchors_are_the_scan_patterns_of_the_target(self, scanned_dataset):
        # Oracle: the distinct scan_spans patterns, in scan order, that map
        # to the pair's target.
        anchor_map, candidates = _anchor_candidates(scanned_dataset)
        assert any(candidates.values())
        for source, pairs in candidates.items():
            hits = scan_spans(anchor_map, scanned_dataset.articles[source].abstract)
            for pair in pairs:
                expected = dict.fromkeys(
                    pattern for pattern, _ in hits
                    if pair.target in anchor_map.patterns[pattern]
                )
                assert pair.anchors == tuple(expected)

    def test_title_targets_are_the_scan_targets(self, scanned_dataset):
        # Oracle: every target of every scan_spans pattern, but the source.
        title_map = build_title_map(scanned_dataset.articles)
        targets = scanned_dataset.title_candidates()
        assert targets == title_targets(title_map, scanned_dataset.articles)
        assert sorted(targets) == list(range(len(scanned_dataset.articles)))
        assert any(targets.values())
        for source, got in targets.items():
            hits = scan_spans(title_map, scanned_dataset.articles[source].abstract)
            expected = {t for pattern, _ in hits for t in title_map.patterns[pattern]} - {source}
            assert got == expected

    def test_anchors_are_the_maps_own_strings(self, scanned_dataset):
        anchor_map, candidates = _anchor_candidates(scanned_dataset)
        keys = {pattern: pattern for pattern in anchor_map.patterns}
        for pairs in candidates.values():
            for pair in pairs:
                assert all(keys[anchor] is anchor for anchor in pair.anchors)

    def test_candidates_retain_few_bytes_each(self):
        # The eval-text benchmark's corpus at seed 0: 7,194 anchor
        # candidates and 7,429 title-map targets. Anchor candidates held
        # as one target-to-anchors map, each keeping one tuple of the
        # map's own strings, and title targets held as id sets retain
        # about 80 bytes each; anchor candidates held as labeled records
        # retained about 96, title candidates held as full records about
        # 136, and per-hit spans and copied match strings about 362.
        params = PlantedCorpusParams(
            topics=25, docs_per_topic=20, topic_vocab=10, filler_vocab=20, body_tokens=30,
            links_per_doc=3, mentions_per_doc=12, diffuse_fraction=0.9, aliases=25, seed=0,
        )
        dataset = planted_dataset(params)
        gc.collect()
        tracemalloc.start()
        try:
            candidates = dataset.anchor_candidates()
            titles = dataset.title_candidates()
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        count = sum(map(len, candidates.values())) + sum(map(len, titles.values()))
        assert count > 10_000
        assert retained / count < 200
