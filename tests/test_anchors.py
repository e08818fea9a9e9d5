"""Normalization against its per-character reference, multi-pattern
scanning vs a naive oracle, anchor maps, eval samples."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikilinks.anchors import (
    AnchorMap,
    build_anchor_map,
    build_eval_samples,
    build_title_map,
    normalize_pattern,
    normalize_text_with_map,
    scan_corpus,
    scan_text,
)
from wikilinks.graph import DocumentNetwork
from wikilinks.ingest import Article

from test_ingest import markup_text


def reference_normalize_text_with_map(text: str) -> tuple[str, list[int], list[int]]:
    """The per-character loop that ``normalize_text_with_map`` keeps only
    as its fallback."""
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
    norm, starts, ends = normalize_text_with_map(text)
    assert (norm, list(starts), list(ends)) == reference_normalize_text_with_map(text)


def naive_scan(patterns: list[str], text: str) -> set[tuple[str, tuple[int, int]]]:
    """Per-pattern substring scan with the same normalization and
    token-boundary rule; the independent reference for the matcher."""
    norm, starts, ends = normalize_text_with_map(text)
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


def _map(patterns: dict[str, set[int]], article_count: int, mode: str = "anchor") -> AnchorMap:
    return AnchorMap(
        mode=mode,
        patterns={p: frozenset(ids) for p, ids in patterns.items()},
        article_count=article_count,
    )


def _article(doc_id: int, abstract: str, title: str | None = None) -> Article:
    return Article(id=doc_id, title=title or f"T{doc_id}", abstract=abstract)


class TestNormalization:
    def test_case_and_whitespace(self):
        assert normalize_pattern("  Federal   Government ") == "federal government"

    def test_map_round_trip(self):
        text = "The  BIG\tcat"
        norm, starts, ends = normalize_text_with_map(text)
        assert norm == "the big cat"
        assert text[starts[4] : ends[6]] == "BIG"

    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_span_normalizes_to_pattern(self, text):
        norm, starts, ends = normalize_text_with_map(text)
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
                 "İstanbul", "Straße", "a\x1cb\x85", " \t ", "\x1f"],
    )
    def test_named_cases(self, text):
        assert_normalizes_like_reference(text)

    def test_word_final_capital_sigma_lowers_per_character(self):
        # Whole-string lower() gives the final form "ς"; the reference
        # lowers each character on its own and gives "σ".
        text = "ΟΔΟΣ ΟΔΟΣ"
        assert text.lower() == "οδος οδος"
        assert_normalizes_like_reference(text)
        assert normalize_text_with_map(text)[0] == "οδοσ οδοσ"

    def test_every_code_point(self):
        # Code points whose lowercase keeps the length share long texts,
        # which take the whole-string lowercase; every other code point
        # (expansions, capital sigma) is checked in a text of its own.
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


# Regex metacharacters, the underscore that ``\w`` would count as a word
# character, an Arabic-Indic digit (alphanumeric, not ASCII), an accented
# letter and the capital sigma, whose whole-string lowercase depends on
# context.
ORACLE_ALPHABET = "ab_ .*()[]\\?|+'\u0663\u00e9\u03a3"


def assert_scan_matches_oracle(patterns: set[str], text: str) -> None:
    anchor_map = _map({p: {0} for p in patterns}, article_count=1)
    expected = sorted(naive_scan(sorted(patterns), text), key=lambda m: (m[1], m[0]))
    assert scan_text(anchor_map, text) == expected


class TestMatcher:
    def test_overlapping_patterns_all_reported(self):
        anchor_map = _map({p: {0} for p in ["american", "american civil war", "civil"]}, 1)
        assert set(scan_text(anchor_map, "american civil war")) == {
            ("american", (0, 8)),
            ("american civil war", (0, 18)),
            ("civil", (9, 14)),
        }

    def test_suffix_pattern_found_inside_longer_match(self):
        anchor_map = _map({p: {0} for p in ["new york city", "york city", "city"]}, 1)
        assert scan_text(anchor_map, "new york city") == [
            ("new york city", (0, 13)),
            ("york city", (4, 13)),
            ("city", (9, 13)),
        ]
        # Inside a word a suffix pattern is no token: "he" neither in "she"
        # nor in "hers".
        anchor_map = _map({p: {0} for p in ["she", "he", "hers"]}, 1)
        assert scan_text(anchor_map, "she-he hers") == [
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
            assert scan_text(anchor_map, text) == []

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
            got = set(scan_text(anchor_map, text))
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
        norm = normalize_text_with_map(text)[0]
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


class TestScanText:
    def test_token_boundary_blocks_midword_match(self):
        anchor_map = _map({"art": {0}}, 1)
        assert scan_text(anchor_map, "the party was art.") == [("art", (14, 17))]

    def test_case_insensitive_match(self):
        anchor_map = _map({"federal government": {0}}, 1)
        assert scan_text(anchor_map, "The Federal  Government acted.") == [
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
        pairs = scan_corpus(anchor_map, [article])[0]
        assert len(pairs) == 1
        assert pairs[0].target == 3
        assert pairs[0].matched[0][0] == "political"

    def test_empty_abstract(self):
        anchor_map = _map({"x": {1}}, 2)
        assert scan_corpus(anchor_map, [_article(0, "")]) == {0: []}

    def test_self_pairs_removed(self):
        anchor_map = _map({"myself": {0, 1}}, 2)
        pairs = scan_corpus(anchor_map, [_article(0, "all about myself")])[0]
        assert [p.target for p in pairs] == [1]

    def test_aggregates_per_target_with_all_matches(self):
        anchor_map = _map({"american": {1}, "american civil war": {1, 2}}, 3)
        article = _article(0, "the american civil war began")
        pairs = scan_corpus(anchor_map, [article])[0]
        assert [p.target for p in pairs] == [1, 2]
        by_target = {p.target: p for p in pairs}
        assert by_target[1].anchor_texts() == ("american", "american civil war")
        assert by_target[2].anchor_texts() == ("american civil war",)

    def test_span_substring_normalizes_to_pattern(self):
        anchor_map = _map({"federal government": {1}}, 2)
        article = _article(0, "The Federal  Government acted swiftly.")
        (pair,) = scan_corpus(anchor_map, [article])[0]
        for pattern, (start, end) in pair.matched:
            assert normalize_pattern(article.abstract[start:end]) == pattern


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
        samples = fixture_dataset.eval_samples()
        for source, target in fixture_dataset.network.edges():
            assert any(
                p.target == target and p.label for p in samples[source]
            ), f"edge ({source}, {target}) missing from candidates"

    def test_hard_negatives_occur_in_source_abstract(self, fixture_dataset):
        samples = fixture_dataset.eval_samples()
        for source, pairs in samples.items():
            abstract = fixture_dataset.articles[source].abstract
            for pair in pairs:
                if not pair.label:
                    for pattern, (start, end) in pair.matched:
                        assert normalize_pattern(abstract[start:end]) == pattern
