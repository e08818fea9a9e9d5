"""Dump parsing, abstract extraction, wikilink extraction, redirects, and
the markup strippers against their per-character reference loops."""

from __future__ import annotations

import io
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wikilinks.ingest import (
    _FILE_LINK_RE,
    DumpParseError,
    RawPage,
    _strip_file_links,
    _strip_templates,
    build_corpus,
    extract_abstract,
    normalize_title,
    parse_dump,
    render_abstract,
)

from conftest import tiny_dump_stream


def _dump(pages: str) -> io.BytesIO:
    xml = f'<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">{pages}</mediawiki>'
    return io.BytesIO(xml.encode("utf-8"))


def _page(title: str, text: str, ns: int = 0, redirect: str | None = None) -> str:
    redirect_el = f'<redirect title="{redirect}" />' if redirect else ""
    return (
        f"<page><title>{title}</title><ns>{ns}</ns><id>1</id>{redirect_el}"
        f"<revision><id>1</id><text>{text}</text></revision></page>"
    )


class TestParseDump:
    def test_single_article(self):
        pages = list(parse_dump(_dump(_page("Politics", "Some text."))))
        assert len(pages) == 1
        assert pages[0].title == "Politics"
        assert pages[0].namespace == 0
        assert pages[0].wikitext == "Some text."
        assert not pages[0].is_redirect

    def test_redirect_from_text_directive(self):
        pages = list(parse_dump(_dump(_page("UK", "#REDIRECT [[United Kingdom]]"))))
        assert pages[0].is_redirect
        assert pages[0].redirect_target == "United Kingdom"

    def test_redirect_element_and_section_suffix(self):
        pages = list(
            parse_dump(_dump(_page("UK", "x", redirect="United Kingdom#History")))
        )
        assert pages[0].redirect_target == "United Kingdom"

    def test_three_pages_one_category_namespace(self):
        xml = (
            _page("A", "a")
            + _page("Category:Stuff", "c", ns=14)
            + _page("B", "b")
        )
        pages = list(parse_dump(_dump(xml)))
        assert len(pages) == 3
        mainspace = [p for p in pages if p.namespace == 0]
        assert [p.title for p in mainspace] == ["A", "B"]
        articles, _ = build_corpus(pages)
        assert [a.title for a in articles] == ["A", "B"]

    def test_missing_text_page_skipped_and_counted(self):
        xml = "<page><title>NoText</title><ns>0</ns><id>1</id></page>" + _page("B", "b")
        counters: Counter = Counter()
        pages = list(parse_dump(_dump(xml), counters))
        assert [p.title for p in pages] == ["B"]
        assert counters["pages_skipped"] == 1

    def test_malformed_xml_reports_byte_offset(self):
        broken = io.BytesIO(b"<mediawiki><page><title>Broken</title>")
        with pytest.raises(DumpParseError) as err:
            list(parse_dump(broken))
        assert err.value.byte_offset is not None
        assert err.value.byte_offset > 0

    def test_streaming_is_lazy(self):
        # Consuming the first page must not pull the whole stream in.
        body = "".join(_page(f"P{i}", "word " * 40) for i in range(2000))
        stream = _dump(body)
        total = len(stream.getvalue())

        consumed = []

        class CountingStream:
            def read(self, size=-1):
                data = stream.read(size)
                consumed.append(len(data))
                return data

        page = next(parse_dump(CountingStream()))
        assert page.title == "P0"
        assert sum(consumed) < total / 10


def reference_strip_templates(text: str, counters: Counter) -> str:
    """The per-character loop that ``_strip_templates`` replaced."""
    out: list[str] = []
    depth = 0
    i = 0
    n = len(text)
    while i < n:
        if text.startswith("{{", i):
            depth += 1
            i += 2
        elif text.startswith("}}", i) and depth > 0:
            depth -= 1
            i += 2
        elif depth == 0:
            out.append(text[i])
            i += 1
        else:
            i += 1
    if depth > 0:
        counters["unbalanced_template"] += 1
    return "".join(out)


def reference_strip_file_links(text: str, counters: Counter) -> str:
    """The per-character loop that ``_strip_file_links`` replaced: one
    ``_FILE_LINK_RE.match`` per index."""
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        match = _FILE_LINK_RE.match(text, i)
        if not match:
            out.append(text[i])
            i += 1
            continue
        depth = 1
        j = match.end()
        while j < n and depth > 0:
            if text.startswith("[[", j):
                depth += 1
                j += 2
            elif text.startswith("]]", j):
                depth -= 1
                j += 2
            else:
                j += 1
        if depth > 0:
            counters["unclosed_file_link"] += 1
        i = j
    return "".join(out)


# Markup tokens, case and whitespace variants the strippers and the
# normalization must treat exactly like their references.
MARKUP_TOKENS = [
    "{", "}", "{{", "}}", "[", "]", "[[", "]]", "File:", "image :", "FILE :", "|",
    "a", "B", "x y", "İ", "ß", "Σ", "σ",
    " ", "\t", "\n", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u3000",
]
markup_text = st.lists(st.sampled_from(MARKUP_TOKENS), max_size=40).map("".join)


class TestStrippersMatchReference:
    @given(markup_text)
    @settings(max_examples=500, deadline=None)
    def test_strip_templates(self, text):
        got, expected = Counter(), Counter()
        assert _strip_templates(text, got) == reference_strip_templates(text, expected)
        assert got == expected

    @given(markup_text)
    @settings(max_examples=500, deadline=None)
    def test_strip_file_links(self, text):
        got, expected = Counter(), Counter()
        assert _strip_file_links(text, got) == reference_strip_file_links(text, expected)
        assert got == expected

    @pytest.mark.parametrize(
        "text",
        ["}}{{a}}}b", "{{{x}}}y}}", "{{a{{b}}c", "[[File:a|[[b]] c]]]]d", "[[image :x[[y]] z",
         "p[[ file:q]]r[[File:s]]", "[[File:a]][[Image:b|[[c]]]]"],
    )
    def test_named_cases(self, text):
        for strip, reference in (
            (_strip_templates, reference_strip_templates),
            (_strip_file_links, reference_strip_file_links),
        ):
            got, expected = Counter(), Counter()
            assert strip(text, got) == reference(text, expected)
            assert got == expected


class TestExtractAbstract:
    def test_cut_at_first_heading(self):
        assert extract_abstract("Text. == History == More.") == "Text."

    def test_infobox_template_removed(self):
        wikitext = "{{Infobox person\n| name = X {{nested|y}}\n}}Abraham Lincoln was..."
        assert extract_abstract(wikitext) == "Abraham Lincoln was..."

    def test_empty_input(self):
        assert extract_abstract("") == ""

    def test_unbalanced_template_drops_to_end_with_warning(self):
        counters: Counter = Counter()
        assert extract_abstract("Before {{broken and after", counters) == "Before"
        assert counters["unbalanced_template"] == 1

    def test_comments_refs_files_quotes_removed(self):
        wikitext = (
            "'''Bold''' start<!-- hidden --> middle<ref name=a>noise</ref>"
            "<ref name=b/> [[File:Pic.jpg|thumb|caption [[inner]]]] end"
        )
        assert extract_abstract(wikitext) == "Bold start middle end"

    def test_external_links_keep_label(self):
        wikitext = "See [http://example.com?a==b the site] and [http://bare.example] now"
        assert extract_abstract(wikitext) == "See the site and now"

    def test_whitespace_collapsed(self):
        assert extract_abstract("a\n\n b\tc") == "a b c"


class TestExtractWikilinks:
    def test_equal_anchor_and_title(self):
        _, occs = render_abstract("[[American Civil War|American Civil War]]", 0)
        assert len(occs) == 1
        assert occs[0].target_title == "American Civil War"
        assert occs[0].anchor_text == "American Civil War"

    def test_piped_link(self):
        _, occs = render_abstract("[[Slavery in the United States|slavery]]", 0)
        assert occs[0].target_title == "Slavery in the United States"
        assert occs[0].anchor_text == "slavery"

    def test_unpiped_link(self):
        _, occs = render_abstract("[[Politics]]", 0)
        assert occs[0].target_title == "Politics"
        assert occs[0].anchor_text == "Politics"

    def test_section_suffix_truncated(self):
        _, occs = render_abstract("[[Politics#History|politics]]", 0)
        assert occs[0].target_title == "Politics"

    def test_namespace_links_dropped(self):
        plain, occs = render_abstract("a [[Category:X]] b [[wikt:word|word]] c", 0)
        assert occs == []
        assert plain == "a  b word c"

    def test_unclosed_link_is_literal(self):
        counters: Counter = Counter()
        plain, occs = render_abstract("broken [[link", 0, counters)
        assert occs == []
        assert plain == "broken [[link"
        assert counters["unclosed_wikilink"] == 1

    def test_linktrail_joins_anchor(self):
        plain, occs = render_abstract("two [[apple]]s fell", 0)
        assert plain == "two apples fell"
        assert occs[0].anchor_text == "apples"
        assert occs[0].target_title == "apple"

    def test_spans_index_plain_text(self):
        text = "He led the [[American Civil War|war]] and freed [[slave]]s."
        plain, occs = render_abstract(text, 7)
        for occ in occs:
            start, end = occ.span
            assert 0 <= start < end <= len(plain)
            assert plain[start:end] == occ.anchor_text
            assert occ.source == 7


class TestNormalizeTitle:
    def test_underscores_and_case(self):
        assert normalize_title("federal_government  of the US") == "Federal government of the US"

    def test_preserves_interior_case(self):
        assert normalize_title("iPhone") == "IPhone"


class TestResolveRedirects:
    @staticmethod
    def _redirect(title: str, target: str) -> RawPage:
        return RawPage(title, 0, "", is_redirect=True, redirect_target=target)

    @staticmethod
    def _article(title: str) -> RawPage:
        return RawPage(title, 0, "text")

    @staticmethod
    def _aliases(pages, counters: Counter | None = None) -> dict[str, str]:
        """Redirect alias -> canonical title, as attached by build_corpus."""
        articles, _ = build_corpus(pages, counters)
        return {alias: a.title for a in articles for alias in a.aliases}

    def test_basic_alias(self):
        mapping = self._aliases(
            [self._article("United Kingdom"), self._redirect("UK", "United Kingdom")]
        )
        assert mapping == {"UK": "United Kingdom"}

    def test_transitive_chain(self):
        mapping = self._aliases(
            [self._article("C"), self._redirect("A", "B"), self._redirect("B", "C")]
        )
        assert mapping == {"A": "C", "B": "C"}

    def test_cycle_dropped_entirely(self):
        counters: Counter = Counter()
        mapping = self._aliases(
            [self._article("X"), self._redirect("A", "B"), self._redirect("B", "A")],
            counters,
        )
        assert mapping == {}
        assert counters["redirects_dropped_cycle_or_long"] == 2

    def test_chain_beyond_cap_dropped(self):
        pages = [self._article("End")]
        for i in range(12):
            pages.append(self._redirect(f"R{i}", f"R{i + 1}" if i < 11 else "End"))
        counters: Counter = Counter()
        mapping = self._aliases(pages, counters)
        assert "R11" in mapping  # one hop
        assert "R0" not in mapping  # twelve hops
        assert counters["redirects_dropped_cycle_or_long"] > 0

    def test_dead_target_dropped(self):
        counters: Counter = Counter()
        mapping = self._aliases([self._redirect("A", "Ghost")], counters)
        assert mapping == {}
        assert counters["redirects_dropped_dead_target"] == 1


class TestBuildCorpus:
    def test_tiny_dump_articles(self, tiny_dataset):
        titles = [a.title for a in tiny_dataset.articles]
        assert titles == [
            "Abraham Lincoln",
            "American Civil War",
            "Slavery in the United States",
            "Federal government of the United States",
            "Economy of the United States",
            "United Kingdom",
        ]
        assert [a.id for a in tiny_dataset.articles] == list(range(6))

    def test_alias_attached_to_canonical_article(self, tiny_dataset):
        by_title = {a.title: a for a in tiny_dataset.articles}
        assert by_title["United Kingdom"].aliases == {"UK"}

    def test_links_resolve_through_redirects(self, tiny_dataset):
        by_title = {a.title: a for a in tiny_dataset.articles}
        acw = by_title["American Civil War"].id
        uk = by_title["United Kingdom"].id
        # "[[United Kingdom|UK]]" resolves via the alias page to the article.
        assert tiny_dataset.network.has_edge(acw, uk)
        assert "UK" in dict(tiny_dataset.network.edge_items())[(acw, uk)]

    def test_unknown_targets_dropped_and_counted(self):
        counters: Counter = Counter()
        pages = [RawPage("A", 0, "links to [[Ghost]] and [[B]]"), RawPage("B", 0, "b")]
        articles, links = build_corpus(pages, counters)
        assert [(s, t) for s, t, _ in links] == [(0, 1)]
        assert counters["links_unknown_target"] == 1

    def test_deterministic_output(self):
        first = build_corpus(parse_dump(tiny_dump_stream()))
        second = build_corpus(parse_dump(tiny_dump_stream()))
        assert first == second

    def test_abstract_cut_before_heading(self, tiny_dataset):
        lincoln = tiny_dataset.articles[0]
        assert "Early life" not in lincoln.abstract
        assert "Kentucky" not in lincoln.abstract
        assert lincoln.abstract.startswith("Abraham Lincoln (1809 - 1865)")
