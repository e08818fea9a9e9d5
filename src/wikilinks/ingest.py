"""Streaming ingestion of MediaWiki XML exports.

Parses pages-articles dumps into lightweight page records, extracts the
lead section ("abstract") of each article, pulls internal links with
their anchor texts out of those abstracts, and resolves redirect pages
so that alternative titles can be matched against link targets later.

Markup handling is deliberately best-effort: real dumps contain
malformed templates and half-closed links, so we recover and count
instead of aborting. All counters are accumulated into a
``collections.Counter`` the caller may pass in.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

MAIN_NAMESPACE = 0

# Redirect chains longer than this are treated as broken and dropped.
REDIRECT_CHAIN_CAP = 10


class DumpParseError(Exception):
    """Malformed XML in a dump stream; the message names the line and
    column of the fault, as expat reports them."""


@dataclass(frozen=True)
class RawPage:
    """One <page> element of a dump, before any filtering."""

    title: str
    namespace: int
    wikitext: str
    redirect_target: str | None = None


@dataclass
class Article:
    """A mainspace article with a dense integer id.

    ``aliases`` holds the redirect titles that resolve to this article.
    """

    id: int
    title: str
    abstract: str
    aliases: set[str] = field(default_factory=set)


_REDIRECT_TEXT_RE = re.compile(r"^\s*#REDIRECT\s*:?\s*\[\[([^\]|]+)", re.IGNORECASE)


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _cut_section(target: str) -> str:
    """A link or redirect target, stripped, without its '#' section suffix."""
    return target.split("#", 1)[0].strip()


def parse_dump(stream: IO[bytes], counters: Counter | None = None) -> Iterator[RawPage]:
    """Yield one :class:`RawPage` per <page> element, in document order.

    Runs in memory bounded independently of the number of pages: each
    page subtree is released as soon as it has been yielded. Pages
    missing a title or a text element are skipped and counted under
    ``pages_skipped``. Malformed XML raises :class:`DumpParseError`.
    """
    counters = counters if counters is not None else Counter()
    try:
        context = ET.iterparse(stream, events=("start", "end"))
        root = None
        for event, elem in context:
            if event == "start":
                if root is None:
                    root = elem
                continue
            if _local_name(elem.tag) != "page":
                continue
            page = _parse_page(elem, counters)
            elem.clear()
            if root is not None and root is not elem:
                try:
                    root.remove(elem)
                except ValueError:
                    pass
            if page is not None:
                yield page
    except ET.ParseError as exc:
        raise DumpParseError(f"malformed dump XML: {exc}") from exc


def _parse_page(elem: ET.Element, counters: Counter) -> RawPage | None:
    title = None
    namespace = MAIN_NAMESPACE
    wikitext = None
    redirect_target = None
    for child in elem:
        name = _local_name(child.tag)
        if name == "title":
            title = (child.text or "").strip()
        elif name == "ns":
            try:
                namespace = int(child.text or "0")
            except ValueError:
                namespace = MAIN_NAMESPACE
        elif name == "redirect":
            redirect_target = child.get("title")
        elif name == "revision":
            for rev_child in child:
                if _local_name(rev_child.tag) == "text":
                    wikitext = rev_child.text or ""
    if not title:
        counters["pages_skipped"] += 1
        counters["pages_missing_title"] += 1
        return None
    if wikitext is None:
        counters["pages_skipped"] += 1
        counters["pages_missing_text"] += 1
        return None
    if redirect_target is None:
        match = _REDIRECT_TEXT_RE.match(wikitext)
        if match:
            redirect_target = match.group(1)
    if redirect_target is not None:
        redirect_target = _cut_section(redirect_target)
        if not redirect_target:
            counters["redirects_empty_target"] += 1
            redirect_target = None
    return RawPage(
        title=title,
        namespace=namespace,
        wikitext=wikitext,
        redirect_target=redirect_target,
    )


def normalize_title(title: str) -> str:
    """MediaWiki title normalization: underscores to spaces, collapsed
    whitespace, first character uppercased.

    Whitespace is what ``str.split()`` splits on, the same characters
    as ``re``'s ``\\s`` in a str pattern: each run becomes one space
    and the ends are stripped.
    """
    text = " ".join(title.replace("_", " ").split())
    if not text:
        return text
    return text[0].upper() + text[1:]


_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_REF_RE = re.compile(
    r"<ref[^<>]*/\s*>|<ref[^<>]*>.*?</ref\s*>|<references[^<>]*/?\s*>",
    re.DOTALL | re.IGNORECASE,
)
_EXT_LINK_RE = re.compile(r"\[(?:https?|ftp)://[^\s\]]*(?:\s+([^\]]*))?\]", re.IGNORECASE)
# Runs of two or more apostrophes; the literal prefix lets ``re`` skip
# from one "''" to the next.
_BOLD_ITALIC_RE = re.compile(r"''+")
_FILE_LINK_RE = re.compile(r"\[\[\s*(?:file|image)\s*:", re.IGNORECASE)
_TEMPLATE_RE = re.compile(r"\{\{")
# The opener (group 1) and closer tokens of each block kind.
_TEMPLATE_TOKEN_RE = re.compile(r"(\{\{)|\}\}")
_LINK_TOKEN_RE = re.compile(r"(\[\[)|\]\]")


def _strip_nested(
    text: str, opening: re.Pattern, tokens: re.Pattern, counter_key: str, counters: Counter
) -> str:
    """Remove every block that ``opening`` starts, with the blocks nested in it.

    From the end of an opening, the opener and closer ``tokens`` are
    counted down to depth 0, and the block ends after that closer. The
    text between blocks is copied in slices; a closer outside any block
    is plain text. An unclosed block drops everything to the end of the
    input; the recovery is counted under ``counter_key``.
    """
    out: list[str] = []
    i = 0
    while (match := opening.search(text, i)) is not None:
        out.append(text[i : match.start()])
        depth = 1
        for token in tokens.finditer(text, match.end()):
            depth += 1 if token.group(1) else -1
            if depth == 0:
                i = token.end()
                break
        else:
            counters[counter_key] += 1
            return "".join(out)
    out.append(text[i:])
    return "".join(out)


def extract_abstract(wikitext: str, counters: Counter | None = None) -> str:
    """Return the lead section of a page as cleaned wikitext.

    Everything before the first heading ("==") is kept. Templates
    (nested), HTML comments, <ref> tags, file/image links, external
    bracket links and bold/italic quote markup are removed; internal
    wikilinks are retained so their anchors can be extracted afterwards.
    Whitespace, as ``str.split()`` defines it, is collapsed to single
    spaces and stripped from both ends.
    """
    counters = counters if counters is not None else Counter()
    text = _COMMENT_RE.sub("", wikitext)
    text = _strip_nested(text, _TEMPLATE_RE, _TEMPLATE_TOKEN_RE, "unbalanced_template", counters)
    text = _REF_RE.sub("", text)
    text = _strip_nested(text, _FILE_LINK_RE, _LINK_TOKEN_RE, "unclosed_file_link", counters)
    text = _EXT_LINK_RE.sub(lambda m: m.group(1) or "", text)
    cut = text.find("==")
    if cut != -1:
        text = text[:cut]
    text = _BOLD_ITALIC_RE.sub("", text)
    return " ".join(text.split())


# English linktrail: lowercase letters directly after "]]" join the anchor,
# as in "[[apple]]s" rendering as the single link text "apples".
_LINKTRAIL_RE = re.compile(r"[a-z]+")


def render_abstract(
    abstract_wikitext: str, counters: Counter | None = None
) -> tuple[str, list[tuple[str, str]]]:
    """Strip wikilink markup, returning plain text plus one (raw target
    title, anchor text) pair per link, in text order.

    Each ``[[target]]`` contributes its target as anchor text, each
    ``[[target|anchor]]`` the anchor; either appears verbatim in the
    plain text. '#' section suffixes are cut from targets, and links
    into other namespaces (":" in the target) produce text but no pair.
    An unclosed "[[" is kept as literal text and counted under
    ``unclosed_wikilink``.
    """
    counters = counters if counters is not None else Counter()
    text = abstract_wikitext
    plain: list[str] = []
    links: list[tuple[str, str]] = []
    i = 0
    n = len(text)
    while i < n:
        start = text.find("[[", i)
        if start == -1:
            plain.append(text[i:])
            break
        if start > i:
            plain.append(text[i:start])
        end = text.find("]]", start + 2)
        nested = text.find("[[", start + 2)
        if end == -1 or (nested != -1 and nested < end):
            counters["unclosed_wikilink"] += 1
            plain.append("[[")
            i = start + 2
            continue
        inner = text[start + 2 : end]
        i = end + 2
        trail_match = _LINKTRAIL_RE.match(text, i)
        trail = trail_match.group(0) if trail_match else ""
        i += len(trail)
        target, piped, anchor = inner.partition("|")
        target = target.strip()
        anchor = anchor.strip() if piped else ""
        if not anchor:
            anchor = target
        target = _cut_section(target)
        rendered = anchor + trail
        if not target or ":" in target:
            counters["links_dropped_namespace"] += 1
            if piped:
                plain.append(rendered)
            elif not plain or plain[-1].endswith(" "):
                # Nothing rendered: keep one of the two spaces that now
                # meet, and none at the edges of the text.
                if text.startswith(" ", i):
                    i += 1
                elif i == n and plain:
                    plain[-1] = plain[-1][:-1]
            continue
        links.append((target, rendered))
        plain.append(rendered)
    return "".join(plain), links


def _resolve_chains(
    redirect_to: dict[str, str], real_titles: set[str], counters: Counter
) -> dict[str, str]:
    """Map redirect titles to the canonical titles they resolve to.

    Chains are followed to a fixed point up to ``REDIRECT_CHAIN_CAP``
    hops; cycles and chains ending outside ``real_titles`` are dropped
    and counted.
    """
    resolved: dict[str, str] = {}
    for alias in redirect_to:
        if alias in real_titles:
            # Normalization collisions: a real page wins over a redirect.
            counters["redirects_shadowed_by_article"] += 1
            continue
        current = alias
        seen = {alias}
        ok = False
        for _ in range(REDIRECT_CHAIN_CAP):
            current = redirect_to[current]
            if current in real_titles:
                ok = True
                break
            if current not in redirect_to or current in seen:
                break
            seen.add(current)
        if ok:
            resolved[alias] = current
        elif current in seen or current in redirect_to:
            counters["redirects_dropped_cycle_or_long"] += 1
        else:
            counters["redirects_dropped_dead_target"] += 1
    return resolved


def build_corpus(
    pages: Iterable[RawPage], counters: Counter | None = None
) -> tuple[list[Article], list[tuple[int, int, str]]]:
    """Assemble the article table and link triples from parsed pages.

    Keeps mainspace non-redirect pages in document order, assigns dense
    contiguous ids, attaches redirect aliases, and resolves every link
    target through title normalization and the redirect map. Links whose
    target is not an ingested article are dropped and counted; self-links
    after redirect resolution are dropped as well.
    """
    counters = counters if counters is not None else Counter()
    kept: list[tuple[str, str]] = []  # (canonical title, abstract wikitext)
    redirect_to: dict[str, str] = {}
    real_titles: set[str] = set()
    for page in pages:
        counters["pages_seen"] += 1
        if page.namespace != MAIN_NAMESPACE:
            counters["pages_non_mainspace"] += 1
            continue
        title = normalize_title(page.title)
        if not title:
            counters["pages_skipped"] += 1
            continue
        if page.redirect_target:
            redirect_to.setdefault(title, normalize_title(page.redirect_target))
            continue
        if title in real_titles:
            counters["duplicate_titles"] += 1
            continue
        real_titles.add(title)
        kept.append((title, extract_abstract(page.wikitext, counters)))

    aliases = _resolve_chains(redirect_to, real_titles, counters)

    articles = [Article(id=i, title=title, abstract="") for i, (title, _) in enumerate(kept)]
    title_to_id = {article.title: article.id for article in articles}
    for alias, target in aliases.items():
        articles[title_to_id[target]].aliases.add(alias)

    # Link targets repeat across pages, so each distinct raw target is
    # resolved once; every link is still counted.
    resolved: dict[str, int | None] = {}
    links: list[tuple[int, int, str]] = []
    for article, (_, abstract_wikitext) in zip(articles, kept):
        article.abstract, page_links = render_abstract(abstract_wikitext, counters)
        for raw_target, anchor_text in page_links:
            if raw_target in resolved:
                target_id = resolved[raw_target]
            else:
                target_title = normalize_title(raw_target)
                target_id = resolved[raw_target] = title_to_id.get(
                    aliases.get(target_title, target_title))
            if target_id is None:
                counters["links_unknown_target"] += 1
                continue
            if target_id == article.id:
                counters["links_self"] += 1
                continue
            links.append((article.id, target_id, anchor_text))
            counters["links_kept"] += 1
    return articles, links
