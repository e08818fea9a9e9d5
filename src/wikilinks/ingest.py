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
    """Malformed XML in a dump stream; carries the approximate byte offset."""

    def __init__(self, message: str, byte_offset: int | None = None) -> None:
        super().__init__(message)
        self.byte_offset = byte_offset


@dataclass(frozen=True)
class RawPage:
    """One <page> element of a dump, before any filtering."""

    title: str
    namespace: int
    wikitext: str
    is_redirect: bool = False
    redirect_target: str | None = None


@dataclass(frozen=True)
class AnchorOccurrence:
    """A wikilink found in an abstract.

    ``span`` indexes into the plain-text abstract produced by
    :func:`render_abstract`; the invariant ``abstract[start:end] ==
    anchor_text`` always holds. ``target_title`` is the raw link target
    before redirect resolution.
    """

    source: int
    target_title: str
    anchor_text: str
    span: tuple[int, int]


@dataclass
class Article:
    """A mainspace article with a dense integer id.

    ``aliases`` holds the redirect titles that resolve to this article.
    """

    id: int
    title: str
    abstract: str
    aliases: set[str] = field(default_factory=set)


class _CountingReader:
    """Wraps a binary stream and tracks how many bytes were handed out.

    Used to attach an (approximate, buffer-granular) byte offset to XML
    parse errors.
    """

    def __init__(self, stream: IO[bytes]) -> None:
        self._stream = stream
        self.bytes_read = 0

    def read(self, size: int = -1) -> bytes:
        data = self._stream.read(size)
        self.bytes_read += len(data)
        return data


_REDIRECT_TEXT_RE = re.compile(r"^\s*#REDIRECT\s*:?\s*\[\[([^\]|]+)", re.IGNORECASE)
_WS_RE = re.compile(r"\s+")


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _clean_redirect_target(target: str) -> str:
    # Section suffixes ("United Kingdom#History") redirect to the page itself.
    return target.split("#", 1)[0].strip()


def parse_dump(stream: IO[bytes], counters: Counter | None = None) -> Iterator[RawPage]:
    """Yield one :class:`RawPage` per <page> element, in document order.

    Runs in memory bounded independently of the number of pages: each
    page subtree is released as soon as it has been yielded. Pages
    missing a title or a text element are skipped and counted under
    ``pages_skipped``. Malformed XML raises :class:`DumpParseError`.
    """
    counters = counters if counters is not None else Counter()
    reader = _CountingReader(stream)
    try:
        context = ET.iterparse(reader, events=("start", "end"))
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
        raise DumpParseError(
            f"malformed dump XML: {exc}", byte_offset=reader.bytes_read
        ) from exc


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
        redirect_target = _clean_redirect_target(redirect_target)
        if not redirect_target:
            counters["redirects_empty_target"] += 1
            redirect_target = None
    return RawPage(
        title=title,
        namespace=namespace,
        wikitext=wikitext,
        is_redirect=redirect_target is not None,
        redirect_target=redirect_target,
    )


def normalize_title(title: str) -> str:
    """MediaWiki title normalization: underscores to spaces, collapsed
    whitespace, first character uppercased."""
    text = _WS_RE.sub(" ", title.replace("_", " ")).strip()
    if not text:
        return text
    return text[0].upper() + text[1:]


_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_REF_RE = re.compile(
    r"<ref[^<>]*/\s*>|<ref[^<>]*>.*?</ref\s*>|<references[^<>]*/?\s*>",
    re.DOTALL | re.IGNORECASE,
)
_EXT_LINK_RE = re.compile(r"\[(?:https?|ftp)://[^\s\]]*(?:\s+([^\]]*))?\]", re.IGNORECASE)
_BOLD_ITALIC_RE = re.compile(r"'{2,}")
_FILE_LINK_RE = re.compile(r"\[\[\s*(?:file|image)\s*:", re.IGNORECASE)
_TEMPLATE_TOKEN_RE = re.compile(r"\{\{|\}\}")
_LINK_TOKEN_RE = re.compile(r"\[\[|\]\]")


def _strip_templates(text: str, counters: Counter) -> str:
    """Remove {{...}} blocks, tracking nesting.

    Walks the ``{{``/``}}`` tokens and copies the text between top-level
    blocks in slices; a ``}}`` outside any block is plain text. An
    unmatched open drops everything to the end of the input; the
    recovery is flagged under ``unbalanced_template``.
    """
    out: list[str] = []
    depth = 0
    kept_from = 0
    for token in _TEMPLATE_TOKEN_RE.finditer(text):
        if token.group() == "{{":
            if depth == 0:
                out.append(text[kept_from : token.start()])
            depth += 1
        elif depth > 0:
            depth -= 1
            if depth == 0:
                kept_from = token.end()
    if depth > 0:
        counters["unbalanced_template"] += 1
    else:
        out.append(text[kept_from:])
    return "".join(out)


def _strip_file_links(text: str, counters: Counter) -> str:
    """Remove [[File:...]] / [[Image:...]] including nested [[...]] captions.

    An unclosed file link drops everything to the end of the input and
    is counted under ``unclosed_file_link``.
    """
    out: list[str] = []
    i = 0
    while (match := _FILE_LINK_RE.search(text, i)) is not None:
        out.append(text[i : match.start()])
        depth = 1
        for token in _LINK_TOKEN_RE.finditer(text, match.end()):
            depth += 1 if token.group() == "[[" else -1
            if depth == 0:
                i = token.end()
                break
        else:
            counters["unclosed_file_link"] += 1
            return "".join(out)
    out.append(text[i:])
    return "".join(out)


def extract_abstract(wikitext: str, counters: Counter | None = None) -> str:
    """Return the lead section of a page as cleaned wikitext.

    Everything before the first heading ("==") is kept. Templates
    (nested), HTML comments, <ref> tags, file/image links, external
    bracket links and bold/italic quote markup are removed; internal
    wikilinks are retained so their anchors can be extracted afterwards.
    Whitespace is collapsed to single spaces.
    """
    counters = counters if counters is not None else Counter()
    text = _COMMENT_RE.sub("", wikitext)
    text = _strip_templates(text, counters)
    text = _REF_RE.sub("", text)
    text = _strip_file_links(text, counters)
    text = _EXT_LINK_RE.sub(lambda m: m.group(1) or "", text)
    cut = text.find("==")
    if cut != -1:
        text = text[:cut]
    text = _BOLD_ITALIC_RE.sub("", text)
    return _WS_RE.sub(" ", text).strip()


# English linktrail: lowercase letters directly after "]]" join the anchor,
# as in "[[apple]]s" rendering as the single link text "apples".
_LINKTRAIL_RE = re.compile(r"[a-z]+")


def render_abstract(
    abstract_wikitext: str, source: int = -1, counters: Counter | None = None
) -> tuple[str, list[AnchorOccurrence]]:
    """Strip wikilink markup, returning plain text plus anchor spans.

    Each ``[[target]]`` contributes its target as anchor text, each
    ``[[target|anchor]]`` the anchor; '#' section suffixes are cut from
    targets and links into other namespaces (":" in the target) produce
    text but no occurrence. An unclosed "[[" is kept as literal text and
    counted under ``unclosed_wikilink``.
    """
    counters = counters if counters is not None else Counter()
    text = abstract_wikitext
    plain: list[str] = []
    occurrences: list[AnchorOccurrence] = []
    out_len = 0
    i = 0
    n = len(text)
    while i < n:
        start = text.find("[[", i)
        if start == -1:
            plain.append(text[i:])
            break
        plain.append(text[i:start])
        out_len += start - i
        end = text.find("]]", start + 2)
        nested = text.find("[[", start + 2)
        if end == -1 or (nested != -1 and nested < end):
            counters["unclosed_wikilink"] += 1
            plain.append("[[")
            out_len += 2
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
        target = target.split("#", 1)[0].strip()
        rendered = anchor + trail
        if not target or ":" in target:
            counters["links_dropped_namespace"] += 1
            if piped:
                plain.append(rendered)
                out_len += len(rendered)
            continue
        occurrences.append(
            AnchorOccurrence(
                source=source,
                target_title=target,
                anchor_text=rendered,
                span=(out_len, out_len + len(rendered)),
            )
        )
        plain.append(rendered)
        out_len += len(rendered)
    return "".join(plain), occurrences


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
        if page.is_redirect and page.redirect_target:
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

    links: list[tuple[int, int, str]] = []
    for article, (_, abstract_wikitext) in zip(articles, kept):
        plain, occurrences = render_abstract(abstract_wikitext, article.id, counters)
        article.abstract = plain
        for occ in occurrences:
            target_title = normalize_title(occ.target_title)
            target_title = aliases.get(target_title, target_title)
            target_id = title_to_id.get(target_title)
            if target_id is None:
                counters["links_unknown_target"] += 1
                continue
            if target_id == article.id:
                counters["links_self"] += 1
                continue
            links.append((article.id, target_id, occ.anchor_text))
            counters["links_kept"] += 1
    return articles, links
