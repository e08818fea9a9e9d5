"""Shared fixtures: a hand-written mini dump and pipeline-built datasets."""

from __future__ import annotations

import io

import pytest

from wikilinks.dataset import Dataset
from wikilinks.deepwalk import DeepWalkParams
from wikilinks.graph import DocumentNetwork
from wikilinks.ingest import build_corpus, parse_dump
from wikilinks.predictors import EvalModelConfig
from wikilinks.synthetic import PlantedCorpusParams, planted_dataset

# A small pages-articles export exercising redirects, piped/unpiped links,
# namespaces, templates, refs, headings and a file link. Kept readable on
# purpose; expected values in the tests are enumerated from this text.
TINY_DUMP = """\
<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">
  <siteinfo><sitename>fixture</sitename></siteinfo>
  <page>
    <title>Abraham Lincoln</title>
    <ns>0</ns>
    <id>1</id>
    <revision><id>1</id><text>{{Infobox officeholder
| name = Abraham Lincoln
}}'''Abraham Lincoln''' (1809 - 1865) was an American statesman who led the
nation through the [[American Civil War|American Civil War]].&lt;ref&gt;cite&lt;/ref&gt;
He succeeded in abolishing [[Slavery in the United States|slavery]], bolstering
the [[Federal government of the United States|federal government]], and
modernizing the [[Economy of the United States|U.S. economy]]. He admired the
[[United Kingdom]].
[[File:Abraham Lincoln portrait.jpg|thumb|A [[daguerreotype]] portrait]]
== Early life ==
Lincoln was born in [[Kentucky]].</text></revision>
  </page>
  <page>
    <title>American Civil War</title>
    <ns>0</ns>
    <id>2</id>
    <revision><id>2</id><text>The '''American Civil War''' was a civil war fought over
slavery and the power of the federal government. [[Abraham Lincoln]] served during
the war in the [[United Kingdom|UK]]-allied era.</text></revision>
  </page>
  <page>
    <title>Slavery in the United States</title>
    <ns>0</ns>
    <id>3</id>
    <revision><id>3</id><text>Slavery shaped the economy before the
[[American Civil War]]. [[Abraham Lincoln]] opposed slavery, as did much of the
[[United Kingdom]].</text></revision>
  </page>
  <page>
    <title>Federal government of the United States</title>
    <ns>0</ns>
    <id>4</id>
    <revision><id>4</id><text>The federal government was bolstered by
[[Abraham Lincoln]] after the [[American Civil War]].</text></revision>
  </page>
  <page>
    <title>Economy of the United States</title>
    <ns>0</ns>
    <id>5</id>
    <revision><id>5</id><text>The U.S. economy was modernized after the
[[American Civil War]] under [[Abraham Lincoln]].</text></revision>
  </page>
  <page>
    <title>United Kingdom</title>
    <ns>0</ns>
    <id>6</id>
    <revision><id>6</id><text>The United Kingdom watched the
[[American Civil War]] closely. Its economy differed from the
[[Economy of the United States|U.S. economy]].</text></revision>
  </page>
  <page>
    <title>UK</title>
    <ns>0</ns>
    <id>7</id>
    <redirect title="United Kingdom" />
    <revision><id>7</id><text>#REDIRECT [[United Kingdom]]</text></revision>
  </page>
  <page>
    <title>Category:Presidents</title>
    <ns>14</ns>
    <id>8</id>
    <revision><id>8</id><text>Category page text.</text></revision>
  </page>
</mediawiki>
"""


def tiny_dump_stream() -> io.BytesIO:
    return io.BytesIO(TINY_DUMP.encode("utf-8"))


def write_predictions(path, rows) -> None:
    """Write (source, target, score) rows in the predictions.tsv format
    that ``ExternalFileMethod`` reads."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"{s}\t{t}\t{score!r}\n" for s, t, score in rows)


@pytest.fixture(scope="session")
def tiny_dataset() -> Dataset:
    """The hand-written dump, ingested."""
    articles, links = build_corpus(parse_dump(tiny_dump_stream()))
    network = DocumentNetwork.from_links(len(articles), links)
    return Dataset(name="tiny", articles=articles, network=network)


@pytest.fixture(scope="session")
def fixture_dataset() -> Dataset:
    """A pipeline-built ~40-article planted corpus for split/recall tests."""
    params = PlantedCorpusParams(
        topics=4, docs_per_topic=10, links_per_doc=5, mentions_per_doc=4, seed=3
    )
    return planted_dataset(params, name="fixture40")


BENCH_PARAMS = PlantedCorpusParams(
    topics=10,
    docs_per_topic=20,
    diffuse_fraction=0.35,
    mentions_per_doc=5,
    seed=20,
)

BENCH_CONFIG = EvalModelConfig(
    lsa_dimension=64,
    deepwalk=DeepWalkParams(
        walks_per_node=10, walk_length=20, window=5, negatives=5, dimension=64
    ),
    atilp_positives=1000,
    atilp_negatives=1000,
)


@pytest.fixture(scope="session")
def bench_dataset() -> Dataset:
    """The 200-document planted-topic benchmark corpus."""
    return planted_dataset(BENCH_PARAMS, name="planted200")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """One visible pass/fail line per acceptance criterion."""
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is not None:
        status = "PASS" if report.passed else "FAIL"
        number, description = marker.args
        print(f"\n[criterion {number:>2}] {status}: {description}")
