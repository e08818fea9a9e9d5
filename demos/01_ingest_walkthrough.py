"""From raw dump XML to a dataset: pages, abstracts, anchors, redirects.

Run with:  python3 demos/01_ingest_walkthrough.py
"""

import io
from collections import Counter

from wikilinks import (
    DocumentNetwork,
    build_corpus,
    extract_abstract,
    parse_dump,
    render_abstract,
)
from wikilinks.dataset import Dataset

DUMP = """\
<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">
  <page>
    <title>Abraham Lincoln</title><ns>0</ns><id>1</id>
    <revision><id>1</id><text>{{Infobox person|name=Lincoln}}'''Abraham Lincoln'''
(1809 - 1865) led the nation through the [[American Civil War|American Civil War]],
abolishing [[Slavery|slavery]] and bolstering the [[federal government]]s of the era.
He admired the [[United Kingdom]].
== Early life ==
Born in Kentucky.</text></revision>
  </page>
  <page>
    <title>American Civil War</title><ns>0</ns><id>2</id>
    <revision><id>2</id><text>A war over slavery, watched by the [[United Kingdom|UK]].
[[Abraham Lincoln]] led the Union.</text></revision>
  </page>
  <page>
    <title>Slavery</title><ns>0</ns><id>3</id>
    <revision><id>3</id><text>Slavery ended after the [[American Civil War]].</text></revision>
  </page>
  <page>
    <title>United Kingdom</title><ns>0</ns><id>4</id>
    <revision><id>4</id><text>The United Kingdom observed the
[[American Civil War]].</text></revision>
  </page>
  <page>
    <title>UK</title><ns>0</ns><id>5</id>
    <redirect title="United Kingdom" />
    <revision><id>5</id><text>#REDIRECT [[United Kingdom]]</text></revision>
  </page>
</mediawiki>
"""


def main() -> None:
    print("=== 1. Stream the dump into RawPage records ===")
    pages = list(parse_dump(io.BytesIO(DUMP.encode("utf-8"))))
    for page in pages:
        kind = f"redirect -> {page.redirect_target}" if page.redirect_target else "article"
        print(f"  ns={page.namespace}  {page.title!r}  ({kind})")

    print("\n=== 2. Abstract extraction keeps the lead, drops the markup ===")
    lincoln = pages[0]
    abstract_wikitext = extract_abstract(lincoln.wikitext)
    print("  lead wikitext:", abstract_wikitext[:90], "...")
    plain, page_links = render_abstract(abstract_wikitext)
    print("  plain text:   ", plain[:90], "...")
    print("  anchors found:")
    for target_title, anchor_text in page_links:
        print(f"    {anchor_text!r:30} -> {target_title!r}")
    print("  (note '[[federal government]]s': the trailing 's' joins the anchor)")

    print("\n=== 3. Redirects resolve to canonical titles ===")
    counters: Counter = Counter()
    articles, links = build_corpus(pages, counters)
    print("  ", {alias: a.title for a in articles for alias in sorted(a.aliases)})

    print("\n=== 4. The whole corpus assembles into articles + links ===")
    for article in articles:
        print(f"  id={article.id}  {article.title!r}  aliases={sorted(article.aliases)}")
    print("  links (source -> target via anchor):")
    for source, target, anchor in links:
        print(f"    {articles[source].title} -> {articles[target].title}  via {anchor!r}")
    print("  counters:", dict(counters))

    print("\n=== 5. Parallel links merge into one edge with an anchor multiset ===")
    network = DocumentNetwork.from_links(len(articles), links)
    dataset = Dataset(name="walkthrough", articles=articles, network=network)
    print(f"  {network.node_count} documents, {network.edge_count} edges")
    print("  dataset.save(<dir>) writes articles.jsonl + links.tsv")
    _ = dataset  # saved in real pipelines; see the README


if __name__ == "__main__":
    main()
