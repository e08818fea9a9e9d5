"""Round trips of the on-disk dataset formats."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wikilinks.anchors import CandidatePair
from wikilinks.dataset import (
    Dataset,
    escape_field,
    read_articles_jsonl,
    read_links_tsv,
    read_predictions_tsv,
    unescape_field,
    write_articles_jsonl,
    write_links_tsv,
    write_remap_tsv,
    write_samples_tsv,
)
from wikilinks.graph import DocumentNetwork
from wikilinks.ingest import Article

from conftest import write_predictions


def reference_unescape_field(text: str) -> str:
    """The per-character loop that ``unescape_field`` replaced."""
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "t":
                out.append("\t")
                i += 2
                continue
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt == "\\":
                out.append("\\")
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


class TestEscaping:
    def test_specials(self):
        assert escape_field("a\tb\nc\\d") == "a\\tb\\nc\\\\d"
        assert unescape_field("a\\tb\\nc\\\\d") == "a\tb\nc\\d"

    @given(st.text(max_size=200))
    def test_round_trip(self, text):
        assert unescape_field(escape_field(text)) == text

    @given(st.text(alphabet="\\tnx\t\n", max_size=40) | st.text(max_size=80))
    def test_unescape_matches_reference(self, text):
        assert unescape_field(text) == reference_unescape_field(text)

    @pytest.mark.parametrize("text", ["", "\\", "a\\", "\\\\\\", "\\x\\t", "\\\\t", "\\\\\\n"])
    def test_unescape_named_cases(self, text):
        assert unescape_field(text) == reference_unescape_field(text)

    def test_escaped_field_has_no_raw_separators(self):
        escaped = escape_field("x\ty\nz")
        assert "\t" not in escaped and "\n" not in escaped


class TestArticlesJsonl:
    def test_round_trip(self, tmp_path):
        articles = [
            Article(id=0, title="Alpha", abstract="text with ünicode", aliases={"A"}),
            Article(id=1, title="Beta", abstract="", aliases=set()),
        ]
        path = tmp_path / "articles.jsonl"
        write_articles_jsonl(path, articles)
        assert read_articles_jsonl(path) == articles

    def test_non_contiguous_ids_rejected(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        path.write_text(
            '{"id": 0, "title": "A", "abstract": "", "aliases": []}\n'
            '{"id": 2, "title": "B", "abstract": "", "aliases": []}\n'
        )
        with pytest.raises(ValueError):
            read_articles_jsonl(path)


class TestLinksTsv:
    def test_round_trip_preserves_anchor_multiset(self, tmp_path):
        links = [(0, 1, "one"), (0, 1, "one"), (0, 1, "two\twith tab"), (1, 2, "x\ny")]
        path = tmp_path / "links.tsv"
        write_links_tsv(path, links)
        got = list(read_links_tsv(path))
        assert sorted(got) == sorted(links)
        net = DocumentNetwork.from_links(3, got)
        assert dict(net.edge_items())[(0, 1)] == ("one", "one", "two\twith tab")


class TestRemapTsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "remap.tsv"
        write_remap_tsv(path, {10: 0, 3: 1, 7: 2})
        assert path.read_text(encoding="utf-8") == "3\t1\n7\t2\n10\t0\n"


class TestSamplesTsv:
    def test_round_trip_labels_and_strings(self, tmp_path):
        samples = {
            0: [
                CandidatePair(0, 1, (("alpha beta", (0, 10)),), label=True),
                CandidatePair(0, 2, (("x", (3, 4)), ("y\tz", (5, 8))), label=False),
            ],
            1: [],
        }
        path = tmp_path / "samples.tsv"
        write_samples_tsv(path, samples)
        assert path.read_text(encoding="utf-8") == "0\t1\t1\talpha beta\n0\t2\t0\tx|y\\tz\n"


class TestPredictionsTsv:
    def test_round_trip_exact_floats(self, tmp_path):
        predictions = [(0, 1, 0.1234567890123456), (2, 3, 1.0), (4, 5, 0.0)]
        path = tmp_path / "predictions.tsv"
        write_predictions(path, predictions)
        assert list(read_predictions_tsv(path)) == predictions


class TestDataset:
    def test_save_load_round_trip(self, tmp_path, tiny_dataset):
        tiny_dataset.save(tmp_path / "ds")
        loaded = Dataset.load(tmp_path / "ds")
        assert loaded.articles == tiny_dataset.articles
        assert set(loaded.network.edges()) == set(tiny_dataset.network.edges())
        assert dict(loaded.network.edge_items()) == dict(tiny_dataset.network.edge_items())

    def test_idempotent_save(self, tmp_path, tiny_dataset):
        tiny_dataset.save(tmp_path / "a")
        tiny_dataset.save(tmp_path / "b")
        for name in ("articles.jsonl", "links.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_node_count_must_match_articles(self):
        with pytest.raises(ValueError):
            Dataset(
                name="bad",
                articles=[Article(id=0, title="A", abstract="")],
                network=DocumentNetwork(3, {}),
            )

    def test_resolve_title_handles_aliases(self, tiny_dataset):
        uk = tiny_dataset.resolve_title("United Kingdom")
        assert tiny_dataset.resolve_title("UK") == uk
        assert tiny_dataset.resolve_title("uk") is None  # titles are case-preserving
        assert tiny_dataset.resolve_title("No Such Page") is None
