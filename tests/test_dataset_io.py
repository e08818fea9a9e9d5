"""Round trips of the on-disk dataset formats."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from wikilinks.ingest import Article, render_abstract

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
            if nxt == "r":
                out.append("\r")
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

    @given(st.text(alphabet="\\tnrx\t\n\r", max_size=40) | st.text(max_size=80))
    def test_unescape_matches_reference(self, text):
        assert unescape_field(text) == reference_unescape_field(text)

    @pytest.mark.parametrize(
        "text", ["", "\\", "a\\", "\\\\\\", "\\x\\t", "\\\\t", "\\\\\\n", "\\r", "\\\\r"]
    )
    def test_unescape_named_cases(self, text):
        assert unescape_field(text) == reference_unescape_field(text)

    def test_escaped_field_has_no_raw_separators(self):
        # Text mode ends a line at a bare carriage return, so it is escaped
        # like the newline.
        escaped = escape_field("x\ty\nz\rw")
        assert "\t" not in escaped and "\n" not in escaped and "\r" not in escaped
        assert escaped == "x\\ty\\nz\\rw"


# Quotes, backslashes, control characters, the line and paragraph
# separators, a non-BMP character, letters and spaces. Lone surrogates
# are left out: UTF-8 cannot encode them.
json_text = st.text(
    alphabet=st.sampled_from('"\\\x00\x01\x1f\x7f\t\n\r\b\f\u2028\u2029\U0001f600aé /<>'),
    max_size=12,
)


class TestArticlesJsonl:
    def test_round_trip(self, tmp_path):
        articles = [
            Article(id=0, title="Alpha", abstract="text with ünicode", aliases={"A"}),
            Article(id=1, title="Beta", abstract="", aliases=set()),
        ]
        path = tmp_path / "articles.jsonl"
        write_articles_jsonl(path, articles)
        assert read_articles_jsonl(path) == articles

    @given(
        articles=st.lists(
            st.tuples(json_text, json_text, st.sets(json_text, max_size=4)), max_size=4
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_lines_equal_json_dumps(self, tmp_path_factory, articles):
        articles = [
            Article(id=i, title=title, abstract=abstract, aliases=aliases)
            for i, (title, abstract, aliases) in enumerate(articles)
        ]
        path = tmp_path_factory.mktemp("jsonl") / "articles.jsonl"
        write_articles_jsonl(path, articles)
        expected = "".join(
            json.dumps(
                {"id": a.id, "title": a.title, "abstract": a.abstract, "aliases": sorted(a.aliases)},
                ensure_ascii=False,
            )
            + "\n"
            for a in articles
        )
        assert path.read_text(encoding="utf-8") == expected
        assert read_articles_jsonl(path) == articles

    def test_non_contiguous_ids_rejected(self, tmp_path):
        path = tmp_path / "articles.jsonl"
        path.write_text(
            '{"id": 0, "title": "A", "abstract": "", "aliases": []}\n'
            '{"id": 2, "title": "B", "abstract": "", "aliases": []}\n'
        )
        with pytest.raises(ValueError, match=r"^articles\.jsonl line 2: article id 2 where 1 was"):
            read_articles_jsonl(path)

    def test_invalid_json_names_the_file_and_line(self, tmp_path):
        # A record cut inside its abstract: json reads the line's newline
        # as a raw control character in the string.
        path = tmp_path / "articles.jsonl"
        path.write_text(
            '{"id": 0, "title": "A", "abstract": "", "aliases": []}\n\n'
            '{"id": 1, "title": "B", "abstract": "cut\n',
            encoding="utf-8",
        )
        with pytest.raises(
            ValueError, match=r"^articles\.jsonl line 3: Invalid control character at: column 41$"
        ):
            read_articles_jsonl(path)

    def test_non_utf8_byte_names_the_file_and_line(self, tmp_path):
        # A Latin-1 é: the lead byte of a three-byte sequence, then a space.
        path = tmp_path / "articles.jsonl"
        path.write_bytes(
            b'{"id": 0, "title": "A", "abstract": "", "aliases": []}\n'
            b'{"id": 1, "title": "B", "abstract": "caf\xe9 au lait", "aliases": []}\n'
        )
        with pytest.raises(
            ValueError,
            match=r"^articles\.jsonl line 2: 'utf-8' codec can't decode byte 0xe9 in position 40: "
                  r"invalid continuation byte$",
        ):
            read_articles_jsonl(path)


class TestLinksTsv:
    def test_round_trip_preserves_anchor_multiset(self, tmp_path):
        # Text mode ends a line at a bare carriage return too.
        links = [(0, 1, "one"), (0, 1, "one"), (0, 1, "two\twith tab"), (1, 2, "x\ny"),
                 (2, 0, "a\rb")]
        path = tmp_path / "links.tsv"
        write_links_tsv(path, DocumentNetwork.from_links(3, links))
        got = list(read_links_tsv(path))
        assert sorted(got) == sorted(links)
        net = DocumentNetwork.from_links(3, got)
        assert dict(net.edge_items())[(0, 1)] == ("one", "one", "two\twith tab")

    @pytest.mark.parametrize(
        "line, message",
        [("1\t2", r"not enough values to unpack \(expected 3, got 2\)"),
         ("1\tx\tthree", r"invalid literal for int\(\) with base 10: 'x'")],
        ids=["two-fields", "non-integer-target"],
    )
    def test_malformed_line_names_the_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "links.tsv"
        path.write_text(f"0\t1\tone\n\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^links\.tsv line 3: {message}$"):
            list(read_links_tsv(path))

    def test_non_utf8_byte_names_the_file_and_line(self, tmp_path):
        # Text mode decodes the whole small file at once, so the decoder's
        # own position would count bytes into the file, not into the line.
        path = tmp_path / "links.tsv"
        path.write_bytes("0\t1\tone\n".encode() * 96 + b"0\t1\tab\xffc\n")
        with pytest.raises(
            ValueError,
            match=r"^links\.tsv line 97: 'utf-8' codec can't decode byte 0xff in position 6: "
                  r"invalid start byte$",
        ):
            list(read_links_tsv(path))


class TestRemapTsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "remap.tsv"
        write_remap_tsv(path, {10: 0, 3: 1, 7: 2})
        assert path.read_text(encoding="utf-8") == "3\t1\n7\t2\n10\t0\n"


class TestSamplesTsv:
    def test_round_trip_labels_and_strings(self, tmp_path):
        candidates = {0: {1: ("alpha beta",), 2: ("x", "y\tz\r")}, 1: {}}
        network = DocumentNetwork.from_links(3, [(0, 1, "alpha beta")])
        path = tmp_path / "samples.tsv"
        write_samples_tsv(path, candidates, network)
        assert path.read_bytes() == b"0\t1\t1\talpha beta\n0\t2\t0\tx|y\\tz\\r\n"


def split_sample_anchors(field: str) -> list[str]:
    """The anchors of a ``samples.tsv`` anchors column: split at each '|'
    that no backslash escapes, then undo the escapes."""
    unescapes = {"\\\\": "\\", "\\t": "\t", "\\n": "\n", "\\r": "\r", "\\|": "|"}
    anchors, current = [], []
    for token in re.findall(r"\\[\\tnr|]|\||[^\\|]+", field):
        if token == "|":
            anchors.append("".join(current))
            current = []
        else:
            current.append(unescapes.get(token, token))
    anchors.append("".join(current))
    return anchors


class TestSampleAnchors:
    def test_piped_anchor_differs_from_two_anchors(self, tmp_path):
        # MediaWiki renders "[[Alpha|beta|gamma]]" as "beta|gamma".
        _, links = render_abstract("see [[Alpha|beta|gamma]]")
        assert links == [("Alpha", "beta|gamma")]
        network = DocumentNetwork.from_links(3, [])
        path = tmp_path / "samples.tsv"
        write_samples_tsv(path, {0: {1: ("beta|gamma",), 2: ("beta", "gamma")}}, network)
        assert path.read_text(encoding="utf-8") == "0\t1\t0\tbeta\\|gamma\n0\t2\t0\tbeta|gamma\n"

    @given(
        st.lists(
            st.lists(st.text(alphabet="ab|\\\t\n\rtnr ", max_size=6), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_written_field_splits_back(self, tmp_path_factory, anchor_lists):
        candidates = {0: {t: tuple(anchors) for t, anchors in enumerate(anchor_lists)}}
        network = DocumentNetwork.from_links(len(anchor_lists), [])
        path = tmp_path_factory.mktemp("samples") / "samples.tsv"
        write_samples_tsv(path, candidates, network)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines.pop() == ""
        fields = [line.split("\t")[3] for line in lines]
        assert [split_sample_anchors(field) for field in fields] == anchor_lists


class TestPredictionsTsv:
    def test_round_trip_exact_floats(self, tmp_path):
        predictions = [(0, 1, 0.1234567890123456), (2, 3, 1.0), (4, 5, 0.0)]
        path = tmp_path / "predictions.tsv"
        write_predictions(path, predictions)
        assert list(read_predictions_tsv(path)) == predictions

    def test_malformed_line_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "predictions.tsv"
        path.write_text("0\t1\t0.5\n0\t2\tabc\n", encoding="utf-8")
        with pytest.raises(
            ValueError, match=r"^predictions\.tsv line 2: could not convert string to float: 'abc'$"
        ):
            list(read_predictions_tsv(path))

    def test_repeated_pair_names_the_file_and_line(self, tmp_path):
        # A later score for the same directed pair would silently replace
        # the first one.
        path = tmp_path / "predictions.tsv"
        path.write_text("0\t1\t0.9\n1\t0\t0.5\n\n0\t1\t0.1\n", encoding="utf-8")
        with pytest.raises(
            ValueError, match=r"^predictions\.tsv line 4: pair \(0, 1\) is scored on an earlier line$"
        ):
            list(read_predictions_tsv(path))

    @pytest.mark.parametrize("score", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_score_that_is_not_finite_names_the_file_and_line(self, tmp_path, score):
        # float() reads these, but no ranking can place them.
        path = tmp_path / "predictions.tsv"
        path.write_text(f"0\t1\t0.5\n\n1\t0\t{score}\n", encoding="utf-8")
        with pytest.raises(
            ValueError, match=rf"^predictions\.tsv line 3: score {score} is not finite$"
        ):
            list(read_predictions_tsv(path))

    def test_non_utf8_byte_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "predictions.tsv"
        path.write_bytes(b"0\t1\t0.5\n\n0\t2\t0.\xff\n")
        with pytest.raises(
            ValueError,
            match=r"^predictions\.tsv line 3: 'utf-8' codec can't decode byte 0xff in position 6: "
                  r"invalid start byte$",
        ):
            list(read_predictions_tsv(path))


class TestDataset:
    def test_save_load_round_trip(self, tmp_path, tiny_dataset):
        tiny_dataset.save(tmp_path / "ds")
        loaded = Dataset.load(tmp_path / "ds")
        assert loaded.articles == tiny_dataset.articles
        assert set(loaded.network.edges()) == set(tiny_dataset.network.edges())
        assert dict(loaded.network.edge_items()) == dict(tiny_dataset.network.edge_items())

    def test_carriage_return_in_anchor_round_trips(self, tmp_path):
        articles = [Article(id=0, title="A", abstract="a b"), Article(id=1, title="B", abstract="")]
        dataset = Dataset("cr", articles, DocumentNetwork.from_links(2, [(0, 1, "a\rb")]))
        dataset.save(tmp_path / "cr")
        loaded = Dataset.load(tmp_path / "cr")
        assert dict(loaded.network.edge_items()) == {(0, 1): ("a\rb",)}
        assert loaded.articles == articles

    def test_crlf_copy_loads_to_the_same_dataset(self, tmp_path, tiny_dataset):
        # A copy whose lines end in "\r\n", as a Windows checkout or editor
        # may leave it; no anchor may keep the "\r".
        tiny_dataset.save(tmp_path / "lf")
        (tmp_path / "crlf").mkdir()
        for name in ("articles.jsonl", "links.tsv"):
            data = (tmp_path / "lf" / name).read_bytes()
            (tmp_path / "crlf" / name).write_bytes(data.replace(b"\n", b"\r\n"))
        lf, crlf = Dataset.load(tmp_path / "lf"), Dataset.load(tmp_path / "crlf")
        assert crlf.articles == lf.articles
        assert dict(crlf.network.edge_items()) == dict(lf.network.edge_items())

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
