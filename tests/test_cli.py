"""CLI commands: ingest, subgraph, dataset-stats, eval, report."""

from __future__ import annotations

import bz2
import gzip
import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest

from wikilinks.cli import EXIT_OK, EXIT_USAGE, _EVAL_KEYS, _eval_settings, _read_config, main
from wikilinks.dataset import Dataset
from wikilinks.deepwalk import DeepWalkParams
from wikilinks.evaluation import EvalConfig, run_eval
from wikilinks.graph import DocumentNetwork, personalized_pagerank, topk_subgraph
from wikilinks.predictors import METHOD_NAMES, ExternalFileMethod
from wikilinks.synthetic import PlantedCorpusParams, planted_dump_xml

from conftest import TINY_DUMP, write_predictions


@pytest.fixture()
def tiny_dump_file(tmp_path):
    path = tmp_path / "dump.xml"
    path.write_text(TINY_DUMP, encoding="utf-8")
    return path


@pytest.fixture()
def tiny_data_dir(tmp_path, tiny_dump_file):
    out = tmp_path / "data"
    assert main(["ingest", "--dump", str(tiny_dump_file), "--out", str(out)]) == EXIT_OK
    return out


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("name", ["tiny_dump", "unicode_dump", "format_dump"])
def test_ingest_and_stats_outputs_are_pinned(tmp_path, tiny_dump_file, capsys, name):
    # Every byte ingest and dataset-stats print and write is pinned, and
    # so are the title-map candidates, which no command writes.
    # unicode_dump holds the non-ASCII whitespace, letters and dashes
    # that no benchmark workload has; format_dump holds soft hyphens,
    # left-to-right marks, zero-width joiners and byte order marks, the
    # format characters that make ingested text not printable.
    dump = tiny_dump_file if name == "tiny_dump" else DATA / name / "dump.xml"
    out, samples = tmp_path / "out", tmp_path / "samples.tsv"
    assert main(["ingest", "--dump", str(dump), "--out", str(out)]) == EXIT_OK
    assert main(["dataset-stats", "--data", str(out), "--samples-out", str(samples)]) == EXIT_OK
    golden = DATA / name
    assert capsys.readouterr().out == (golden / "stdout").read_text(encoding="utf-8")
    for written in (out / "articles.jsonl", out / "links.tsv", samples):
        assert written.read_bytes() == (golden / written.name).read_bytes(), written.name
    # The title-map candidates: per source, its sorted target ids.
    dataset = Dataset.load(out)
    targets = dataset.title_candidates()
    lines = [f"{s}\t{' '.join(map(str, sorted(targets[s])))}\n" for s in sorted(targets)]
    assert "".join(lines) == (golden / "title_candidates.tsv").read_text(encoding="utf-8")
    if name == "format_dump":
        assert all(not a.abstract.isprintable() for a in dataset.articles)


class TestIngestCommand:
    def test_writes_dataset_and_prints_counts(self, tmp_path, tiny_dump_file, capsys):
        out = tmp_path / "ds"
        code = main(["ingest", "--dump", str(tiny_dump_file), "--out", str(out)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "pages: 8" in printed
        assert "articles: 6" in printed
        assert "links:" in printed and "warnings:" in printed
        assert (out / "articles.jsonl").exists()
        assert (out / "links.tsv").exists()

    def test_bz2_dump_accepted(self, tmp_path):
        dump = tmp_path / "dump.xml.bz2"
        dump.write_bytes(bz2.compress(TINY_DUMP.encode("utf-8")))
        assert main(["ingest", "--dump", str(dump), "--out", str(tmp_path / "o")]) == EXIT_OK

    def test_empty_mainspace_dump(self, tmp_path, capsys):
        dump = tmp_path / "empty.xml"
        dump.write_text(
            '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">'
            "<page><title>Category:X</title><ns>14</ns><id>1</id>"
            "<revision><id>1</id><text>x</text></revision></page></mediawiki>"
        )
        out = tmp_path / "o"
        assert main(["ingest", "--dump", str(dump), "--out", str(out)]) == EXIT_OK
        assert (out / "articles.jsonl").read_text() == ""
        assert "articles: 0" in capsys.readouterr().out

    def test_unreadable_dump_exits_2(self, tmp_path, capsys):
        code = main(["ingest", "--dump", str(tmp_path / "nope.xml"), "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_dump_that_is_a_directory_exits_2_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "o"
        for dump in (tmp_path / "dump", tmp_path / "dump.xml.bz2"):
            dump.mkdir()
            assert main(["ingest", "--dump", str(dump), "--out", str(out)]) == EXIT_USAGE
            assert capsys.readouterr().err == f"error: dump is a directory: {dump}\n"
        assert not out.exists()

    def test_malformed_xml_exits_2(self, tmp_path, capsys):
        dump = tmp_path / "broken.xml"
        dump.write_text("<mediawiki><page><title>X</title>")
        code = main(["ingest", "--dump", str(dump), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: malformed dump XML: no element found: line 1, column 33\n"
        )

    @pytest.mark.parametrize(
        ("name", "content"),
        [
            ("not-gzip.xml.gz", lambda raw: raw),
            ("truncated.xml.gz", lambda raw: gzip.compress(raw)[:60]),
            ("truncated.xml.bz2", lambda raw: bz2.compress(raw)[:60]),
            ("garbage.xml.bz2", lambda raw: b"BZh9" + bytes(range(200))),
        ],
        ids=["not-gzip", "truncated-gz", "truncated-bz2", "bz2-garbage"],
    )
    def test_corrupt_compressed_dump_exits_2_with_one_line(self, tmp_path, capsys, name, content):
        dump = tmp_path / name
        dump.write_bytes(content(TINY_DUMP.encode("utf-8")))
        out = tmp_path / "o"
        assert main(["ingest", "--dump", str(dump), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read dump {dump}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_idempotent_outputs(self, tmp_path, tiny_dump_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["ingest", "--dump", str(tiny_dump_file), "--out", str(out_a)])
        main(["ingest", "--dump", str(tiny_dump_file), "--out", str(out_b)])
        for name in ("articles.jsonl", "links.tsv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSubgraphCommand:
    def test_full_k_identity_export(self, tmp_path, tiny_data_dir):
        out = tmp_path / "sub"
        code = main([
            "subgraph", "--data", str(tiny_data_dir),
            "--seed-article", "Abraham Lincoln", "--k", "6", "--out", str(out),
        ])
        assert code == EXIT_OK
        original = Dataset.load(tiny_data_dir)
        sub = Dataset.load(out)
        assert sub.network.node_count == original.network.node_count
        assert sub.network.edge_count == original.network.edge_count
        remap_lines = (out / "remap.tsv").read_text(encoding="utf-8").splitlines()
        assert [int(line.split("\t")[0]) for line in remap_lines] == list(range(6))

    def test_seed_via_redirect_alias(self, tmp_path, tiny_data_dir):
        out = tmp_path / "sub"
        code = main([
            "subgraph", "--data", str(tiny_data_dir),
            "--seed-article", "UK", "--k", "3", "--out", str(out),
        ])
        assert code == EXIT_OK
        sub = Dataset.load(out)
        # The canonical article itself must be the top-ranked node.
        assert sub.articles[0].title == "United Kingdom"

    def test_unknown_seed_lists_near_misses(self, tmp_path, tiny_data_dir, capsys):
        code = main([
            "subgraph", "--data", str(tiny_data_dir),
            "--seed-article", "Abraham Lincon", "--k", "3", "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Abraham Lincoln" in err

    def test_matches_library_oracle(self, tmp_path, tiny_data_dir):
        out = tmp_path / "sub"
        main([
            "subgraph", "--data", str(tiny_data_dir),
            "--seed-article", "Abraham Lincoln", "--k", "3", "--out", str(out),
        ])
        dataset = Dataset.load(tiny_data_dir)
        seed = dataset.resolve_title("Abraham Lincoln")
        scores = personalized_pagerank(dataset.network, seed)
        titles = [a.title for a in dataset.articles]
        expected, old_to_new = topk_subgraph(dataset.network, scores.scores, 3, titles)
        sub = Dataset.load(out)
        assert (out / "remap.tsv").read_text(encoding="utf-8") == "".join(
            f"{old}\t{new}\n" for old, new in sorted(old_to_new.items())
        )
        assert set(sub.network.edges()) == set(expected.edges())

    @pytest.mark.parametrize(
        "flag, value, needle",
        [
            ("--k", "0", "--k must be at least 1"),
            ("--k", "-3", "--k must be at least 1"),
            ("--k", "7", "k=7 exceeds the 6 articles"),
            ("--damping", "1.5", "--damping must lie strictly between 0 and 1"),
            ("--damping", "0", "--damping must lie strictly between 0 and 1"),
            ("--damping", "1", "--damping must lie strictly between 0 and 1"),
            ("--damping", "nan", "--damping must lie strictly between 0 and 1"),
        ],
        ids=["k-zero", "k-negative", "k-above-n", "damping-above-1", "damping-zero",
             "damping-one", "damping-nan"],
    )
    def test_bad_flag_exits_2_with_one_line(
        self, tmp_path, tiny_data_dir, capsys, flag, value, needle
    ):
        out = tmp_path / "sub"
        flags = {"--k": "3", "--damping": "0.85", flag: value}
        argv = ["subgraph", "--data", str(tiny_data_dir), "--seed-article", "Abraham Lincoln",
                "--out", str(out)]
        for name, given in flags.items():
            argv += [name, given]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, needle",
        [
            ("--k", "0", "--k must be at least 1"),
            ("--damping", "1.5", "--damping must lie strictly between 0 and 1"),
        ],
        ids=["k-zero", "damping-above-1"],
    )
    def test_bad_flag_reported_before_dataset_is_read(
        self, tmp_path, tiny_data_dir, capsys, flag, value, needle
    ):
        # A corrupt dataset and an unknown seed article: the flag error
        # comes first, so neither is read.
        (tiny_data_dir / "articles.jsonl").write_text("{not json\n", encoding="utf-8")
        out = tmp_path / "sub"
        argv = ["subgraph", "--data", str(tiny_data_dir), "--seed-article", "No Such Article",
                "--out", str(out), flag, value]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err
        assert not out.exists()


class TestDatasetStatsCommand:
    def test_prints_table_statistics(self, tiny_data_dir, capsys):
        assert main(["dataset-stats", "--data", str(tiny_data_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "documents: 6" in out
        assert "links:" in out and "%" in out
        assert "vocabulary:" in out
        assert "positives/doc:" in out

    def test_dataset_without_articles(self, tmp_path, capsys):
        data = tmp_path / "empty"
        data.mkdir()
        (data / "articles.jsonl").write_text("")
        (data / "links.tsv").write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["dataset-stats", "--data", str(data)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "documents: 0",
            "links: 0 (0.00%)",
            "vocabulary: 0",
            "doc length: 0.00 (0.00)",
            "positives/doc: 0.00 (0.00)",
            "negatives/doc: 0.00 (0.00)",
        ]


@pytest.fixture(scope="module")
def planted_data_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("planted")
    dump = tmp / "dump.xml"
    dump.write_text(
        planted_dump_xml(PlantedCorpusParams(topics=3, docs_per_topic=8, seed=5)),
        encoding="utf-8",
    )
    out = tmp / "data"
    assert main(["ingest", "--dump", str(dump), "--out", str(out)]) == EXIT_OK
    return out


def _eval_config(tmp_path, data_dir, **overrides) -> str:
    config = {
        "data": str(data_dir),
        "methods": ["random"],
        "runs": 2,
        "base_seed": 0,
        "dimension": 16,
        "deepwalk": {
            "walks_per_node": 4, "walk_length": 8, "window": 3,
            "negatives": 3, "dimension": 16,
        },
        "atilp_positives": 100,
        "atilp_negatives": 100,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


class TestEvalCommand:
    def test_random_only_report(self, tmp_path, planted_data_dir, capsys):
        out = tmp_path / "results"
        config = _eval_config(tmp_path, planted_data_dir, out=str(out))
        assert main(["eval", "--config", config]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert {r["method"] for r in report} == {"random"}
        assert {r["mode"] for r in report} == {"inductive", "transductive"}
        for record in report:
            # Random AP sits near the positive prevalence, far below 100.
            assert 0.0 < record["auc_mean"] < 90.0
            assert record["runs"] == 2
            assert record["split_hash"]
        assert "random" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path, planted_data_dir):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        config_a = _eval_config(tmp_path, planted_data_dir, out=str(out_a))
        assert main(["eval", "--config", config_a]) == EXIT_OK
        config_b = _eval_config(tmp_path, planted_data_dir, out=str(out_b))
        assert main(["eval", "--config", config_b]) == EXIT_OK

        def written(out):
            return {path.relative_to(out): path.read_bytes()
                    for path in out.rglob("*") if path.is_file()}

        files = written(out_a)
        # report.json, report.md, and a test_pairs.tsv and a train_links.tsv
        # under splits/ for each of two runs and two modes.
        assert len(files) == 2 + 2 * 2 * 2
        assert written(out_b) == files

    def test_rerun_with_fewer_runs_leaves_no_stale_splits(self, tmp_path, planted_data_dir):
        out = tmp_path / "results"
        config = _eval_config(tmp_path, planted_data_dir, out=str(out))
        assert main(["eval", "--config", config, "--runs", "4"]) == EXIT_OK
        assert main(["eval", "--config", config, "--runs", "2"]) == EXIT_OK
        assert sorted(p.name for p in (out / "splits").iterdir()) == ["run_0", "run_1"]
        report = json.loads((out / "report.json").read_text())
        assert {record["runs"] for record in report} == {2}

    def test_full_method_set_and_modes(self, tmp_path, planted_data_dir):
        out = tmp_path / "full"
        config = _eval_config(
            tmp_path, planted_data_dir, out=str(out),
            methods=["random", "at_title", "at_anchor", "lsa", "deepwalk", "atilp"],
        )
        assert main(["eval", "--config", config]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        dw_modes = {r["mode"] for r in report if r["method"] == "deepwalk"}
        assert dw_modes == {"transductive"}

    def test_external_predictions_evaluated(self, tmp_path, planted_data_dir):
        dataset = Dataset.load(planted_data_dir)
        n = dataset.network.node_count
        scores_path = tmp_path / "external.tsv"
        write_predictions(
            scores_path,
            ((s, t, ((s + t) % 10) / 10) for s in range(n) for t in range(n) if s != t),
        )
        out = tmp_path / "ext"
        config = _eval_config(
            tmp_path, planted_data_dir, out=str(out),
            methods=["random"], external_methods={"offline": str(scores_path)},
        )
        assert main(["eval", "--config", config]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert {r["method"] for r in report} == {"random", "offline"}

    @pytest.mark.parametrize(
        "content", ["a\tb\tc\n", "0\t1\n"], ids=["non-numeric-fields", "two-columns"]
    )
    def test_malformed_predictions_exit_2_with_one_line(
        self, tmp_path, planted_data_dir, capsys, content
    ):
        scores_path = tmp_path / "bad.tsv"
        scores_path.write_text(content, encoding="utf-8")
        config = _eval_config(
            tmp_path, planted_data_dir, external_methods={"offline": str(scores_path)}
        )
        assert main(["eval", "--config", config]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"cannot read predictions for 'offline' from {scores_path}: bad.tsv line 1: " in err

    def test_repeated_prediction_pair_exits_2_with_one_line(
        self, tmp_path, planted_data_dir, capsys
    ):
        scores_path = tmp_path / "twice.tsv"
        scores_path.write_text("0\t1\t0.9\n0\t1\t0.1\n", encoding="utf-8")
        config = _eval_config(
            tmp_path, planted_data_dir, external_methods={"offline": str(scores_path)}
        )
        assert main(["eval", "--config", config]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: cannot read predictions for 'offline' from {scores_path}: "
            f"twice.tsv line 2: pair (0, 1) is scored on an earlier line\n"
        )

    @pytest.mark.parametrize("score", ["nan", "inf", "-Infinity"])
    def test_prediction_that_is_not_finite_exits_2_with_one_line(
        self, tmp_path, planted_data_dir, capsys, score
    ):
        # Before any run, whether or not a test pair would meet the score.
        scores_path = tmp_path / "odd.tsv"
        scores_path.write_text(f"0\t1\t0.9\n1\t0\t{score}\n", encoding="utf-8")
        config = _eval_config(
            tmp_path, planted_data_dir, external_methods={"offline": str(scores_path)}
        )
        assert main(["eval", "--config", config]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: cannot read predictions for 'offline' from {scores_path}: "
            f"odd.tsv line 2: score {score} is not finite\n"
        )

    def test_invalid_config_rejected(self, tmp_path, planted_data_dir, capsys):
        config = _eval_config(tmp_path, planted_data_dir, runs=0)
        assert main(["eval", "--config", config]) == EXIT_USAGE
        config = _eval_config(tmp_path, planted_data_dir, transductive_ratio=2.0)
        assert main(["eval", "--config", config]) == EXIT_USAGE
        bad_keys = tmp_path / "bad.json"
        bad_keys.write_text('{"no_such_key": 1}')
        assert main(["eval", "--config", str(bad_keys)]) == EXIT_USAGE

    def test_missing_dataset_exits_2(self, tmp_path):
        config = _eval_config(tmp_path, tmp_path / "missing")
        assert main(["eval", "--config", config]) == EXIT_USAGE


class TestReportCommand:
    def test_renders_markdown(self, tmp_path, planted_data_dir, capsys):
        out = tmp_path / "results"
        config = _eval_config(tmp_path, planted_data_dir, out=str(out),
                              methods=["random", "deepwalk"])
        assert main(["eval", "--config", config]) == EXIT_OK
        capsys.readouterr()
        assert main(["report", "--report", str(out / "report.json")]) == EXIT_OK
        table = capsys.readouterr().out
        assert "random" in table and "deepwalk" in table
        assert "—" in table  # DW inductive dash

    def test_output_equals_report_md_when_a_mode_has_no_record(
        self, tmp_path, planted_data_dir, capsys
    ):
        out = tmp_path / "results"
        config = _eval_config(tmp_path, planted_data_dir, out=str(out), methods=["deepwalk"])
        assert main(["eval", "--config", config, "--mode", "both"]) == EXIT_OK
        capsys.readouterr()
        assert main(["report", "--report", str(out / "report.json")]) == EXIT_OK
        table = capsys.readouterr().out
        assert "Transductive AUC" in table and "Inductive" not in table
        assert table == (out / "report.md").read_text(encoding="utf-8")

    def test_missing_report_exits_2(self, tmp_path):
        assert main(["report", "--report", str(tmp_path / "nope.json")]) == EXIT_USAGE

    def test_output_equals_report_md_with_failure_rows(self, tmp_path, planted_data_dir, capsys):
        from wikilinks.cli import EXIT_PARTIAL

        n = Dataset.load(planted_data_dir).network.node_count
        scores_path = tmp_path / "bad.tsv"
        write_predictions(
            scores_path, ((s, t, 2.0) for s in range(n) for t in range(n) if s != t)
        )
        out = tmp_path / "results"
        config = _eval_config(
            tmp_path, planted_data_dir, out=str(out),
            methods=["random", "deepwalk"], external_methods={"bad": str(scores_path)},
        )
        assert main(["eval", "--config", config]) == EXIT_PARTIAL
        capsys.readouterr()
        assert main(["report", "--report", str(out / "report.json")]) == EXIT_OK
        table = capsys.readouterr().out
        assert "| bad | failed | failed | failed | failed | failed | failed |" in table
        assert table == (out / "report.md").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "command, content, needle",
    [
        ("report", "{not json", "malformed report"),
        ("report", "[1, 2]", "malformed report"),
        ("report", '[{"dataset": "d", "mode": 5, "method": "m", "auc_mean": 1.0, "auc_std": 0.0, "p_mean": 1.0, "p_std": 0.0, "r_mean": 1.0, "r_std": 0.0, "runs": 1, "split_hash": "h"}]', "record 0 has unknown mode 5"),
        ("eval", '["data", "runs"]', "must be a JSON object"),
        ("eval", '{"runs": "2"}', "runs"),
        ("eval", '{"transductive_ratio": "0.1"}', "transductive_ratio"),
        ("eval", '{"base_seed": -1}', "base_seed"),
        ("eval", '{"methods": ["nosuch"]}', "unknown method 'nosuch'"),
        ("eval", '{"deepwalk": {"walkz": 1}}', "walkz"),
        ("eval", '{"deepwalk": {"negatives": -1}}', "deepwalk.negatives"),
        ("eval", '{"deepwalk": {"walk_length": "20"}}', "deepwalk.walk_length"),
        ("eval", '{"deepwalk": {"window": 0}}', "deepwalk.window"),
        # Settings of earlier versions, fixed since: the rate at 0.025, the
        # walks undirected. A value once valid is an unknown key as well.
        ("eval", '{"deepwalk": {"learning_rate": 0}}',
         "error: unknown deepwalk keys: learning_rate\n"),
        ("eval", '{"deepwalk": {"undirected": 1}}', "error: unknown deepwalk keys: undirected\n"),
        ("eval", '{"deepwalk": {"learning_rate": 0.025}}',
         "error: unknown deepwalk keys: learning_rate\n"),
        ("eval", '{"deepwalk": {"undirected": false}}',
         "error: unknown deepwalk keys: undirected\n"),
        ("eval", '{"methods": ["lsa", "lsa"]}', "method 'lsa' is listed twice"),
        ("eval", '{"methods": ["random"], "external_methods": {"random": "p.tsv"}}',
         "method 'random' is listed twice"),
        ("eval", '{"methods": []}', "no methods to evaluate"),
        ("eval", '{"dimension": 0}', "error: dimension must be at least 1"),
        ("eval", '{"atilp_negatives": true}', "atilp_negatives must be an integer, got True"),
        ("eval", '{"base_seed": 1.5}', "base_seed must be an integer, got 1.5"),
        ("eval", '{"transductive_ratio": NaN}',
         "transductive_ratio must lie strictly between 0 and 1"),
        ("eval", '{"modes": ["inductive"]}', "error: unknown config keys: modes"),
        ("eval", '{"settings": {"runs": 2}}', "error: unknown config keys: settings"),
        # A flag's value meets the config value's check and message.
        ("eval --mode sideways", "{}", "error: mode must be transductive, inductive or both\n"),
        ("eval --mode ", "{}", "error: mode must be transductive, inductive or both\n"),
    ],
    ids=[
        "report-invalid-json", "report-list-of-numbers", "report-mode-not-a-string",
        "eval-config-list",
        "eval-runs-string", "eval-ratio-string", "eval-negative-seed", "eval-unknown-method",
        "eval-deepwalk-unknown-key", "eval-deepwalk-negatives-negative",
        "eval-deepwalk-walk-length-string", "eval-deepwalk-window-zero",
        "eval-deepwalk-learning-rate-zero", "eval-deepwalk-undirected-int",
        "eval-deepwalk-learning-rate-key", "eval-deepwalk-undirected-key",
        "eval-method-twice", "eval-external-method-shadows-builtin", "eval-no-methods",
        "eval-dimension-zero", "eval-atilp-negatives-bool", "eval-fractional-seed",
        "eval-ratio-nan", "eval-modes-key", "eval-internal-settings-key",
        "eval-mode-flag-unknown", "eval-mode-flag-empty",
    ],
)
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, command, content, needle):
    path = tmp_path / "input.json"
    path.write_text(content, encoding="utf-8")
    flag = "--report" if command == "report" else "--config"
    # Flags follow the command, one space apart: "eval --mode " gives --mode "".
    assert main([*command.split(" "), flag, str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


@pytest.mark.parametrize(
    "line",
    [
        '[1, "B", "text", []]',
        '"an article"',
        '{"id": 1, "title": "B", "abstract": "text", "aliases": 5}',
        '{"id": 1, "title": "B", "abstract": null, "aliases": []}',
        '{"id": 1, "title": 7, "abstract": "text", "aliases": []}',
        '{"id": true, "title": "B", "abstract": "text", "aliases": []}',
        '{"id": 1, "title": "B", "abstract": "text", "aliases": ["C", 2]}',
    ],
    ids=["list", "string", "aliases-number", "abstract-null", "title-number", "id-bool",
         "alias-number"],
)
def test_malformed_article_record_exits_2_with_one_line(tmp_path, capsys, line):
    data = tmp_path / "data"
    data.mkdir()
    valid = '{"id": 0, "title": "A", "abstract": "text", "aliases": []}'
    (data / "articles.jsonl").write_text(f"{valid}\n{line}\n", encoding="utf-8")
    (data / "links.tsv").write_text("", encoding="utf-8")
    assert main(["dataset-stats", "--data", str(data)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "articles.jsonl line 2 is not an article record" in err


@pytest.mark.parametrize(
    "articles, links, needle",
    [
        ('{"id": 1, "title": "B", "abstract": "te', "",
         "articles.jsonl line 2: Unterminated string starting at: column 37"),
        ('{"id": 1, "title": "B", "abstract": "text", "aliases": []}', "0\t1\ta\n0\n",
         "links.tsv line 2: not enough values to unpack (expected 3, got 1)"),
    ],
    ids=["truncated-article", "one-field-link"],
)
def test_malformed_dataset_line_exits_2_naming_file_and_line(
    tmp_path, capsys, articles, links, needle
):
    data = tmp_path / "data"
    data.mkdir()
    valid = '{"id": 0, "title": "A", "abstract": "text", "aliases": []}'
    (data / "articles.jsonl").write_text(f"{valid}\n{articles}", encoding="utf-8")
    (data / "links.tsv").write_text(links, encoding="utf-8")
    assert main(["dataset-stats", "--data", str(data)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: cannot load dataset from {data}: {needle}\n"


def test_non_utf8_dataset_byte_exits_2_naming_file_and_line(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    (data / "articles.jsonl").write_text(
        '{"id": 0, "title": "A", "abstract": "text", "aliases": []}\n'
        '{"id": 1, "title": "B", "abstract": "text", "aliases": []}\n',
        encoding="utf-8",
    )
    (data / "links.tsv").write_bytes(b"0\t1\ta\n1\t0\tab\xffc\n")
    assert main(["dataset-stats", "--data", str(data)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (
        f"error: cannot load dataset from {data}: links.tsv line 2: 'utf-8' codec can't "
        f"decode byte 0xff in position 6: invalid start byte\n"
    )


@pytest.mark.parametrize(
    "config, flags, line",
    [
        ({"out": 5, "methods": "x"}, [], "out must be a string path"),
        ({"mode": "none", "deepwalk": 5}, [], "deepwalk must be a JSON object"),
        ({"mode": "none", "transductive_ratio": 2}, [],
         "mode must be transductive, inductive or both"),
        ({"deepwalk": {"walkz": 1}, "methods": ["nosuch"]}, [], "unknown deepwalk keys: walkz"),
        ({"deepwalk": {"window": 0}, "runs": 0}, [], "deepwalk.window must be at least 1"),
        ({"runs": 0, "data": "missing"}, [], "runs must be at least 1"),
        ({"bogus": 1, "runs": 0}, [], "unknown config keys: bogus"),
        ({"runs": 2}, ["--runs", "0"], "runs must be at least 1"),
    ],
    ids=["path-shape-before-methods", "deepwalk-shape-before-mode", "mode-before-ratio",
         "deepwalk-keys-before-method-names", "deepwalk-value-before-runs",
         "value-before-path", "unknown-key-before-value", "flag-over-config"],
)
def test_first_config_fault_is_the_one_reported(tmp_path, capsys, config, flags, line):
    # eval checks for unknown keys, then the JSON shapes, the values (mode
    # among them) and the paths, and names only the first fault it meets.
    if "data" in config:
        config["data"] = str(tmp_path / config["data"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["eval", "--config", str(path), *flags]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize(
    "key, value", [("dump", '"pages.xml"'), ("seed_articles", '["X"]'), ("k", "1000"),
                   ("damping", "0.85")],
)
def test_removed_config_fields_are_unknown_keys(tmp_path, capsys, key, value):
    # Only eval reads the config; ingest and subgraph take these values as flags.
    path = tmp_path / "config.json"
    path.write_text(f'{{"{key}": {value}}}', encoding="utf-8")
    assert main(["eval", "--config", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: unknown config keys: {key}\n"


def test_readme_experiment_json_builds_the_defaults(tmp_path):
    # README's experiment.json spells out every default and is the whole
    # schema: its keys but the method lists are EvalConfig's fields, in
    # order, and those under deepwalk DeepWalkParams'. Its one external
    # method aside, it must build exactly EvalConfig() and the method list.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^`experiment\.json`:\n\n```json\n(.*?)^```$", readme, re.M | re.S)
    raw = json.loads(block.group(1))
    assert [key for key in raw if key not in ("methods", "external_methods")] == [
        f.name for f in fields(EvalConfig)
    ]
    assert list(raw["deepwalk"]) == [f.name for f in fields(DeepWalkParams)]
    del raw["external_methods"]
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    config = {**_EVAL_KEYS, **_read_config(path)}
    assert _eval_settings(config) == EvalConfig()
    assert config["methods"] == list(METHOD_NAMES)

    # Any EvalConfig, its fields written as JSON, is a config that builds it.
    custom = EvalConfig(
        runs=3, base_seed=7, mode="inductive", transductive_ratio=0.25, inductive_ratio=0.3,
        dimension=32, deepwalk=DeepWalkParams(walks_per_node=2, walk_length=9, window=4,
                                              negatives=3, dimension=16),
        atilp_positives=50, atilp_negatives=60,
    )
    assert all(getattr(custom, f.name) != getattr(EvalConfig(), f.name)
               for f in fields(EvalConfig))
    path.write_text(json.dumps(asdict(custom)), encoding="utf-8")
    assert _eval_settings({**_EVAL_KEYS, **_read_config(path)}) == custom


@pytest.mark.parametrize(
    "overrides, flags, settings, external",
    [
        (dict(methods=list(METHOD_NAMES)), [], {}, False),
        (dict(methods=["random", "lsa"], mode="transductive", runs=1),
         ["--runs", "2", "--base-seed", "3"], dict(runs=2, base_seed=3, mode="transductive"),
         False),
        (dict(methods=["random", "atilp"], inductive_ratio=0.2), [], dict(inductive_ratio=0.2),
         True),
    ],
    ids=["all-methods-both-modes", "transductive-with-flags", "ratio-and-external-method"],
)
def test_eval_writes_what_run_eval_writes(
    tmp_path, planted_data_dir, overrides, flags, settings, external
):
    # The command line and the library build one EvalConfig: the same
    # settings write the same report.json, report.md and split files.
    predictions = {}
    if external:
        predictions["offline"] = str(tmp_path / "offline.tsv")
        n = Dataset.load(planted_data_dir).network.node_count
        write_predictions(predictions["offline"], ((s, t, ((s + t) % 10) / 10)
                                                   for s in range(n) for t in range(n) if s != t))
    config = _eval_config(tmp_path, planted_data_dir, external_methods=predictions, **overrides)
    cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
    assert main(["eval", "--config", config, "--out", str(cli_out), *flags]) == EXIT_OK

    methods = [*overrides["methods"], *(ExternalFileMethod(name, path)
                                        for name, path in predictions.items())]
    deepwalk = DeepWalkParams(walks_per_node=4, walk_length=8, window=3, negatives=3,
                              dimension=16)
    base = EvalConfig(runs=2, base_seed=0, dimension=16, deepwalk=deepwalk,
                      atilp_positives=100, atilp_negatives=100)
    run_eval(Dataset.load(planted_data_dir), methods, replace(base, **settings), out_dir=lib_out)

    def written(out):
        return {path.relative_to(out): path.read_bytes()
                for path in out.rglob("*") if path.is_file()}

    assert {"report.json", "report.md"} <= {str(path) for path in written(cli_out)}
    assert written(cli_out) == written(lib_out)


class TestUnusableOutputPath:
    """An output path that cannot be written exits 2 with one line before
    the command reads its input, and leaves what is there untouched."""

    @pytest.fixture()
    def blocker(self, tmp_path):
        path = tmp_path / "blocker"
        path.write_text("keep\n", encoding="utf-8")
        return path

    @staticmethod
    def _exits_2(argv, capsys, needle):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    def test_ingest_out_under_a_file(self, tmp_path, tiny_dump_file, blocker, capsys):
        for out in (blocker, blocker / "sub"):
            argv = ["ingest", "--dump", str(tiny_dump_file), "--out", str(out)]
            self._exits_2(argv, capsys, f"output path is not a directory: {blocker}")
        assert blocker.read_text(encoding="utf-8") == "keep\n"

    def test_subgraph_out_is_a_file(self, tiny_data_dir, blocker, capsys):
        argv = ["subgraph", "--data", str(tiny_data_dir), "--seed-article", "Abraham Lincoln",
                "--k", "3", "--out", str(blocker)]
        self._exits_2(argv, capsys, f"output path is not a directory: {blocker}")
        assert blocker.read_text(encoding="utf-8") == "keep\n"

    def test_dataset_stats_samples_out_in_missing_directory(self, tmp_path, tiny_data_dir, capsys):
        samples = tmp_path / "nodir" / "s.tsv"
        argv = ["dataset-stats", "--data", str(tiny_data_dir), "--samples-out", str(samples)]
        self._exits_2(argv, capsys, f"output directory not found: {samples.parent}")
        assert capsys.readouterr().out == ""
        assert not samples.parent.exists()

    @staticmethod
    def _files(directory: Path) -> dict[str, bytes]:
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    @pytest.mark.parametrize("spelling", ["same", "through-parent"])
    def test_subgraph_out_is_the_data_directory(self, tiny_data_dir, capsys, spelling):
        before = self._files(tiny_data_dir)
        out = tiny_data_dir if spelling == "same" else tiny_data_dir / ".." / tiny_data_dir.name
        argv = ["subgraph", "--data", str(tiny_data_dir), "--seed-article", "Abraham Lincoln",
                "--k", "3", "--out", str(out)]
        self._exits_2(argv, capsys, f"--out {out} would overwrite the dataset given by --data")
        assert self._files(tiny_data_dir) == before

    @pytest.mark.parametrize("name", ["articles.jsonl", "links.tsv"])
    def test_dataset_stats_samples_out_is_a_dataset_file(self, tiny_data_dir, capsys, name):
        before = self._files(tiny_data_dir)
        samples = tiny_data_dir / name
        argv = ["dataset-stats", "--data", str(tiny_data_dir), "--samples-out", str(samples)]
        self._exits_2(argv, capsys,
                      f"--samples-out {samples} would overwrite the dataset given by --data")
        assert capsys.readouterr().out == ""
        assert self._files(tiny_data_dir) == before

    def test_eval_out_is_a_file(self, tmp_path, planted_data_dir, blocker, capsys):
        config = _eval_config(tmp_path, planted_data_dir)
        self._exits_2(["eval", "--config", config, "--out", str(blocker)], capsys,
                      f"output path is not a directory: {blocker}")
        assert blocker.read_text(encoding="utf-8") == "keep\n"

    def test_eval_splits_is_a_file(self, tmp_path, planted_data_dir, blocker, capsys):
        out = tmp_path / "results"
        out.mkdir()
        splits = out / "splits"
        blocker.rename(splits)
        config = _eval_config(tmp_path, planted_data_dir)
        self._exits_2(["eval", "--config", config, "--out", str(out)], capsys,
                      f"output path is not a directory: {splits}")
        assert list(out.iterdir()) == [splits]
        assert splits.read_text(encoding="utf-8") == "keep\n"

    @pytest.mark.parametrize("name", ["report.json", "report.md"])
    def test_eval_report_is_a_directory(self, tmp_path, planted_data_dir, name, capsys):
        out = tmp_path / "results"
        (out / name).mkdir(parents=True)
        config = _eval_config(tmp_path, planted_data_dir)
        self._exits_2(["eval", "--config", config, "--out", str(out)], capsys,
                      f"output file is a directory: {out / name}")
        assert list(out.iterdir()) == [out / name]


# One path component longer than any file system allows: stat() fails
# with ENAMETOOLONG rather than reporting the path missing.
_TOO_LONG = "x" * 300


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--dump", "{long}", "--out", "{tmp}/o"],
        ["ingest", "--dump", "{dump}", "--out", "{long}"],
        ["subgraph", "--data", "{long}", "--seed-article", "Abraham Lincoln", "--out", "{tmp}/o"],
        ["subgraph", "--data", "{data}", "--seed-article", "Abraham Lincoln", "--k", "3",
         "--out", "{long}"],
        ["dataset-stats", "--data", "{long}"],
        ["dataset-stats", "--data", "{data}", "--samples-out", "{long}"],
        ["eval", "--config", "{config}", "--data", "{long}"],
        ["eval", "--config", "{config}", "--out", "{long}"],
        ["report", "--report", "{long}"],
    ],
    ids=["ingest-dump", "ingest-out", "subgraph-data", "subgraph-out", "dataset-stats-data",
         "dataset-stats-samples-out", "eval-data", "eval-out", "report-report"],
)
def test_path_the_os_rejects_exits_2_with_one_line(
    tmp_path, tiny_dump_file, tiny_data_dir, capsys, argv
):
    config = _eval_config(tmp_path, tiny_data_dir)
    long = str(tmp_path / _TOO_LONG / "leaf")
    argv = [arg.format(long=long, tmp=tmp_path, dump=tiny_dump_file, data=tiny_data_dir,
                       config=config) for arg in argv]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "File name too long" in captured.err
    assert sorted(tmp_path.rglob("*")) == before


def test_dump_that_cannot_be_opened_exits_2_with_one_line(tmp_path, tiny_dump_file, capsys,
                                                           monkeypatch):
    def refuse(path, mode):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr("wikilinks.cli.open", refuse, raising=False)
    out = tmp_path / "o"
    assert main(["ingest", "--dump", str(tiny_dump_file), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot open dump {tiny_dump_file}: ")
    assert err.count("\n") == 1 and "Permission denied" in err
    assert not out.exists()


def test_config_that_is_not_utf8_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"runs": 2, "base_seed": "\xff"}')
    assert main(["eval", "--config", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {path} is not UTF-8 text: ")
    assert err.count("\n") == 1


class TestParser:
    def test_help_exits_zero(self, capsys):
        for args in (["--help"], ["ingest", "--help"], ["eval", "--help"]):
            with pytest.raises(SystemExit) as exit_info:
                main(args)
            assert exit_info.value.code == 0
            assert "usage" in capsys.readouterr().out

    def test_unknown_flag_is_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["ingest", "--dump", "x", "--out", "y", "--bogus"])
        assert exit_info.value.code == EXIT_USAGE

    def test_unknown_command_is_error(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["frobnicate"])
        assert exit_info.value.code == EXIT_USAGE


class TestSamplesExport:
    def test_dataset_stats_writes_samples_tsv(self, tmp_path, tiny_data_dir):
        samples_path = tmp_path / "samples.tsv"
        code = main([
            "dataset-stats", "--data", str(tiny_data_dir),
            "--samples-out", str(samples_path),
        ])
        assert code == EXIT_OK
        rows = samples_path.read_text(encoding="utf-8").splitlines()
        assert rows, "expected at least one labeled candidate"
        dataset = Dataset.load(tiny_data_dir)
        for row in rows:
            source, target, label, matched = row.split("\t")
            assert label == str(int(dataset.network.has_edge(int(source), int(target))))
            assert matched


class TestEvalPartialFailure:
    def test_method_failure_yields_exit_1_and_failure_record(self, tmp_path, capsys):
        # Empty abstracts make the LSA fit impossible (no tokens), while the
        # random baseline still works: a partial report, exit code 1.
        from wikilinks.cli import EXIT_PARTIAL
        from wikilinks.dataset import write_articles_jsonl, write_links_tsv
        from wikilinks.ingest import Article

        data = tmp_path / "empty_text"
        data.mkdir()
        articles = [Article(id=i, title=f"T{i}", abstract="") for i in range(4)]
        write_articles_jsonl(data / "articles.jsonl", articles)
        write_links_tsv(
            data / "links.tsv",
            DocumentNetwork.from_links(
                4, [(0, 1, "a"), (1, 2, "b"), (2, 3, "c"), (3, 0, "d"), (0, 2, "e")]
            ),
        )
        out = tmp_path / "results"
        config = _eval_config(
            tmp_path, data, out=str(out), methods=["random", "lsa"],
            runs=1, mode="transductive",
        )
        code = main(["eval", "--config", config])
        assert code == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "FAILED lsa" in err
        report = json.loads((out / "report.json").read_text())
        assert any(r.get("method") == "random" and "auc_mean" in r for r in report)
        assert any(r.get("method") == "lsa" and "error" in r for r in report)


    def test_lsa_above_the_gram_bound_fails_each_run(self, tmp_path, planted_data_dir, capsys,
                                                     monkeypatch):
        from wikilinks import lsa
        from wikilinks.cli import EXIT_PARTIAL

        monkeypatch.setattr(lsa, "_GRAM_SIDE_LIMIT", 3)
        out = tmp_path / "results"
        config = _eval_config(
            tmp_path, planted_data_dir, out=str(out), methods=["random", "lsa", "atilp"]
        )
        assert main(["eval", "--config", config]) == EXIT_PARTIAL
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("FAILED")]
        assert sorted(line.split(":")[0] for line in failed) == sorted(
            f"FAILED {method} [{mode}, run {run}]" for method in ("lsa", "atilp")
            for mode in ("inductive", "transductive") for run in (0, 1)
        )
        bound = r"at most 3 documents or terms, whichever are fewer; this matrix is \d+ x \d+$"
        assert all(re.search(bound, line) for line in failed)
        report = json.loads((out / "report.json").read_text())
        assert {r["mode"] for r in report if r["method"] == "random" and "auc_mean" in r} == {
            "inductive", "transductive"
        }

    def test_failed_lsa_fit_is_not_repeated_for_atilp(self, planted_data_dir, monkeypatch):
        # atilp shares the run's LSA fit; when that fit fails, atilp raises
        # the same error without building the TF-IDF matrix again.
        from wikilinks import lsa, predictors
        from wikilinks.evaluation import run_eval
        from wikilinks.evaluation import EvalConfig

        monkeypatch.setattr(lsa, "_GRAM_SIDE_LIMIT", 3)
        calls = []

        def counted_build_tfidf(corpus):
            calls.append(len(corpus))
            return lsa.build_tfidf(corpus)

        monkeypatch.setattr(predictors, "build_tfidf", counted_build_tfidf)
        report = run_eval(
            Dataset.load(planted_data_dir), ["random", "lsa", "atilp"],
            config=EvalConfig(runs=2, dimension=16),
        )
        assert len(calls) == 4  # one per run and mode
        errors = {(f.method, f.mode, f.run): f.error for f in report.failures}
        assert len(errors) == 8
        for mode in ("inductive", "transductive"):
            for run in (0, 1):
                assert errors["lsa", mode, run] == errors["atilp", mode, run]
                assert "at most 3 documents or terms" in errors["atilp", mode, run]


def test_package_and_cli_run_without_scipy():
    # A fresh interpreter: the test session itself imports scipy for its oracles.
    script = textwrap.dedent(
        """
        import pkgutil, runpy, sys
        import wikilinks
        for module in pkgutil.iter_modules(wikilinks.__path__):
            if module.name != "__main__":
                __import__("wikilinks." + module.name)
        sys.argv = ["wikilinks", "--help"]
        try:
            runpy.run_module("wikilinks", run_name="__main__")
        except SystemExit as done:
            assert done.code == 0, done.code
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout
    assert result.stdout.splitlines()[-1] == "[]"
