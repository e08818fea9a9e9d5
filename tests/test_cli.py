"""CLI commands: ingest, subgraph, dataset-stats, eval, report."""

from __future__ import annotations

import bz2
import json

import pytest

from wikilinks.cli import EXIT_OK, EXIT_USAGE, main
from wikilinks.dataset import Dataset
from wikilinks.graph import personalized_pagerank, topk_subgraph
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

    def test_malformed_xml_exits_2(self, tmp_path, capsys):
        dump = tmp_path / "broken.xml"
        dump.write_text("<mediawiki><page><title>X</title>")
        code = main(["ingest", "--dump", str(dump), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "byte" in capsys.readouterr().err

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
        expected, old_to_new = topk_subgraph(dataset.network, scores, 3, titles)
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


class TestDatasetStatsCommand:
    def test_prints_table_statistics(self, tiny_data_dir, capsys):
        assert main(["dataset-stats", "--data", str(tiny_data_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "documents: 6" in out
        assert "links:" in out and "%" in out
        assert "vocabulary:" in out
        assert "positives/doc:" in out


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
        assert f"cannot read predictions for 'offline' from {scores_path}" in err

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
        ("eval", '["data", "runs"]', "must be a JSON object"),
        ("eval", '{"runs": "2"}', "runs"),
        ("eval", '{"transductive_ratio": "0.1"}', "transductive_ratio"),
        ("eval", '{"base_seed": -1}', "base_seed"),
        ("eval", '{"methods": ["nosuch"]}', "unknown method 'nosuch'"),
        ("eval", '{"deepwalk": {"walkz": 1}}', "walkz"),
        ("eval", '{"deepwalk": {"negatives": -1}}', "deepwalk.negatives"),
        ("eval", '{"deepwalk": {"walk_length": "20"}}', "deepwalk.walk_length"),
        ("eval", '{"deepwalk": {"window": 0}}', "deepwalk.window"),
        ("eval", '{"deepwalk": {"learning_rate": 0}}', "deepwalk.learning_rate"),
        ("eval", '{"deepwalk": {"undirected": 1}}', "deepwalk.undirected"),
    ],
    ids=[
        "report-invalid-json", "report-list-of-numbers", "eval-config-list",
        "eval-runs-string", "eval-ratio-string", "eval-negative-seed", "eval-unknown-method",
        "eval-deepwalk-unknown-key", "eval-deepwalk-negatives-negative",
        "eval-deepwalk-walk-length-string", "eval-deepwalk-window-zero",
        "eval-deepwalk-learning-rate-zero", "eval-deepwalk-undirected-int",
    ],
)
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, command, content, needle):
    path = tmp_path / "input.json"
    path.write_text(content, encoding="utf-8")
    flag = "--report" if command == "report" else "--config"
    assert main([command, flag, str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


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

    def test_eval_out_is_a_file(self, tmp_path, planted_data_dir, blocker, capsys):
        config = _eval_config(tmp_path, planted_data_dir)
        self._exits_2(["eval", "--config", config, "--out", str(blocker)], capsys,
                      f"output path is not a directory: {blocker}")
        assert blocker.read_text(encoding="utf-8") == "keep\n"


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
            [(0, 1, "a"), (1, 2, "b"), (2, 3, "c"), (3, 0, "d"), (0, 2, "e")],
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
