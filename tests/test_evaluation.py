"""Ranking metrics, split construction, and the multi-run harness."""

from __future__ import annotations

import json
import re
from collections import Counter
from collections.abc import Mapping
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wikilinks import evaluation, graph, lsa, predictors
from wikilinks.anchors import CandidatePair
from wikilinks.dataset import Dataset
from wikilinks.evaluation import (
    MODES,
    EvalConfig,
    MetricsReport,
    UndefinedMetricError,
    _ranking_order,
    binary_precision_recall,
    pr_auc,
    precision_recall_at_prevalence,
    run_eval,
    split_inductive,
    split_transductive,
)
from wikilinks.graph import DocumentNetwork
from wikilinks.ingest import Article
from wikilinks.predictors import Method, make_method

from conftest import BENCH_CONFIG


class TestPrAuc:
    def test_perfect_ranking(self):
        assert pr_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 100.0

    def test_hand_enumerated_example(self):
        got = pr_auc([0.9, 0.8, 0.1], [1, 0, 1])
        assert got == pytest.approx(100.0 * (1 / 1 + 2 / 3) / 2, abs=1e-9)
        assert round(got, 2) == 83.33

    def test_zero_positives_undefined(self):
        with pytest.raises(UndefinedMetricError):
            pr_auc([0.5, 0.4], [0, 0])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(21)
        scores = rng.random(200)
        labels = (rng.random(200) < 0.3).astype(int)
        base = pr_auc(scores, labels)
        squashed = pr_auc(1 / (1 + np.exp(-5 * scores)), labels)
        assert squashed == pytest.approx(base, abs=1e-12)

    def test_presentation_order_invariance_with_pair_tiebreak(self):
        pairs = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 1)]
        scores = [0.5, 0.5, 0.5, 0.9, 0.1]
        labels = [1, 0, 0, 1, 0]
        base = pr_auc(scores, labels, pairs)
        rng = np.random.default_rng(22)
        for _ in range(10):
            perm = rng.permutation(len(pairs))
            shuffled = pr_auc(
                [scores[i] for i in perm],
                [labels[i] for i in perm],
                [pairs[i] for i in perm],
            )
            assert shuffled == base

    def test_random_scores_ap_near_prevalence(self):
        rng = np.random.default_rng(23)
        n, prevalence = 10_000, 0.2
        labels = (rng.random(n) < prevalence).astype(int)
        values = [pr_auc(rng.random(n), labels) for _ in range(10)]
        assert abs(np.mean(values) - 100 * prevalence) < 2.0


class TestPrecisionRecallAtPrevalence:
    def test_hand_evaluated_example(self):
        p, r = precision_recall_at_prevalence([0.9, 0.7, 0.3, 0.1], [1, 0, 1, 0])
        assert p == 50.0 and r == 50.0

    def test_perfect_scorer(self):
        p, r = precision_recall_at_prevalence([0.9, 0.8, 0.1], [1, 1, 0])
        assert p == 100.0 and r == 100.0

    def test_p_equals_r_exactly(self):
        rng = np.random.default_rng(24)
        for _ in range(25):
            n = int(rng.integers(2, 50))
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.sum() == 0:
                labels[0] = 1
            p, r = precision_recall_at_prevalence(rng.random(n), labels)
            assert p == r

    def test_zero_positives_undefined(self):
        with pytest.raises(UndefinedMetricError):
            precision_recall_at_prevalence([0.1], [0])


@pytest.mark.parametrize("metric", [pr_auc, precision_recall_at_prevalence])
@pytest.mark.parametrize("score", [float("nan"), float("inf"), float("-inf")], ids=repr)
@pytest.mark.parametrize("pairs", [None, [(0, 1), (0, 2), (1, 0), (1, 2)]], ids=["index", "pair"])
def test_score_that_is_not_finite_raises(metric, score, pairs):
    # A NaN has no rank, and would be placed by the sort's own rule.
    with pytest.raises(ValueError, match="^scores must be finite$"):
        metric([0.5, score, 0.2, 0.9], [1, 0, 1, 0], pairs)


class TestBinaryPrecisionRecall:
    def test_at_anchor_style_predictions(self):
        # Predicting 1 on every candidate: R = 100, P = prevalence.
        scores = [1.0, 1.0, 1.0, 1.0]
        labels = [1, 0, 1, 0]
        p, r = binary_precision_recall(scores, labels)
        assert r == 100.0
        assert p == 50.0

    def test_no_predictions(self):
        p, r = binary_precision_recall([0.0, 0.0], [1, 0])
        assert p == 0.0 and r == 0.0


def reference_ranking_order(scores, pairs):
    """The sort-key ranking that ``_ranking_order`` replaced."""
    if pairs is not None:
        return sorted(range(len(scores)), key=lambda i: (-scores[i], pairs[i]))
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def reference_pr_auc(scores, labels, pairs=None):
    """The rank loop that ``pr_auc`` replaced: a running total of the
    precision at each positive."""
    hits = 0
    total = 0.0
    for rank, i in enumerate(reference_ranking_order(scores, pairs), start=1):
        if labels[i]:
            hits += 1
            total += hits / rank
    return 100.0 * total / int(sum(labels))


def reference_precision_recall_at_prevalence(scores, labels, pairs=None):
    n_pos = int(sum(labels))
    tp = sum(1 for i in reference_ranking_order(scores, pairs)[:n_pos] if labels[i])
    return 100.0 * tp / n_pos, 100.0 * tp / n_pos


def reference_binary_precision_recall(scores, labels):
    predicted = [i for i, s in enumerate(scores) if s >= 0.5]
    tp = sum(1 for i in predicted if labels[i])
    precision = 100.0 * tp / len(predicted) if predicted else 0.0
    return precision, 100.0 * tp / int(sum(labels))


# Few distinct values, so that ties are common, with 0.0 and -0.0 both in.
_TIED_SCORES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 0.25, 1e-300])


@st.composite
def _ranked_samples(draw):
    """(scores, labels, pairs): at least one positive; pairs repeat
    sources and targets, and sometimes whole pairs."""
    n = draw(st.integers(1, 40))
    score = st.one_of(_TIED_SCORES, st.floats(-1e3, 1e3, allow_nan=False))
    scores = draw(st.lists(score, min_size=n, max_size=n))
    labels = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    labels[draw(st.integers(0, n - 1))] = 1
    node = st.integers(0, 4)
    pairs = draw(st.lists(st.tuples(node, node), min_size=n, max_size=n))
    return scores, labels, pairs


class TestRankingMatchesReference:
    """``_ranking_order`` and the metrics on top of it equal the sort-key
    ranking and the rank loop exactly."""

    @given(_ranked_samples(), st.booleans())
    @example(([0.0, -0.0, 0.0, -0.0], [0, 1, 0, 1], [(1, 0), (0, 1), (0, 0), (1, 1)]), True)
    @example(([0.0, -0.0, 0.0, -0.0], [0, 1, 0, 1], [(1, 0), (0, 1), (0, 0), (1, 1)]), False)
    @example(([0.5] * 6, [0, 0, 0, 1, 0, 0], [(2, 1), (0, 3), (2, 0), (0, 1), (1, 1), (0, 2)]),
             True)
    @example(([0.5] * 6, [0, 0, 0, 1, 0, 0], [(2, 1), (0, 3), (2, 0), (0, 1), (1, 1), (0, 2)]),
             False)
    @example(([0.7], [1], [(0, 1)]), True)
    # Pairwise summation of these 14 precisions rounds differently.
    @example(([1 - i / 32 for i in range(23)],
              [0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1, 1, 0],
              [(i % 5, i % 3) for i in range(23)]), False)
    @settings(max_examples=300, deadline=None)
    def test_equal_to_the_sort_key_and_rank_loop(self, sample, with_pairs):
        scores, labels, pairs = sample
        if not with_pairs:
            pairs = None
        assert _ranking_order(scores, pairs).tolist() == reference_ranking_order(scores, pairs)
        for given_scores in (scores, np.asarray(scores)):
            assert pr_auc(given_scores, labels, pairs) == reference_pr_auc(scores, labels, pairs)
            assert precision_recall_at_prevalence(
                given_scores, labels, pairs
            ) == reference_precision_recall_at_prevalence(scores, labels, pairs)
            assert binary_precision_recall(
                given_scores, labels
            ) == reference_binary_precision_recall(scores, labels)


def _reachable(root):
    """Every object reachable from ``root`` through container items,
    mapping keys and values, instance dicts and slots; scalars and
    arrays end a path."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (str, bytes, int, float, np.ndarray)) or id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, Mapping):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset, range)):
            stack.extend(obj)
        elif obj is not None:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                slots = getattr(cls, "__slots__", ())
                for slot in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))


def _labeled_network(n: int, edges: list[tuple[int, int]]):
    net = DocumentNetwork.from_links(n, [(s, t, f"a{t}") for s, t in edges])
    return net


class TestSplitTransductive:
    def test_ten_edge_fixture_hides_one(self):
        edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, (i + 2) % 5) for i in range(5)]
        net = _labeled_network(5, edges)
        split = split_transductive(net, {}, ratio=0.1, run_seed=0)
        assert len(split.hidden) == 1
        assert split.train_network.edge_count == 9
        assert sum(label for _, _, label in split.test_pairs) == 1

    def test_ratio_out_of_range(self):
        net = _labeled_network(3, [(0, 1)])
        for ratio in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                split_transductive(net, {}, ratio=ratio)

    def test_hidden_set_matches_seeded_sampler_oracle(self):
        edges = [(i, j) for i in range(5) for j in range(5) if i != j][:20]
        net = _labeled_network(5, edges)
        split = split_transductive(net, {}, ratio=0.25, run_seed=77)
        # Contract: a permutation prefix of the canonically sorted edge list.
        order = np.random.default_rng(77).permutation(20)
        expected = sorted(sorted(net.edges())[i] for i in order[:5])
        assert list(split.hidden) == expected

    def test_negatives_come_from_full_network_candidates(self, fixture_dataset):
        candidates = fixture_dataset.anchor_candidates()
        split = split_transductive(fixture_dataset.network, candidates, 0.1, run_seed=1)
        sources_with_hidden = {s for s, _ in split.hidden}
        for source, target, label in split.test_pairs:
            assert source in sources_with_hidden
            if label == 0:
                # candidate, and a non-edge of the FULL network
                assert not fixture_dataset.network.has_edge(source, target)
                assert target in candidates[source]
            else:
                assert (source, target) in set(split.hidden)

    def test_retained_edges_are_not_test_pairs(self, fixture_dataset):
        candidates = fixture_dataset.anchor_candidates()
        split = split_transductive(fixture_dataset.network, candidates, 0.1, run_seed=2)
        hidden = set(split.hidden)
        for source, target, label in split.test_pairs:
            if fixture_dataset.network.has_edge(source, target):
                assert (source, target) in hidden
                assert label == 1


@pytest.mark.parametrize("split", [split_transductive, split_inductive])
@pytest.mark.parametrize("ratio", ["0.1", None, True, float("nan")], ids=repr)
def test_split_ratio_is_a_number_strictly_between_0_and_1(split, ratio):
    # The check that EvalConfig applies to its ratios, so a string is a
    # ValueError too, not a TypeError from the comparison.
    net = _labeled_network(3, [(0, 1)])
    with pytest.raises(ValueError, match=r"^ratio must lie strictly between 0 and 1$"):
        split(net, {}, ratio=ratio)


class TestSplitInductive:
    def test_hidden_document_counts(self):
        net = _labeled_network(20, [(i, (i + 1) % 20) for i in range(20)])
        split = split_inductive(net, {}, ratio=0.1, run_seed=0)
        assert len(split.hidden) == 2
        assert len(split.train_nodes) == 18

    def test_no_candidates_no_edges_contributes_nothing(self):
        # Node 3 is isolated and matches nothing; when hidden it adds no pairs.
        net = _labeled_network(4, [(0, 1), (1, 2), (2, 0)])
        articles = [Article(id=i, title=f"T{i}", abstract="") for i in range(4)]
        candidates = Dataset("four", articles, net).anchor_candidates()
        found = False
        for seed in range(40):
            split = split_inductive(net, candidates, ratio=0.26, run_seed=seed)
            if 3 in split.hidden:
                found = True
                assert all(s != 3 for s, _, _ in split.test_pairs)
        assert found

    def test_ten_node_fixture_matches_enumeration_oracle(self, fixture_dataset):
        candidates = fixture_dataset.anchor_candidates()
        net = fixture_dataset.network
        split = split_inductive(net, candidates, ratio=0.1, run_seed=5)
        hidden = set(split.hidden)
        retained = set(split.train_nodes)
        expected = set()
        for source in hidden:
            for target in range(net.node_count):
                if target in retained and net.has_edge(source, target):
                    expected.add((source, target, 1))
            for target in candidates[source]:
                if target in retained and not net.has_edge(source, target):
                    expected.add((source, target, 0))
        assert set(split.test_pairs) == expected

    def test_train_network_excludes_hidden_documents(self, fixture_dataset):
        candidates = fixture_dataset.anchor_candidates()
        split = split_inductive(fixture_dataset.network, candidates, 0.1, run_seed=3)
        hidden = set(split.hidden)
        for source, target in split.train_network.edges():
            assert source not in hidden and target not in hidden


class TestEvalConfig:
    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("dimension", True, "dimension must be an integer, got True"),
            ("atilp_positives", 0, "atilp_positives must be at least 1"),
            ("atilp_negatives", 2.0, "atilp_negatives must be an integer, got 2.0"),
            ("runs", 2.5, "runs must be an integer, got 2.5"),
            ("base_seed", -1, "base_seed must be at least 0"),
            ("base_seed", 1.5, "base_seed must be an integer, got 1.5"),
            ("transductive_ratio", 1.5, "transductive_ratio must lie strictly between 0 and 1"),
            ("inductive_ratio", 0.0, "inductive_ratio must lie strictly between 0 and 1"),
            ("transductive_ratio", float("nan"),
             "transductive_ratio must lie strictly between 0 and 1"),
            ("mode", "sideways", "mode must be transductive, inductive or both"),
            # The tuples that the field modes took before mode replaced it.
            ("mode", (), "mode must be transductive, inductive or both"),
            ("mode", ("transductive", "transductive"),
             "mode must be transductive, inductive or both"),
            ("mode", ("inductive", "bogus"), "mode must be transductive, inductive or both"),
        ],
        ids=["dimension-bool", "positives-zero", "negatives-float", "fractional-runs",
             "negative-seed", "fractional-seed", "transductive-above-one", "inductive-zero",
             "ratio-nan", "mode-unknown", "modes-empty", "modes-repeated", "modes-unknown"],
    )
    def test_bad_setting_raises_naming_the_field(self, name, value, message):
        # atilp_positives=0 would fit ATILP on negatives only.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EvalConfig(**{name: value})

    def test_replaced_value_is_checked_again(self):
        with pytest.raises(ValueError, match="^runs must be at least 1$"):
            replace(EvalConfig(), runs=0)

    def test_numpy_integer_counts_accepted(self):
        config = EvalConfig(
            dimension=np.int64(16), atilp_positives=np.int64(5), atilp_negatives=np.int64(7)
        )
        assert config == EvalConfig(dimension=16, atilp_positives=5, atilp_negatives=7)


class FailingMethod(Method):
    name = "broken"

    def make_scorer(self, ctx):
        raise RuntimeError("intentional failure")


class TestRunEval:
    def test_runs_one_reports_zero_std(self, fixture_dataset):
        report = run_eval(fixture_dataset, ["random"],
                          config=replace(BENCH_CONFIG, runs=1, base_seed=0))
        for entry in report.entries:
            assert entry.auc_std == 0.0
            assert entry.p_std == 0.0

    def test_each_abstract_tokenized_once(self, fixture_dataset, monkeypatch):
        # The LSA fits and the inductive fold-ins of both runs share one
        # tokenization, so nothing else tokenizes an abstract. Every
        # tokenize call goes through a module's imported name.
        tokenized = Counter()

        def counting_tokenize(text):
            tokenized[text] += 1
            return lsa.tokenize(text)

        for module in (evaluation, predictors, graph):
            monkeypatch.setattr(module, "tokenize", counting_tokenize)
        report = run_eval(fixture_dataset, ["lsa"], config=replace(BENCH_CONFIG, runs=2))
        assert [e.mode for e in report.entries] == list(MODES) and not report.failures
        assert tokenized == Counter(a.abstract for a in fixture_dataset.articles)

    @pytest.mark.parametrize(
        "methods, message",
        [
            ([], "no methods to evaluate"),
            (["lsa", "lsa"], "method 'lsa' is listed twice"),
            (["random", FailingMethod(), "at_title", FailingMethod()],
             "method 'broken' is listed twice"),
        ],
        ids=["empty", "builtin-twice", "custom-twice"],
    )
    def test_method_list_rejected(self, fixture_dataset, methods, message):
        # Each method's runs pool under its name, so a repeated name would
        # write one row per listing over the runs of all of them.
        with pytest.raises(ValueError, match=message):
            run_eval(fixture_dataset, methods, config=replace(BENCH_CONFIG, runs=1))

    def test_deepwalk_skipped_inductively_and_dashed(self, fixture_dataset):
        report = run_eval(fixture_dataset, ["random", "deepwalk"],
                          config=replace(BENCH_CONFIG, runs=1, base_seed=0))
        assert report.entry("deepwalk", "transductive") is not None
        assert report.entry("deepwalk", "inductive") is None
        header, _, _, dw_row = report.to_markdown().splitlines()
        assert header.split(" | ")[1:4] == ["Inductive AUC", "Inductive P", "Inductive R"]
        assert dw_row.split(" | ")[1:4] == ["—", "—", "—"]
        assert not report.failures

    @pytest.mark.parametrize(
        "methods, mode",
        [
            (["random", "at_title", "at_anchor", "lsa", "deepwalk", "atilp"], "both"),
            (["deepwalk"], "both"),
            (["random", FailingMethod()], "transductive"),
        ],
        ids=["all-methods-both-modes", "deepwalk-alone", "transductive-with-failure"],
    )
    def test_one_table_for_every_caller(self, fixture_dataset, tmp_path, methods, mode):
        # The library's table, the report.md that run_eval writes and the
        # table of the report rebuilt from report.json (the report command)
        # are one table.
        report = run_eval(fixture_dataset, methods,
                          config=replace(BENCH_CONFIG, runs=2, mode=mode), out_dir=tmp_path)
        rebuilt = MetricsReport.from_records(json.loads(report.to_json()))
        table = report.to_markdown()
        assert table == (tmp_path / "report.md").read_text(encoding="utf-8")
        assert table == rebuilt.to_markdown()
        assert rebuilt.to_json() == report.to_json()

    def test_failing_method_flagged_others_survive(self, fixture_dataset):
        report = run_eval(
            fixture_dataset, ["random", FailingMethod()],
            config=replace(BENCH_CONFIG, runs=2, base_seed=0),
        )
        assert report.entry("random", "transductive") is not None
        assert report.entry("broken", "transductive") is None
        assert any(f.method == "broken" for f in report.failures)

    def test_identical_splits_across_methods_and_reruns(self, fixture_dataset, tmp_path):
        report1 = run_eval(
            fixture_dataset, ["random"],
            config=replace(BENCH_CONFIG, runs=2, base_seed=9), out_dir=tmp_path / "a",
        )
        report2 = run_eval(
            fixture_dataset, ["at_anchor"],
            config=replace(BENCH_CONFIG, runs=2, base_seed=9), out_dir=tmp_path / "b",
        )
        assert report1.split_hashes == report2.split_hashes
        for run in range(2):
            for mode in ("inductive", "transductive"):
                a = (tmp_path / "a" / "splits" / f"run_{run}" / mode / "test_pairs.tsv").read_bytes()
                b = (tmp_path / "b" / "splits" / f"run_{run}" / mode / "test_pairs.tsv").read_bytes()
                assert a == b

    def test_report_json_deterministic(self, fixture_dataset, tmp_path):
        kwargs = dict(config=replace(BENCH_CONFIG, runs=2, base_seed=4))
        a = run_eval(fixture_dataset, ["random", "lsa"], **kwargs).to_json()
        b = run_eval(fixture_dataset, ["random", "lsa"], **kwargs).to_json()
        assert a == b

    def test_probabilistic_p_equals_r_every_run(self, fixture_dataset):
        report = run_eval(
            fixture_dataset, ["random", "lsa", "atilp"],
            config=replace(BENCH_CONFIG, runs=3, base_seed=0),
        )
        for entry in report.entries:
            assert not make_method(entry.method).binary
            for _, precision, recall in entry.per_run:
                assert precision == recall

    def test_neg_to_pos_ratio_higher_transductively(self, fixture_dataset):
        candidates = fixture_dataset.anchor_candidates()
        net = fixture_dataset.network
        for seed in range(3):
            trans = split_transductive(net, candidates, 0.1, run_seed=seed)
            ind = split_inductive(net, candidates, 0.1, run_seed=seed)

            def ratio(split):
                pos = sum(l for _, _, l in split.test_pairs)
                neg = len(split.test_pairs) - pos
                return neg / pos

            assert ratio(trans) > ratio(ind)

    def test_invalid_mode_rejected(self, fixture_dataset):
        with pytest.raises(ValueError):
            run_eval(fixture_dataset, ["random"], config=EvalConfig(runs=1, mode="sideways"))

    @pytest.mark.parametrize(
        "modes",
        [(), ("transductive", "transductive"), ("inductive", "bogus")],
        ids=["empty", "repeated", "unknown"],
    )
    def test_mode_list_rejected_before_output_is_touched(self, fixture_dataset, tmp_path, modes):
        # mode names one mode or both; a list of modes, as the field modes
        # took before, is rejected and leaves the earlier splits and report
        # alone.
        run_eval(fixture_dataset, ["random"], config=replace(BENCH_CONFIG, runs=1),
                 out_dir=tmp_path)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert any(p.parent.name == "inductive" for p in before)
        with pytest.raises(ValueError, match="mode"):
            run_eval(
                fixture_dataset, ["random"], config=replace(BENCH_CONFIG, runs=2, mode=modes),
                out_dir=tmp_path,
            )
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(transductive_ratio=1.5), "transductive_ratio must lie strictly between 0 and 1"),
            (dict(inductive_ratio=0.0), "inductive_ratio must lie strictly between 0 and 1"),
            (dict(base_seed=-1), "base_seed must be at least 0"),
            (dict(base_seed=1.5), "base_seed must be an integer, got 1.5"),
            (dict(runs=2.5), "runs must be an integer, got 2.5"),
        ],
        ids=["transductive-above-one", "inductive-zero", "negative-seed", "fractional-seed",
             "fractional-runs"],
    )
    def test_ratio_rejected_before_output_is_touched(
        self, fixture_dataset, tmp_path, bad, message
    ):
        # Both ratios, the seed and the run count are checked before the
        # earlier splits are deleted, so the split files keep matching the
        # hashes in the earlier report.
        run_eval(fixture_dataset, ["random"], config=replace(BENCH_CONFIG, runs=1),
                 out_dir=tmp_path)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_eval(fixture_dataset, ["random"],
                     config=replace(BENCH_CONFIG, **{"runs": 1, **bad}), out_dir=tmp_path)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_run_context_holds_no_label(self, fixture_dataset):
        # A predictor sees candidates without labels, and a training network
        # without the hidden edges (transductive) or documents (inductive).
        seen = []

        class Recorder(Method):
            name = "recorder"

            def make_scorer(self, ctx):
                def scorer(pairs):
                    seen.append((ctx, list(pairs)))
                    return np.zeros(len(pairs))

                return scorer

        report = run_eval(fixture_dataset, [Recorder()], config=replace(BENCH_CONFIG, runs=2))
        assert not report.failures and len(seen) == 4
        network = fixture_dataset.network
        modes = Counter()
        for ctx, pairs in seen:
            roots = (ctx.train_network, ctx.candidates, ctx.title_candidates, ctx.config,
                     ctx.tokens, ctx.train_nodes)
            for obj in _reachable(roots):
                assert not isinstance(obj, CandidatePair), obj
                assert not hasattr(obj, "label"), obj
            hidden = set(range(network.node_count)) - ctx.train_nodes
            if not hidden:
                modes["transductive"] += 1
                positives = [pair for pair in pairs if network.has_edge(*pair)]
                assert positives
                assert not any(ctx.train_network.has_edge(*pair) for pair in positives)
            else:
                modes["inductive"] += 1
                assert all(s in hidden for s, _ in pairs)
                for edge in ctx.train_network.edges():
                    assert not hidden & set(edge), edge
        assert modes == Counter(transductive=2, inductive=2)
