"""Acceptance suite: every exit criterion at its stated tolerance.

One test per criterion; the conftest hook prints a pass/fail line for
each. The full-scale Wikipedia replication is not runnable here (it
needs a complete dump); the README documents that procedure instead.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from wikilinks.anchors import AnchorMap, normalize_pattern
from wikilinks.deepwalk import sgns_gradients, sgns_loss
from wikilinks.evaluation import pr_auc, run_eval, split_inductive, split_transductive
from wikilinks.graph import DocumentNetwork, personalized_pagerank
from wikilinks.lsa import fit_lsa
from wikilinks.predictors import make_method, ols_fit

from conftest import BENCH_CONFIG
from test_anchors import naive_scan, scan_spans
from test_deepwalk import _relative_error, finite_difference
from test_graph import _net, _random_edges, dense_ppr_oracle
from test_lsa import as_csr


@pytest.mark.criterion(1, "AT(anchor) recall is exactly 100.00 (std 0.00) in both modes")
def test_c01_at_anchor_perfect_recall(fixture_dataset):
    assert len(fixture_dataset.articles) <= 50
    report = run_eval(
        fixture_dataset, ["at_anchor"], config=replace(BENCH_CONFIG, runs=5, base_seed=0)
    )
    assert not report.failures
    for mode in ("inductive", "transductive"):
        entry = report.entry("at_anchor", mode)
        assert entry.runs == 5
        assert entry.r_mean == 100.0
        assert entry.r_std == 0.0
        for _, _, recall in entry.per_run:
            assert recall == 100.0


@pytest.mark.criterion(2, "prevalence thresholding forces P = R to machine precision")
def test_c02_prevalence_thresholding_p_equals_r(fixture_dataset):
    report = run_eval(
        fixture_dataset,
        ["random", "lsa", "deepwalk", "atilp"],
        config=replace(BENCH_CONFIG, runs=5, base_seed=0),
    )
    assert not report.failures
    checked = 0
    for entry in report.entries:
        if make_method(entry.method).binary:
            continue
        for _, precision, recall in entry.per_run:
            assert precision == recall
            checked += 1
    assert checked >= 5 * 3 + 5 * 3 + 5  # 3 methods x 2 modes (+ DW transductive)


@pytest.mark.criterion(3, "random-scorer AP over 50 seeds is 20 +/- 2 at 20% prevalence")
def test_c03_random_baseline_calibration():
    n, prevalence = 10_000, 0.20
    label_rng = np.random.default_rng(12345)
    labels = (label_rng.random(n) < prevalence).astype(int)
    values = []
    for seed in range(50):
        scores = np.random.default_rng(seed).random(n)
        values.append(pr_auc(scores, labels))
    mean_ap = float(np.mean(values))
    assert abs(mean_ap - 20.0) <= 2.0


@pytest.mark.criterion(4, "PPR matches a dense power-iteration oracle within L1 1e-8")
def test_c04_ppr_dense_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        edges = _random_edges(rng, n)
        seed = int(rng.integers(n))
        result = personalized_pagerank(
            _net(n, edges), seed=seed, damping=0.85, tolerance=1e-14, max_iters=5000
        )
        oracle = dense_ppr_oracle(n, edges, seed=seed, damping=0.85)
        assert np.abs(result.scores - oracle).sum() < 1e-8


@pytest.mark.criterion(5, "truncated SVD matches a dense full SVD within 1e-6 (up to sign)")
def test_c05_svd_dense_oracle():
    rng = np.random.default_rng(99)
    for trial in range(20):
        rows = int(rng.integers(5, 31))
        cols = int(rng.integers(5, 41))
        matrix = rng.standard_normal((rows, cols))
        d = int(rng.integers(1, min(rows, cols) + 1))
        model = fit_lsa(as_csr(matrix), d=d)
        u_o, s_o, vt_o = scipy.linalg.svd(matrix, full_matrices=False, lapack_driver="gesvd")
        assert np.allclose(model.singular_values, s_o[:d], atol=1e-6)
        # Vectors compare up to sign where the spectrum is well separated.
        full_u = model.doc_embeddings / np.where(model.singular_values > 0,
                                                 model.singular_values, 1.0)
        for i in range(d):
            gap_ok = (i == 0 or s_o[i - 1] - s_o[i] > 1e-4) and (
                i + 1 >= len(s_o) or s_o[i] - s_o[i + 1] > 1e-4
            )
            if not gap_ok:
                continue
            sign = np.sign(full_u[:, i] @ u_o[:, i]) or 1.0
            assert np.allclose(full_u[:, i], sign * u_o[:, i], atol=1e-6)
            assert np.allclose(model.projection[:, i], sign * vt_o[i], atol=1e-6)

    # Frobenius error of the rank-d approximation is non-increasing in d.
    matrix = np.random.default_rng(100).standard_normal((18, 14))
    errors = []
    for d in range(1, 15):
        model = fit_lsa(as_csr(matrix), d=d)
        approx = model.doc_embeddings @ model.projection.T
        errors.append(float(np.linalg.norm(approx - matrix)))
    assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))


@pytest.mark.criterion(6, "SGNS analytic gradient vs central differences, rel err < 1e-4")
def test_c06_sgns_gradient_check():
    rng = np.random.default_rng(2025)
    for _ in range(20):
        d = int(rng.integers(2, 12))
        k = int(rng.integers(1, 11))
        center = rng.standard_normal(d)
        context = rng.standard_normal(d)
        negatives = rng.standard_normal((k, d))
        g_center, g_context, g_negatives = sgns_gradients(center, context, negatives)
        loss = lambda: sgns_loss(center, context, negatives)  # noqa: E731
        assert _relative_error(g_center, finite_difference(loss, center)) < 1e-4
        assert _relative_error(g_context, finite_difference(loss, context)) < 1e-4
        assert _relative_error(g_negatives, finite_difference(loss, negatives)) < 1e-4


@pytest.mark.criterion(7, "OLS recovers coefficients (0.10, 0.36, 1.06) within 1e-6")
def test_c07_ols_recovery():
    rng = np.random.default_rng(31)
    features = np.vstack(
        [rng.uniform(0, 1, size=(1000, 3)), rng.uniform(-1, 0.5, size=(1000, 3))]
    )
    true_coef = np.array([0.10, 0.36, 1.06])
    targets = features @ true_coef
    coef, intercept = ols_fit(features, targets)
    assert np.abs(coef - true_coef).max() < 1e-6
    assert abs(intercept) < 1e-6


@pytest.mark.criterion(8, "multi-pattern scanner equals the naive oracle on 1000 fixtures")
def test_c08_scanner_equivalence():
    rng = np.random.default_rng(808)
    words = ["art", "the", "party", "war", "a", "civil", "lincoln", "uk", "x1"]
    for trial in range(1000):
        n_patterns = int(rng.integers(1, 51))
        patterns = set()
        for _ in range(n_patterns):
            length = int(rng.integers(1, 4))
            phrase = " ".join(words[i] for i in rng.integers(len(words), size=length))
            pattern = normalize_pattern(phrase)
            if pattern:
                patterns.add(pattern)
        size = 5000 if trial % 50 == 0 else int(rng.integers(0, 400))
        pieces = []
        while sum(len(p) + 1 for p in pieces) < size:
            if rng.random() < 0.2:
                pieces.append(words[rng.integers(len(words))].upper())
            elif rng.random() < 0.3:
                pieces.append(words[rng.integers(len(words))] + ".")
            else:
                pieces.append(words[rng.integers(len(words))])
        text = " ".join(pieces)
        anchor_map = AnchorMap(
            mode="anchor",
            patterns={p: frozenset({0}) for p in patterns},
            article_count=1,
        )
        assert set(scan_spans(anchor_map, text)) == naive_scan(sorted(patterns), text)


@pytest.mark.criterion(9, "split sizes: 7,817 edges hide 782; 1,000 documents hide 100")
def test_c09_split_counts():
    rng = np.random.default_rng(90)
    edges = set()
    while len(edges) < 7817:
        s, t = int(rng.integers(1000)), int(rng.integers(1000))
        if s != t:
            edges.add((s, t))
    network = DocumentNetwork.from_links(1000, [(s, t, "a") for s, t in edges])
    assert network.edge_count == 7817

    transductive = split_transductive(network, {}, ratio=0.10, run_seed=0)
    assert len(transductive.hidden) == 782
    assert transductive.train_network.edge_count == 7817 - 782

    inductive = split_inductive(network, {}, ratio=0.10, run_seed=0)
    assert len(inductive.hidden) == 100
    assert len(inductive.train_nodes) == 900


@pytest.mark.criterion(10, "planted benchmark: mean AUC ordering ATILP >= LSA > random, "
                           "DW transductive only")
def test_c10_end_to_end_benchmark(bench_dataset):
    assert bench_dataset.network.node_count == 200
    report = run_eval(
        bench_dataset,
        ["random", "at_title", "at_anchor", "lsa", "deepwalk", "atilp"],
        config=replace(BENCH_CONFIG, runs=5, base_seed=0),
    )
    assert not report.failures
    for mode in ("inductive", "transductive"):
        atilp = report.entry("atilp", mode).auc_mean
        lsa = report.entry("lsa", mode).auc_mean
        random = report.entry("random", mode).auc_mean
        assert atilp >= lsa, f"{mode}: ATILP {atilp:.2f} < LSA {lsa:.2f}"
        assert lsa > random, f"{mode}: LSA {lsa:.2f} <= random {random:.2f}"
    assert report.entry("deepwalk", "transductive") is not None
    assert report.entry("deepwalk", "inductive") is None
    table = report.to_markdown()
    dw_row = next(line for line in table.splitlines() if line.startswith("| deepwalk"))
    assert "—" in dw_row
