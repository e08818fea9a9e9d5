"""Every program entry point the benchmark traces still resolves.

``perfbench/spec.json`` names the functions the traced benchmark run
wraps; a rename in ``src/``, or a change to what a counter reads, must
fail here, not only in that run.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from wikilinks.cli import EXIT_OK, main
from wikilinks.synthetic import PlantedCorpusParams, planted_dump_xml

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

TRACE_ENTRY_POINTS = json.loads(
    (PERFBENCH / "spec.json").read_text(encoding="utf-8")
)["trace_entry_points"]
ENTRY_POINTS = sorted(TRACE_ENTRY_POINTS)


@pytest.mark.parametrize("target", ENTRY_POINTS)
def test_trace_entry_point_resolves(target):
    owner, attr, _ = tracing.resolve(target)
    assert callable(getattr(owner, attr))


def test_traced_pipeline_counts_every_layer(tmp_path):
    """The traced run's wrappers and counters work on the program as it
    is: ``ingest → subgraph → dataset-stats → eval`` under every entry
    point of ``spec.json`` leaves a positive count in each layer."""
    dump = tmp_path / "dump.xml"
    dump.write_text(
        planted_dump_xml(PlantedCorpusParams(topics=3, docs_per_topic=8, seed=5)),
        encoding="utf-8",
    )
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "methods": ["atilp", "deepwalk"], "mode": "transductive", "runs": 1,
        "dimension": 8, "atilp_positives": 50, "atilp_negatives": 50,
        "deepwalk": {"walks_per_node": 1, "walk_length": 5, "window": 2,
                     "negatives": 2, "dimension": 8},
    }), encoding="utf-8")
    full, sub = str(tmp_path / "full"), str(tmp_path / "sub")
    tracer = tracing.Tracer()
    with tracing.installed(tracer, TRACE_ENTRY_POINTS):
        for argv in (
            ["ingest", "--dump", str(dump), "--out", full],
            ["subgraph", "--data", full, "--seed-article", "E000 t0w0", "--k", "12",
             "--out", sub],
            ["dataset-stats", "--data", full, "--samples-out", str(tmp_path / "samples.tsv")],
            ["eval", "--data", sub, "--config", str(config), "--out", str(tmp_path / "results")],
        ):
            assert main(argv) == EXIT_OK, argv
    for counter in ("anchors.candidates", "anchors.positives", "graph.ppr_iterations",
                    "predictors.atilp.n_positive", "deepwalk.positions"):
        assert tracer.counts[counter] > 0, counter
