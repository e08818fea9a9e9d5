"""The walkthrough demos run to completion against the package in src/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(demo: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.parametrize(
    "demo", ["01_ingest_walkthrough.py", "02_pagerank_and_candidates.py"]
)
def test_demo_exits_zero(demo):
    result = _run(demo)
    assert result.returncode == 0, result.stderr


def test_ingest_demo_prints_pinned_output():
    # Every abstract, anchor, alias and link the walkthrough prints is
    # pinned, so a change to ingest that moves one fails here.
    result = _run("01_ingest_walkthrough.py")
    assert result.returncode == 0, result.stderr
    golden = ROOT / "tests" / "data" / "01_ingest_walkthrough.stdout"
    assert result.stdout == golden.read_text(encoding="utf-8")


def test_candidate_demo_prints_pinned_output():
    # The candidate and statistics sections must print the same lines
    # whatever shape the candidates take inside the package.
    result = _run("02_pagerank_and_candidates.py")
    assert result.returncode == 0, result.stderr
    golden = ROOT / "tests" / "data" / "02_pagerank_and_candidates.stdout"
    assert result.stdout == golden.read_text(encoding="utf-8")
