"""Every program entry point the benchmark traces still resolves.

``perfbench/spec.json`` names the functions the traced benchmark run
wraps; a rename in ``src/`` must fail here, not only in that run.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

ENTRY_POINTS = sorted(
    json.loads((PERFBENCH / "spec.json").read_text(encoding="utf-8"))["trace_entry_points"]
)


@pytest.mark.parametrize("target", ENTRY_POINTS)
def test_trace_entry_point_resolves(target):
    owner, attr, _ = tracing.resolve(target)
    assert callable(getattr(owner, attr))
