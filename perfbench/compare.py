"""Compare a parent result set with a change result set.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``*.json`` result files that ``run.py`` wrote
to ``.perfbench/results/`` on one commit. For every workload and
end-to-end metric the table gives each side's median and quartiles,
the pairs the change won (runs paired by seed, ties counting for
neither) and a verdict under the bounds in ``BENCHMARK.json``:

- improved: the change won at least 9 in 10 pairs and the medians
  differ by more than the parent's quartile spread;
- unresolved: the parent's spread is wider than the bound, unless every
  change run beat every parent run;
- worse: the change's median is worse than the parent's by more than
  the bound;
- unchanged: otherwise.

It also prints the environment fields that differ between the sides,
failed operations, the upper percentile of all ``wall_s`` samples of a
side pooled, the tracing overhead (traced against untraced
``wall_s``) and, where both sides have traced runs, the per-layer
medians.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import upper_percentile

ROOT = Path(__file__).resolve().parent.parent
COMPARABLE = ("nproc", "python", "numpy", "scipy", "blas_threads", "machine", "bench_sha256")


def load(directory: str) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(Path(directory).glob("*.json"))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def values(results: list[dict], workload: str, metric: str, trace: int) -> dict[int, list[float]]:
    """Metric values by seed."""
    by_seed: dict[int, list[float]] = {}
    for result in results:
        if result["workload"] == workload and result["trace"] == trace \
                and metric in result["metrics"]:
            by_seed.setdefault(result["seed"], []).append(result["metrics"][metric]["value"])
    return by_seed


def verdict(parent: dict, change: dict, lower: bool, bound: float) -> tuple[str, str]:
    """(pairs won, verdict) for one metric of one workload."""
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    pairs = [(p, c) for seed in sorted(set(parent) & set(change))
             for p, c in zip(parent[seed], change[seed])]
    wins = sum(1 for p, c in pairs if better(c, p))
    p_all = [v for vs in parent.values() for v in vs]
    c_all = [v for vs in change.values() for v in vs]
    p1, pm, p3 = quartiles(p_all)
    _, cm, _ = quartiles(c_all)
    won = f"{wins}/{len(pairs)}"
    if pairs and wins >= 0.9 * len(pairs) and better(cm, pm) and abs(cm - pm) > p3 - p1:
        return won, "improved"
    if (p3 - p1) / pm > bound:
        if all(better(c, p) for c in c_all for p in p_all):
            return won, "unchanged"
        return won, "unresolved"
    worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
    return won, "worse" if worse_by > bound else "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    if not parent or not change:
        print("error: a result directory holds no result files", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    for key in COMPARABLE:
        seen = {side: {r["env"].get(key) for r in rs}
                for side, rs in (("parent", parent), ("change", change))}
        if len(seen["parent"] | seen["change"]) > 1:
            print(f"NOT COMPARABLE: {key} parent {sorted(map(str, seen['parent']))} "
                  f"change {sorted(map(str, seen['change']))}")

    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    header = ("workload", "metric", "unit", "parent median [q1, q3]",
              "change median [q1, q3]", "won", "verdict")
    rows = [header]
    for workload in workloads:
        for metric in bench["end_to_end"]:
            p = values(parent, workload, metric["name"], 0)
            c = values(change, workload, metric["name"], 0)
            if not p or not c:
                continue
            won, text = verdict(p, c, metric["better"] == "lower", metric["bound"])
            cells = []
            for side in (p, c):
                q1, med, q3 = quartiles([v for vs in side.values() for v in vs])
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            rows.append((workload, metric["name"], metric["unit"], *cells, won, text))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))

    print()
    for side, results in (("parent", parent), ("change", change)):
        for workload in workloads:
            runs = [r for r in results if r["workload"] == workload]
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            line = f"{side} {workload}: {failed}/{attempted} operations failed"
            pooled = [v for r in runs if r["trace"] == 0 for v in r["wall_s_samples"]]
            if pooled:
                line += f"; pooled wall_s samples {upper_percentile(pooled)}"
            plain = [v for vs in values(results, workload, "wall_s", 0).values() for v in vs]
            traced = [v for vs in values(results, workload, "trace.wall_s", 1).values() for v in vs]
            if plain and traced:
                overhead = statistics.median(traced) / statistics.median(plain) - 1
                line += f"; tracing overhead {overhead:+.1%} of wall_s"
            print(line)

    print()
    for workload in workloads:
        for metric in bench["per_layer"]:
            p = [v for vs in values(parent, workload, metric["name"], 1).values() for v in vs]
            c = [v for vs in values(change, workload, metric["name"], 1).values() for v in vs]
            if p and c and (any(p) or any(c)):
                pm, cm = statistics.median(p), statistics.median(c)
                ratio = f"{cm / pm:.3f}x" if pm else "n/a"
                print(f"{workload}  {metric['name']}  {pm:.4g} -> {cm:.4g} "
                      f"{metric['unit']} ({ratio})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
