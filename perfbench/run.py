"""Dump-to-report benchmark of the wikilinks command line.

    python3 perfbench/run.py --workload {build,eval-text} \\
        --seed N --seconds S --trace {0,1}

One client runs the workload's CLI commands one after another in this
process (a closed loop), repeating the whole sequence until ``--seconds``
have passed. Before every iteration a child process regenerates the
inputs from ``--seed`` (set-up), so set-ups are spread over the run like
the iterations; every set-up must write the same bytes. Every
iteration's outputs are checked: against the references recorded for
the seed in ``references.json`` when there are any, against
seed-independent invariants always, and against the first iteration's
outputs. A command fails when it exits non-zero, raises, writes a failed
evaluation row or writes an output that fails a check; any failure makes
this script exit 1.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``setup_s`` is the median set-up time, ``wall_s`` the time of the
fastest iteration and ``peak_rss_mb`` the peak resident memory of this
process. On a shared cloud host the CPU speed shifts by up to 1.8x for
seconds to minutes at a time (seen on a 2-vCPU VM), so a run's median
iteration follows how long the run happened to spend slowed down; its
fastest iteration moves less. The median, the upper percentile and the
count are printed and kept in the result file as well. With
``--trace 1`` the same loop runs with spans around the program's entry
points (see ``tracing.py``) and the line carries the per-layer metrics.
A result file with the environment, every sample and every check lands
in ``.perfbench/results/``; the traced run writes its spans beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def files_sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    """What must match before two result sets are compared."""
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "git_commit": commit,
        "src_sha256": files_sha256(SRC.rglob("*.py")),
        "bench_sha256": files_sha256(p for p in BENCH.iterdir() if p.is_file()),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def run_command(cli_main, argv: list[str], tracer) -> tuple[int | str, str, float]:
    """(exit code or error, stdout, seconds) of one in-process CLI call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    span = tracer.span("cli." + argv[0].replace("-", "_")) if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - a crash is a failed operation, recorded
        code = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if code != 0 and stderr.getvalue():
        code = f"{code}: {stderr.getvalue().strip()[-300:]}"
    return code, stdout.getvalue(), seconds


@contextlib.contextmanager
def set_up(workload: str, seed: int, inputs: Path):
    """Start the set-up process; yield a function that regenerates the
    inputs and returns (seconds, input hash) of that generation."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(SRC), os.environ.get("PYTHONPATH")))))
    child = subprocess.Popen([sys.executable, str(BENCH / "workloads.py"), workload, str(seed),
                              str(inputs)], env=env, stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)

    def generate() -> tuple[float, str]:
        child.stdin.write("\n")
        child.stdin.flush()
        line = child.stdout.readline()
        if not line:
            raise RuntimeError(f"set-up process exited with code {child.wait()}")
        seconds, digest = json.loads(line)
        return seconds, digest

    try:
        yield generate
    finally:
        child.stdin.close()
        try:
            child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        child.stdout.close()


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 reference: dict | None, work: Path) -> dict:
    """Set up, run the closed loop, check every iteration; the result record."""
    import tracing
    import workloads
    from wikilinks.cli import main as cli_main

    inputs, out = work / "inputs", work / "out"
    problems: list[tuple[str, str]] = []
    tracer = tracing.Tracer() if trace else None
    patches = (tracing.installed(tracer, workloads.SPEC["trace_entry_points"]) if trace
               else contextlib.nullcontext())
    argvs = workloads.commands(workload, inputs, out)
    dump = inputs / "dump.xml"
    setup_s, input_hashes, wall_s, iterations, layers, first = [], [], [], [], [], None
    attempted = failed = 0
    with set_up(workload, seed, inputs) as generate, patches:
        # Start an iteration only if one as long as the last would still
        # end within the run, so a run measures at most ``seconds`` (and
        # at least one iteration).
        start = time.perf_counter()
        cycle = 0.0
        while not wall_s or time.perf_counter() - start + cycle <= seconds:
            cycle_start = time.perf_counter()
            generated_s, input_hash = generate()
            setup_s.append(generated_s)
            input_hashes.append(input_hash)
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            gc.collect()
            if tracer:
                tracer.trace_id = len(wall_s)
                tracer.counts.clear()
                if dump.exists():
                    tracer.counts["ingest.dump_bytes"] = dump.stat().st_size
            begin = time.perf_counter()
            calls = [(argv[0], *run_command(cli_main, argv, tracer)) for argv in argvs]
            wall_s.append(time.perf_counter() - begin)
            if tracer:
                layers.append(tracing.iteration_layers(tracer, tracer.trace_id, tracer.counts))

            found = [(name, f"exit {code}") for name, code, _, _ in calls if code != 0]
            fp = None
            if not found:
                stdout = {name: text for name, _, text, _ in calls}
                try:
                    found += workloads.check(workload, seed, out, stdout)
                    fp = workloads.fingerprint(workload, out)
                except (OSError, ValueError, KeyError) as exc:
                    found.append((argvs[-1][0], f"output check raised {exc!r}"))
            if fp is not None:
                if first is None:
                    first = fp
                found += workloads.compare_fingerprints(fp, first, "differs from iteration 0")
                if reference is not None:
                    found += workloads.compare_fingerprints(fp, reference, "reference")
            failed_names = {name for name, _ in found}
            attempted += len(calls)
            failed += sum(1 for name, *_ in calls if name in failed_names)
            problems += found
            iterations.append({"commands": {name: {"exit": code, "seconds": s}
                                            for name, code, _, s in calls},
                               "problems": [f"{n}: {p}" for n, p in found]})
            cycle = time.perf_counter() - cycle_start
    if len(set(input_hashes)) != 1:
        problems.append(("setup", "repeated set-ups wrote different inputs"))
    if trace:
        metrics = {name: (value, unit_of(name)) for name, value
                   in tracing.median_layers(layers).items()}
        metrics["trace.wall_s"] = (min(wall_s), "s")
        for key in ("lsa/inductive", "lsa/transductive", "atilp/inductive",
                    "atilp/transductive", "deepwalk/transductive"):
            row = (first or {}).get("results", {}).get(key)
            metrics["auc." + key.replace("/", ".")] = (row["auc_mean"] if row else 0.0, "%")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_s": (min(wall_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "reference_checked": reference is not None,
        "setup_s_samples": setup_s, "wall_s_samples": wall_s,
        "attempted": attempted, "failed": failed,
        "correct": not problems, "problems": [f"{n}: {p}" for n, p in problems],
        "fingerprint": first, "iterations": iterations,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "spans": tracer,
    }


def unit_of(name: str) -> str:
    for suffix, unit in (("mb_per_s", "MB/s"), ("kb_per_s", "KB/s"), ("per_s", "1/s"),
                         ("_s", "s"), ("_frac", "ratio"), ("bytes_written", "bytes"),
                         ("matrix_cells", "cells")):
        if name.endswith(suffix):
            return unit
    return "count"


def upper_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}; no percentile has ten samples beyond it"
    return f"n={n}; p{100 * (n - 10) // n} {sorted(samples)[n - 11]:.4g} s"


def summary(result: dict) -> list[str]:
    """Human-readable lines printed before the result line."""
    n = len(result["wall_s_samples"])
    lines = [f"workload {result['workload']} seed {result['seed']} trace {result['trace']}: "
             f"{n} iterations, {result['attempted']} operations, {result['failed']} failed",
             f"ops_failed_frac {result['failed'] / max(result['attempted'], 1):.4f} ratio",
             "references: " + ("checked" if result["reference_checked"] else
                               "none recorded for this seed, invariant checks only")]
    for name, metric in result["metrics"].items():
        note = ""
        if name == "wall_s":
            note = (f" (fastest iteration; median {statistics.median(result['wall_s_samples']):.6g}"
                    f" s; {upper_percentile(result['wall_s_samples'])})")
        elif name == "setup_s":
            note = f" (median of {len(result['setup_s_samples'])} set-ups)"
        lines.append(f"{name} {metric['value']:.6g} {metric['unit']}{note}")
    for row, values in ((result["fingerprint"] or {}).get("results") or {}).items():
        lines.append(f"auc.{row.replace('/', '.')} {values['auc_mean']:.4f} %")
    lines += [f"FAILED {problem}" for problem in result["problems"][:20]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wikilinks" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'wikilinks'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wikilinks
    import workloads

    if Path(wikilinks.__file__).resolve().parent != SRC / "wikilinks":
        print(f"error: imported wikilinks from {wikilinks.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    references = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    reference = references.get(args.workload, {}).get(str(args.seed))

    (STATE / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=STATE / "work"))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              reference, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    tracer = result.pop("spans")
    if tracer is not None:
        tracer.write(results / f"{stem}.spans.jsonl.gz")
    result["env"] = environment()
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print("\n".join(summary(result)))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
