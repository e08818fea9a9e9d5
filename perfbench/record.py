"""Record this commit's outputs as the references ``run.py`` checks.

    python3 perfbench/record.py [SEED ...]

Runs one iteration of every workload for each seed (default: 0-15 and
the second seed in ``spec.json``), requires every invariant check to
pass, and stores per workload and seed the fingerprint of the outputs
in ``references.json``: artifact hashes for ``build``, report values
and split hashes for the eval workloads. Run it only in a change that
intends to move the references, and say why in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [*range(16), workloads.SPEC["second_seed"]]
    sys.path.insert(0, str(run.SRC))
    path = run.BENCH / "references.json"
    references = json.loads(path.read_text(encoding="utf-8"))
    (run.STATE / "work").mkdir(parents=True, exist_ok=True)
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            work = tempfile.mkdtemp(prefix=f"{workload}-", dir=run.STATE / "work")
            try:
                result = run.run_workload(workload, seed, 0, False, None, Path(work))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed} failed:", *result["problems"], sep="\n  ")
                return 1
            references.setdefault(workload, {})[str(seed)] = result["fingerprint"]
            print(f"{workload} seed {seed}: recorded", flush=True)
        path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
