"""The two workloads: seeded inputs, the CLI commands of one iteration,
and the checks on what those commands write.

Run as a script, this module is the set-up process: for each line it
reads, it generates one workload's inputs afresh into a directory and
prints, as a JSON list on one line, the seconds generation took
(excluding interpreter start-up and imports) and the hash of what it
wrote. Set-up runs in a process of its own so that its memory never
counts toward the measured process:

    python3 perfbench/workloads.py <workload> <seed> <directory>

``build`` gets a planted-topic MediaWiki dump; ``eval-text`` gets a
planted dataset directory plus an experiment config. The program under
test only ever sees these files.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import time
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(SPEC["workloads"])
AUC_TOLERANCE = 1e-9  # the tolerance ROADMAP allows for reordered float sums
_TITLE_RE = re.compile(r"E(\d+) t(\d+)w\d+")


def corpus_params(workload: str, seed: int):
    from wikilinks.synthetic import PlantedCorpusParams

    return PlantedCorpusParams(**SPEC["workloads"][workload]["corpus"], seed=seed)


def make_inputs(workload: str, seed: int, directory: Path) -> None:
    from wikilinks.synthetic import planted_dataset, planted_dump_xml

    directory.mkdir(parents=True)
    params = corpus_params(workload, seed)
    if workload == "build":
        (directory / "dump.xml").write_bytes(planted_dump_xml(params).encode("utf-8"))
    else:
        planted_dataset(params).save(directory / "data")
        config = json.dumps(SPEC["workloads"][workload]["config"], indent=2, sort_keys=True)
        (directory / "config.json").write_text(config + "\n", encoding="utf-8")


def tree_sha256(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(directory)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commands(workload: str, inputs: Path, out: Path) -> list[list[str]]:
    """The CLI invocations of one iteration, in order."""
    if workload == "build":
        sub = SPEC["workloads"]["build"]["subgraph"]
        full = str(out / "full")
        return [
            ["ingest", "--dump", str(inputs / "dump.xml"), "--out", full],
            ["subgraph", "--data", full, "--seed-article", sub["seed_article"],
             "--k", str(sub["k"]), "--out", str(out / "sub")],
            ["dataset-stats", "--data", full, "--samples-out", str(out / "full" / "samples.tsv")],
        ]
    results = out / "results"
    return [
        ["eval", "--data", str(inputs / "data"), "--config", str(inputs / "config.json"),
         "--out", str(results)],
        ["report", "--report", str(results / "report.json")],
    ]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fingerprint(workload: str, out: Path) -> dict:
    """What the reference check compares: artifact hashes for ``build``,
    report values and split hashes for the eval workloads."""
    if workload == "build":
        return {
            "articles.jsonl": _sha256(out / "full" / "articles.jsonl"),
            "links.tsv": _sha256(out / "full" / "links.tsv"),
            "samples.tsv": _sha256(out / "full" / "samples.tsv"),
            "remap.tsv": _sha256(out / "sub" / "remap.tsv"),
        }
    records = json.loads((out / "results" / "report.json").read_text(encoding="utf-8"))
    results, split_hash = {}, {}
    for record in records:
        if "auc_mean" not in record:
            continue
        results[f"{record['method']}/{record['mode']}"] = {
            key: record[key] for key in ("auc_mean", "auc_std", "p_mean", "p_std", "r_mean", "r_std")
        }
        split_hash[record["mode"]] = record["split_hash"]
    return {"results": results, "split_hash": split_hash}


# Which command wrote each fingerprint entry, so a mismatch fails that command.
_OWNER = {"articles.jsonl": "ingest", "links.tsv": "ingest", "samples.tsv": "dataset-stats",
          "remap.tsv": "subgraph", "results": "eval", "split_hash": "eval"}


def compare_fingerprints(found: dict, expected: dict, what: str) -> list[tuple[str, str]]:
    """(command, problem) for every entry of ``found`` that differs from ``expected``."""
    problems = []
    for key, want in expected.items():
        got = found.get(key)
        if key == "results":
            if set(got or {}) != set(want):
                problems.append((_OWNER[key], f"{what}: result rows {sorted(got or {})}"))
                continue
            for row, values in want.items():
                for name, value in values.items():
                    if abs(got[row][name] - value) > AUC_TOLERANCE:
                        problems.append((_OWNER[key], f"{what}: {row} {name} "
                                         f"{got[row][name]!r} != {value!r}"))
        elif got != want:
            problems.append((_OWNER[key], f"{what}: {key} {got} != {want}"))
    return problems


def _read_tsv(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line]


def check_build(params, out: Path, stdout: dict[str, str]) -> list[tuple[str, str]]:
    """Invariants of a planted corpus that hold for every seed: article
    E<n> has id n and topic n // docs_per_topic, each document links to
    ``links_per_doc`` same-topic documents, and only cross-topic titles
    are mentioned, so a candidate is positive exactly when it is a link."""
    problems = []
    n_docs = params.n_docs
    articles = [json.loads(line) for line in
                (out / "full" / "articles.jsonl").read_text(encoding="utf-8").splitlines()]
    topic = {}
    for article in articles:
        match = _TITLE_RE.fullmatch(article["title"])
        if match is None or int(match.group(1)) != article["id"]:
            problems.append(("ingest", f"article {article['id']} has title {article['title']!r}"))
            break
        topic[article["id"]] = int(match.group(1)) // params.docs_per_topic
    if len(articles) != n_docs:
        problems.append(("ingest", f"{len(articles)} articles, expected {n_docs}"))
    n_aliases = sum(len(article["aliases"]) for article in articles)
    if n_aliases != params.aliases:
        problems.append(("ingest", f"{n_aliases} redirect aliases, expected {params.aliases}"))
    links = {(int(s), int(t)) for s, t, _ in _read_tsv(out / "full" / "links.tsv")}
    expected_links = n_docs * min(params.links_per_doc, params.docs_per_topic - 1)
    if len(links) != expected_links:
        problems.append(("ingest", f"{len(links)} links, expected {expected_links}"))
    if any(topic.get(s) != topic.get(t) for s, t in links):
        problems.append(("ingest", "a link crosses topics"))
    if f"links: {expected_links}" not in stdout.get("ingest", ""):
        problems.append(("ingest", "stdout does not report the link count"))

    remap = [tuple(map(int, row)) for row in _read_tsv(out / "sub" / "remap.tsv")]
    k = SPEC["workloads"]["build"]["subgraph"]["k"]
    old_ids = {old for old, _ in remap}
    if sorted(new for _, new in remap) != list(range(k)) or len(old_ids) != k \
            or not old_ids <= set(range(n_docs)) or 0 not in old_ids:
        problems.append(("subgraph", "remap.tsv is not a bijection of k ids containing the seed"))

    positives = 0
    for s, t, label, _ in _read_tsv(out / "full" / "samples.tsv"):
        pair = (int(s), int(t))
        positives += label == "1"
        if (label == "1") != (pair in links) or (label == "0" and topic[pair[0]] == topic[pair[1]]):
            problems.append(("dataset-stats", f"sample {pair} labeled {label}"))
            break
    if positives != len(links):
        problems.append(("dataset-stats", f"{positives} positive samples for {len(links)} links"))
    return problems


def check_eval(workload: str, out: Path, stdout: dict[str, str]) -> list[tuple[str, str]]:
    """No failed rows, every method and mode reported, at_anchor recall
    100, P = R for ranked methods, and the quality ordering of the paper:
    atilp >= lsa > random in both modes, and deepwalk > random in
    transductive mode, the only one DeepWalk runs in."""
    config = SPEC["workloads"][workload]["config"]
    modes = ("inductive", "transductive") if config["mode"] == "both" else (config["mode"],)
    records = json.loads((out / "results" / "report.json").read_text(encoding="utf-8"))
    problems = [("eval", f"failed row: {r}") for r in records if "error" in r]
    rows = {(r["method"], r["mode"]): r for r in records if "auc_mean" in r}
    for method in config["methods"]:
        for mode in modes:
            if mode == "inductive" and method == "deepwalk":
                continue
            row = rows.get((method, mode))
            if row is None:
                problems.append(("eval", f"no result for {method} in {mode} mode"))
            elif method == "at_anchor" and row["r_mean"] != 100.0:
                problems.append(("eval", f"at_anchor recall {row['r_mean']} in {mode} mode"))
            elif method not in ("at_anchor", "at_title") and row["p_mean"] != row["r_mean"]:
                problems.append(("eval", f"{method} P != R in {mode} mode"))
        if f"| {method} |" not in stdout.get("report", ""):
            problems.append(("report", f"no table row for {method}"))
    if problems:
        return problems
    auc = {key: row["auc_mean"] for key, row in rows.items()}
    for mode in modes:
        ordered = auc["atilp", mode] >= auc["lsa", mode] > auc["random", mode]
        if mode == "transductive":
            ordered = ordered and auc["deepwalk", mode] > auc["random", mode]
        if not ordered:
            problems.append(("eval", f"AUC ordering broken in {mode} mode: "
                             f"{ {m: a for (m, md), a in auc.items() if md == mode} }"))
    return problems


def check(workload: str, seed: int, out: Path, stdout: dict[str, str]) -> list[tuple[str, str]]:
    if workload == "build":
        return check_build(corpus_params(workload, seed), out, stdout)
    return check_eval(workload, out, stdout)


if __name__ == "__main__":
    import shutil

    import wikilinks.synthetic  # noqa: F401 - imported before the clock starts

    workload, seed, directory = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    for _ in sys.stdin:
        shutil.rmtree(directory, ignore_errors=True)
        start = time.perf_counter()
        make_inputs(workload, seed, directory)
        seconds = time.perf_counter() - start
        print(json.dumps([seconds, tree_sha256(directory)]), flush=True)
