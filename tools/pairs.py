"""Alternated benchmark pairs of two source trees.

    python3 tools/pairs.py A B --workload W --seed N --pairs n [--seconds S]
                           [--smoke] [--out FILE]

``A`` (the parent) and ``B`` (the change) are checkouts of this repository.
Each pair runs ``python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0`` once in each tree, ``A`` first on even pairs and ``B`` first on
odd ones, so that a drift of the host does not favour one side.  Every run
starts in a freshly made directory that holds a copy of its tree's ``src``
and ``perfbench`` and nothing else: a run does not see the outputs,
bytecode or caches that earlier runs, tests or profiles left in a checkout.

The result is one JSON object in the layout of the ``BENCH_*.json`` files:
``workloads["W/seedN"]`` holds, per end-to-end metric of ``BENCHMARK.json``,
the medians of both sides (``median_a``, ``median_b``), ``change_frac``
(``median_b / median_a - 1``), ``wins_b`` (the pairs where ``B`` is better,
in the metric's direction), the quartiles of each side (inclusive method),
``iqr_a`` and the raw values ``a`` and ``b`` in pair order, with ``n`` and
``all_correct``; ``runs`` holds each run's last stdout line with its
workload, seed, pair, tree, the side that ran first and the time.  With
``--out`` an existing file gains the workload and the runs, so the pairs of
several workloads and seeds collect in one file; without it the object is
printed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
COPIED = ("src", "perfbench")


def _copy(tree: Path, into: Path) -> Path:
    """A fresh copy of the parts of ``tree`` that a benchmark run reads."""
    into.mkdir()
    for name in COPIED:
        shutil.copytree(tree / name, into / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_work"))
    return into


def _run(tree: Path, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One ``perfbench/run.py`` run in a fresh copy of ``tree``: its last
    stdout line, with the exit code."""
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        root = _copy(tree, Path(tmp) / "tree")
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "stderr": proc.stderr[-2000:]}
    result["exit"] = proc.returncode
    return result


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs: list[dict], directions: dict[str, str]) -> dict:
    """The per-metric statistics of the pairs in ``runs`` (one workload and
    seed, each pair one run of tree ``a`` and one of ``b``)."""
    by_pair: dict[int, dict] = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["tree"]] = r
    pairs = [p for _, p in sorted(by_pair.items()) if len(p) == 2]
    out: dict = {"n": len(pairs)}
    for name, better in directions.items():
        try:
            a = [p["a"]["metrics"][name]["value"] for p in pairs]
            b = [p["b"]["metrics"][name]["value"] for p in pairs]
        except KeyError:
            continue
        if not pairs:
            continue
        qa, qb = _quartiles(a), _quartiles(b)
        median_a, median_b = statistics.median(a), statistics.median(b)
        sign = 1.0 if better == "lower" else -1.0
        out[name] = {
            "median_a": median_a, "median_b": median_b,
            "change_frac": median_b / median_a - 1.0 if median_a else 0.0,
            "wins_b": sum(sign * (y - x) < 0.0 for x, y in zip(a, b)),
            "quartiles_a": qa, "quartiles_b": qb, "iqr_a": qa[1] - qa[0],
            "a": a, "b": b}
    out["all_correct"] = all(r.get("correct") and r["exit"] == 0 for p in pairs for r in p.values())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="the parent tree")
    parser.add_argument("b", type=Path, help="the changed tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--smoke", action="store_true", help="perfbench's tiny sizes")
    parser.add_argument("--out", type=Path, help="JSON file to create or add to")
    args = parser.parse_args(argv)
    trees = {"a": args.a.resolve(), "b": args.b.resolve()}
    spec = json.loads((HERE / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs = []
    for pair in range(args.pairs):
        first = "ab"[pair % 2]
        for tree in (first, "ba"[pair % 2]):
            result = _run(trees[tree], args.workload, args.seed, args.seconds, args.smoke)
            result.update(workload=args.workload, seed=args.seed, pair=pair, tree=tree,
                          first=first, time=time.time())
            runs.append(result)
            print(f"pair {pair} {tree}: " + json.dumps(result.get("metrics", result)),
                  file=sys.stderr)

    report = json.loads(args.out.read_text(encoding="utf-8")) \
        if args.out is not None and args.out.exists() else {}
    report.setdefault("commands", {})["pairs"] = (
        f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0"
        f"{' --smoke' if args.smoke else ''}, alternated, each run in a fresh copy of its tree")
    report.setdefault("workloads", {})[f"{args.workload}/seed{args.seed}"] = \
        summarize(runs, directions)
    report.setdefault("runs", []).extend(runs)
    text = json.dumps(report, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0 if report["workloads"][f"{args.workload}/seed{args.seed}"]["all_correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
