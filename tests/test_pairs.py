"""``tools/pairs.py``: alternated benchmark pairs of two trees, here one tree
against itself at perfbench's smoke size, and its statistics."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_one_smoke_pair_of_a_tree_against_itself(tmp_path):
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pairs.py"), str(ROOT), str(ROOT),
         "--workload", "run_sinai_d8", "--seed", "1", "--pairs", "1", "--smoke",
         "--seconds", "0.1", "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    entry = report["workloads"]["run_sinai_d8/seed1"]
    assert entry["n"] == 1 and entry["all_correct"]
    for name in ("wall_s", "setup_s", "peak_rss_mb", "verified_fraction"):
        m = entry[name]
        assert m["a"] == [m["median_a"]] and m["b"] == [m["median_b"]]
        assert m["quartiles_a"] == [m["median_a"]] * 2 and m["iqr_a"] == 0.0
    assert [(r["pair"], r["tree"], r["first"], r["exit"]) for r in report["runs"]] == \
        [(0, "a", "a", 0), (0, "b", "a", 0)]


def _run(pair, tree, wall, fraction=1.0):
    return {"pair": pair, "tree": tree, "correct": True, "exit": 0,
            "metrics": {"wall_s": {"value": wall}, "verified_fraction": {"value": fraction}}}


def test_statistics_follow_each_metric_direction():
    runs = [_run(0, "a", 4.0), _run(0, "b", 3.0), _run(1, "b", 5.0), _run(1, "a", 2.0),
            _run(2, "a", 6.0, 0.5), _run(2, "b", 1.0), _run(3, "a", 8.0)]   # pair 3 unfinished
    entry = pairs.summarize(runs, {"wall_s": "lower", "verified_fraction": "higher",
                                   "setup_s": "lower"})
    assert entry["n"] == 3 and entry["all_correct"] and "setup_s" not in entry
    wall = entry["wall_s"]
    assert (wall["a"], wall["b"]) == ([4.0, 2.0, 6.0], [3.0, 5.0, 1.0])
    assert (wall["median_a"], wall["median_b"], wall["wins_b"]) == (4.0, 3.0, 2)
    assert wall["quartiles_a"] == [3.0, 5.0] and wall["iqr_a"] == 2.0
    assert wall["change_frac"] == 3.0 / 4.0 - 1.0
    assert entry["verified_fraction"]["wins_b"] == 1
