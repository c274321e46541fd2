"""Self-test of the benchmark on its smoke size.

    python3 -m pytest -q perfbench

Runs each workload through the same code path as a measured run, at the
smoke size, and checks that every metric named in ``BENCHMARK.json``
appears with its unit, that the exact counts repeat, and that the
correctness gate fires on a wrong fingerprint.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run as bench
import workloads as wl

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _smoke(workload: str, trace: int, seed: int = bench.DEFAULT_SEED) -> dict:
    proc = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload", workload, "--smoke",
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, cwd=bench.ROOT, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == bench.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_exact_counts_repeat_across_runs():
    first = _smoke("run_sinai2d_long", 1)["metrics"]
    second = _smoke("run_sinai2d_long", 1)["metrics"]
    for k in bench.EXACT:
        assert first[k]["value"] == second[k]["value"]
    assert first["dynamics.events"]["value"] > 0 and first["runner.csv_bytes"]["value"] > 0


@pytest.fixture(scope="module")
def prog():
    return bench.load_program()


def test_pinned_fingerprints_pass(prog):
    result = bench.measure(prog, "run_hardball6", bench.HELD_OUT_SEED, 0.1, trace=False,
                           size="smoke")
    assert result["correct"] and result["failed"] == 0


def test_wrong_fingerprint_fails_every_trajectory(prog, capsys):
    pins = bench.load_pins()
    pinned = pins["smoke"]["run_hardball6"][str(bench.DEFAULT_SEED)]
    pinned["events"] += 1
    result = bench.measure(prog, "run_hardball6", bench.DEFAULT_SEED, 0.1, trace=False,
                           size="smoke", pins=pins)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["verified_fraction"]["value"] == 0.0
    assert "fingerprint" in capsys.readouterr().err
