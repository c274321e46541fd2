"""Scaling sweep of the flow over the dimensions the paper is about.

    python3 tools/sweep.py [TREE] [--smoke] [--out FILE]

For Sinai billiards in d = 2..12 (one sphere of radius 0.45 on the unit
torus, 6 starts, T = 100) and hard-disk gases of N = 2..20 disks (r = 0.05,
unit torus, d = 2N, 12 starts, T = 2), each point runs in a fresh
``python`` process with ``TREE/src`` on the path (``TREE`` defaults to the
checkout holding this script) and one thread.  It builds the domain,
samples the starts (seed 1, c0 = 0.1) and flies them in the runner's flight
groups, and reports the build, sampling and flight times in seconds, the
event count, the microseconds of flight per event (``null`` without an
event) and the process's ``ru_maxrss`` in MiB, which the lattice of a
high-dimensional Sinai billiard sets.  ``--smoke`` runs d = 2, 3 and
N = 2, 3 at T = 1.  The result is one JSON object, written to ``--out`` or
printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
THREAD_ENV = {"BILLIARD_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONDONTWRITEBYTECODE": "1"}

# one point: build the domain, sample the starts, fly them; print one JSON line
_POINT = """
import json, resource, sys, time
from billiards import build_hardball_gas, build_sinai, flight_groups, flow
from billiards.runner import sample_initial_conditions
family, size, count, T = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
t0 = time.perf_counter()
domain = build_sinai(size, 0.45, 1.0, [[0.5] * size]) if family == "sinai" \\
    else build_hardball_gas(size, 2, 0.05, 1.0)
t1 = time.perf_counter()
starts = [x for x, _ in sample_initial_conditions(domain, count, 1, 0.1)]
t2 = time.perf_counter()
events = sum(t.event_count for g in flight_groups(domain, count)
             for t in flow(domain, starts[g.start:g.stop], T))
t3 = time.perf_counter()
print(json.dumps({"build_s": t1 - t0, "sample_s": t2 - t1, "flow_s": t3 - t2,
                  "events": events, "us_per_event": 1e6 * (t3 - t2) / events if events else None,
                  "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def points(smoke: bool) -> list[tuple[str, int, int, float]]:
    """``(family, d or N, starts, T)`` of every point, in order."""
    if smoke:
        return [("sinai", 2, 2, 1.0), ("sinai", 3, 2, 1.0),
                ("hardball", 2, 2, 1.0), ("hardball", 3, 2, 1.0)]
    return [("sinai", d, 6, 100.0) for d in range(2, 13)] + \
        [("hardball", n, 12, 2.0) for n in range(2, 21)]


def run_point(tree: Path, family: str, size: int, count: int, T: float) -> dict:
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", _POINT, family, str(size), str(count), str(T)],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{family} {size}: {proc.stderr.strip()}")
    key = "d" if family == "sinai" else "N"
    return {"family": family, key: size, "dim": size if family == "sinai" else 2 * size,
            "starts": count, "T": T, **json.loads(proc.stdout.strip().splitlines()[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", type=Path, default=HERE,
                        help="checkout whose src is swept (default: this one)")
    parser.add_argument("--smoke", action="store_true", help="the four smallest points, T = 1")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    if not (tree / "src" / "billiards" / "__init__.py").is_file():
        print(f"error: no billiards package under {tree / 'src'}", file=sys.stderr)
        return 2
    report = {"tree": str(tree), "host": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                                         f"Python {platform.python_version()}",
              "points": []}
    for point in points(args.smoke):
        report["points"].append(run_point(tree, *point))
        print(json.dumps(report["points"][-1]), file=sys.stderr)
    text = json.dumps(report, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
