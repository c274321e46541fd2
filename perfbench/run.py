"""Ensemble benchmark for the ``billiard`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, both modes
    python3 perfbench/run.py --workload NAME --smoke # tiny sizes, same code path

Run from the repository root.  The benchmark drives the package the way a
user does, through ``billiards.cli.main(["run" | "verify", config])``, in
this process with stdout captured.  Each workload is a closed loop with one
client: one process, ``BILLIARD_THREADS=1``, passes run one after another.
A pass runs every config of the workload once.

``--trace 0`` times passes for ``--seconds`` and reports the end-to-end
metrics: the median pass time, i.e. the time to a verified ensemble
(``wall_s``); the median of 15 imports of the package plus config loads in
a fresh child process (``setup_s``); the peak resident memory of this
process (``peak_rss_mb``); and the share of trajectories that passed every
check (``verified_fraction`` = 1 - failed fraction; a metric must not be 0).
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the spans (see ``spans.py``), the tracing overhead and the
share of ``run_experiment`` that the layer spans cover.

Times are in seconds at a reference host speed: each pass time is scaled
by the host speed measured while it ran (see ``speed.py``), which cancels
the up to twofold drift of a shared VM.  The raw times and the factors are
printed with the provenance.

Every pass is checked: exit code 0, no failed check, adjoint residual at
most 1e-8 in ``verify``, the pinned fingerprint (trajectory count, total
events, termination histogram) for the pinned seeds, and outputs identical
to the first pass.  A failed trajectory, or every trajectory of a pass that
fails a pass-level check, counts against ``verified_fraction``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Provenance (CPU, versions,
seeds, workload parameters) is printed on the line before it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
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
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans
import speed
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS_PATH = HERE / "fingerprints.json"

DEFAULT_SEED = 1
HELD_OUT_SEED = 2            # never used while tuning a change; claims must hold on it too
ADJOINT_LIMIT = 1e-8
SETUP_REPEATS = 15
MIN_PASSES = 3
MIN_ROUNDS_TRACED = 2
THREAD_ENV = {"BILLIARD_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
                    "verified_fraction": "fraction"}
PER_LAYER_UNITS = {
    "dynamics.flow_us_per_event": "us", "dynamics.window_us": "us",
    "dynamics.events": "count", "dynamics.window_scans": "count",
    "dynamics.hit_ratio": "fraction",
    "geometry.curvature_calls": "count", "geometry.curvature_us_per_event": "us",
    "transport.covector_us_per_event": "us", "transport.adjoint_us_per_event": "us",
    "transport.tangent_transports": "count",
    "diagnostics.monotonicity_us_per_event": "us", "diagnostics.growth_us_per_event": "us",
    "diagnostics.records_us_per_event": "us", "diagnostics.samples": "count",
    "runner.traj_ms_p50": "ms", "runner.traj_ms_p90": "ms", "runner.traj_count": "count",
    "runner.sample_ms": "ms", "runner.csv_ms": "ms", "runner.csv_bytes": "bytes",
    "runner.self_ms": "ms", "config.load_ms": "ms", "cli.report_ms": "ms",
    "trace.coverage": "fraction", "trace_overhead_frac": "fraction",
}
# Counts that must repeat exactly between passes, runs and sets of runs.
EXACT = ("dynamics.events", "dynamics.window_scans", "geometry.curvature_calls",
         "transport.tangent_transports", "diagnostics.samples", "runner.csv_bytes",
         "runner.traj_count")


def load_program() -> dict:
    """Import the package from this checkout's ``src`` with threads pinned."""
    if not (SRC / "billiards" / "__init__.py").is_file():
        raise SystemExit(f"error: no billiards package under {SRC}")
    os.environ.update(THREAD_ENV)
    speed.pin_to_current_cpu()
    sys.path.insert(0, str(SRC))
    import billiards
    from billiards import cli, dynamics, runner, transport
    if Path(billiards.__file__).resolve().parent != SRC / "billiards":
        raise SystemExit(f"error: billiards imported from {billiards.__file__}, not {SRC}")
    return {"cli": cli, "runner": runner, "transport": transport, "dynamics": dynamics}


@dataclass
class Pass:
    wall: float
    codes: list[int]
    summaries: list[dict | None]
    digest: str


def run_pass(prog: dict, workload: wl.Workload, configs: list[Path], out_root: Path,
             main=None) -> Pass:
    """Run every config once through ``cli.main``; time only the calls."""
    main = main or prog["cli"].main
    wall = 0.0
    codes, summaries = [], []
    digest = hashlib.sha256()
    for cfg in configs:
        out = out_root / cfg.stem
        shutil.rmtree(out, ignore_errors=True)
        sink = io.StringIO()
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = main([workload.mode, str(cfg), "--out", str(out)])
        except Exception:  # a crash fails the pass; the run goes on
            traceback.print_exc()
            code = -1
        wall += time.perf_counter() - t0
        codes.append(code)
        summaries.append(_read_summary(workload.mode, sink.getvalue(), out))
        digest.update(sink.getvalue().encode())
        for path in sorted(out.glob("*")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return Pass(wall, codes, summaries, digest.hexdigest())


def _read_summary(mode: str, stdout: str, out: Path) -> dict | None:
    try:
        if mode == "verify":
            return json.loads(stdout)
        return json.loads((out / "summary.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def fingerprint(summaries: list[dict | None]) -> dict:
    """Trajectory count, total events and termination histogram of a pass."""
    terms: dict[str, int] = {}
    n = events = 0
    for s in summaries:
        if s is None:
            continue
        n += s["n_trajectories"]
        for t in s["trajectories"]:
            events += t["event_count"]
            terms[t["termination"]] = terms.get(t["termination"], 0) + 1
    return {"trajectories": n, "events": events, "terminations": dict(sorted(terms.items()))}


def check_pass(workload: wl.Workload, families, p: Pass, pinned: dict | None,
               first_digest: str | None) -> tuple[int, int, list[str]]:
    """Returns (attempted, failed, problems) for one pass."""
    attempted = sum(f.count for f in families)
    failed = 0
    problems = []
    for fam, code, s in zip(families, p.codes, p.summaries):
        if code != 0 or s is None or s["n_trajectories"] != fam.count \
                or s["ensemble"]["check_failures"] != 0:
            problems.append(f"{fam.label}: exit code {code}, or a failed check")
            failed += fam.count
            continue
        for t in s["trajectories"]:
            bad = any(c["status"] == "fail" for c in t["checks"])
            if workload.mode == "verify":
                res = t.get("adjoint_residual")
                bad = bad or res is None or res > ADJOINT_LIMIT
            failed += bad
        worst = s["ensemble"].get("worst_adjoint_residual")
        if workload.mode == "verify" and (worst is None or worst > ADJOINT_LIMIT):
            problems.append(f"{fam.label}: adjoint residual {worst} above {ADJOINT_LIMIT}")
    if pinned is not None and fingerprint(p.summaries) != pinned:
        problems.append(f"fingerprint {fingerprint(p.summaries)} != pinned {pinned}")
    if first_digest is not None and p.digest != first_digest:
        problems.append("outputs differ from the first pass")
    if problems:
        failed = attempted
    return attempted, failed, problems


def measure_setup(configs: list[Path], repeats: int) -> tuple[float, float]:
    """Set-up time from a fresh process: (median raw seconds, speed factor)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(repeats),
         *map(str, configs)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env={**os.environ, **THREAD_ENV}, check=True)
    probe = json.loads(out.stdout.splitlines()[-1])
    return probe["raw_s"], probe["factor"]


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def measure(prog: dict, name: str, seed: int, seconds: float, trace: bool,
            size: str = "full", pins: dict | None = None) -> dict:
    """One benchmark run of one workload; returns the result object."""
    workload = wl.WORKLOADS[name]
    families = workload.families(size)
    pins = load_pins() if pins is None else pins
    pinned = pins.get(size, {}).get(name, {}).get(str(seed))
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "warm").mkdir(parents=True)
    tracer = spans.Tracer(prog)
    traced_main = tracer.span(spans.ROOT, prog["cli"].main)
    attempted = failed = 0
    problems: list[str] = []
    first_digest = None
    raw = {False: [], True: []}        # pass wall times, untraced and traced
    factors = {False: [], True: []}    # speed factor of each pass
    layer = []
    try:
        configs = wl.write_configs(workload, size, seed, work)
        setup_raw, setup_factor = measure_setup(configs, SETUP_REPEATS)
        # lazy imports and first-call caches fill before timing
        run_pass(prog, workload, wl.write_configs(workload, "smoke", seed, work / "warm"),
                 work / "out")
        start = time.perf_counter()
        while True:
            for traced in ((False, True) if trace else (False,)):
                if traced:
                    tracer.reset()
                    tracer.install()
                try:
                    with speed.SpeedSampler() as sampler:
                        p = run_pass(prog, workload, configs, work / "out",
                                     traced_main if traced else None)
                finally:
                    tracer.uninstall()
                raw[traced].append(p.wall)
                factors[traced].append(sampler.factor())
                if traced:
                    layer.append(_scaled(tracer.metrics(), sampler.factor()))
                a, f, probs = check_pass(workload, families, p, pinned, first_digest)
                first_digest = first_digest or p.digest
                attempted += a
                failed += f
                problems += probs
            elapsed = time.perf_counter() - start
            rounds = len(raw[False])
            if rounds >= (MIN_ROUNDS_TRACED if trace else MIN_PASSES) \
                    and elapsed * (rounds + 1) / rounds > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = {t: [w * f for w, f in zip(raw[t], factors[t])] for t in raw}
    end_to_end = {"wall_s": statistics.median(walls[False]),
                  "setup_s": setup_raw * setup_factor,
                  "peak_rss_mb": peak_rss_mb,
                  "verified_fraction": 1.0 - failed / attempted}
    if trace:
        metrics = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        for k in EXACT:
            metrics[k] = layer[0][k]
            if len({m[k] for m in layer}) != 1:
                problems.append(f"{k} differs between traced passes: {[m[k] for m in layer]}")
        metrics["trace_overhead_frac"] = \
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        units = PER_LAYER_UNITS
    else:
        metrics, units = end_to_end, END_TO_END_UNITS
    for msg in dict.fromkeys(problems):
        print(f"{name}: {msg}", file=sys.stderr)
    prov = provenance(name, seed, size, seconds)
    prov.update(pass_raw_s=raw[False], pass_speed_factor=factors[False],
                traced_pass_raw_s=raw[True], traced_pass_speed_factor=factors[True],
                setup_raw_s=setup_raw, setup_speed_factor=setup_factor)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "end_to_end": end_to_end,
        "provenance": prov,
    }


def _scaled(metrics: dict, factor: float) -> dict:
    """Per-layer times at the reference speed, like the end-to-end times."""
    return {k: v * factor if PER_LAYER_UNITS[k] in ("us", "ms") else v
            for k, v in metrics.items()}


def provenance(name: str, seed: int, size: str, seconds: float) -> dict:
    import numpy
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"workload": name, "mode": wl.WORKLOADS[name].mode, "seed": seed,
            "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "size": size,
            "seconds": seconds, "families": wl.describe(wl.WORKLOADS[name], size),
            "nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "reference_spin_s": speed.REFERENCE_SPIN_S,
            "env": {k: os.environ.get(k) for k in THREAD_ENV}}


def report(result: dict) -> None:
    """Human-readable lines: every metric of the run by name with its unit."""
    prov = result["provenance"]
    print(f"# {prov['workload']} seed={prov['seed']} passes={len(prov['pass_raw_s'])} "
          f"traced_passes={len(prov['traced_pass_raw_s'])} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    shown = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result["end_to_end"].items()}
    shown.update(result["metrics"])
    for k, m in shown.items():
        print(f"  {k:40s} {m['value']:>16.6g} {m['unit']}")
    print("provenance " + json.dumps(prov, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same code path")
    args = parser.parse_args(argv)
    prog = load_program()
    size = "smoke" if args.smoke else "full"
    if args.workload != "all":
        result = measure(prog, args.workload, args.seed, args.seconds, bool(args.trace), size)
        report(result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0
    combined = {}
    for name in wl.WORKLOADS:
        for trace in (False, True):
            result = measure(prog, name, args.seed, args.seconds, trace, size)
            report(result)
            combined[f"{name}/trace{int(trace)}"] = {
                k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
