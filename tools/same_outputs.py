"""Check that two source trees write byte-identical outputs.

    python3 tools/same_outputs.py OTHER_TREE

``OTHER_TREE`` is a checkout of this repository; it is compared with the
checkout holding this script.  The configs are the four benchmark workloads
at full size (``perfbench/workloads.py`` of this checkout, imported and not
changed), for seeds 1 and 2, and twenty-nine configs that no workload covers,
at the same seeds (:data:`EXTRA`), among them the grazing and event-cap
endings, a run without ``c0``, a range error, a sampler that gives up,
ensembles of several groups as large as the byte budget allows, hard-disk
ensembles whose rounds the kernel slices, and the passes of 12 and 6 hard
disks split at the budget: kernel slices, flight groups, check groups and
CSV passes at d = 24, adjoint blocks at d = 12, and two runs that write the
adjoint residuals into ``summary.json`` beside their CSVs.
Each config runs in a fresh ``python -m billiards`` process per tree, with
that tree's ``src`` on the path and one thread: ``run`` or ``verify`` as its
workload says, and ``verify --corrupt-curvature`` on the four acceptance
configs, the closed box, the cylinder in a box, the 100 hard-disk starts and
the 80 and 200 starts on 6 hard disks (:data:`EXTRA_CORRUPT`).  Every output file,
the stdout, the stderr and the exit code of each command are compared; the
script prints ``identical`` or the first file that differs, and exits 0 or 1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
THREAD_ENV = {"BILLIARD_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONDONTWRITEBYTECODE": "1"}

_WALLS = [
    {"kind": "halfspace", "plane_point": [0.0, 0.0], "plane_normal": [1.0, 0.0]},
    {"kind": "halfspace", "plane_point": [1.0, 0.0], "plane_normal": [-1.0, 0.0]},
    {"kind": "halfspace", "plane_point": [0.0, 0.0], "plane_normal": [0.0, 1.0]},
    {"kind": "halfspace", "plane_point": [0.0, 1.0], "plane_normal": [0.0, -1.0]},
]
_DISK = {"kind": "sphere", "center": [0.5, 0.5], "radius": 0.2}
# the same four walls in 3-d, parallel to the z axis
_WALLS_3D = [{**w, "plane_point": [*w["plane_point"], 0.0],
              "plane_normal": [*w["plane_normal"], 0.0]} for w in _WALLS]


def _sinai(d: int, r: float, L: float, centers: list) -> dict:
    return {"kind": "sinai", "d": d, "r": r, "L": L, "centers": centers}

# a grazing cutoff of 0.3 and a cap of 12 events: on 2-d Sinai, seed 1,
# 9 trajectories end at the cap, 6 grazing and 5 at the horizon
_GRAZE_CAP = {"tolerances": {"eps_graze": 0.3}, "max_events": 12}

# name -> (mode, domain or catalog entry name, further config fields) of the
# configs no workload covers; each runs 20 trajectories at T = 20 with
# c0 = 0.1, unless its fields give their own "initial" (the seed is added to
# its sampler).  The first box has walls on two sides only, so every trajectory
# escapes; the closed box is the only config whose flat walls (K = 0) reach
# the tangent pass and the corrupted covector pass; the 2-d Sinai pair ends
# trajectories grazing and at the event cap.  The cylinder in a 3-d box is
# the only config that flies a cylinder off a torus: its walls run along the
# axis, so trajectories escape through the open faces z = 0 and z = 3.
# Four hard balls in 3-d are the only config with 125-image pair cylinders
# (750 image rows a window).  The uniform covectors on 2-d Sinai come without
# c0: their CSVs have an empty bound_theorem column and rows with Q > 0.
# At T = 187 on 2-d Sinai a later trajectory leaves the double range (index 7
# on seed 1, 18 on seed 2): run and verify exit 3, and run leaves the CSVs of
# the trajectories before it.  100 starts on 3 hard disks fly as one group,
# and their adjoint check makes several tangent passes.  300 starts on 2-d
# Sinai fly as 2 x 150 and 600 on 3-d Sinai as 2 x 300, the byte budget
# giving them groups of at most 260 and 460 flights.  About 1.2% of
# the position draws on 8 hard disks are accepted, so their one group of 40
# runs hundreds of sampler rounds.  120 starts on 12 hard disks (r = 0.05,
# 1650 image rows a window) fly as one group whose rounds the kernel scans
# in several slices; on 20 hard disks (4750 rows a window) a kernel slice is
# one window.  The membership test takes one pair distance a ball pair (66 a
# point on 12 hard disks, 190 on 20), so it tests each of these rounds in
# one slice; the tier-1 tests slice it.
# At the default budget, 150 starts on 12 hard disks (d = 24, T = 8) fly as
# 3 x 50 (74 a group), their kernel slices hold 2 windows of 1650 image
# rows, their check groups about 2300 samples, and their CSVs (about 500
# rows) take two passes of 368 rows.  The adjoint check of 80 starts on 6
# hard disks (r = 0.1, T = 6) moves its tangent stacks in blocks of 55 and
# 25 series; 200 starts (T = 3) fly as 2 x 100, each in blocks of 55 and 45.
# No draw is accepted between two walls 5e-9 apart: run exits 3 before any
# output.  The two runs with the adjoint check (2-d Sinai, 3 hard disks) are
# the only ones whose summary.json holds adjoint residuals beside CSVs.
# Four Sinai runs go through the broad phase's two stages where the box
# lets many windows through: 6 starts at d = 10 (T = 100), two spheres a
# stack at d = 5, a side of 2.5 and a radius of 0.05 at d = 4.  Two
# hard-ball configs go through the pair broad phase at its extremes: a
# dense gas of 3 disks of radius 0.2, where about 80% of the (window, pair)
# blocks are in reach and scanned, and 5 balls in d = 3 (10 pairs of 125
# images), where about 12% are.
_OVERFLOW = {"horizon": 187.0}
_ALL_CHECKS = {"checks": ["monotonicity", "growth", "adjoint"]}
EXTRA = {
    "box_two_walls_disk": ("run", {
        "kind": "custom", "d": 2, "ambient": {"type": "box", "sides": [1.0, 1.0]},
        "scatterers": [*_WALLS[:2], _DISK]}, {}),
    "box_closed_disk": ("verify", {
        "kind": "custom", "d": 2, "ambient": {"type": "box", "sides": [1.0, 1.0]},
        "scatterers": [*_WALLS, _DISK]}, {}),
    "hardball_n2_d2": ("verify", "hardball_n2_d2", {}),
    "pair_reduced_2d": ("verify", "pair_reduced_2d", {}),
    "sinai_2d_graze_cap": ("run", "sinai_2d", _GRAZE_CAP),
    "sinai_2d_graze_cap_verify": ("verify", "sinai_2d", _GRAZE_CAP),
    "box_walls_cylinder_3d": ("verify", {
        "kind": "custom", "d": 3, "ambient": {"type": "box", "sides": [1.0, 1.0, 3.0]},
        "scatterers": [*_WALLS_3D, {"kind": "cylinder", "axis_point": [0.5, 0.5, 0.0],
                                    "axis_directions": [[0.0, 0.0, 1.0]], "radius": 0.2}]},
        {}),
    "hardball_n4_d3": ("run", {"kind": "hardball_gas", "N": 4, "d": 3, "r": 0.1, "L": 1.0}, {}),
    "sinai_2d_uniform": ("run", "sinai_2d", {"initial": {"sampler": {"count": 20}},
                                             "checks": ["monotonicity"]}),
    "sinai_2d_overflow": ("run", "sinai_2d", _OVERFLOW),
    "sinai_2d_overflow_verify": ("verify", "sinai_2d", _OVERFLOW),
    "hardball_n3_d2_100": ("verify", "hardball_n3_d2",
                           {"initial": {"sampler": {"count": 100, "c0": 0.1}}}),
    "sinai_2d_300": ("run", "sinai_2d", {"initial": {"sampler": {"count": 300, "c0": 0.1}}}),
    "sinai_3d_600": ("verify", "sinai_3d", {"initial": {"sampler": {"count": 600, "c0": 0.1}}}),
    "hardball_n12_run": ("run", {"kind": "hardball_gas", "N": 12, "d": 2, "r": 0.05, "L": 1.0},
                         {"initial": {"sampler": {"count": 120, "c0": 0.1}}, "horizon": 1.0}),
    "hardball_n20_verify": ("verify", {
        "kind": "hardball_gas", "N": 20, "d": 2, "r": 0.05, "L": 1.0},
        {"initial": {"sampler": {"count": 8, "c0": 0.1}}, "horizon": 0.3}),
    "hardball_n8_low_acceptance": ("verify", {
        "kind": "hardball_gas", "N": 8, "d": 2, "r": 0.1, "L": 1.0},
        {"initial": {"sampler": {"count": 40, "c0": 0.1}}, "horizon": 2.0}),
    "hardball_n6_verify": ("verify", {"kind": "hardball_gas", "N": 6, "d": 2, "r": 0.1, "L": 1.0},
                           {"initial": {"sampler": {"count": 80, "c0": 0.1}}, "horizon": 6.0}),
    "hardball_n12_run_150": ("run", {"kind": "hardball_gas", "N": 12, "d": 2, "r": 0.05,
                                     "L": 1.0},
                             {"initial": {"sampler": {"count": 150, "c0": 0.1}},
                              "horizon": 8.0}),
    "hardball_n6_verify_200": ("verify", {
        "kind": "hardball_gas", "N": 6, "d": 2, "r": 0.1, "L": 1.0},
        {"initial": {"sampler": {"count": 200, "c0": 0.1}}, "horizon": 3.0}),
    "sinai_2d_run_adjoint": ("run", "sinai_2d", _ALL_CHECKS),
    "hardball_n3_d2_run_adjoint": ("run", "hardball_n3_d2", _ALL_CHECKS),
    "sinai_10d": ("run", _sinai(10, 0.45, 1.0, [[0.5] * 10]),
                  {"initial": {"sampler": {"count": 6, "c0": 0.1}}, "horizon": 100.0}),
    "sinai_5d_pair": ("run", _sinai(5, 0.2, 1.0, [[0.25] * 5, [0.75] * 5]), {}),
    "sinai_4d_side2.5": ("run", _sinai(4, 0.9, 2.5, [[1.0] * 4]), {}),
    "sinai_4d_thin": ("run", _sinai(4, 0.05, 1.0, [[0.5] * 4]), {}),
    "hardball_n3_dense": ("verify", {"kind": "hardball_gas", "N": 3, "d": 2, "r": 0.2, "L": 1.0},
                          {}),
    "hardball_n5_d3": ("run", {"kind": "hardball_gas", "N": 5, "d": 3, "r": 0.1, "L": 1.0}, {}),
    "box_slab_no_room": ("run", {
        "kind": "custom", "d": 2, "ambient": {"type": "box", "sides": [1.0, 1.0]},
        "scatterers": [
            {"kind": "halfspace", "plane_point": [0.0, 0.5], "plane_normal": [0.0, 1.0]},
            {"kind": "halfspace", "plane_point": [0.0, 0.500000005],
             "plane_normal": [0.0, -1.0]}]}, {}),
}
# the extra configs that also run with ``verify --corrupt-curvature``
EXTRA_CORRUPT = ("box_closed_disk", "box_walls_cylinder_3d", "hardball_n3_d2_100",
                 "hardball_n6_verify", "hardball_n6_verify_200")


def commands(configs: Path) -> list[tuple[str, list[str]]]:
    """Each command as (output name, CLI arguments), with the configs of
    every workload and seed written under ``configs``."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(HERE / "perfbench"), str(HERE / "src")]
    import workloads as wl
    from billiards.catalog import CATALOG

    catalog = {entry["name"]: entry["domain"] for entry in CATALOG}

    out = []
    for seed in SEEDS:
        for name, workload in wl.WORKLOADS.items():
            work = configs / f"seed{seed}"
            work.mkdir(parents=True, exist_ok=True)
            for cfg in wl.write_configs(workload, "full", seed, work):
                out.append((f"seed{seed}/{cfg.stem}", [workload.mode, str(cfg)]))
                if name == "verify_acceptance":
                    out.append((f"seed{seed}/{cfg.stem}_corrupt",
                                ["verify", str(cfg), "--corrupt-curvature"]))
        for name, (mode, domain, fields) in EXTRA.items():
            cfg = configs / f"seed{seed}" / f"{name}.json"
            config = {"domain": catalog[domain] if isinstance(domain, str) else domain,
                      "initial": {"sampler": {"count": 20, "c0": 0.1}}, "horizon": 20.0,
                      **fields}
            config["initial"] = {"sampler": {**config["initial"]["sampler"], "seed": seed}}
            cfg.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
            out.append((f"seed{seed}/{name}", [mode, str(cfg)]))
            if name in EXTRA_CORRUPT:
                out.append((f"seed{seed}/{name}_corrupt",
                            ["verify", str(cfg), "--corrupt-curvature"]))
    return out


def run_all(tree: Path, cmds: list[tuple[str, list[str]]], root: Path) -> None:
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(tree / "src")}
    for name, args in cmds:
        out = root / name
        out.mkdir(parents=True)
        done = subprocess.run([sys.executable, "-m", "billiards", *args, "--out", str(out)],
                              env=env, capture_output=True, text=True, cwd=root)
        (out / "stdout.txt").write_text(done.stdout, encoding="utf-8")
        (out / "stderr.txt").write_text(done.stderr, encoding="utf-8")
        (out / "exit_code.txt").write_text(f"{done.returncode}\n", encoding="utf-8")


def first_difference(a: Path, b: Path) -> str | None:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    only = sorted(set(files_a) ^ set(files_b))
    if only:
        return f"{only[0]} (in one tree only)"
    for rel in files_a:
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            return str(rel)
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/same_outputs.py OTHER_TREE", file=sys.stderr)
        return 2
    trees = [Path(argv[0]).resolve(), HERE]
    for tree in trees:
        if not (tree / "src" / "billiards" / "__init__.py").is_file():
            print(f"error: no billiards package under {tree / 'src'}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cmds = commands(tmp / "configs")
        for k, tree in enumerate(trees):
            run_all(tree, cmds, tmp / f"tree{k}")
        diff = first_difference(tmp / "tree0", tmp / "tree1")
        count = sum(1 for p in (tmp / "tree0").rglob("*") if p.is_file())
    if diff is not None:
        print(f"differs: {diff}")
        return 1
    print(f"identical ({count} files, {len(cmds)} commands per tree)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
