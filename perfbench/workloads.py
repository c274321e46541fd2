"""Benchmark workloads: which CLI command, which configs, and why.

A workload is a fixed list of experiment configs plus the CLI mode that runs
them.  The configs are generated from the benchmark seed; the program only
sees the JSON files written here.  Each workload stresses a different layer,
so that a change to one layer shows on one workload and not on the others.

Two sizes exist: ``full`` for measurement and ``smoke`` for the self-test.
The smoke size runs the same code path on a few short trajectories.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

SINAI_2D = {"kind": "sinai", "d": 2, "r": 0.25, "L": 1.0, "centers": [[0.5, 0.5]]}
SINAI_3D = {"kind": "sinai", "d": 3, "r": 0.3, "L": 1.0, "centers": [[0.5, 0.5, 0.5]]}
CYLINDER_3D = {"kind": "custom", "d": 3, "ambient": {"type": "torus", "side": 1.0},
               "scatterers": [{"kind": "cylinder", "axis_point": [0.5, 0.5, 0.0],
                               "axis_directions": [[0.0, 0.0, 1.0]], "radius": 0.2}]}
HARDBALL_3_2 = {"kind": "hardball_gas", "N": 3, "d": 2, "r": 0.1, "L": 1.0}
HARDBALL_6_2 = {"kind": "hardball_gas", "N": 6, "d": 2, "r": 0.1, "L": 1.0}
SINAI_8D = {"kind": "sinai", "d": 8, "r": 0.45, "L": 1.0, "centers": [[0.5] * 8]}

C0 = 0.1


@dataclass(frozen=True)
class Family:
    """One config of a workload: a domain, an ensemble size and a horizon."""

    label: str
    domain: dict
    count: int
    horizon: float


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str                     # "run" or "verify"
    full: tuple[Family, ...]
    smoke: tuple[Family, ...]

    def families(self, size: str) -> tuple[Family, ...]:
        return self.full if size == "full" else self.smoke


def _acceptance(count: int, horizon: float) -> tuple[Family, ...]:
    return (Family("sinai_2d", SINAI_2D, count, horizon),
            Family("sinai_3d", SINAI_3D, count, horizon),
            Family("cylinder_3d", CYLINDER_3D, count, horizon),
            Family("hardball_3_2", HARDBALL_3_2, count, horizon))


# Ensemble sizes are chosen so that one pass of a workload takes 3-5 s on a
# 2-core x86 VM: a run of 26 s then times three to nine passes and reports
# their median.  The ensembles are as large as that allows, because the
# work varies with the seed: the collision count of a 45-trajectory 6-disk
# ensemble ranged over 1150-1256 for seeds 11-15.  The 8-d Sinai work is set
# by its window count, nearly the same for every seed.
WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    # verify on the four acceptance families: adjoint and curvature work dominate
    Workload("verify_acceptance", "verify",
             full=_acceptance(45, 20.0), smoke=_acceptance(2, 2.0)),
    # long 2-d Sinai runs with CSVs: diagnostics, records and CSV output are
    # half the time, while the flow scans only 9 images per window
    Workload("run_sinai2d_long", "run",
             full=(Family("sinai_2d", SINAI_2D, 80, 100.0),),
             smoke=(Family("sinai_2d", SINAI_2D, 2, 5.0),)),
    # six hard disks (15 pair cylinders): the per-scatterer window loop dominates
    Workload("run_hardball6", "run",
             full=(Family("hardball_6_2", HARDBALL_6_2, 80, 6.0),),
             smoke=(Family("hardball_6_2", HARDBALL_6_2, 2, 1.0),)),
    # 8-d Sinai with few events: the scan of 3^8 images per window dominates;
    # the only workload where that scan shows
    Workload("run_sinai_d8", "run",
             full=(Family("sinai_8d", SINAI_8D, 18, 100.0),),
             smoke=(Family("sinai_8d", SINAI_8D, 2, 2.0),)),
)}


def write_configs(workload: Workload, size: str, seed: int, work_dir: Path) -> list[Path]:
    """Write one config file per family; the sampler seed is the benchmark seed."""
    paths = []
    for fam in workload.families(size):
        cfg = {"domain": fam.domain,
               "initial": {"sampler": {"count": fam.count, "seed": seed, "c0": C0}},
               "horizon": fam.horizon}
        path = work_dir / f"{workload.name}_{fam.label}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def describe(workload: Workload, size: str) -> list[dict]:
    """Workload parameters, for the provenance record."""
    return [{"family": f.label, "domain": f.domain, "count": f.count,
             "horizon": f.horizon, "c0": C0} for f in workload.families(size)]
