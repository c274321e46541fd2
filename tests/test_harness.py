from __future__ import annotations

import ast
import csv
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import billiards
from billiards import ConfigError
from billiards.catalog import CATALOG
from billiards.cli import main
from billiards.config import domain_from_spec, load_config, parse_config
from billiards.diagnostics import SeriesGroup
from billiards import dynamics, runner
from billiards.runner import run_experiment

CYLINDER_SPEC = next(e["domain"] for e in CATALOG if e["name"] == "cylinder_3d")
README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path: Path, name: str = "cfg.json", **overrides) -> Path:
    cfg = {
        "domain": {"kind": "sinai", "d": 2, "r": 0.25, "L": 1.0, "centers": [[0.5, 0.5]]},
        "initial": {"sampler": {"count": 3, "seed": 42, "c0": 0.1}},
        "horizon": 6.0,
        "checks": ["monotonicity", "growth"],
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_load_config_roundtrip(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.domain.d == 2
    assert cfg.sampler.count == 3 and cfg.sampler.seed == 42
    assert cfg.c0 == pytest.approx(0.1)
    assert cfg.checks == ("monotonicity", "growth")


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "domain": [,]\n}', encoding="utf-8")
    with pytest.raises(ConfigError, match=r":2:\d+"):
        load_config(path)


@pytest.mark.parametrize("mutate,match", [
    (lambda c: c.pop("horizon"), "horizon"),
    (lambda c: c.update(horizon=-1.0), "horizon"),
    (lambda c: c["initial"]["sampler"].update(c0=0.7), "c0"),
    (lambda c: c["initial"]["sampler"].update(count=0), "count"),
    (lambda c: c["initial"]["sampler"].update(seed=-1),
     r"config\.initial\.sampler\.seed: must be at least 0"),
    (lambda c: c.update(domain={"kind": "unknown"}), "kind"),
    (lambda c: c.update(checks=["bogus"]), "checks"),
    (lambda c: c.update(initial={}), "initial"),
    (lambda c: c.update(grid_interior=-2), "grid_interior"),
    (lambda c: c.update(grid_interior=True), "grid_interior"),
    (lambda c: c.update(grid_interior=2.5), "grid_interior"),
    (lambda c: c.update(max_events=0), "max_events"),
    (lambda c: c.update(max_events=True), "max_events"),
    (lambda c: c.update(tolerances={"eps_graze": 0.0}), "eps_graze"),
    (lambda c: c.update(tolerances={"eps_graze": -1.0}), "eps_graze"),
    (lambda c: c.update(tolerances={"eps_graze": 1.0}), "eps_graze"),
    (lambda c: c.update(tolerances={"eps_graze": 2.0}), "eps_graze"),
    (lambda c: c.update(tolerances={"tol_check": -1.0}), "tol_check"),
    (lambda c: c.update(c0=-0.5), "config.c0"),
    (lambda c: c.update(c0=0.0), "config.c0"),
    (lambda c: c.update(c0=0.9), "config.c0"),
    (lambda c: c.update(tolerances={"eps_grace": 0.3}), r"config\.tolerances\.eps_grace"),
    (lambda c: c.update(horizn=9.0), r"config\.horizn"),
    (lambda c: c.update(check=["growth"]), r"config\.check:"),
    (lambda c: c["domain"].update(radius=0.2), r"domain\.radius"),
    (lambda c: c["initial"]["sampler"].update(cuont=3), r"sampler\.cuont"),
    (lambda c: c.update(output={"dri": "out"}), r"output\.dri"),
    (lambda c: c.update(output={"dir": 5}), r"output\.dir"),
    (lambda c: c.update(domain=dict(CYLINDER_SPEC, labels=5)), r"domain\.labels"),
    (lambda c: c.update(domain=dict(CYLINDER_SPEC, labels=[1])), r"domain\.labels"),
    (lambda c: c.update(domain=dict(CYLINDER_SPEC, scatterers=[
        dict(CYLINDER_SPEC["scatterers"][0], centre=[0.5, 0.5, 0.5])])), r"scatterers\[0\]\.centre"),
    (lambda c: c.update(horizon=math.inf), "config.horizon"),
    (lambda c: c["domain"].update(centers=[[0.5, math.nan]]), r"centers\[0\]"),
    (lambda c: c["domain"].update(centers=[[True, 0.5]]), r"centers\[0\]"),
    (lambda c: c.update(domain={"kind": "custom", "d": 2, "scatterers": [],
                                "ambient": {"type": "box", "sides": ["a", 1.0]}}),
     r"ambient\.sides"),
])
def test_config_validation_messages(mutate, match):
    cfg = {
        "domain": {"kind": "sinai", "d": 2, "r": 0.25, "L": 1.0, "centers": [[0.5, 0.5]]},
        "initial": {"sampler": {"count": 3, "seed": 42, "c0": 0.1}},
        "horizon": 6.0,
    }
    mutate(cfg)
    with pytest.raises(ConfigError, match=match):
        parse_config(cfg)


def test_readme_config_example_parses():
    # the documented example must pass the strict key check
    section = README.read_text(encoding="utf-8").split("## Config format", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cfg = parse_config(json.loads(block))
    assert cfg.out_dir == "out" and cfg.eps_graze == 1e-10


def test_both_initial_kinds_rejected():
    cfg = {
        "domain": {"kind": "sinai", "d": 2, "r": 0.25, "L": 1.0, "centers": [[0.5, 0.5]]},
        "initial": {"q": [0.1, 0.5], "v": [1.0, 0.0],
                    "covector": {"z": [0.0, 1.0], "w": [0.0, -1.0]},
                    "sampler": {"count": 1, "seed": 1}},
        "horizon": 1.0,
    }
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(cfg)


def test_growth_check_requires_c0():
    cfg = {
        "domain": {"kind": "sinai", "d": 2, "r": 0.25, "L": 1.0, "centers": [[0.5, 0.5]]},
        "initial": {"sampler": {"count": 1, "seed": 1}},
        "horizon": 1.0,
        "checks": ["growth"],
    }
    with pytest.raises(ConfigError, match="c0"):
        parse_config(cfg)


def test_catalog_domains_round_trip():
    assert len(CATALOG) >= 5
    for entry in CATALOG:
        dom = domain_from_spec(entry["domain"])
        assert dom.d >= 2


# ---------------------------------------------------------------------------
# run/verify pipeline
# ---------------------------------------------------------------------------

def test_run_writes_deterministic_outputs(tmp_path):
    cfg_path = write_config(tmp_path)
    code1 = main(["run", str(cfg_path), "--out", str(tmp_path / "a")])
    code2 = main(["run", str(cfg_path), "--out", str(tmp_path / "b")])
    assert code1 == 0 and code2 == 0
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files_a == ["summary.json", "trajectory_0000.csv", "trajectory_0001.csv",
                       "trajectory_0002.csv"]
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_csv_rows_increase_with_event_pairs(tmp_path):
    cfg_path = write_config(tmp_path)
    main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
    with open(tmp_path / "out" / "trajectory_0000.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "segment_index", "event_flag", "Q", "norm_w", "norm_z",
                       "norm_n", "lambda", "bound_prop5", "bound_theorem"]
    body = rows[1:]
    ts = [float(r[0]) for r in body]
    assert all(b >= a for a, b in zip(ts, ts[1:]))
    pre = [r for r in body if r[2] == "1"]
    post = [r for r in body if r[2] == "2"]
    assert len(pre) == len(post) >= 1
    for a, b in zip(pre, post):
        assert a[0] == b[0]


def test_summary_totals_match_trajectories(tmp_path):
    cfg_path = write_config(tmp_path)
    main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
    assert summary["n_trajectories"] == len(summary["trajectories"]) == 3
    terms = summary["ensemble"]["terminations"]
    assert sum(terms.values()) == 3
    assert summary["exit_code"] == 0


def test_verify_reports_adjoint_residual(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    code = main(["verify", str(cfg_path)])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["ensemble"]["worst_adjoint_residual"] < 1e-9
    assert all("adjoint_residual" in t for t in report["trajectories"])


def test_verify_hardball_gas_config(tmp_path, capsys):
    # cylinder scatterers exercise the semi-definite curvature kernel
    cfg_path = write_config(
        tmp_path, domain={"kind": "hardball_gas", "N": 3, "d": 2, "r": 0.1, "L": 1.0},
        initial={"sampler": {"count": 3, "seed": 21, "c0": 0.1}}, horizon=8.0)
    code = main(["verify", str(cfg_path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["ensemble"]["worst_adjoint_residual"] < 1e-9
    assert report["ensemble"]["check_failures"] == 0


def test_verify_square_closed_by_four_walls(tmp_path, capsys):
    # the square Sinai billiard: crossing walls meet only in the corners
    walls = [{"kind": "halfspace", "plane_point": p, "plane_normal": n}
             for p, n in (([0.0, 0.0], [1.0, 0.0]), ([0.0, 0.0], [0.0, 1.0]),
                          ([1.0, 1.0], [-1.0, 0.0]), ([1.0, 1.0], [0.0, -1.0]))]
    disk = {"kind": "sphere", "center": [0.5, 0.5], "radius": 0.2}
    cfg_path = write_config(
        tmp_path, domain={"kind": "custom", "d": 2, "ambient": {"type": "box", "sides": [1.0, 1.0]},
                          "scatterers": walls + [disk]},
        initial={"sampler": {"count": 5, "seed": 1, "c0": 0.1}}, horizon=10.0)
    code = main(["verify", str(cfg_path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["ensemble"]["terminations"] == {"reached_horizon": 5}
    assert report["ensemble"]["check_failures"] == 0
    assert all(c["status"] != "fail" for t in report["trajectories"] for c in t["checks"])


def test_verify_detects_corrupted_curvature(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    code = main(["verify", str(cfg_path), "--corrupt-curvature"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["ensemble"]["worst_adjoint_residual"] > 1e-6


def test_infeasible_sampler_exits_3(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "domain": {"kind": "sinai", "d": 2, "r": 0.25, "L": 1.0, "centers": [[0.5, 0.5]]},
        "initial": {"sampler": {"count": 1, "seed": 1, "c0": 0.6}},
        "horizon": 1.0,
    }), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "c0" in capsys.readouterr().err


def test_start_inside_scatterer_exits_3(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "domain": {"kind": "sinai", "d": 2, "r": 0.25, "L": 1.0, "centers": [[0.5, 0.5]]},
        "initial": {"q": [0.5, 0.5], "v": [1.0, 0.0],
                    "covector": {"z": [0.0, 1.0], "w": [0.0, -1.0]}},
        "horizon": 1.0,
    }), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "scatterer" in capsys.readouterr().err


def test_covector_not_transversal_exits_3(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "domain": {"kind": "sinai", "d": 2, "r": 0.25, "L": 1.0, "centers": [[0.5, 0.5]]},
        "initial": {"q": [0.1, 0.4], "v": [1.0, 0.0],
                    "covector": {"z": [1.0, 0.0], "w": [0.0, 1.0]}},
        "horizon": 1.0,
    }), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "orthogonal" in capsys.readouterr().err


@pytest.mark.parametrize("domain,horizon", [
    ({"kind": "sinai", "d": 2, "r": 0.25, "L": 1.0, "centers": [[0.5, 0.5]]}, 200.0),
    ({"kind": "hardball_gas", "N": 3, "d": 2, "r": 0.1, "L": 1.0}, 300.0),
], ids=["sinai_2d", "hardball_3_2"])
def test_covector_past_the_double_range_exits_3_with_one_line(tmp_path, capsys, domain,
                                                              horizon):
    # the covector, its Q drops, the tangent pass and the adjoint pairing
    # overflow on the way; none of that warns (pytest turns a
    # RuntimeWarning into an error), and stderr holds only the range error
    cfg_path = write_config(tmp_path, domain=domain,
                            initial={"sampler": {"count": 5, "seed": 1, "c0": 0.1}},
                            horizon=horizon)
    assert main(["verify", str(cfg_path)]) == 3
    assert capsys.readouterr().err == (
        "error: covector magnitudes exceed the double-precision range; shorten the horizon\n")


def test_majority_singular_exits_2(tmp_path):
    # a single trajectory aimed exactly tangent to the disk grazes at t=0.4
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "domain": {"kind": "sinai", "d": 2, "r": 0.25, "L": 1.0, "centers": [[0.5, 0.5]]},
        "initial": {"q": [0.1, 0.25], "v": [1.0, 0.0],
                    "covector": {"z": [0.0, 1.0], "w": [0.0, -1.0]}},
        "horizon": 2.0,
        "checks": ["monotonicity"],
    }), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2


def test_missing_config_exits_3(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_catalog_text_and_json(capsys):
    assert main(["catalog"]) == 0
    text = capsys.readouterr().out
    assert "sinai_2d" in text and "hardball_n3_d2" in text
    assert main(["catalog", "--json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(CATALOG, indent=2, sort_keys=True) + "\n"
    assert len(json.loads(out)) >= 5


def test_grid_override_changes_sampling(tmp_path):
    cfg_path = write_config(tmp_path)
    main(["run", str(cfg_path), "--out", str(tmp_path / "g2"), "--grid", "2"])
    main(["run", str(cfg_path), "--out", str(tmp_path / "g8"), "--grid", "8"])
    rows2 = (tmp_path / "g2" / "trajectory_0000.csv").read_text(encoding="utf-8").count("\n")
    rows8 = (tmp_path / "g8" / "trajectory_0000.csv").read_text(encoding="utf-8").count("\n")
    assert rows8 > rows2


def test_negative_grid_exits_3(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--grid", "-2"]) == 3
    assert "--grid" in capsys.readouterr().err
    assert main(["verify", str(cfg_path), "--grid", "-2"]) == 3


@pytest.mark.parametrize("command", ["run", "verify"])
def test_output_path_naming_a_file_exits_3(tmp_path, capsys, command):
    # an output directory that cannot be made is a configuration error, not
    # a crash with the exit code of a failed check
    cfg_path = write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    assert main([command, str(cfg_path), "--out", str(taken)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {taken}: cannot write output: ")
    assert "Traceback" not in captured.err
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


def test_thread_env_does_not_change_outputs(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path)
    main(["run", str(cfg_path), "--out", str(tmp_path / "seq")])
    monkeypatch.setenv("BILLIARD_THREADS", "4")
    main(["run", str(cfg_path), "--out", str(tmp_path / "par")])
    for p in sorted((tmp_path / "seq").iterdir()):
        assert p.read_bytes() == (tmp_path / "par" / p.name).read_bytes()


def test_module_entry_point(tmp_path):
    cfg_path = write_config(tmp_path)
    # the child process imports the same package as this test session
    src = str(Path(billiards.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "billiards", "verify", str(cfg_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ensemble"]["worst_adjoint_residual"] < 1e-8


def test_verify_evaluates_curvature_once_per_collision(tmp_path, monkeypatch, capsys):
    # once in the one pass that moves the covector and the adjoint check's
    # tangents; each call of a lockstep step evaluates one row per
    # trajectory that has an event there
    calls = []
    curvature_at = billiards.transport.curvature_at

    def counted(*args):
        calls.append(args)
        return curvature_at(*args)

    monkeypatch.setattr(billiards.transport, "curvature_at", counted)
    cfg_path = write_config(
        tmp_path, domain={"kind": "hardball_gas", "N": 3, "d": 2, "r": 0.1, "L": 1.0},
        initial={"sampler": {"count": 3, "seed": 21, "c0": 0.1}}, horizon=8.0)
    assert main(["verify", str(cfg_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    events = sum(t["event_count"] for t in report["trajectories"])
    assert events > 0
    assert sum(np.size(index) for _, index, _ in calls) == events
    assert len(calls) < events


def _benchmark_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_trace_points_exist():
    # the benchmark wraps these module attributes; a rename must fail here
    # and not only in the benchmark's own self-test
    spans = _benchmark_spans()
    assert spans.TRACED
    for module, attr in spans.TRACED:
        owner = importlib.import_module(f"billiards.{module}")
        assert callable(getattr(owner, attr, None)), f"billiards.{module}.{attr}"


def test_benchmark_sample_counter_reads_series_segments():
    # the benchmark counts diagnostics samples as (interior + 2) per entry
    # of series.segments, the trajectory's own free segments
    spans = _benchmark_spans()
    dom = billiards.build_sinai(2, 0.25, 1.0, [[0.5, 0.5]])
    traj = billiards.flow(dom, billiards.PhasePoint([0.1, 0.5], [0.8, 0.6]), 4.0)
    assert traj.event_count >= 2
    z = np.array([-0.6, 0.8])
    series = billiards.transport_covector(traj, billiards.Covector(z, -0.5 * z))
    assert series.segments == traj.segments
    assert spans._samples((series,), {"interior": 3}, None) == 5 * len(series.segments)
    assert len(series.segments) == len(series.z) == traj.event_count + 1
    # a check group's segments are its series' segments, one after another
    group = SeriesGroup([series, series])
    assert spans._samples((group,), {"interior": 3}, None) == 10 * len(series.segments)
    assert group.segments == [*series.segments, *series.segments]


def test_exports_resolve_and_no_module_import_is_unused():
    # no linter runs on the package: every exported name must exist, once,
    # and every module-level import must be read somewhere in its module
    assert len(set(billiards.__all__)) == len(billiards.__all__)
    for name in billiards.__all__:
        assert hasattr(billiards, name), name
    for path in sorted(Path(billiards.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(a.asname or a.name).split(".")[0]
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {c.value for n in ast.walk(tree) if isinstance(n, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in n.targets)
                 for c in n.value.elts}
        assert imported <= used, f"{path.name}: unused {sorted(imported - used)}"


def test_loose_grazing_cutoff_reports_singular_terminations(tmp_path):
    cfg_path = write_config(tmp_path, horizon=20.0,
                            initial={"sampler": {"count": 20, "seed": 5, "c0": 0.1}},
                            tolerances={"eps_graze": 0.3},
                            checks=["monotonicity"])
    code = main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
    terms = summary["ensemble"]["terminations"]
    assert terms.get("grazing", 0) >= 1          # cutoff this coarse must trip
    assert summary["ensemble"]["check_failures"] == 0
    assert code in (0, 2)                         # singular runs are not failures
    # the flow's cutoff alone keeps the transport maps of the adjoint check safe
    code = main(["verify", str(cfg_path), "--out", str(tmp_path / "verify")])
    report = json.loads((tmp_path / "verify" / "verify_report.json").read_text(encoding="utf-8"))
    assert report["tolerances"]["eps_graze"] == 0.3
    assert report["ensemble"]["terminations"] == terms
    assert report["ensemble"]["worst_adjoint_residual"] < 1e-8
    assert code in (0, 2)


def test_run_hundred_sampled_covectors(tmp_path):
    cfg_path = write_config(
        tmp_path, initial={"sampler": {"count": 100, "seed": 7, "c0": 0.1}},
        horizon=50.0)
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    csvs = list((tmp_path / "out").glob("trajectory_*.csv"))
    assert len(csvs) == 100
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
    assert summary["ensemble"]["check_failures"] == 0


def test_explicit_initial_runs(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "domain": {"kind": "sinai", "d": 2, "r": 0.25, "L": 1.0, "centers": [[0.5, 0.5]]},
        "initial": {"q": [0.1, 0.4], "v": [1.0, 0.0],
                    "covector": {"z": [0.0, 0.8], "w": [0.0, -0.6]}},
        "horizon": 3.0,
        "c0": 0.4,
        "checks": ["monotonicity", "growth"],
    }), encoding="utf-8")
    cfg = load_config(path)
    summary, code = run_experiment(cfg, mode="run", out_dir=tmp_path / "out")
    assert code == 0
    assert summary["n_trajectories"] == 1


# ---------------------------------------------------------------------------
# Rejection-sampled starts, drawn in lockstep rounds
# ---------------------------------------------------------------------------

def _one_draw_at_a_time(domain, count, seed, c0):
    """The sampler's starts with one position draw and one membership test
    at a time, and the number of position draws of each start."""
    from billiards.diagnostics import sample_covector_uniform, sample_covector_with_Q_bound

    highs = np.asarray(domain.ambient.sides) if isinstance(domain.ambient, billiards.Box) \
        else np.full(domain.d, domain.length_scale)
    margin = runner.START_MARGIN_FACTOR * domain.eps_surface
    out = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        draws = 0
        while True:
            draws += 1
            q = rng.uniform(0.0, 1.0, domain.d) * highs
            if domain.contains(q, slack=-margin):
                break
        v = rng.standard_normal(domain.d)
        v /= np.linalg.norm(v)
        n0 = sample_covector_uniform(v, rng) if c0 is None else \
            sample_covector_with_Q_bound(v, c0, rng)
        out.append(((q, v, n0.z, n0.w), draws))
    return out


def _catalog_domain(name):
    return domain_from_spec(next(e["domain"] for e in CATALOG if e["name"] == name))


# the closed box of tools/same_outputs.py and the 8-d Sinai of the benchmark
_SAMPLER_DOMAINS = {
    **{e["name"]: e["domain"] for e in CATALOG},
    "box_closed_disk": {
        "kind": "custom", "d": 2, "ambient": {"type": "box", "sides": [1.0, 1.0]},
        "scatterers": [
            {"kind": "halfspace", "plane_point": [0.0, 0.0], "plane_normal": [1.0, 0.0]},
            {"kind": "halfspace", "plane_point": [1.0, 0.0], "plane_normal": [-1.0, 0.0]},
            {"kind": "halfspace", "plane_point": [0.0, 0.0], "plane_normal": [0.0, 1.0]},
            {"kind": "halfspace", "plane_point": [0.0, 1.0], "plane_normal": [0.0, -1.0]},
            {"kind": "sphere", "center": [0.5, 0.5], "radius": 0.2}]},
    "sinai_d8": {"kind": "sinai", "d": 8, "r": 0.45, "L": 1.0, "centers": [[0.5] * 8]},
}


@pytest.mark.parametrize("name", sorted(_SAMPLER_DOMAINS))
def test_sampler_matches_one_draw_at_a_time(name):
    domain = domain_from_spec(_SAMPLER_DOMAINS[name])
    # 200 starts on 3 hard disks fly as 100 + 100 (the byte budget allows 187)
    count = 200 if name == "hardball_n3_d2" else 12
    if name == "hardball_n3_d2":
        assert len(dynamics.flight_groups(domain, count)) == 2
    for seed in range(8):
        for c0 in (None, 0.1):
            got = runner.sample_initial_conditions(domain, count, seed, c0)
            want = _one_draw_at_a_time(domain, count, seed, c0)
            assert [tuple(a.tobytes() for a in (x.q, x.v, n.z, n.w)) for x, n in got] == \
                [tuple(a.tobytes() for a in w) for w, _ in want]


def _spy_contains(monkeypatch, domain, accept):
    """Record the number of points of each ``contains`` call of the sampler,
    whose answers ``accept(answers, drawn so far)`` may change."""
    original = type(domain).contains
    seen = []
    drawn = 0

    def spy(self, q, slack=None):
        nonlocal drawn
        ok = accept(original(self, q, slack), drawn)
        seen.append(len(q))
        drawn += len(q)
        return ok

    monkeypatch.setattr(type(domain), "contains", spy)
    return seen


def test_sampler_tests_each_round_in_one_call(monkeypatch):
    # a round holds one draw of each waiting start of its group: the call
    # sizes follow from the draws each start needs one draw at a time
    domain = _catalog_domain("hardball_n3_d2")
    draws = [d for _, d in _one_draw_at_a_time(domain, 200, 5, None)]
    want = []
    for group in dynamics.flight_groups(domain, 200):
        group = draws[group.start:group.stop]
        want += [sum(d >= k for d in group) for k in range(1, max(group) + 1)]
    seen = _spy_contains(monkeypatch, domain, lambda ok, _: ok)
    runner.sample_initial_conditions(domain, 200, 5)
    assert seen == want and max(seen) == 100 and len(seen) > 2


def test_sampler_start_at_the_151st_draw(monkeypatch):
    # the first 150 draws are rejected: the start is the 151st draw, and the
    # velocity continues the stream after it
    domain = _catalog_domain("sinai_2d")
    original = type(domain).contains
    _spy_contains(monkeypatch, domain, lambda ok, start: ok & (start >= 150))
    (x, _), = runner.sample_initial_conditions(domain, 1, 3)
    rng = np.random.default_rng([3, 0])
    draws = rng.uniform(0.0, 1.0, (400, 2))
    first = 150 + int(np.flatnonzero([original(domain, p, -10.0 * domain.eps_surface)
                                      for p in draws[150:]])[0])
    rng = np.random.default_rng([3, 0])
    q = rng.uniform(0.0, 1.0, (first + 1, 2))[-1]
    v = rng.standard_normal(2)
    assert x.q.tobytes() == q.tobytes() and x.v.tobytes() == (v / np.linalg.norm(v)).tobytes()


def _reject_all(ok, _):
    return np.zeros_like(ok)


def test_sampler_gives_up_after_exactly_its_draw_cap(monkeypatch):
    domain = _catalog_domain("sinai_2d")
    seen = _spy_contains(monkeypatch, domain, _reject_all)
    with pytest.raises(ConfigError, match="could not sample a starting point"):
        runner.sample_initial_conditions(domain, 1, 0)
    assert sum(seen) == runner.START_DRAWS == 100_000
    assert set(seen) == {1}


def test_sampler_group_gives_up_after_its_draw_cap_in_a_row(monkeypatch):
    domain = _catalog_domain("sinai_2d")
    seen = _spy_contains(monkeypatch, domain, _reject_all)
    with pytest.raises(ConfigError, match="could not sample a starting point"):
        runner.sample_initial_conditions(domain, 4, 0)
    assert sum(seen) == runner.START_DRAWS and set(seen) == {4}


def test_sampler_round_that_accepts_restarts_the_draw_cap(monkeypatch):
    # only start 0's first draw is accepted: start 1's draw in that round is
    # not counted, and start 1 then draws START_DRAWS times alone
    domain = _catalog_domain("sinai_2d")
    seen = _spy_contains(monkeypatch, domain,
                         lambda ok, start: np.arange(start, start + len(ok)) == 0)
    with pytest.raises(ConfigError, match="could not sample a starting point"):
        runner.sample_initial_conditions(domain, 2, 0)
    assert seen[0] == 2 and set(seen[1:]) == {1}
    assert sum(seen) == 2 + runner.START_DRAWS
