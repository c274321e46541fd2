"""``tools/sweep.py``: the scaling sweep, here at its smallest points."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_sweep_reports_every_point(tmp_path):
    out = tmp_path / "sweep.json"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "sweep.py"), "--smoke",
                           "--out", str(out)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["tree"] == str(ROOT)
    points = report["points"]
    assert [(p["family"], p["dim"]) for p in points] == \
        [("sinai", 2), ("sinai", 3), ("hardball", 4), ("hardball", 6)]
    for p in points:
        assert p["starts"] == 2 and p["T"] == 1.0 and p["maxrss_mib"] > 0.0
        assert min(p["build_s"], p["sample_s"], p["flow_s"]) >= 0.0
        assert p["us_per_event"] == (1e6 * p["flow_s"] / p["events"] if p["events"] else None)
    assert sum(p["events"] for p in points) > 0
