"""Smoke test of bench/reach.py: one full trace as a subprocess."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reach_counts_every_module():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "reach.py"),
         "--src", str(ROOT / "src")],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    modules = {p.stem for p in (ROOT / "src" / "drinfeldlab").glob("*.py")}
    assert set(report["modules"]) == modules
    assert all(n >= 0 for n in report["modules"].values())
    assert report["total"] == sum(report["modules"].values()) > 0
