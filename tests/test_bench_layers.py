"""Smoke test of bench/layers.py at toy size: every case, one run each."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import layers  # noqa: E402


def test_layers_writes_the_bench_schema(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "layers.py"), "--runs", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert set(report) == {"python", "nproc", "git_revision",
                           "PYTHONDONTWRITEBYTECODE", "cases"}
    assert report["python"] == ".".join(map(str, sys.version_info[:3]))
    assert report["nproc"] >= 1
    readme = layers.readme_commands()
    assert 'drinfeldlab omega --q 5 --prime "T+4"' in readme
    assert list(report["cases"]) == ["import drinfeldlab.cli", *readme]
    for case in report["cases"].values():
        assert set(case) == {"unit", "min", "median", "k", "stdout_sha256"}
        assert case["unit"] == "s" and case["k"] == 1
        assert 0 < case["min"] == case["median"]
        assert len(case["stdout_sha256"]) == 64
