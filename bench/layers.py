"""Subprocess timings of drinfeldlab: `import drinfeldlab.cli` and each
README command, as the min and median of k runs, written to one JSON file.

    python3 bench/layers.py --runs 15 --out BENCH_<n>.json
    python3 bench/layers.py --src ../other/src --out other.json

Every run is a fresh interpreter with PYTHONPATH set to --src (this
checkout's src by default) and the rest of the environment inherited, so
PYTHONDONTWRITEBYTECODE, recorded in the file, decides whether the package's
bytecode is cached between runs.  The k rounds run every case once each, in
turn.  A README command that exits non-zero is an error.  Each case also
records the sha256 of its stdout, which must repeat on every run, so two
files can show that two checkouts print the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IMPORT_CASE = "import drinfeldlab.cli"


def readme_commands(readme=ROOT / "README.md"):
    """The `drinfeldlab ...` lines of the README's sh blocks."""
    lines, in_sh = [], False
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("drinfeldlab "):
            lines.append(line)
    return lines


def cases():
    """{case name: argv}: the import, then each README command."""
    out = {IMPORT_CASE: [sys.executable, "-c", IMPORT_CASE]}
    for line in readme_commands():
        out[line] = [sys.executable, "-m", "drinfeldlab.cli",
                     *shlex.split(line)[1:]]
    return out


def _run(argv, env):
    """(seconds, stdout sha256) of one run."""
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited with {proc.returncode}: "
                           f"{proc.stderr.decode()[-500:]}")
    return seconds, hashlib.sha256(proc.stdout).hexdigest()


def _revision(src):
    """HEAD of the git checkout holding src, '+dirty' if src has changes;
    None outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args],
                              capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--", ".").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def measure(src, runs):
    """The report: environment and, per case, unit, min, median, k and the
    stdout digest."""
    env = dict(os.environ, PYTHONPATH=str(src))
    todo = cases()
    times = {name: [] for name in todo}
    digests = {name: set() for name in todo}
    for _ in range(runs):
        for name, argv in todo.items():
            seconds, digest = _run(argv, env)
            times[name].append(seconds)
            digests[name].add(digest)
    for name, seen in digests.items():
        if len(seen) != 1:
            raise RuntimeError(f"{name}: stdout differs between runs")
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": _revision(src),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "cases": {name: {"unit": "s", "min": min(ts),
                         "median": statistics.median(ts), "k": len(ts),
                         "stdout_sha256": digests[name].pop()}
                  for name, ts in times.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=15, help="k, runs per case")
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", default=str(ROOT / "src"))
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    report = measure(Path(args.src).resolve(), args.runs)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for name, case in report["cases"].items():
        print(f"{case['min'] * 1e3:8.1f} {case['median'] * 1e3:8.1f} ms  "
              f"{name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
