"""drinfeldlab benchmark: seeded CLI workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the repository root.  For each workload one child process
(child.py) imports `drinfeldlab` from ./src and runs the workload's seeded
job list as in-process `drinfeldlab.cli.main(argv)` calls in a closed loop:
one client, the next job starts when the previous one returns.  Passes over
the list repeat for --seconds.  Before it, short-lived children measure the
set-up time of a fresh process.  Only one child runs at a time.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced pass (spans around each module's public calls, see spans.py).
--workload all runs every workload.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calib import slowness  # noqa: E402
from jobs import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 10
CHILD_TIMEOUT_S = 170
PER_LAYER_UNITS = {"self_s": "s", "identity_check_s": "s",
                   "solve_self_s": "s", "mul_self_s": "s", "jobs_s": "s",
                   "thm1_yield": "ratio", "prime_yield": "ratio",
                   "self_share": "ratio", "overhead_ratio": "ratio",
                   "fail_ratio": "ratio", "elements_per_s": "1/s"}


class BenchError(Exception):
    pass


def _child(src, args):
    """Start child.py, wait for it, and return its JSON result line."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), src, repr(t0)]
        + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(src):
    """Speed-scaled set-up times of fresh processes, each scaled by
    calibrations just before and after it.  The first process, which may
    compile the package's bytecode, is discarded."""
    _child(src, ["setup"])
    out = []
    for _ in range(SETUP_SAMPLES):
        before = slowness()
        setup = _child(src, ["setup"])["setup_s"]
        out.append(setup / ((before + slowness()) / 2))
    return out


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1]


def run_workload(src, workload, seed, seconds, trace):
    """(metrics {name: (value, unit)}, notes, raw child result)."""
    setups = [] if trace else setup_samples(src)
    res = _child(src, [workload, str(seed), str(seconds),
                       "1" if trace else "0"])
    n = len(res["latencies"])
    fail_ratio = res["failed"] / res["attempted"]
    if trace:
        metrics = {k: (v, _layer_unit(k)) for k, v in res["layers"].items()}
        metrics["fail_ratio"] = (fail_ratio, "ratio")
        notes = {"trace.jobs_s": f"spans in {res['spans_file']}"}
    else:
        metrics = {
            "wall_s": (statistics.median(res["walls"]), "s"),
            "job_p50_s": (statistics.median(res["latencies"]), "s"),
            "job_p90_s": (percentile(res["latencies"], 90), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        beyond = sum(1 for x in res["latencies"]
                     if x > metrics["job_p90_s"][0])
        notes = {
            "wall_s": f"median of {len(res['walls'])} passes of "
                      f"{res['jobs']} jobs; unscaled "
                      f"{statistics.median(res['raw_walls']):.3f} s",
            "job_p50_s": f"{n} jobs",
            "job_p90_s": f"{n} jobs, {beyond} beyond it",
            "setup_s": f"median of {len(setups)} processes",
            "peak_rss_mb": "workload child",
        }
        metrics["fail_ratio"] = (fail_ratio, "ratio")
        notes["fail_ratio"] = f"{res['failed']} of {res['attempted']} jobs"
    return metrics, notes, res


def _layer_unit(name):
    suffix = name.split(".", 1)[1]
    return PER_LAYER_UNITS.get(suffix, "count")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "drinfeldlab", "cli.py")):
        print("error: run from the repository root (no src/drinfeldlab)",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            metrics, notes, res = run_workload(src, workload, args.seed,
                                               args.seconds, args.trace)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for problem in res["problems"]:
            print(f"{workload}: FAILED {problem}", file=sys.stderr)
        for name, (value, unit) in metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{workload:9s} {name:30s} {value:14.6f} {unit}{note}")
        out["correct"] = out["correct"] and res["correct"]
        out["attempted"] += res["attempted"]
        out["failed"] += res["failed"]
        # the JSON result carries the metrics named in BENCHMARK.json
        keep = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                if k != "fail_ratio" or args.trace}
        if args.workload == "all":
            keep = {f"{workload}.{k}": v for k, v in keep.items()}
        out["metrics"].update(keep)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
