"""One workload's closed loop, run by run.py in a process of its own.

    python3 perfbench/child.py <src> <t0> setup
    python3 perfbench/child.py <src> <t0> <workload> <seed> <seconds> <trace>

<t0> is the parent's time.perf_counter() just before it started this process
(CLOCK_MONOTONIC, shared by all processes), so the set-up time includes the
interpreter start.  In `setup` mode the process exits once `drinfeldlab.cli`
is imported.  Otherwise it runs the workload's job list, pass after pass,
as `cli.main(argv)` calls, and prints one JSON line of raw results.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import drinfeldlab.cli  # noqa: E402,F401  (the set-up being timed)

SETUP_S = time.perf_counter() - float(sys.argv[2])

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import jobs  # noqa: E402
import spans  # noqa: E402
from harness import (failures, measure, module_state, run_pass,  # noqa: E402
                     stream_digest)

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
SPANS_DIR = ".perfbench"      # under the working directory


def main():
    if sys.argv[3] == "setup":
        print(json.dumps({"setup_s": SETUP_S}))
        return
    workload, seed, seconds, trace = (sys.argv[3], int(sys.argv[4]),
                                      float(sys.argv[5]), sys.argv[6] == "1")
    job_list = jobs.generate(workload, seed)
    state = module_state()
    budget = seconds / 2 if trace else seconds
    passes = measure(job_list, state, budget)
    reasons = failures(job_list, passes)
    problems = []
    digest = stream_digest(passes[0]["outs"])
    if seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "digests.json")) as fh:
            want = json.load(fh).get(workload)
        if digest != want:
            problems.append(f"stdout stream sha256 {digest} != recorded {want}")
    result = {
        "setup_s": SETUP_S,
        "jobs": len(job_list),
        "walls": [sum(p["scaled"]) for p in passes],
        "raw_walls": [sum(p["raw"]) for p in passes],
        "latencies": [x for p in passes for x in p["scaled"]],
        "attempted": len(job_list) * len(passes),
        "failed": len(reasons),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run_pass(job_list, state, tracer)
        finally:
            tracer.uninstall()
        if stream_digest(traced["outs"]) != digest \
                or traced["codes"] != passes[0]["codes"]:
            problems.append("traced run changed the output stream")
        layers = spans.layer_metrics(tracer.names, tracer.spans)
        layers["trace.overhead_ratio"] = (
            sum(traced["scaled"]) / statistics.median(result["walls"]) - 1)
        result["layers"] = layers
        result["spans_file"] = os.path.join(
            SPANS_DIR, f"spans-{workload}-{seed}.txt.gz")
        spans.write_spans(result["spans_file"], tracer.names, tracer.spans)
    result["problems"] = reasons[:20] + problems
    result["correct"] = not reasons and not problems
    print(json.dumps(result))


if __name__ == "__main__":
    main()
