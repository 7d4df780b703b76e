"""The in-process job loop shared by child.py and the tests."""

from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
import sys
import time

import calib
import oracle


def module_state():
    """The import-time contents of every module-level container in the
    package (caches such as the group lab's ring tables)."""
    state = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not name.startswith("drinfeldlab"):
            continue
        for key, value in vars(mod).items():
            if isinstance(value, (dict, set, list)) and not key.startswith("__"):
                state.append((value, value.copy()))
    return state


def reset(state):
    """Give the next job the module state a fresh `drinfeldlab` process
    starts with, as each CLI invocation of a user does."""
    for value, initial in state:
        if value != initial:
            value.clear()
            if isinstance(value, dict):
                value.update(initial)
            elif isinstance(value, set):
                value |= initial
            else:
                value.extend(initial)


def run_job(argv):
    """(exit code, seconds, stdout) of one in-process CLI call; the exit
    code is None when the call raised."""
    from drinfeldlab import cli

    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a job that raises is a failed job, not a crash
        code = None
    return code, time.perf_counter() - start, out.getvalue()


def speed_factors(samples):
    """1 / slowness around each job.  Job j runs between calibration
    samples j and j + 1; the median of the six samples nearest it discards
    the ones a context switch inflated."""
    return [1 / statistics.median(samples[max(0, j - 2):j + 4])
            for j in range(len(samples) - 1)]


def run_pass(job_list, state, tracer=None):
    """Run every job once, in order.  Returns a dict of per-job lists:
    raw and speed-scaled latencies (s), exit codes and stdouts."""
    raw, codes, outs, samples = [], [], [], [calib.slowness()]
    for i, argv in enumerate(job_list):
        reset(state)
        if tracer is not None:
            tracer.job = i
        code, dt, out = run_job(argv)
        samples.append(calib.slowness())
        raw.append(dt)
        codes.append(code)
        outs.append(out)
    scaled = [dt * f for dt, f in zip(raw, speed_factors(samples))]
    return {"raw": raw, "scaled": scaled, "codes": codes, "outs": outs}


def stream_digest(outs):
    h = hashlib.sha256()
    for out in outs:
        h.update(out.encode())
    return h.hexdigest()


def measure(job_list, state, seconds):
    """Passes until the next one would overrun `seconds` (at least one).
    Only the first pass keeps its exit codes and stdouts; a later pass
    keeps the indices of the jobs whose output differs from the first, so
    the harness's memory does not grow with the number of passes."""
    passes = []
    start = time.perf_counter()
    while True:
        p = run_pass(job_list, state)
        if passes:
            first = passes[0]
            p["differs"] = [i for i in range(len(job_list))
                            if p["codes"][i] != first["codes"][i]
                            or p["outs"][i] != first["outs"][i]]
            del p["codes"], p["outs"]
        passes.append(p)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def failures(job_list, passes):
    """Reasons per failed job, over all passes: the first pass is checked
    by the oracles, later passes must repeat it byte for byte."""
    first = passes[0]
    bad = [oracle.check(argv, code, out)
           for argv, code, out in zip(job_list, first["codes"],
                                      first["outs"])]
    reasons = []
    for p in passes:
        differs = set(p.get("differs", ()))
        for i, argv in enumerate(job_list):
            if bad[i]:
                reasons.append(f"{' '.join(argv)}: {bad[i]}")
            elif i in differs:
                reasons.append(f"{' '.join(argv)}: output differs on rerun")
    return reasons
