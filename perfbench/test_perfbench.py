"""Tests of the benchmark itself: generator, oracles, tracing, CLI parity.

    python3 -m pytest perfbench -q

The README parity test starts every README CLI command as a subprocess and
takes about a minute.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import arith  # noqa: E402
import harness  # noqa: E402
import jobs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402


# -- generator ------------------------------------------------------------

@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_argv_bytes(workload):
    a = json.dumps(jobs.generate(workload, 7)).encode()
    b = json.dumps(jobs.generate(workload, 7)).encode()
    assert a == b
    assert json.dumps(jobs.generate(workload, 8)).encode() != a


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_counts_and_valid_primes(workload):
    job_list = jobs.generate(workload, 3)
    assert len(job_list) >= 100
    for argv in job_list:
        flags = oracle.flags(argv)
        q = int(flags["q"])
        for key in ("prime", "l"):
            if key in flags:
                f = arith.from_text(flags[key], q)
                assert f[-1] == 1 and arith.is_irreducible(f, q), argv


def test_frob_and_newton_primes_do_not_divide_g2():
    for workload in ("certify", "charpoly"):
        for argv in jobs.generate(workload, 4):
            if argv[0] in ("frob", "newton"):
                f = oracle.flags(argv)
                q = int(f["q"])
                assert arith.rem(arith.from_text(f["g2"], q),
                                 arith.from_text(f["prime"], q), q), argv


def test_obstruction_primes_are_good_distinct_and_not_p():
    for argv in jobs.generate("certify", 5):
        if argv[0] != "obstruction":
            continue
        f = oracle.flags(argv)
        q = int(f["q"])
        g2 = arith.from_text(f["g2"], q)
        p = arith.from_text(f["prime"], q)
        c1, c2 = int(f["c1"]), int(f["c2"])
        assert c1 != c2
        for c in (c1, c2):
            assert arith.evaluate(g2, c, q) != 0
            assert p != [(-c) % q, 1]


def test_thm1_search_primes_are_in_omega_tilde():
    searches = [a for a in jobs.generate("certify", 6)
                if a[0] == "thm1-search"]
    assert searches
    for argv in searches:
        f = oracle.flags(argv)
        q = int(f["q"])
        assert jobs.in_omega_tilde(arith.from_text(f["prime"], q), q)


def test_arith_matches_known_counts():
    assert [arith.necklace(5, n) for n in range(1, 6)] == [5, 10, 40, 150,
                                                           624]
    for q, n in ((5, 3), (7, 2)):
        found = sum(
            arith.is_irreducible([(i // q ** k) % q for k in range(n)] + [1],
                                 q)
            for i in range(q ** n))
        assert found == arith.necklace(q, n)
    assert arith.to_text(arith.from_text("T^2+4*T+3", 5)) == "T^2+4*T+3"


# -- oracles --------------------------------------------------------------

def _run(argv):
    code, _, out = harness.run_job(argv)
    return code, out


def _tamper(key, change):
    """Apply change to field key of the first record that has it."""
    def apply(out):
        recs = [json.loads(line) for line in out.splitlines()]
        rec = next(r for r in recs if key in r)
        rec[key] = change(rec[key])
        return "".join(json.dumps(r) + "\n" for r in recs)
    return apply


def _bump_forced_order(cases):
    return [dict(c, order=c["order"] + 1) for c in cases]


@pytest.mark.parametrize("argv, tamper", [
    (["primes", "--q", "5", "--max-deg", "2"],
     lambda out: out.split("\n", 1)[1]),
    (["omega", "--q", "5", "--prime", "T^2+2"],
     _tamper("witnesses", lambda w: {"c1": (w["c1"] + 1) % 5})),
    (["frob", "--q", "5", "--g1", "1", "--g2", "4", "--prime", "T^2+2"],
     _tamper("identity_holds", lambda v: False)),
    (["newton", "--q", "5", "--g1", "1", "--g2", "4", "--prime", "T"],
     _tamper("total_length", lambda v: v + 1)),
    (["lemma-a1", "--q", "5", "--prime", "T", "--samples", "3",
      "--seed", "1"], _tamper("forced_cases", _bump_forced_order)),
    (["det-gen", "--q", "5", "--prime", "T", "--level", "2",
      "--max-deg", "2"], _tamper("generated", lambda v: not v)),
    (["density", "--q", "5", "--d1", "1", "--d2", "4", "--x", "3",
      "--mode", "brute"], _tamper("count_S", lambda v: v + 1)),
])
def test_oracle_accepts_real_output_and_rejects_tampered(argv, tamper):
    code, out = _run(argv)
    assert oracle.check(argv, code, out) is None
    assert oracle.check(argv, code, tamper(out)) is not None
    assert oracle.check(argv, 2, out) is not None


def test_counterexample_oracle_finds_the_known_22():
    argv = ["lambda-scan", "--q", "5", "--exact-deg", "5",
            "--find-counterexample"]
    code, out = _run(argv)
    assert oracle.check(argv, code, out) is None
    summary = json.loads(out.splitlines()[-1])
    assert len(summary["counterexamples"]) == 22


# -- tracing --------------------------------------------------------------

def _span(name, start, end, parent):
    return [name, start, end, parent, 0, False, None]


def test_self_time_of_nested_spans():
    spans_ = [
        _span(0, 0.0, 10.0, -1),   # root
        _span(1, 1.0, 4.0, 0),     # child
        _span(2, 2.0, 3.0, 1),     # grandchild
        _span(1, 5.0, 6.5, 0),     # second child
        _span(1, 9.0, 11.0, 0),    # child overrunning its parent: clipped
    ]
    assert spans.self_times(spans_) == pytest.approx(
        [10.0 - 3.0 - 1.5 - 1.0, 2.0, 1.0, 1.5, 2.0])
    # overlapping children cover their union once
    overlap = [_span(0, 0.0, 10.0, -1), _span(1, 1.0, 5.0, 0),
               _span(1, 3.0, 7.0, 0)]
    assert spans.self_times(overlap)[0] == pytest.approx(4.0)


def _bindings_snapshot():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("drinfeldlab"):
            continue
        holders = [mod] + [v for v in vars(mod).values()
                           if isinstance(v, type)]
        for holder in holders:
            for key, value in vars(holder).items():
                if callable(value):
                    snap[(id(holder), key)] = value
    return snap


def test_traced_run_keeps_stdout_and_restores_every_binding():
    from drinfeldlab import polys, residues

    job_list = jobs.generate("certify", 2)
    state = harness.module_state()
    before = _bindings_snapshot()
    _, _, codes, outs = harness.run_pass(job_list, state)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # a name imported from polys into residues is traced too
        assert residues.powmod is polys.powmod
        assert residues.powmod is not before[(id(polys), "powmod")]
        _, _, t_codes, t_outs = harness.run_pass(job_list, state, tracer)
    finally:
        tracer.uninstall()
    assert t_codes == codes
    assert harness.stream_digest(t_outs) == harness.stream_digest(outs)
    after = _bindings_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    m = spans.layer_metrics(tracer.names, tracer.spans)
    assert m["cli.calls"] == len(job_list)
    assert m["trace.self_share"] == pytest.approx(1.0)
    assert m["frobenius.frob_general_calls"] == 0
    assert m["groups.closure_elements"] == 0
    assert m["residues.euler_tests"] > 0


# -- the in-process loop against the real CLI ------------------------------

def _readme_commands():
    with open(os.path.join(ROOT, "README.md")) as fh:
        return [shlex.split(line)[1:] for line in fh
                if line.startswith("drinfeldlab ")]


def test_in_process_matches_cli_subprocess():
    commands = _readme_commands()
    assert len(commands) >= 10
    env = dict(os.environ, PYTHONPATH=SRC)
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "drinfeldlab.cli"]
                              + argv, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, env=env,
                              timeout=300)
        code, out = _run(argv)
        assert (code, out.encode()) == (proc.returncode, proc.stdout), argv
