import argparse
import contextlib
import csv
import io
import json
import os
import random
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import drinfeldlab
from drinfeldlab import (
    census,
    cli,
    criteria,
    drinfeld,
    frobenius,
    groups,
    kernel,
    residues,
)
from drinfeldlab.cli import main
from drinfeldlab.drinfeld import DrinfeldModule
from drinfeldlab.errors import (
    CapExceeded,
    EnumerationCapExceeded,
    InternalInconsistency,
    ParamsOutOfRange,
)
from drinfeldlab.fields import make_field
from drinfeldlab.polys import Poly, PrimeIdeal, parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_omega_worked_example(capsys):
    code, out, _ = run(capsys, "omega", "--q", "5", "--prime", "T+4")
    assert code == 0
    recs = records(out)
    assert recs[0]["witnesses"]["c1"] == 3
    assert recs[0]["verified"]


def test_omega_nonmember_exit_code(capsys):
    code, out, _ = run(capsys, "omega", "--q", "5", "--prime",
                       "T^5+4*T^4+3*T^3+1")
    assert code == 1
    assert not records(out)[0]["verified"]


def test_field_record(capsys):
    code, out, _ = run(capsys, "field", "--q", "5")
    assert code == 0
    rec = records(out)[0]
    assert rec["elements"] == [0, 1, 2, 3, 4]
    assert rec["squares"] == [0, 1, 4]
    assert rec["nonsquares"] == [2, 3]


def test_field_bounds_q_before_listing(capsys, monkeypatch):
    reached = []

    def no_field(q):
        reached.append(q)
        raise AssertionError("field built")

    monkeypatch.setattr(cli, "make_field", no_field)
    for q in (cli.FIELD_LIST_CAP + 1, 999999999989):
        code, out, err = run(capsys, "field", "--q", str(q))
        assert (code, out, reached) == (2, "", []), q
        assert err == (f"error: field lists every element: q must be at "
                       f"most {cli.FIELD_LIST_CAP}\n")
    with pytest.raises(AssertionError, match="field built"):
        main(["field", "--q", str(cli.FIELD_LIST_CAP)])
    assert reached == [cli.FIELD_LIST_CAP]


# one admitted call per command, its --q left for the test to fill in
_Q_BOUND_CALLS = {
    "field": [],
    "primes": ["--max-deg", "1"],
    "omega": ["--prime", "T"],
    "lambda": ["--l", "T", "--g1", "1", "--c", "3"],
    "lambda-scan": ["--max-deg", "1"],
    "frob": ["--g1", "1", "--g2", "4", "--prime", "T^2+2"],
    "thm1-verify": ["--g1", "T", "--g2", "T+4", "--prime", "T^2+3",
                    "--c1", "0", "--c2", "1"],
    "thm1-search": ["--prime", "T^2+3", "--max-deg", "4", "--limit", "1"],
    "thm2": ["--l", "T", "--g1", "1", "--c", "3"],
    "newton": ["--g1", "1", "--g2", "4", "--prime", "T"],
    "obstruction": ["--g1", "1", "--g2", "4*T^4", "--prime", "T+1",
                    "--c1", "1", "--c2", "2"],
    "det-gen": ["--prime", "T", "--level", "2", "--max-deg", "2"],
    "lemma-a1": ["--prime", "T", "--samples", "1", "--seed", "1"],
    "pr-level2": ["--prime", "T", "--samples", "1", "--seed", "1"],
    "density": ["--d1", "3", "--d2", "12", "--x", "3"],
}


def test_q_bounded_before_any_field(capsys, monkeypatch):
    # every command takes q <= Q_CAP, and those that iterate over F_q also
    # q <= FIELD_LIST_CAP; one past the bound exits 2 with empty stdout
    # before a field is built or a Rabin test runs, on both parse paths,
    # and the bound itself reaches make_field
    def refuse(*args, **kwargs):
        raise AssertionError("field built")

    monkeypatch.setattr(cli, "make_field", refuse)
    monkeypatch.setattr(kernel, "rabin", refuse)
    assert set(_Q_BOUND_CALLS) == set(cli.COMMANDS)
    assert cli._LISTS_FQ < set(cli.COMMANDS)
    for cmd, flags in _Q_BOUND_CALLS.items():
        bound = (cli.FIELD_LIST_CAP if cmd in cli._LISTS_FQ
                 else cli.Q_CAP)
        for q_flag in (["--q", str(bound + 1)], [f"--q={bound + 1}"]):
            code, out, err = run(capsys, cmd, *q_flag, *flags)
            assert (code, out) == (2, ""), (cmd, err)
            assert f"q must be at most {bound}\n" in err, cmd
        with pytest.raises(AssertionError, match="field built"):
            main([cmd, "--q", str(bound), *flags])
    capsys.readouterr()


def test_primes_stream(capsys):
    code, out, _ = run(capsys, "primes", "--q", "5", "--max-deg", "2")
    assert code == 0
    recs = records(out)
    assert len(recs) == 15
    assert recs[0]["prime"] == "T"
    assert recs[5]["degree"] == 2


def test_lambda_scan_small(capsys):
    code, out, _ = run(capsys, "lambda-scan", "--q", "5", "--max-deg", "2")
    assert code == 0
    recs = records(out)
    assert len(recs) == 16  # 15 primes + summary
    summary = recs[-1]
    assert summary["op"] == "lambda_scan"
    assert summary["all_pass"] is True


def test_lambda_scan_find_counterexample_exit_zero(capsys):
    code, out, _ = run(capsys, "lambda-scan", "--q", "5", "--exact-deg", "5",
                       "--find-counterexample")
    assert code == 0  # finding one is the success condition of the hunt
    summary = records(out)[-1]
    assert summary["mode"] == "find_counterexample"
    assert len(summary["counterexamples"]) >= 1
    assert summary["first_counterexample"] == summary["counterexamples"][0]


def test_thm2_and_obstruction(capsys):
    code, out, _ = run(capsys, "thm2", "--q", "5", "--l", "T", "--g1", "1",
                       "--c", "3")
    assert code == 0
    recs = records(out)
    assert recs[0]["g2"] == "4*T^4"
    assert recs[1]["verified"]
    code, out, _ = run(capsys, "obstruction", "--q", "5", "--g1", "1",
                       "--g2", "4*T^4", "--prime", "T+1",
                       "--c1", "1", "--c2", "2")
    assert code == 0
    assert records(out)[0]["verified"]


def test_newton_record(capsys):
    code, out, _ = run(capsys, "newton", "--q", "5", "--g1", "1",
                       "--g2", "4", "--prime", "T")
    assert code == 0
    rec = records(out)[0]
    assert rec["height"] == 1
    assert rec["n_p"] == 5
    assert rec["segments"] == [["1/4", 4], ["0", 20]]


def test_det_gen(capsys):
    code, out, _ = run(capsys, "det-gen", "--q", "5", "--prime", "T",
                       "--level", "2", "--max-deg", "2")
    assert code == 0
    rec = records(out)[0]
    assert rec["generated"] is True
    assert rec["unit_group_order"] == 20


def test_density_csv(capsys):
    code, out, _ = run(capsys, "--output", "csv", "density", "--q", "5",
                       "--d1", "3", "--d2", "12", "--x", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("op,q,d1,d2,X,count_S,count_W,")
    assert len(lines) == 3  # header + X=1, X=2


def test_byte_identical_reruns(capsys):
    _, out1, _ = run(capsys, "thm1-search", "--q", "5", "--prime", "T^2+3",
                     "--max-deg", "4", "--limit", "5")
    _, out2, _ = run(capsys, "thm1-search", "--q", "5", "--prime", "T^2+3",
                     "--max-deg", "4", "--limit", "5")
    assert out1 == out2
    _, out3, _ = run(capsys, "lemma-a1", "--q", "5", "--prime", "T",
                     "--samples", "10", "--seed", "3")
    _, out4, _ = run(capsys, "lemma-a1", "--q", "5", "--prime", "T",
                     "--samples", "10", "--seed", "3")
    assert out3 == out4


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["omega", "--q", "5"])  # missing --prime
    assert exc.value.code == 2
    code, _, err = run(capsys, "omega", "--q", "5", "--prime", "T^2+4")
    assert code == 2  # reducible generator
    assert "error" in err
    code, _, err = run(capsys, "omega", "--q", "5", "--prime", "T^^1")
    assert code == 2  # malformed term
    code, _, err = run(capsys, "primes", "--q", "5")
    assert code == 2
    code, out, err = run(capsys, "omega", "--q", "5", "--prime",
                         "T^1000000000")
    assert code == 2  # exponent above the parse cap, rejected before work
    assert out == "" and "exceeds cap" in err


def test_internal_inconsistency_exit_3(capsys, monkeypatch):
    # a wrong nonzero norm makes the identity check inside frob_general
    # fail; frob_general takes the norm as a resultant
    resultant = kernel.vresultant
    monkeypatch.setattr(kernel, "vresultant", lambda ctx, f, g: ctx.mul(
        resultant(ctx, f, g), 2))
    code, out, err = run(capsys, "frob", "--q", "5", "--g1", "1", "--g2",
                         "4", "--prime", "T^2+2")
    assert code == 3
    assert out == "" and "bug" in err


def test_internal_checks_exit_3(capsys, monkeypatch):
    # a tau-height not divisible by deg p is an internal inconsistency,
    # not a traceback: phi_p's first nonzero tau-coefficient vector at
    # index 1, deg p = 2
    monkeypatch.setattr(drinfeld.ReducedModule, "vectors",
                        lambda red, a, cap=None: [[], [1]])
    code, out, err = run(capsys, "newton", "--q", "5", "--g1", "1", "--g2",
                         "4", "--prime", "T^2+2")
    assert code == 3
    assert out == "" and "not divisible" in err


def test_thm2_division_remainder_exit_3(capsys, monkeypatch):
    # carlitz_det_module forms l^(q-1) as the exact division l(T^q) / l;
    # a division perturbed to leave a remainder is an internal
    # inconsistency, and no record is written.  Only drinfeld's view of
    # the kernel is perturbed, so the Rabin test and the triple check
    # run as they are
    vdivmod = kernel.vdivmod
    off = types.SimpleNamespace(**vars(kernel))
    off.vdivmod = lambda ctx, a, b: (vdivmod(ctx, a, b)[0], [1])
    monkeypatch.setattr(drinfeld, "kernel", off)
    code, out, err = run(capsys, "thm2", "--q", "5", "--l", "T", "--g1",
                         "1", "--c", "3")
    assert code == 3
    assert out == "" and "not a multiple" in err


@pytest.mark.parametrize("output", ["jsonl", "csv", "pretty"])
def test_emit_writes_nothing_of_a_cyclic_record(output):
    # the one encoder runs no cycle check, as every record is a fresh
    # tree; a record that holds itself still raises, and it is formatted
    # whole before any of it is written, so no partial line goes out
    good = {"op": "prime", "q": 5, "degree": 1, "prime": "T"}
    cyclic = {"op": "loop", "q": 5}
    cyclic["self"] = cyclic
    out = io.StringIO()
    with pytest.raises((RecursionError, ValueError)):
        cli._emit([cyclic], output, out)
    assert out.getvalue() == ""
    if output != "csv":  # a csv table is written whole or not at all
        want = io.StringIO()
        cli._emit([good], output, want)
        with pytest.raises((RecursionError, ValueError)):
            cli._emit([good, cyclic], output, out)
        assert out.getvalue() == want.getvalue()


def test_every_prime_flag_bounded_before_work(capsys, monkeypatch):
    # every command taking a --prime or --l rejects a degree-256 prime with
    # exit 2 before the Rabin test and before any residue ring is built
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the bound check")

    monkeypatch.setattr(kernel, "rabin", refuse)
    monkeypatch.setattr(residues.ResidueRing, "__init__", refuse)
    values = {"--q": "5", "--prime": "T^256+T+2", "--l": "T^256+T+2",
              "--g1": "T+1", "--g2": "2*T+3", "--c1": "0", "--c2": "1"}
    checked = []
    for name, (_, flags) in cli.COMMANDS.items():
        if "--prime" not in flags and "--l" not in flags:
            continue
        argv = [name]
        for flag in flags:
            if isinstance(flag, tuple):
                if not flag[1].get("required"):
                    continue
                flag = flag[0]
            argv += [flag, values.get(flag, "1")]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), (argv, err)
        checked.append(name)
    assert {"omega", "lambda", "thm1-verify", "thm1-search", "thm2",
            "obstruction", "frob", "newton"} <= set(checked)


def test_enumeration_cap_checked_before_work(capsys, monkeypatch):
    def no_rabin(*args):
        raise AssertionError("Rabin test ran before the cap check")

    F11 = make_field(11)
    p = PrimeIdeal(parse_poly(F11, "T"))  # validated before the patch
    monkeypatch.setattr(kernel, "rabin", no_rabin)
    for cmd in ("primes", "lambda-scan"):
        code, out, err = run(capsys, cmd, "--q", "11", "--max-deg", "7")
        assert code == 2
        assert out == "" and "11^7 candidates exceed cap" in err
    with pytest.raises(EnumerationCapExceeded):
        frobenius.det_generation_check(p, 1, 7)


def test_prime_degree_cap_checked_before_work(capsys, monkeypatch):
    # degree 64 is the cap and runs: frob_general at a degree-64 prime
    F5 = make_field(5)
    gen = parse_poly(F5, "T^64+3*T^4+T^2+T+2")
    frobenius.check_prime_degree(gen)
    phi = DrinfeldModule(F5, [parse_poly(F5, "T+1"), parse_poly(F5, "2*T+3")])
    cp = frobenius.frob_general(phi, PrimeIdeal(gen))
    assert cp.b == gen * cp.unit

    def no_rabin(*args):
        raise AssertionError("Rabin test ran before the degree check")

    monkeypatch.setattr(kernel, "rabin", no_rabin)
    for cmd in ("frob", "newton"):
        code, out, err = run(capsys, cmd, "--q", "5", "--g1", "T+1",
                             "--g2", "2*T+3", "--prime", "T^65+T+1")
        assert code == 2
        assert out == "" and "at most 64" in err


def test_lab_bounds_checked_before_work(capsys, monkeypatch):
    # the group labs bound the --prime by its degree, and det-gen bounds
    # #(A/p) = q^deg p, before the Rabin test and before any ring or table
    # is built
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the bound check")

    for target, name in ((kernel, "rabin"), (residues, "ResidueRing"),
                         (cli, "PrimeIdeal"), (groups, "_Tables"),
                         (residues.ResidueRing, "__init__")):
        monkeypatch.setattr(target, name, refuse)
    for argv, message in (
            (["lemma-a1", "--q", "5", "--prime", "T^512+T+2", "--samples",
              "1", "--seed", "1"], "q^n <= 128"),
            (["lemma-a1", "--q", "131", "--prime", "T", "--samples", "1",
              "--seed", "1"], "q^n <= 128"),
            (["pr-level2", "--q", "5", "--prime", "T^2+2", "--samples", "1",
              "--seed", "1"], "deg(p) = 1"),
            (["det-gen", "--q", "5", "--prime", "T^18+T+2", "--level", "2",
              "--max-deg", "1"], "exceeds cap 1000000000000"),
            (["det-gen", "--q", "7", "--prime", "T^15+T+2", "--level", "1",
              "--max-deg", "1"], "exceeds cap 1000000000000"),
            (["det-gen", "--q", "5", "--prime", "T^512+T+2", "--level", "1",
              "--max-deg", "1"], "exceeds cap 1000000000000")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and message in err
    p = PrimeIdeal(parse_poly(make_field(5), "T^18+4*T+1"), _trusted=True)
    with pytest.raises(CapExceeded):
        frobenius.det_generation_check(p, 2, 1)


def test_obstruction_bounded_by_prime_degree(capsys, monkeypatch):
    # the decision is one root whatever #(A/p) is: a degree-64 prime, with
    # 5^64 - 1 units, certifies, and degree 65 is refused before the Rabin
    # test
    argv = ["obstruction", "--q", "5", "--g1", "1", "--g2", "4*T^4",
            "--c1", "1", "--c2", "2", "--prime"]
    code, out, err = run(capsys, *argv, "T^64+3*T^4+T^2+T+2")
    assert code == 0, err
    cert = records(out)[0]
    assert cert["verified"]
    assert cert["witnesses"]["zeta_scan"]["tested"] == 5 ** 64 - 1

    def refuse(*args):
        raise AssertionError("Rabin test ran before the degree check")

    monkeypatch.setattr(kernel, "rabin", refuse)
    code, out, err = run(capsys, *argv, "T^65+T+2")
    assert (code, out) == (2, "") and "at most 64" in err


def test_search_limit_and_thm2_power_bounded_before_work(capsys,
                                                         monkeypatch):
    # thm1-search holds every certificate, so --limit is at most
    # SAMPLE_CAP; thm2 expands l^(q-1), so (q - 1) deg l is at most
    # THM2_POWER_DEG_CAP; both exit 2 before the Rabin test
    assert criteria.THM2_POWER_DEG_CAP == 4096
    groups.check_samples(groups.SAMPLE_CAP, "limit")
    f257 = make_field(257)
    criteria.check_theorem2_prime(parse_poly(f257, "T^16+T+3"))

    def refuse(*args):
        raise AssertionError("Rabin test ran before the bound check")

    monkeypatch.setattr(kernel, "rabin", refuse)
    with pytest.raises(ParamsOutOfRange):
        criteria.check_theorem2_prime(parse_poly(f257, "T^17+T+3"))
    for argv, message in (
            (["thm1-search", "--q", "5", "--prime", "T^2+3", "--max-deg", "3",
              "--limit", str(groups.SAMPLE_CAP + 1)], "limit must be in"),
            (["thm1-search", "--q", "5", "--prime", "T^2+3", "--max-deg", "3",
              "--limit", "-1"], "limit must be in"),
            (["thm2", "--q", "1009", "--l", "T^5+T+1", "--g1", "1", "--c",
              "3"], "deg l <= 4096"),
            (["thm2", "--q", "257", "--l", "T^17+T+3", "--g1", "1", "--c",
              "3"], "deg l <= 4096")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert message in err, err


def test_det_gen_unit_budget():
    # det-gen lists no unit, so its one bound is #(A/p) = q^deg p <= 10^12,
    # whatever the level: 5^17 and 7^14 are the largest at q = 5 and 7
    assert frobenius.DET_GEN_FIELD_CAP == 10 ** 12
    assert frobenius.check_det_gen_field(5, 17) == 5 ** 17
    assert frobenius.check_det_gen_field(7, 14) == 7 ** 14
    assert frobenius.check_det_gen_field(999_983, 2) == 999_983 ** 2
    for q, degree in ((5, 18), (7, 15), (1_000_003, 2), (5, 10 ** 11)):
        with pytest.raises(CapExceeded):
            frobenius.check_det_gen_field(q, degree)


def test_det_gen_at_the_field_bound(capsys):
    # a degree-17 prime at q = 5, N = 5^17 <= 10^12: level 2 needs F_5-rank
    # 17, which the 15 primes of degree <= 2 cannot give and those of
    # degree 3 do
    prime = "T^17+T^2+2*T+4"
    for level, max_deg, want in ((1, 1, True), (2, 2, False), (2, 3, True)):
        code, out, err = run(capsys, "det-gen", "--q", "5", "--prime", prime,
                             "--level", str(level), "--max-deg", str(max_deg))
        rec, = records(out)
        assert (code, rec["generated"], err) == (1 - want, want, "")
        assert rec["unit_group_order"] == 5 ** (17 * level) - 5 ** (
            17 * (level - 1))


def test_frob_oracle_errors_propagate(capsys, monkeypatch):
    # an inconsistency inside the oracle is exit 3, not a null oracle
    def broken(phi, lam):
        raise InternalInconsistency("oracle disagrees; this is a bug")

    monkeypatch.setattr(frobenius, "euler_poincare_oracle", broken)
    code, out, err = run(capsys, "frob", "--q", "5", "--g1", "1", "--g2",
                         "4", "--prime", "T^2+2")
    assert code == 3
    assert out == "" and "bug" in err


def test_frob_oracle_disagreement_exit_3(capsys, monkeypatch):
    # the oracle and frob_general must agree: a disagreement is a bug,
    # exit 3, not a verification failure
    monkeypatch.setattr(frobenius, "euler_poincare_oracle",
                        lambda phi, lam: Poly.T(phi.ctx))
    code, out, err = run(capsys, "frob", "--q", "5", "--g1", "1", "--g2",
                         "4", "--prime", "T^2+2")
    assert code == 3
    assert out == "" and "bug" in err


def test_frob_oracle_skipped_above_its_bound(capsys, monkeypatch):
    # 5^5 > DEFAULT_BRUTE_CAP residues: the oracle is never called and the
    # record says so with nulls
    def refuse(phi, lam):
        raise AssertionError("oracle called above its bound")

    monkeypatch.setattr(frobenius, "euler_poincare_oracle", refuse)
    code, out, _ = run(capsys, "frob", "--q", "5", "--g1", "1", "--g2", "4",
                       "--prime", "T^5+4*T+1")
    rec = records(out)[0]
    assert code == 0
    assert rec["oracle"] is None and rec["oracle_matches"] is None


def test_minus_convenience_matches_worked_example(capsys):
    code, out, _ = run(capsys, "omega", "--q", "5", "--prime", "T-1")
    assert code == 0
    rec = records(out)[0]
    assert rec["witnesses"]["c1"] == 3
    assert rec["inputs"]["prime"] == "T+4"  # canonical echo


def test_seed_required_for_randomized(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lemma-a1", "--q", "5", "--prime", "T", "--samples", "5"])
    assert exc.value.code == 2


def test_pretty_output(capsys):
    code, out, _ = run(capsys, "--output", "pretty", "field", "--q", "5")
    assert code == 0
    assert "q: 5" in out


def test_obstruction_records_revalidate(capsys):
    from drinfeldlab.criteria import revalidate

    _, out, _ = run(capsys, "thm1-verify", "--q", "5", "--g1", "T",
                    "--g2", "T+4", "--prime", "T^2+3", "--c1", "0",
                    "--c2", "1")
    rec = records(out)[0]
    assert rec["verified"]
    assert revalidate(rec)


def test_sample_and_box_bounds_checked_before_work(capsys, monkeypatch):
    def no_field(*args, **kwargs):
        raise AssertionError("work started before the bound check")

    monkeypatch.setattr(cli, "make_field", no_field)
    for argv in (["lemma-a1", "--q", "5", "--prime", "T", "--samples", "-3",
                  "--seed", "1"],
                 ["pr-level2", "--q", "5", "--prime", "T", "--samples", "-2",
                  "--seed", "1"],
                 ["pr-level2", "--q", "5", "--prime", "T", "--samples",
                  "10001", "--seed", "1"],
                 ["density", "--q", "5", "--d1", "3", "--d2", "12",
                  "--x", "0"],
                 ["density", "--q", "5", "--d1", "3", "--d2", "12",
                  "--x", "-4"],
                 ["density", "--q", "5", "--d1", "3", "--d2", "12",
                  "--x", "101"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and "must be in" in err


def test_pr_level2_q7(capsys):
    # |GL_2(A/p^2)| = 4,840,416 is over the 400,000 closure cap; no
    # subgroup is listed, each is sized by a stabiliser chain
    code, out, _ = run(capsys, "pr-level2", "--q", "7", "--prime", "T",
                       "--samples", "2", "--seed", "1")
    assert code == 0
    rec = records(out)[0]
    assert rec["full_order"] == 4_840_416
    assert rec["violations"] == []
    cases = {c["case"]: c for c in rec["forced_cases"]}
    assert cases["full_group"]["order"] == 4_840_416
    assert cases["teichmuller_lift"]["order"] == 2016


def test_density_counts_bounded_before_work(capsys, monkeypatch):
    # count_W = 13^(170 * 100) would have about 19,000 digits, past
    # Python's int-to-text limit; no count may be computed
    def no_count(*args, **kwargs):
        raise AssertionError("counted before the bound check")

    monkeypatch.setattr(census, "count_W", no_count)
    code, out, err = run(capsys, "density", "--q", "13", "--d1", "50",
                         "--d2", "120", "--x", "100")
    assert code == 2
    assert out == "" and "must be at most" in err


def test_density_skips_only_out_of_range_boxes(capsys, monkeypatch):
    # a box outside formula mode's range is skipped, but an internal
    # inconsistency in a count is exit 3, not a skipped row
    def broken(*args, **kwargs):
        raise InternalInconsistency("count disagrees; this is a bug")

    code, out, _ = run(capsys, "density", "--q", "5", "--d1", "1", "--d2",
                       "4", "--x", "3")
    assert code == 0 and [r["X"] for r in records(out)] == [3]
    monkeypatch.setattr(census, "count_S", broken)
    code, out, err = run(capsys, "density", "--q", "5", "--d1", "3", "--d2",
                         "12", "--x", "3")
    assert code == 3
    assert out == "" and "bug" in err


def test_thm1_search_bounds_checked_before_work(capsys, monkeypatch):
    def no_pool(*args):
        raise AssertionError("pools built before the bound check")

    monkeypatch.setattr(kernel, "vectors_below", no_pool)
    base = ["thm1-search", "--q", "5", "--prime", "T^2+3"]
    code, out, err = run(capsys, *base, "--max-deg", "3", "--limit", "-1")
    assert code == 2 and out == "" and "limit" in err
    code, out, err = run(capsys, *base, "--max-deg", "11", "--limit", "1")
    assert code == 2 and out == "" and "5^11 candidates exceed cap" in err


# (argv with X for the flag under test, the flag) at q = 5
ELEMENT_FLAG_CASES = (
    ("lambda --q 5 --l T --g1 1 --c X", "--c"),
    ("thm2 --q 5 --l T --g1 1 --c X", "--c"),
    ("thm1-verify --q 5 --g1 T --g2 T+4 --prime T^2+3 --c1 X --c2 1", "--c1"),
    ("thm1-verify --q 5 --g1 T --g2 T+4 --prime T^2+3 --c1 0 --c2 X", "--c2"),
    ("obstruction --q 5 --g1 1 --g2 4*T^4 --prime T^2+2 --c1 X --c2 2",
     "--c1"),
    ("obstruction --q 5 --g1 1 --g2 4*T^4 --prime T^2+2 --c1 1 --c2 X",
     "--c2"),
    ("density --q 5 --d1 3 --d2 12 --x 1 --c1 X", "--c1"),
    ("density --q 5 --d1 3 --d2 12 --x 1 --c2 X", "--c2"),
)


def test_field_element_flags_range_checked(capsys, monkeypatch):
    # a value outside 0..q-1 is a usage error before any work, never
    # reduced mod p; q - 1 is admitted
    for template, flag in ELEMENT_FLAG_CASES:
        code, out, err = run(capsys, *template.replace("X", "4").split())
        assert code in (0, 1) and err == "", template

    def no_work(*args):
        raise AssertionError("work started before the range check")

    monkeypatch.setattr(cli, "parse_poly", no_work)
    monkeypatch.setattr(census, "count_S", no_work)
    for template, flag in ELEMENT_FLAG_CASES:
        for value in ("-1", "5", "-3", "7"):
            argv = template.replace("X", value).split()
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == f"error: {flag} {value} out of range 0..4\n", argv


def test_obstruction_same_prime_twice_exit_2(capsys):
    code, out, err = run(capsys, "obstruction", "--q", "5", "--g1", "1",
                         "--g2", "1", "--prime", "T+1", "--c1", "0",
                         "--c2", "0")
    assert (code, out) == (2, "")
    assert "2 distinct primes" in err


class _ClosedStdout:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_exits_141(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = main(["lambda-scan", "--q", "5", "--max-deg", "3"])
    assert code == cli.EXIT_CLOSED_PIPE == 141
    assert capsys.readouterr().err == ""


def test_closed_pipe_in_a_process_exits_141_silently():
    src = str(Path(drinfeldlab.__file__).resolve().parents[1])
    # block-buffered stdout: the records reach the pipe only when main
    # flushes, which must happen inside its BrokenPipeError handler
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "drinfeldlab.cli", "lambda-scan", "--q", "5",
         "--max-deg", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # no reader is left before the first write
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_cli_edge_values_fuzz(capsys, monkeypatch):
    """Negative, 0, cap and past-cap values exit with their documented
    code: 0 for an admitted run, 2 for a usage error (never 1)."""
    rng = random.Random(2024)
    neg = -rng.randrange(1, 10 ** 6)
    far = rng.randrange(2, 10 ** 6)
    cases = []
    for cmd in ("lemma-a1", "pr-level2"):
        for samples, want in ((neg, 2), (-1, 2), (0, 0),
                              (groups.SAMPLE_CAP + 1, 2),
                              (groups.SAMPLE_CAP + far, 2)):
            cases.append(([cmd, "--q", "5", "--prime", "T", "--samples",
                           str(samples), "--seed", "1"], want))
    for x, want in ((neg, 2), (-1, 2), (0, 2), (census.X_CAP, 0),
                    (census.X_CAP + 1, 2), (census.X_CAP + far, 2)):
        cases.append((["density", "--q", "5", "--d1", "3", "--d2", "12",
                       "--x", str(x)], want))
    # at q = 5, X = 1 the weights may sum to COUNT_BITS_CAP // 3 = 4,666;
    # d2 = 4,660 keeps d2 X / (q - 1) integral for the formula
    assert (6 + 4660) * 3 <= census.COUNT_BITS_CAP < (7 + 4660) * 3
    for d1, d2, want in ((neg, 4, 2), (0, 4, 2), (-1, 4, 2), (4, neg, 2),
                         (4, 0, 2), (4, -1, 2), (6, 4660, 0), (7, 4660, 2),
                         (6, 4661, 2), (6 + far, 4660, 2)):
        cases.append((["density", "--q", "5", "--d1", str(d1), "--d2",
                       str(d2), "--x", "1"], want))
    thm1 = ["thm1-search", "--q", "5", "--prime", "T^2+3"]
    for limit, want in ((neg, 2), (-1, 2), (0, 0), (1, 0), (2, 0)):
        cases.append((thm1 + ["--max-deg", "3", "--limit", str(limit)], want))
    # 5^10 <= 10^7 < 5^11; --limit 0 stops before the a1, a2 pools
    for max_deg, want in ((neg, 2), (-1, 2), (0, 0), (10, 0), (11, 2),
                          (11 + far, 2)):
        cases.append((thm1 + ["--max-deg", str(max_deg), "--limit", "0"],
                      want))
    for cmd in (["primes", "--q", "5"], ["lambda-scan", "--q", "5"],
                ["det-gen", "--q", "5", "--prime", "T", "--level", "1"]):
        for max_deg in (neg, -1, 11, 11 + far):
            cases.append((cmd + ["--max-deg", str(max_deg)], 2))
    for argv, want in cases:
        code, out, err = run(capsys, *argv)
        assert (code, "Traceback" in err) == (want, False), argv
        if want == 2:
            assert out == "" and err.startswith("error: "), argv
    # the sample cap itself: the bound admits it (the labs are stubbed, a
    # real run of 10,000 samples takes seconds)
    monkeypatch.setattr(groups, "verify_lemma_A1",
                        lambda ring, samples, seed: {"violations": []})
    monkeypatch.setattr(groups, "pink_rutsche_level2",
                        lambda p, samples, seed: {"violations": []})
    for cmd in ("lemma-a1", "pr-level2"):
        code, out, err = run(capsys, cmd, "--q", "5", "--prime", "T",
                             "--samples", str(groups.SAMPLE_CAP),
                             "--seed", "1")
        assert (code, err) == (0, "")


def run_parsed(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), argparse exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PARSE_CASES = (
    [["--help"], [], ["bogus"]]
    + [[name, "--help"] for name in cli.COMMANDS]
    + [[name] for name in cli.COMMANDS]
    + [line.split() for line in (
        "omega --q 5",
        "omega --q 5 --prime T --bogus",
        "--output field omega",
        "field --q 5 --output bad",
        "det-gen --q 5 --prime T --level 3 --max-deg 1",
        "--output csv field --q 5",
        "field --q 5 --output pretty",
        "help field",
        "-h omega",
        "-5 omega",
        "-- field --q 5",
        "--o=csv field --q 5",
    )])


@pytest.mark.parametrize("argv", PARSE_CASES,
                         ids=lambda argv: " ".join(argv) or "<none>")
def test_one_subparser_prints_what_the_whole_table_prints(capsys, monkeypatch,
                                                          argv):
    """main prints, byte for byte, what the full argparse table prints for
    the same argv; help and usage errors never reach the table parse."""
    got = run_parsed(capsys, argv)
    monkeypatch.setattr(cli, "_table_args", lambda argv: None)
    assert got == run_parsed(capsys, argv)


def _parsers_built(monkeypatch):
    """A list that grows by one for each ArgumentParser constructed."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def test_plain_calls_build_no_parser(capsys, monkeypatch):
    built = _parsers_built(monkeypatch)
    plain = [["omega", "--q", "5", "--prime", "T+4"],
             ["--output", "csv", "field", "--q", "5"],
             ["field", "--q", "5", "--output", "pretty"],
             ["lambda-scan", "--q", "5", "--find-counterexample",
              "--exact-deg", "2"]]
    for argv in plain:
        code, out, err = run_parsed(capsys, argv)
        assert (code in (0, 1), err, built) == (True, "", []), argv
    full_table = 1 + len(cli.COMMANDS)
    for argv in PARSE_CASES:
        built.clear()
        run_parsed(capsys, argv)
        want = 0 if cli._table_args(argv) else full_table
        assert len(built) == want, argv
    assert len(cli.COMMANDS) == 15


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines, in_sh = [], False
    for line in readme.read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("drinfeldlab "):
            lines.append(line)
    return lines


README_COMMANDS = _readme_commands()


def test_readme_has_examples():
    assert len(README_COMMANDS) >= 15


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_example_runs(capsys, line):
    argv = shlex.split(line)[1:]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if "csv" in argv:
        header, *rows = csv.reader(io.StringIO(out))
        assert header and rows
        assert all(len(row) == len(header) for row in rows)
    else:
        assert records(out)


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_example_runs_as_a_module_silently(line):
    """`python -m drinfeldlab.cli` prints no warning: runpy warns when the
    module it runs was put into sys.modules by its package's import."""
    src = str(Path(drinfeldlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "drinfeldlab.cli", *shlex.split(line)[1:]],
        capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout


@pytest.mark.parametrize("table", (True, False), ids=("table", "argparse"))
def test_polynomial_value_may_start_with_minus(capsys, monkeypatch, table):
    """`--g1 -T` reads -T, as `--g1=-T` does, whether or not the table
    parse is tried first: main joins the two tokens before either parse; a
    flag name where the value belongs stays a usage error."""
    if not table:
        monkeypatch.setattr(cli, "_table_args", lambda argv: None)
    head = ["lambda", "--q", "5", "--l", "T"]
    plain = head + ["--g1", "-T", "--c", "1"]
    assert cli._join_dash_values(plain) == head + ["--g1=-T", "--c", "1"]
    code, out, _ = run_parsed(capsys, plain)
    spelled = head + ["--g1=-T", "--c", "1"]
    assert (code, out) == run_parsed(capsys, spelled)[:2]
    assert code == 1 and records(out)[0]["inputs"]["g1"] == "4*T"
    frob = ["frob", "--q", "5", "--g1", "1", "--g2", "-1", "--prime"]
    assert run_parsed(capsys, frob + ["T^2+2"])[:2] == run_parsed(
        capsys, ["frob", "--q", "5", "--g1", "1", "--g2", "4", "--prime",
                 "T^2+2"])[:2]
    for argv in (head + ["--g1", "--c", "1"], head + ["--c", "1", "--g1"],
                 ["omega", "--q", "5", "--prime", "-T+4"]):
        code, out, err = run_parsed(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err


def _mutations(argv, rng):
    """Seeded variants of a plain call: its flags reordered, which stays
    plain, and near-misses that are no longer plain, whether or not
    argparse accepts them."""
    flags = [i for i, tok in enumerate(argv) if tok.startswith("--")]
    i = rng.choice(flags)
    flag = argv[i]
    has_value = i + 1 < len(argv) and not argv[i + 1].startswith("--")
    value_end = i + 2 if has_value else i + 1
    out = [
        argv[:i] + [flag[:-1]] + argv[i + 1:],                  # abbreviated
        argv + argv[i:value_end],                               # repeated
        argv[:i] + argv[value_end:],                            # dropped
        argv[:i] + ["-h"] + argv[i:],                           # help
        argv + ["--"],
    ]
    if has_value:
        out += [
            argv[:i] + [f"{flag}={argv[i + 1]}"] + argv[value_end:],  # =
            argv[:i + 1] + ["x"] + argv[value_end:],            # non-int
            argv[:i + 1] + ["-1"] + argv[value_end:],           # dash value
            argv[:i + 1] + ["-" + argv[i + 1]] + argv[value_end:],
            argv[:i + 1] + ["3"] + argv[value_end:],            # choice
        ]
    if argv[0] in cli.COMMANDS:                                 # reordered
        groups = []
        for tok in argv[1:]:
            if tok.startswith("--"):
                groups.append([tok])
            else:
                groups[-1].append(tok)
        rng.shuffle(groups)
        out.append(argv[:1] + [tok for group in groups for tok in group])
    return out


def _argparse_namespace(argv):
    """vars of the full argparse table's Namespace, or None where argparse
    prints help or a usage error."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        return None


def test_table_parse_matches_argparse():
    """The table parse returns argparse's Namespace or declines (None): on
    the README calls, every PARSE_CASES argv and seeded mutations of plain
    calls.  Help and usage errors are always declined."""
    rng = random.Random(14)
    plain = [shlex.split(line)[1:] for line in README_COMMANDS]
    plain += [["--output", "pretty", "det-gen", "--q", "7", "--prime", "T",
               "--max-deg", "1", "--level", "1", "--output", "csv"],
              ["density", "--q", "5", "--x", "1", "--d2", "2", "--d1", "1",
               "--mode", "brute", "--c1", "1", "--c2", "0"]]
    cases = list(PARSE_CASES) + plain
    for argv in plain:
        assert cli._table_args(argv) is not None, argv
        for _ in range(4):
            cases += _mutations(argv, rng)
    declined = 0
    for argv in cases:
        got = cli._table_args(argv)
        want = _argparse_namespace(argv)
        if got is None:
            declined += 1
        else:
            assert vars(got) == want, argv
    assert declined > len(cases) // 2
    for argv in PARSE_CASES:
        if _argparse_namespace(argv) is None:
            assert cli._table_args(argv) is None, argv
