import json

import pytest

from drinfeldlab import cli, frobenius, kernel
from drinfeldlab.cli import main
from drinfeldlab.errors import EnumerationCapExceeded
from drinfeldlab.fields import make_field
from drinfeldlab.polys import PrimeIdeal, parse_poly


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
    # a wrong nonzero norm makes the identity check inside frob_general fail
    norm = frobenius.norm_to_base
    monkeypatch.setattr(frobenius, "norm_to_base", lambda x: norm(x) * 2)
    code, out, err = run(capsys, "frob", "--q", "5", "--g1", "1", "--g2",
                         "4", "--prime", "T^2+2")
    assert code == 3
    assert out == "" and "bug" in err


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
    # |GL_2(A/p^2)| = 4,840,416 is over the 400,000 closure cap; only
    # GL_2(A/p), of order 2016, is materialised
    code, out, _ = run(capsys, "pr-level2", "--q", "7", "--prime", "T",
                       "--samples", "2", "--seed", "1")
    assert code == 0
    rec = records(out)[0]
    assert rec["full_order"] == 4_840_416
    assert rec["violations"] == []
    cases = {c["case"]: c for c in rec["forced_cases"]}
    assert cases["full_group"]["order"] == 4_840_416
    assert cases["teichmuller_lift"]["order"] == 2016
