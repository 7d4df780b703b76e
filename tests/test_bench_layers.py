"""Smoke test of bench/layers.py at toy size: every layer case in-process,
one call each, and one case of each kind as a subprocess on two source
trees."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import layers  # noqa: E402


def test_layers_writes_the_bench_schema(tmp_path, monkeypatch, capsys):
    # every layer case runs in-process, one call each; then one case of
    # each kind (the import, a README command, a layer case) runs as a
    # subprocess on the same tree twice, so the two reports must hold the
    # same digests, and the layer case the digest it printed in-process.
    # The README commands run as subprocesses in test_cli.py
    readme = layers.readme_commands()
    assert 'drinfeldlab omega --q 5 --prime "T+4"' in readme
    assert len(layers.LAYERS) == 38
    for name in ("vfrobenius q=25 deg=16", "norm_to_base q=5 deg=16",
                 "norm_to_base q=127 deg=64", "is_square q=25",
                 "is_square q=243", "frob_general q=5 deg=1",
                 "frob_general q=5 deg=4",
                 "frob_general q=5 deg=7", "frob_general q=127 deg=64",
                 "euler_poincare_oracle q=5 deg=1",
                 "euler_poincare_oracle q=5 deg=4",
                 "euler_poincare_oracle q=25 deg=2",
                 "reduction_height q=5 deg=4", "reduction_height q=5 deg=7",
                 "reduction_height q=127 deg=64",
                 "reduction_height q=5 deg=63 g1=0", "HornerMap q=5 deg=4",
                 "HornerMap q=5 deg=12", "sieve q=5 deg=5",
                 "sieve q=7 deg=4", "sieve q=5 deg=6",
                 "lambda_scan q=5 deg=5"):
        assert name in layers.LAYERS
    every = layers.cases()
    assert list(every) == [layers.IMPORT_CASE, *readme, *layers.LAYERS]
    monkeypatch.setattr(layers, "LAYER_FLOOR_S", 0)
    printed = {}
    for name in layers.LAYERS:
        layers.layer_child(name)
        first, out = capsys.readouterr().out.split("\n", 1)
        assert float(first) > 0
        json.loads(out)
        printed[name] = hashlib.sha256(out.encode()).hexdigest()
    kept = [layers.IMPORT_CASE, readme[0], next(iter(layers.LAYERS))]
    monkeypatch.setattr(layers, "cases",
                        lambda: {name: every[name] for name in kept})
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    argv = ["--runs", "1"]
    for out in outs:
        argv += ["--src", str(ROOT / "src"), "--out", str(out)]
    assert layers.main(argv) == 0
    reports = [json.loads(out.read_text()) for out in outs]
    for report in reports:
        assert set(report) == {"python", "nproc", "git_revision",
                               "PYTHONDONTWRITEBYTECODE", "cases"}
        assert report["python"] == ".".join(map(str, sys.version_info[:3]))
        assert report["nproc"] >= 1
        assert report["git_revision"] == reports[0]["git_revision"]
        assert list(report["cases"]) == kept
        for name, case in report["cases"].items():
            assert set(case) == {"unit", "min", "median", "k",
                                 "stdout_sha256"}
            assert case["unit"] == "s" and case["k"] == 1
            assert 0 < case["min"] == case["median"]
            assert case["stdout_sha256"] == (
                reports[0]["cases"][name]["stdout_sha256"])
            assert len(case["stdout_sha256"]) == 64
    assert reports[0]["cases"][kept[2]]["stdout_sha256"] == printed[kept[2]]


def test_layers_wants_one_out_per_src(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "layers.py"), "--runs", "1",
         "--src", str(ROOT / "src"), "--src", str(ROOT / "src"),
         "--out", str(tmp_path / "only.json")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "one --out per --src" in proc.stderr
    assert not (tmp_path / "only.json").exists()


def test_square_and_norm_cases_print_their_values(capsys, monkeypatch):
    # one call each: the verdicts over F_25, (q + 1) / 2 of them squares,
    # and a norm, an element of F_5
    monkeypatch.setattr(layers, "LAYER_FLOOR_S", 0)
    layers.layer_child("is_square q=25")
    layers.layer_child("norm_to_base q=5 deg=16")
    lines = capsys.readouterr().out.splitlines()
    squares, norm = json.loads(lines[1]), json.loads(lines[3])
    assert len(squares) == 25 and sum(squares) == 13
    assert norm in range(5)


def test_charpoly_cases_print_their_values(capsys, monkeypatch):
    # one call each: the three q = 5, degree-4 cases draw the same module
    # and prime, so the oracle is the monic associate of 1 - a + b, and
    # the height is 2 exactly when the trace a is 0 mod p (supersingular);
    # over F_25 at degree 2 the oracle is monic of degree 2
    monkeypatch.setattr(layers, "LAYER_FLOOR_S", 0)
    for name in ("frob_general q=5 deg=4", "euler_poincare_oracle q=5 deg=4",
                 "euler_poincare_oracle q=25 deg=2",
                 "reduction_height q=5 deg=4"):
        layers.layer_child(name)
    lines = capsys.readouterr().out.splitlines()
    (a, b), oracle, oracle25, height = map(json.loads, lines[1::2])
    assert height == (2 if not a else 1)
    assert len(b) == 5 and len(a) <= 3
    p1 = [(int(i == 0) - (a[i] if i < len(a) else 0) + b[i]) % 5
          for i in range(5)]
    assert oracle == [c * pow(p1[4], -1, 5) % 5 for c in p1]
    assert len(oracle25) == 3 and oracle25[-1] == 1
    # the degree-1 pair likewise: the oracle is X - (1 - a + b) / b_1
    for name in ("frob_general q=5 deg=1", "euler_poincare_oracle q=5 deg=1"):
        layers.layer_child(name)
    lines = capsys.readouterr().out.splitlines()
    (a, b), oracle = map(json.loads, lines[1::2])
    assert len(b) == 2 and len(a) <= 1
    assert oracle == [(1 - sum(a) + b[0]) * pow(b[1], -1, 5) % 5, 1]
    # g_1 = 0 at an odd-degree prime: supersingular, height 2
    layers.layer_child("reduction_height q=5 deg=63 g1=0")
    assert json.loads(capsys.readouterr().out.splitlines()[1]) == 2


def test_enumeration_cases_print_their_values(capsys, monkeypatch):
    # one call each: the sieves list as many indices as the necklace
    # formula counts, and the degree-5 scan at q = 5 fails at 22 primes
    from oracles import irreducible_count

    monkeypatch.setattr(layers, "LAYER_FLOOR_S", 0)
    for name in ("sieve q=5 deg=5", "sieve q=7 deg=4", "sieve q=5 deg=6",
                 "lambda_scan q=5 deg=5"):
        layers.layer_child(name)
    lines = capsys.readouterr().out.splitlines()
    *sieves, (records, summary) = map(json.loads, lines[1::2])
    assert list(map(len, sieves)) == [irreducible_count(5, 5),
                                      irreducible_count(7, 4),
                                      irreducible_count(5, 6)]
    assert all(s == sorted(set(s)) for s in sieves)
    assert len(records) == summary["primes_scanned"] == 624
    assert len(summary["counterexamples"]) == 22
