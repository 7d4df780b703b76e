import json
import math
import random
import tracemalloc

import pytest

from drinfeldlab import kernel, residues
from drinfeldlab.criteria import (
    in_lambda_set,
    in_omega_tilde,
    lambda_scan,
    reducibility_obstruction,
    revalidate,
    theorem1_search,
    theorem1_verify,
    theorem2_build,
)
from drinfeldlab.drinfeld import DrinfeldModule
from drinfeldlab.errors import (
    ContextMismatch,
    InsufficientPrimes,
    NotGoodReduction,
    NotInOmegaTilde,
)
from drinfeldlab.fields import enumerate_elements, is_square, make_field
from drinfeldlab.frobenius import frob_deg1
from drinfeldlab.groups import SAMPLE_CAP
from drinfeldlab.polys import (
    Poly,
    PrimeIdeal,
    enumerate_monic_irreducibles,
    eval_at,
    is_irreducible,
    parse_poly,
    poly_to_text,
)
from drinfeldlab.residues import ResidueRing, quadratic_is_irreducible
from oracles import monic_polys, veval_lambda_scan

F5 = make_field(5)

# one failing prime of the degree-5 scan (of 22; the scan's first is
# T^5+4*T+1), frozen from an independent int-arithmetic enumeration of all
# 624 monic irreducible quintics
FIRST_DEG5_COUNTEREXAMPLE = "T^5+4*T^4+3*T^3+1"


def P(text):
    return parse_poly(F5, text)


def PI(text):
    return PrimeIdeal(P(text))


def test_omega_tilde_worked_example():
    cert = in_omega_tilde(PI("T+4"))  # (T - 1)
    assert cert.verified
    assert cert.witnesses["c1"] == 3
    assert cert.kind == "omega_tilde"


def test_omega_tilde_every_degree1_prime():
    for c in range(5):
        cert = in_omega_tilde(PrimeIdeal(Poly.from_coeffs(F5, [(-c) % 5, 1])))
        assert cert.verified


def test_omega_tilde_degree2():
    cert = in_omega_tilde(PI("T^2+2"))
    assert cert.verified
    assert cert.checks[0]["euler_tests"] <= 5


def test_omega_tilde_counterexample_prime():
    cert = in_omega_tilde(PI(FIRST_DEG5_COUNTEREXAMPLE))
    assert not cert.verified
    assert cert.witnesses["c1"] is None


def test_lambda_triple_examples():
    good = in_lambda_set(PI("T"), P("1"), F5.element(3))
    assert good.verified
    assert good.witnesses["r1"] == 1
    bad = in_lambda_set(PI("T"), P("1"), F5.element(0))
    assert not bad.verified
    inside = in_lambda_set(PI("T"), P("T"), F5.element(3))
    assert not inside.verified
    assert inside.checks[0]["passed"] is False


def test_lambda_scan_small():
    report = lambda_scan(F5, 2, mode="affirm")
    assert report.all_pass
    assert len(report.records) == 15  # 5 linear + 10 quadratic primes
    assert all(r["passes"] for r in report.records)
    assert report.first_counterexample is None
    for r in report.records:
        w = r["witness"]
        cert = in_lambda_set(PrimeIdeal(P(r["prime"])), P(w["g1"]),
                             F5.element(w["c"]))
        assert cert.verified


def test_lambda_scan_exact_degree_mode():
    report = lambda_scan(F5, 3, mode="find_counterexample")
    assert len(report.records) == 40  # only degree 3
    assert report.all_pass  # no counterexample below degree 5


def test_lambda_scan_rejects_extension_fields_before_work(monkeypatch):
    from drinfeldlab import criteria

    def refuse(*args):
        raise AssertionError("enumeration ran")

    monkeypatch.setattr(criteria, "irreducible_indices", refuse)
    monkeypatch.setattr(criteria, "check_enumeration_cap", refuse)
    for mode in ("affirm", "find_counterexample"):
        with pytest.raises(ContextMismatch, match="prime fields only"):
            lambda_scan(make_field(3, 2), 3, mode=mode)


def test_lambda_scan_brute_agreement():
    # scan verdict == brute existence over all (c, r1) quadratics with roots
    from drinfeldlab.residues import ResidueRing

    report = lambda_scan(F5, 2, mode="affirm")
    for rec in report.records:
        ring = ResidueRing(P(rec["prime"]))
        exists = False
        for cv in range(5):
            for r1v in range(5):
                shift = ring.element(P("T") - Poly.constant(F5, cv))
                has_root = any(
                    x * x - ring.element(r1v) * x + shift == ring.zero
                    for x in ring.elements())
                if not has_root:
                    exists = True
        assert rec["passes"] == exists


def test_lambda_scan_agrees_with_omega_membership():
    # the discriminant r1^2 - 4(T - c) is a non-square exactly when
    # 4(s - T) is, s = c + r1^2/4, and s sweeps all of F_q: so a prime
    # passes the scan iff it admits a non-square witness.  Two independent
    # code paths must agree.
    for q in (5, 7):
        ctx = make_field(q)
        report = lambda_scan(ctx, 3, mode="affirm")
        for rec in report.records:
            prime = PrimeIdeal(parse_poly(ctx, rec["prime"]))
            assert in_omega_tilde(prime).verified == rec["passes"]
    hunt = lambda_scan(F5, 5, mode="find_counterexample")
    for text in hunt.counterexamples[:3]:
        assert not in_omega_tilde(PI(text)).verified


def _euler_scan(ctx, max_deg, mode):
    """The oracle for lambda_scan: Rabin-filtered primes, then the first
    (c, r1) in field order whose quadratic passes the Euler criterion."""
    degrees = (range(1, max_deg + 1) if mode == "affirm"
               else range(max_deg, max_deg + 1))
    elements = enumerate_elements(ctx)
    records = []
    for deg in degrees:
        for gen in monic_polys(ctx, deg):
            if not is_irreducible(gen):
                continue
            ring = ResidueRing(gen)
            witness = None
            for c in elements:
                s = ring.element(Poly.T(ctx) - Poly.constant(ctx, c))
                for r1 in elements:
                    if quadratic_is_irreducible(r1, s):
                        g1 = (Poly.constant(ctx, r1) if r1.val != 0
                              else Poly.T(ctx) - Poly.constant(ctx, c))
                        witness = {"c": c.val, "r1": r1.val,
                                   "g1": poly_to_text(g1)}
                        break
                if witness:
                    break
            records.append({"prime": poly_to_text(gen), "degree": deg,
                            "passes": witness is not None,
                            "witness": witness})
    return records


@pytest.mark.parametrize("q, max_deg, mode", [
    (5, 4, "affirm"), (5, 5, "find_counterexample"), (7, 3, "affirm"),
    (11, 2, "affirm"), (13, 2, "affirm")])
def test_lambda_scan_matches_euler_double_loop(q, max_deg, mode):
    ctx = make_field(q)
    report = lambda_scan(ctx, max_deg, mode)
    want = _euler_scan(ctx, max_deg, mode)
    assert report.records == want
    failing = [r["prime"] for r in want if not r["passes"]]
    assert report.as_dict() == {
        "op": "lambda_scan", "q": q, "mode": mode, "max_deg": max_deg,
        "primes_scanned": len(want), "all_pass": not failing,
        "first_counterexample": failing[0] if failing else None,
        "counterexamples": failing, "note": report.note}
    assert (report.note is not None) == (mode == "affirm" and bool(failing))


@pytest.mark.parametrize("q, max_deg, mode", [
    (5, 4, "affirm"), (5, 5, "find_counterexample"), (7, 4, "affirm"),
    (7, 4, "find_counterexample"), (11, 3, "affirm"),
    (13, 3, "find_counterexample")])
def test_lambda_scan_matches_the_veval_scan(q, max_deg, mode):
    # one packed evaluation per prime against one Horner per point
    ctx = make_field(q)
    assert (lambda_scan(ctx, max_deg, mode).records
            == veval_lambda_scan(ctx, max_deg, mode))


def test_point_values_match_horner():
    rng = random.Random(28)
    for p, deg in ((5, 0), (5, 5), (13, 3), (127, 4), (65521, 1)):
        values = kernel.point_values(p, deg)
        for _ in range(20):
            v = [rng.randrange(p) for _ in range(rng.randint(0, deg + 1))]
            points = range(p) if p < 1000 else rng.sample(range(p), 50)
            got = values(v)
            assert len(got) == p
            assert [got[x] for x in points] == [
                kernel.veval(kernel.Zp(p), v, x) for x in points]


def test_lambda_scan_holds_no_pair_table():
    # a table of all q^2 (c, r1) pairs peaks near 26 MB at q = 503; the scan
    # keeps O(q) per prime
    tracemalloc.start()
    try:
        report = lambda_scan(make_field(503), 1, mode="affirm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.records) == 503 and report.all_pass
    assert peak < 2_000_000


def test_primes_and_scan_run_without_exponentiation(monkeypatch):
    def refuse(*args):
        raise AssertionError("per-candidate exponentiation ran")

    monkeypatch.setattr(kernel, "rabin", refuse)
    monkeypatch.setattr(residues, "is_square_mod_prime", refuse)
    assert len(enumerate_monic_irreducibles(F5, 4)) == 150
    hunt = lambda_scan(F5, 5, mode="find_counterexample")
    assert len(hunt.counterexamples) == 22
    assert FIRST_DEG5_COUNTEREXAMPLE in hunt.counterexamples
    assert hunt.counterexamples[0] == "T^5+4*T+1"
    assert lambda_scan(make_field(7), 3, mode="affirm").all_pass


def _chi(x):
    return 0 if x.is_zero() else (1 if is_square(x) else -1)


def test_weil_bound_on_character_sums():
    # |sum_x chi(l(x))| <= (d - 1) sqrt(q) for a prime l of degree d, so a
    # (c, r1) witness exists whenever d < 1 + sqrt(q)
    for q in (5, 7, 11, 13):
        ctx = make_field(q)
        elements = enumerate_elements(ctx)
        for d in (1, 2, 3):
            for l in enumerate_monic_irreducibles(ctx, d):
                total = sum(_chi(eval_at(l.gen, x)) for x in elements)
                assert total * total <= (d - 1) ** 2 * q, (q, l)
    for q, max_deg in ((5, 3), (7, 3), (11, 4)):
        assert max_deg < 1 + math.sqrt(q) < max_deg + 1
        assert lambda_scan(make_field(q), max_deg, mode="affirm").all_pass


def test_known_counterexamples_take_only_nonzero_square_values():
    hunt = lambda_scan(F5, 5, mode="find_counterexample")
    assert len(hunt.counterexamples) == 22
    for text in hunt.counterexamples:
        values = [eval_at(P(text), x) for x in enumerate_elements(F5)]
        assert all(_chi(v) == 1 for v in values), text


def test_theorem1_verify_worked_example():
    p = PI("T^2+3")
    cert = theorem1_verify(P("T"), P("T+4"), p, F5.element(0), F5.element(1))
    assert cert.verified
    vals = cert.witnesses["valuations"]
    assert (vals["lambda1_g1"], vals["lambda2_g1"],
            vals["lambda1_g2"], vals["lambda2_g2"]) == (1, 0, 0, 1)


def test_theorem1_verify_failures():
    p = PI("T^2+3")
    flat = theorem1_verify(P("1"), P("1"), p, F5.element(0), F5.element(1))
    assert not flat.verified
    same = theorem1_verify(P("T"), P("T+4"), p, F5.element(0), F5.element(0))
    assert not same.verified
    assert any(ch["check"] == "lambda2 != lambda1" and not ch["passed"]
               for ch in same.checks)


def test_theorem1_search_counts():
    p = PI("T^2+3")
    certs = theorem1_search(p, max_deg=4, limit=25)
    assert len(certs) == 25
    assert all(c.verified for c in certs)
    payloads = {c.to_json() for c in certs}
    assert len(payloads) == 25
    assert theorem1_search(p, max_deg=4, limit=0) == []


def test_theorem1_search_draws_a1_lazily(monkeypatch):
    # the a1 pool (5^7 polynomials at max_deg 8) is never built as a whole
    vectors_below = kernel.vectors_below
    drawn = {}

    def counting(q, degree):
        for v in vectors_below(q, degree):
            drawn[degree] = drawn.get(degree, 0) + 1
            yield v

    monkeypatch.setattr(kernel, "vectors_below", counting)
    certs = theorem1_search(PI("T^2+3"), max_deg=8, limit=1)
    assert len(certs) == 1 and certs[0].verified
    assert drawn[7] < 5 ** 7 // 100


def test_theorem1_search_holds_no_a2_pool(monkeypatch):
    # a2 is drawn afresh for each a1: the 5^6 a2 polynomials at max_deg 8
    # are never listed before the first certificate
    vectors_below = kernel.vectors_below
    drawn = {}

    def counting(q, degree):
        for v in vectors_below(q, degree):
            drawn[degree] = drawn.get(degree, 0) + 1
            yield v

    monkeypatch.setattr(kernel, "vectors_below", counting)
    certs = theorem1_search(PI("T^2+3"), max_deg=8, limit=1)
    assert len(certs) == 1 and certs[0].verified
    assert drawn[6] < 5 ** 6 // 100


def test_theorem1_search_rejects_non_member():
    with pytest.raises(NotInOmegaTilde):
        theorem1_search(PI(FIRST_DEG5_COUNTEREXAMPLE), max_deg=4, limit=1)


def test_theorem1_search_exhausts_available():
    # at max_deg 1 the parametrization collapses to g1 = beta (T-c1),
    # g2 = e (T-c2): 3 witnesses x 4 c2 x 4 beta x 4 e = 192 for (T^2+3)
    certs = theorem1_search(PI("T^2+3"), max_deg=1, limit=SAMPLE_CAP)
    assert len(certs) == 192


def test_theorem1_search_excludes_p_as_lambda2():
    # p = (T) has witnesses {2, 3} and c2 must avoid both c1 and 0
    certs = theorem1_search(PI("T"), max_deg=1, limit=SAMPLE_CAP)
    assert len(certs) == 96  # 2 x 3 x 4 x 4
    assert {c.inputs["c1"] for c in certs} == {2, 3}
    assert 0 not in {c.inputs["c2"] for c in certs}


def test_theorem1_search_respects_degree_bound():
    p = PI("T^2+3")
    for max_deg in (1, 2, 3):
        certs = theorem1_search(p, max_deg=max_deg, limit=200)
        assert certs
        for cert in certs:
            g1 = P(cert.inputs["g1"])
            g2 = P(cert.inputs["g2"])
            assert g1.degree <= max_deg and g2.degree <= max_deg


def test_theorem2_build_worked_example():
    module, cert = theorem2_build(PI("T"), P("1"), F5.element(3))
    assert cert.verified
    assert module.g2 == P("4*T^4")  # -T^4
    assert cert.witnesses["r1"] == 1
    traces = cert.witnesses["trace_checks"]
    assert len(traces) == 3
    assert all(t["passed"] for t in traces)
    # a at (T - 1) equals g1(1) = 1
    assert traces[0]["lambda"] == "T+4"
    assert traces[0]["trace"] == "1"


def test_theorem2_build_failure():
    module, cert = theorem2_build(PI("T"), P("1"), F5.element(0))
    assert not cert.verified
    assert module.g2 == P("4*T^4")


def test_obstruction_worked_example():
    module, _ = theorem2_build(PI("T"), P("1"), F5.element(3))
    p = PI("T+1")  # (T - 4)
    lams = [PI("T+4"), PI("T+3")]  # (T-1), (T-2)
    cert = reducibility_obstruction(module, p, lams)
    assert cert.verified
    assert cert.witnesses["zeta_scan"]["tested"] == 4
    assert cert.witnesses["zeta_scan"]["surviving"] == []


def test_obstruction_insufficient_primes():
    module, _ = theorem2_build(PI("T"), P("1"), F5.element(3))
    with pytest.raises(InsufficientPrimes):
        reducibility_obstruction(module, PI("T+1"), [PI("T+4")])


def test_obstruction_needs_two_distinct_primes():
    module, _ = theorem2_build(PI("T"), P("1"), F5.element(3))
    with pytest.raises(InsufficientPrimes, match="distinct"):
        reducibility_obstruction(module, PI("T+1"), [PI("T+4"), PI("T+4")])
    cert = reducibility_obstruction(module, PI("T+1"),
                                    [PI("T+4"), PI("T+3"), PI("T+4")])
    assert cert.verified


def test_obstruction_terminates_in_unit_count_tests():
    module, _ = theorem2_build(PI("T"), P("1"), F5.element(3))
    p = PI("T^2+2")
    lams = [PI("T+4"), PI("T+3")]
    cert = reducibility_obstruction(module, p, lams)
    assert cert.witnesses["zeta_scan"]["tested"] == 24  # |(A/p)^x| = 24


def test_obstruction_negative_control():
    # g1 = 1 - T makes a_lambda = g1(d) = 1 - d at every degree-1 prime,
    # exactly the trace pattern zeta = 1 requires when p = (T), so the scan
    # must report a survivor however many primes are supplied
    phi = DrinfeldModule(F5, [P("4*T+1"), P("4")])
    cert = reducibility_obstruction(phi, PI("T"), [PI("T+4"), PI("T+3")])
    assert not cert.verified
    assert cert.witnesses["zeta_scan"]["surviving"] == ["1"]
    assert revalidate(cert)
    cert3 = reducibility_obstruction(
        phi, PI("T"), [PI("T+4"), PI("T+3"), PI("T+2")])
    assert not cert3.verified
    assert cert3.witnesses["zeta_scan"]["surviving"] == ["1"]


def _unit_scan(phi, p, lams):
    """The oracle for reducibility_obstruction: every unit zeta of A/p,
    inverted by a power, tried against every trace congruence; returns
    (units tested, surviving zetas as text)."""
    ring = ResidueRing(p)
    traces = [(ring.element(lam.gen), ring.element(frob_deg1(phi, lam).a))
              for lam in lams]
    tested, surviving = 0, []
    for zeta in ring.elements():
        if not zeta.is_unit():
            continue
        tested += 1
        zeta_inv = zeta ** (ring.cardinality - 2)
        if all(a == zeta_inv * lam + zeta for lam, a in traces):
            surviving.append(poly_to_text(zeta.rep))
    return tested, surviving


def test_obstruction_matches_unit_scan():
    rng = random.Random(14)
    cases = with_survivor = 0
    for q, deg, n in ((5, 1, 80), (5, 2, 60), (5, 3, 20), (7, 1, 50),
                      (7, 2, 40), (11, 1, 50), (11, 2, 20)):
        ctx = make_field(q)
        primes = list(enumerate_monic_irreducibles(ctx, deg))
        degree1 = list(enumerate_monic_irreducibles(ctx, 1))
        for _ in range(n):
            p = rng.choice(primes)
            g1 = Poly.from_coeffs(ctx, [rng.randrange(q) for _ in range(3)])
            g2 = Poly.from_coeffs(ctx, [rng.randrange(1, q)]
                                  + [rng.randrange(q) for _ in range(2)])
            lams = [lam for lam in degree1 if lam != p]
            lams = rng.sample(lams, rng.choice((2, 3)))
            phi = DrinfeldModule(ctx, [g1, g2])
            try:
                cert = reducibility_obstruction(phi, p, lams)
            except NotGoodReduction:
                continue
            tested, surviving = _unit_scan(phi, p, lams)
            assert cert.witnesses["zeta_scan"] == {"tested": tested,
                                                   "surviving": surviving}
            assert cert.checks[0]["units_tested"] == tested
            assert cert.verified == (not surviving)
            cases += 1
            with_survivor += bool(surviving)
    assert cases >= 200 and with_survivor >= 10


def test_obstruction_sweep_over_degree1_triples():
    # for every verified triple with a degree-1 l and constant g1, and every
    # other degree-1 prime p, the zeta-scan over the remaining primes is
    # conclusive: an exhaustive 160-case sweep certifies all of them
    from drinfeldlab.fields import enumerate_elements

    total = 0
    for e in range(5):
        l = PrimeIdeal(Poly.from_coeffs(F5, [(-e) % 5, 1]))
        for g1v in range(1, 5):
            g1 = Poly.constant(F5, g1v)
            for c in enumerate_elements(F5):
                if not in_lambda_set(l, g1, c).verified:
                    continue
                module, cert = theorem2_build(l, g1, c)
                assert cert.verified
                for f in range(5):
                    if f == e:
                        continue
                    p = PrimeIdeal(Poly.from_coeffs(F5, [(-f) % 5, 1]))
                    lams = [PrimeIdeal(Poly.from_coeffs(F5, [(-d) % 5, 1]))
                            for d in range(5) if d not in (e, f)]
                    assert reducibility_obstruction(module, p, lams).verified
                    total += 1
    assert total == 160


def test_certificates_revalidate():
    p = PI("T^2+3")
    certs = [
        in_omega_tilde(PI("T+4")),
        in_omega_tilde(PI(FIRST_DEG5_COUNTEREXAMPLE)),
        in_lambda_set(PI("T"), P("1"), F5.element(3)),
        in_lambda_set(PI("T"), P("1"), F5.element(0)),
        theorem1_verify(P("T"), P("T+4"), p, F5.element(0), F5.element(1)),
        theorem2_build(PI("T"), P("1"), F5.element(3))[1],
        reducibility_obstruction(
            theorem2_build(PI("T"), P("1"), F5.element(3))[0],
            PI("T+1"), [PI("T+4"), PI("T+3")]),
    ]
    for cert in certs:
        assert revalidate(cert)
        assert revalidate(json.loads(cert.to_json()))


def test_certificate_json_field_order():
    cert = in_omega_tilde(PI("T+4"))
    text = cert.to_json()
    assert "\n" not in text
    data = json.loads(text)
    assert list(data.keys()) == ["kind", "q", "inputs", "witnesses",
                                 "verified", "checks"]


def test_certificate_json_deterministic():
    a = in_omega_tilde(PI("T^2+2")).to_json()
    b = in_omega_tilde(PI("T^2+2")).to_json()
    assert a == b
