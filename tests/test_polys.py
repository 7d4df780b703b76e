import copy
import operator
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import drinfeldlab
from drinfeldlab.errors import (
    DegreeCapExceeded,
    DegreeZeroInput,
    DivisionByZero,
    EnumerationCapExceeded,
    NotIrreducibleModulus,
    ZeroPolynomial,
)
from drinfeldlab import kernel
from drinfeldlab.fields import make_field
from drinfeldlab.polys import (
    NEG_INF,
    POS_INF,
    Poly,
    PrimeIdeal,
    check_enumeration_cap,
    enumerate_monic_irreducibles,
    eval_at,
    factor,
    gcd,
    is_irreducible,
    parse_poly,
    poly_to_text,
    powmod,
    valuation,
)
from oracles import (
    irreducible_count,
    monic_polys,
    parse_poly_by_alternatives,
)

F5 = make_field(5)
F25 = make_field(5, 2)


def P(text):
    return parse_poly(F5, text)


def test_poly_arith_examples():
    t_plus = P("T+1")
    t_minus = P("T+4")  # T - 1
    assert t_plus * t_minus == P("T^2+4")
    f = P("3*T^2+1")
    assert f + Poly.zero(F5) == f
    assert f - f == Poly.zero(F5)
    assert t_plus - t_minus == P("2")
    assert P("2*T") * P("3*T") == P("T^2")


def test_degree_sentinel():
    assert Poly.zero(F5).degree is NEG_INF
    assert NEG_INF < 0
    assert NEG_INF < -10
    assert not (NEG_INF > 5)
    assert P("T").degree == 1


def test_infinities_order_and_identity():
    for n in (-10 ** 9, -1, 0, 7, 10 ** 9):
        assert NEG_INF < n < POS_INF and n > NEG_INF and POS_INF > n
        assert NEG_INF <= n <= POS_INF and not (NEG_INF >= n or n >= POS_INF)
    assert NEG_INF < POS_INF and POS_INF > NEG_INF and NEG_INF != POS_INF
    assert NEG_INF <= NEG_INF and not (NEG_INF < NEG_INF)
    assert POS_INF >= POS_INF and not (POS_INF > POS_INF)
    assert max(3, POS_INF) is POS_INF and min(NEG_INF, -5) is NEG_INF
    for inf, name in ((NEG_INF, "NEG_INF"), (POS_INF, "POS_INF")):
        assert repr(inf) == name
        assert copy.copy(inf) is inf and copy.deepcopy([inf])[0] is inf
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(inf, protocol)) is inf


def test_power_matches_repeated_multiplication():
    from drinfeldlab.groups import _tables
    from drinfeldlab.residues import ResidueRing
    from drinfeldlab.skew import ResidueCoefficients, SkewPoly, skew_mul

    f = P("2*T^2+T+3")
    ring = ResidueRing(P("T^2+2"))
    rc = ResidueCoefficients(ring)
    s = SkewPoly(rc, [ring.t, ring.one, ring.element(3)])
    tab = _tables(ResidueRing(P("T^2")))
    m = (tab.one, 6, 13, 2)
    cases = ((f, operator.mul, Poly.one(F5), Poly.__pow__),
             (s, skew_mul, SkewPoly.one(rc), SkewPoly.__pow__),
             (m, tab.mat_mul, tab.ident, None))
    for x, mul, one, pow_method in cases:
        want = one
        for e in range(9):
            assert kernel.power(x, e, mul, one) == want
            if pow_method is not None:
                assert pow_method(x, e) == want
            want = mul(want, x)
        with pytest.raises(ValueError):
            kernel.power(x, -1, mul, one)


def test_divmod_examples():
    q, r = divmod(P("T^2+1"), P("T+3"))  # T - 2
    assert q == P("T+2") and r.is_zero()
    # oracle: (T-2)(T+2) = T^2 - 4 = T^2 + 1 over F_5
    assert P("T+3") * P("T+2") == P("T^2+1")
    f = P("2*T^3+T+4")
    q, r = divmod(f, Poly.one(F5))
    assert q == f and r.is_zero()
    q, r = divmod(P("T"), P("T^2"))
    assert q.is_zero() and r == P("T")


def test_divmod_by_zero():
    with pytest.raises(DivisionByZero):
        divmod(P("T"), Poly.zero(F5))


def test_divmod_round_trip_random():
    rng = random.Random(42)
    for ctx in (F5, make_field(7), F25):
        for _ in range(300):
            f = Poly(ctx, [rng.randrange(ctx.q) for _ in range(rng.randrange(0, 9))])
            g = Poly(ctx, [rng.randrange(ctx.q) for _ in range(rng.randrange(1, 6))])
            if g.is_zero():
                continue
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree


def test_eval_at():
    assert eval_at(P("T^2+1"), F5.element(2)).val == 0
    f = P("3*T^2+2*T+4")
    assert eval_at(f, F5.element(0)) == F5.element(4)
    assert eval_at(Poly.one(F5), F5.element(3)) == F5.element(1)
    # remainder agreement: f(c) == f mod (T - c)
    for c in range(5):
        lin = Poly.from_coeffs(F5, [(-c) % 5, 1])
        r = f % lin
        assert eval_at(f, F5.element(c)) == (
            F5.element(0) if r.is_zero() else r.coefficient(0))


def test_is_irreducible_examples():
    assert is_irreducible(P("T^2+2"))
    assert not is_irreducible(P("T^2+4"))
    assert is_irreducible(P("T"))
    with pytest.raises(DegreeZeroInput):
        is_irreducible(P("3"))


def _brute_irreducible(f):
    # trial division by every monic divisor of smaller positive degree
    d = f.degree
    for k in range(1, d // 2 + 1):
        for g in monic_polys(f.ctx, k):
            if (f % g).is_zero():
                return False
    return True


def test_is_irreducible_vs_trial_division():
    rng = random.Random(7)
    # exhaustive for degrees 2..4, sampled for 5..6
    for d in range(2, 5):
        for f in monic_polys(F5, d):
            assert is_irreducible(f) == _brute_irreducible(f)
    for d in (5, 6):
        for _ in range(120):
            f = Poly(F5, [rng.randrange(5) for _ in range(d)] + [1])
            assert is_irreducible(f) == _brute_irreducible(f)


def _rabin_primes(ctx, degree):
    """The oracle for the sieve: every monic candidate through Rabin's test."""
    return [f for f in monic_polys(ctx, degree) if is_irreducible(f)]


@pytest.mark.parametrize("p, m, max_deg", [
    (5, 1, 5), (7, 1, 4), (11, 1, 3), (3, 2, 3), (5, 2, 2)])
def test_sieve_matches_rabin_filter(p, m, max_deg):
    ctx = make_field(p, m)
    for d in range(1, max_deg + 1):
        sieved = enumerate_monic_irreducibles(ctx, d)
        assert [lam.gen for lam in sieved] == _rabin_primes(ctx, d), d
        assert all(lam.degree == d for lam in sieved)


def test_prime_counts_match_necklace():
    for q, ctx in ((5, F5), (7, make_field(7))):
        for d in range(1, 5):
            primes = enumerate_monic_irreducibles(ctx, d)
            assert len(primes) == irreducible_count(q, d)
    for d in (1, 2):
        primes = enumerate_monic_irreducibles(F25, d)
        assert len(primes) == irreducible_count(25, d)
    assert irreducible_count(25, 2) == 300
    assert len(enumerate_monic_irreducibles(F5, 5)) == 624
    assert len(enumerate_monic_irreducibles(F5, 6)) == irreducible_count(5, 6)
    assert len(enumerate_monic_irreducibles(make_field(7), 5)) == 3360


def _moebius(n):
    """mu(n) by trial division."""
    mu = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


def test_irreducible_count_matches_moebius_trial_division():
    for q in (5, 7, 9, 25):
        for n in range(1, 41):
            want = sum(_moebius(d) * q ** (n // d)
                       for d in range(1, n + 1) if n % d == 0) // n
            assert irreducible_count(q, n) == want


def test_enumeration_order_and_cap():
    primes = enumerate_monic_irreducibles(F5, 1)
    assert [poly_to_text(p.gen) for p in primes] == [
        "T", "T+1", "T+2", "T+3", "T+4"]
    with pytest.raises(EnumerationCapExceeded):
        enumerate_monic_irreducibles(F5, 20, cap=10_000)


def test_enumeration_cap_matches_power_comparison():
    # the multiplied-up bound refuses exactly the degrees with q^d > cap,
    # at caps on and around powers of q, and below 1
    for ctx in (F5, make_field(127), F25):
        q = ctx.q
        for cap in (0, 1, q - 1, q, q + 1, q ** 3 - 1, q ** 3, 10 ** 7):
            for degree in range(12):
                refused = q ** degree > cap
                try:
                    check_enumeration_cap(ctx, degree, cap)
                except EnumerationCapExceeded as exc:
                    assert refused, (q, cap, degree)
                    assert str(exc) == (f"{q}^{degree} candidates exceed "
                                        f"cap {cap}")
                else:
                    assert not refused, (q, cap, degree)


def test_enumeration_cap_refuses_a_huge_degree_at_once():
    # run in a child process with a timeout, so a check that forms q^degree
    # fails the test instead of hanging it
    src = str(Path(drinfeldlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "from drinfeldlab.errors import EnumerationCapExceeded\n"
        "from drinfeldlab.fields import make_field\n"
        "from drinfeldlab.polys import check_enumeration_cap\n"
        "for q in (5, 127):\n"
        "    try:\n"
        "        check_enumeration_cap(make_field(q), 10 ** 18)\n"
        "    except EnumerationCapExceeded as exc:\n"
        "        print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"{q}^{10 ** 18} candidates exceed cap 10000000" for q in (5, 127)]


def test_prime_ideal_validation():
    with pytest.raises(NotIrreducibleModulus):
        PrimeIdeal(P("T^2+4"))
    with pytest.raises(NotIrreducibleModulus):
        PrimeIdeal(P("2*T"))
    lam = PrimeIdeal(P("T^2+2"))
    assert lam.degree == 2


def test_valuation_examples():
    lam = PrimeIdeal(P("T+4"))  # (T - 1)
    f = P("T+4") * P("T+4") * P("T+1")
    assert valuation(f, lam) == 2
    assert valuation(Poly.one(F5), lam) == 0
    assert valuation(Poly.zero(F5), PrimeIdeal(P("T"))) is POS_INF
    assert POS_INF > 10 ** 9


def test_valuation_additive():
    rng = random.Random(9)
    lam = PrimeIdeal(P("T+3"))
    for _ in range(200):
        f = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 7))])
        g = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 7))])
        if f.is_zero() or g.is_zero():
            continue
        assert valuation(f * g, lam) == valuation(f, lam) + valuation(g, lam)


def test_factor_examples():
    fac = factor(P("T^2+4"))
    assert [(poly_to_text(pi.gen), e) for pi, e in fac] == [
        ("T+1", 1), ("T+4", 1)]
    f = P("2*T^2+4")  # 2(T^2 + 2), irreducible up to the unit 2
    fac = factor(f)
    assert [(poly_to_text(pi.gen), e) for pi, e in fac] == [("T^2+2", 1)]
    cube = P("T+3") ** 3
    assert [(poly_to_text(pi.gen), e) for pi, e in factor(cube)] == [
        ("T+3", 3)]


def test_factor_reconstructs_random():
    rng = random.Random(11)
    for _ in range(200):
        f = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 11))])
        if f.is_zero():
            continue
        prod = Poly.constant(F5, f.lead())
        for pi, e in factor(f):
            prod = prod * pi.gen ** e
        assert prod == f


def test_factor_handles_pth_powers():
    f = P("T+1") ** 5  # derivative vanishes
    assert [(poly_to_text(pi.gen), e) for pi, e in factor(f)] == [("T+1", 5)]
    g = P("T^2+2") ** 10
    assert [(poly_to_text(pi.gen), e) for pi, e in factor(g)] == [
        ("T^2+2", 10)]


def test_factor_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        factor(Poly.zero(F5))


def test_gcd_monic():
    f = P("T+1") * P("T+2")
    g = P("T+1") * P("T+3")
    assert gcd(f, g) == P("T+1")
    assert gcd(Poly.zero(F5), f) == f.monic()
    x = F25.element([0, 1])
    one = F25.element(1)
    lin = Poly.from_coeffs(F25, [x, one])  # T + x
    f = lin * Poly.from_coeffs(F25, [one, x])  # (T + x)(x T + 1)
    g = lin * Poly.from_coeffs(F25, [x, x, one]) * x
    d = gcd(f, g)
    assert d.is_monic() and d == lin
    assert gcd(Poly.zero(F25), g) == g.monic()


def test_text_grammar_round_trip():
    cases = ["0", "3", "T", "T^2+4*T+3", "2*T^5+T^3+1", "4*T"]
    for text in cases:
        assert poly_to_text(parse_poly(F5, text)) == text
    # any term order accepted
    assert parse_poly(F5, "3+T^2+4*T") == parse_poly(F5, "T^2+4*T+3")
    # minus accepted on input, never emitted
    assert parse_poly(F5, "T-1") == parse_poly(F5, "T+4")
    assert poly_to_text(parse_poly(F5, "-T^2")) == "4*T^2"
    with pytest.raises(ValueError):
        parse_poly(F5, "7*T")  # coefficient out of range
    with pytest.raises(ValueError):
        parse_poly(F5, "T^^2")


@pytest.mark.parametrize("p", [5, 7, 11])
def test_text_round_trip_fuzz(p):
    ctx = make_field(p)
    rng = random.Random(1000 + p)
    for _ in range(200):
        deg = rng.randrange(-1, 41)
        f = Poly(ctx, [rng.randrange(p) for _ in range(deg)]
                 + ([rng.randrange(1, p)] if deg >= 0 else []))
        text = poly_to_text(f)
        assert parse_poly(ctx, text) == f
        if f.is_zero():
            continue
        # the same terms in shuffled order, some written as -((p - c) T^k)
        terms = []
        for k, c in enumerate(f.coeffs):
            if c:
                neg = rng.random() < 0.5
                mono = poly_to_text(Poly(ctx, [0] * k + [p - c if neg else c]))
                terms.append(("-" if neg else "+") + mono)
        rng.shuffle(terms)
        shuffled = "".join(terms).lstrip("+")
        assert parse_poly(ctx, shuffled) == f
        assert poly_to_text(parse_poly(ctx, shuffled)) == text


def test_parse_exponent_cap():
    assert parse_poly(F5, "T^12").degree == 12
    with pytest.raises(DegreeCapExceeded):
        parse_poly(F5, "T^1000000000")
    with pytest.raises(DegreeCapExceeded):
        parse_poly(F5, "T+3*T^600")


def _parse_outcome(parse, ctx, text):
    """The coefficients parse reads, or the type and text it raises."""
    try:
        return parse(ctx, text).coeffs
    except Exception as exc:  # every error is compared, type and text
        return type(exc), str(exc)


def test_one_term_pattern_matches_the_five_alternatives():
    # seeded strings over the grammar's own characters, doubled signs,
    # stray '*' and '^', exponents past the cap and leading zeros among
    # them, and over an alphabet with a tab, a newline (a piece's trailing
    # newline reads as nothing), letters and a non-ASCII digit
    grammar = "T0123456789^*+- "
    wide = grammar + "\t\nxa\u0663"
    rng = random.Random(33)
    texts = ["++T", "T--1", "3T", "T^", "*T", "T^600", "007*T^002",
             "T\n+1", "-", "+", "T^512", "T^513", "9*T^0", "0*T^3"]
    for p, alphabet, n in ((7, grammar, 10_000), (5, wide, 5_000),
                           (127, wide, 5_000)):
        ctx = make_field(p)
        cases = texts + ["".join(rng.choice(alphabet)
                                 for _ in range(rng.randrange(13)))
                         for _ in range(n)]
        for text in cases:
            assert (_parse_outcome(parse_poly, ctx, text)
                    == _parse_outcome(parse_poly_by_alternatives, ctx,
                                      text)), (p, text)


def test_powmod_matches_naive():
    rng = random.Random(17)
    for ctx in (F5, F25):
        for lead in (1, 2, 3):  # monic and non-monic moduli
            for _ in range(60):
                f = Poly(ctx, [rng.randrange(ctx.q) for _ in range(3)])
                mod = Poly(ctx, [rng.randrange(ctx.q) for _ in range(3)]
                           + [lead])
                e = rng.randrange(0, 40)
                want = Poly.one(ctx)
                for _ in range(e):
                    want = (want * f) % mod
                assert powmod(f, e, mod) == want
    assert powmod(P("T"), 3, P("2*T^2+1")) == P("2*T")


def test_vdivmod_trims_a_short_dividend():
    # deg a < deg b: a is the remainder, and a^1 the power, returned with
    # no trailing zeros like every other kernel result
    assert kernel.vmod(F5, [1, 0], [0, 0, 1]) == [1]
    assert kernel.vdivmod(F5, [1, 0], [0, 0, 1]) == ([], [1])
    assert kernel.vmod(F5, [0, 0], [0, 0, 1]) == []
    assert kernel.vpowmod(F5, [1, 0], 1, [0, 0, 1]) == [1]
    assert kernel.vresultant(F5, [2, 0, 1], [3, 0, 0, 0]) == 4  # 3^2


def test_vxgcd_cofactor():
    rng = random.Random(29)
    for ctx in (F5, F25):
        for _ in range(300):
            a = kernel._trim([rng.randrange(ctx.q)
                              for _ in range(rng.randrange(7))])
            b = kernel._trim([rng.randrange(ctx.q)
                              for _ in range(rng.randrange(7))])
            if rng.random() < 0.3:  # force a common factor
                c = [rng.randrange(ctx.q), 1]
                a, b = kernel.vmul(ctx, a, c), kernel.vmul(ctx, b, c)
            g, u = kernel.vxgcd(ctx, a, b)
            assert g == kernel.vgcd(ctx, a, b)
            ua_minus_g = kernel.vsub(ctx, kernel.vmul(ctx, u, a), g)
            if b:
                assert kernel.vmod(ctx, ua_minus_g, b) == []
            else:
                assert ua_minus_g == []
            if len(b) > 1 and a:
                assert len(u) < len(b)  # u is already reduced mod b


def test_modulus_validation_agrees_with_is_irreducible():
    # field moduli and polynomial irreducibility share one Rabin test
    for p in (5, 7):
        fp = make_field(p)
        for d in (2, 3):
            for f in monic_polys(fp, d):
                try:
                    make_field(p, d, f.coeffs)
                    accepted = True
                except NotIrreducibleModulus:
                    accepted = False
                assert accepted == is_irreducible(Poly(fp, f.coeffs))


def test_extension_field_polys():
    x = F25.element([0, 1])
    f = Poly.from_coeffs(F25, [x, F25.element(1)])  # T + x
    g = Poly.from_coeffs(F25, [-x, F25.element(1)])  # T - x
    prod = f * g
    # (T+x)(T-x) = T^2 - x^2 = T^2 - 3 = T^2 + 2x^0... x^2 = 3 in F_25
    assert prod == Poly.from_coeffs(F25, [F25.element(-3), F25.element(0),
                                          F25.element(1)])
    assert is_irreducible(Poly.from_coeffs(F25, [x, F25.element(1)]))


def _prime_divisors_every_d(n):
    """Trial division by every d >= 2, evens included."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def test_prime_divisors_skip_even_trial_divisors():
    rng = random.Random(48)
    cases = ([-3, 0, 1, 2, 3, 4, 9, 25, 49, 121, 2 * 499_999_999_979]
             + [2 ** k for k in range(1, 41)]
             + [p * p for p in (3, 5, 7, 11, 127, 1009, 65_537, 999_983)]
             + [rng.randrange(1, 10 ** 9) for _ in range(300)])
    for n in cases:
        assert kernel.prime_divisors(n) == _prime_divisors_every_d(n), n
