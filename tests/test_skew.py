import random

import pytest

from drinfeldlab.errors import NoSolution, RingMismatch, ZeroPolynomial
from drinfeldlab.fields import make_field
from drinfeldlab.polys import Poly, parse_poly
from drinfeldlab.residues import ResidueRing
from drinfeldlab.skew import (
    FieldCoefficients,
    PolyCoefficients,
    ResidueCoefficients,
    SkewPoly,
    linear_solve_left,
    skew_mul,
)
from oracles import as_linearized, ht_deg

F5 = make_field(5)
F25 = make_field(5, 2)
A = PolyCoefficients(F5)
K25 = FieldCoefficients(F25, twist_q=5)


def P(text):
    return parse_poly(F5, text)


def test_skew_mul_base_field():
    ring = FieldCoefficients(F5)
    f = SkewPoly.from_list(ring, [0, 2])  # 2*tau
    g = SkewPoly.from_list(ring, [0, 3])  # 3*tau
    prod = skew_mul(f, g)
    assert prod == SkewPoly.from_list(ring, [0, 0, 1])  # tau^2


def test_skew_mul_carlitz_square():
    carlitz = SkewPoly.from_list(A, [Poly.T(F5), Poly.one(F5)])  # T + tau
    sq = skew_mul(carlitz, carlitz)
    # (T + tau)^2 = T^2 + (T + T^q) tau + tau^2
    want = SkewPoly.from_list(A, [P("T^2"), P("T^5+T"), P("1")])
    assert sq == want


def test_skew_mul_identity_and_mismatch():
    f = SkewPoly.from_list(A, [P("T+1"), P("2"), P("T")])
    assert skew_mul(f, SkewPoly.one(A)) == f
    with pytest.raises(RingMismatch):
        skew_mul(f, SkewPoly.one(K25))


def test_ht_deg():
    ring = FieldCoefficients(F5)
    f = SkewPoly.from_list(ring, [0, 0, 3, 0, 0, 1])  # 3 tau^2 + tau^5
    assert ht_deg(f) == (2, 5)
    assert ht_deg(SkewPoly.constant(ring, 4)) == (0, 0)
    assert ht_deg(SkewPoly.tau(ring)) == (1, 1)
    with pytest.raises(ZeroPolynomial):
        ht_deg(SkewPoly.zero(ring))


def test_as_linearized():
    carlitz = SkewPoly.from_list(A, [Poly.T(F5), Poly.one(F5)])
    lin = as_linearized(carlitz)
    assert lin == ((1, Poly.T(F5)), (5, Poly.one(F5)))
    tau2 = SkewPoly.tau(A, 2)
    assert as_linearized(tau2) == ((25, Poly.one(F5)),)
    assert as_linearized(SkewPoly.zero(A)) == ()


def test_linear_solve_left_examples():
    ring = ResidueCoefficients(ResidueRing(P("T^2+2")))
    b0 = SkewPoly.from_list(ring, [P("T"), P("1")])
    b1 = SkewPoly.from_list(ring, [P("2"), P("T+1"), P("3")])
    sol = linear_solve_left(b0, [b0, b1])
    assert [s.val for s in sol] == [1, 0]
    target = b0.scale(2) + b1.scale(3)
    sol = linear_solve_left(target, [b0, b1])
    assert [s.val for s in sol] == [2, 3]
    with pytest.raises(NoSolution):
        linear_solve_left(SkewPoly.tau(ring), [SkewPoly.one(ring)])


def test_linear_solve_left_answers_every_unknown():
    # the all-zero system has one zero per unknown, and of two equal basis
    # elements the earlier one takes the coefficient
    ring = ResidueCoefficients(ResidueRing(P("T^2+2")))
    zero = SkewPoly.zero(ring)
    assert [s.val for s in linear_solve_left(zero, [zero, zero])] == [0, 0]
    b = SkewPoly.from_list(ring, [P("T"), P("1")])
    assert [s.val for s in linear_solve_left(b, [b, b])] == [1, 0]
    assert [s.val for s in linear_solve_left(zero, [b, zero])] == [0, 0]


def test_linear_solve_left_poly_ring():
    b0 = SkewPoly.from_list(A, [P("T"), P("1")])
    b1 = SkewPoly.from_list(A, [P("T^2"), P("0"), P("4")])
    target = b0.scale(3) + b1.scale(1)
    sol = linear_solve_left(target, [b0, b1])
    assert [s.val for s in sol] == [3, 1]


def _random_skew(rng, ring, maxdeg, coeff_pool):
    return SkewPoly(ring, [rng.choice(coeff_pool)
                           for _ in range(rng.randrange(0, maxdeg + 1))])


def test_associativity_distributivity_f25():
    rng = random.Random(12)
    pool = [F25.from_encoded(v) for v in range(25)]
    for _ in range(150):
        f = _random_skew(rng, K25, 3, pool)
        g = _random_skew(rng, K25, 3, pool)
        h = _random_skew(rng, K25, 3, pool)
        assert skew_mul(skew_mul(f, g), h) == skew_mul(f, skew_mul(g, h))
        assert skew_mul(f, g + h) == skew_mul(f, g) + skew_mul(f, h)


def test_associativity_distributivity_poly_ring():
    rng = random.Random(13)
    pool = [Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(0, 3))])
            for _ in range(40)]
    pool.append(Poly.T(F5))
    for _ in range(60):
        f = _random_skew(rng, A, 2, pool)
        g = _random_skew(rng, A, 2, pool)
        h = _random_skew(rng, A, 2, pool)
        assert skew_mul(skew_mul(f, g), h) == skew_mul(f, skew_mul(g, h))
        assert skew_mul(f, g + h) == skew_mul(f, g) + skew_mul(f, h)


def test_ht_deg_additive_under_mul():
    rng = random.Random(14)
    pool = [F25.from_encoded(v) for v in range(25)]
    for _ in range(150):
        f = _random_skew(rng, K25, 4, pool)
        g = _random_skew(rng, K25, 4, pool)
        if f.is_zero() or g.is_zero():
            continue
        hf, df = ht_deg(f)
        hg, dg = ht_deg(g)
        hp, dp = ht_deg(skew_mul(f, g))
        assert hp == hf + hg
        assert dp == df + dg


def test_linearized_composition_matches_mul():
    # evaluate as_linearized symbolically on small residue rings: the
    # linearization of a product is the composite of the linearizations
    ring = ResidueRing(P("T^2+2"))
    rc = ResidueCoefficients(ring)
    rng = random.Random(15)
    elems = ring.elements()
    for _ in range(40):
        f = SkewPoly(rc, [rng.choice(elems) for _ in range(3)])
        g = SkewPoly(rc, [rng.choice(elems) for _ in range(3)])
        prod = skew_mul(f, g)
        for x in elems[:8]:
            gx = _eval_linearized(g, x)
            want = _eval_linearized(f, gx)
            assert _eval_linearized(prod, x) == want


def _eval_linearized(f, x):
    acc = f.ring.zero
    for exp, c in as_linearized(f):
        acc = acc + c * x ** exp
    return acc


def test_field_coefficients_twist_validation():
    with pytest.raises(Exception):
        FieldCoefficients(F25, twist_q=7)  # not a power of p
    with pytest.raises(Exception):
        FieldCoefficients(make_field(5), twist_q=25)  # not a subfield
    trivial = FieldCoefficients(F25)  # defaults to the whole field
    x = F25.element([0, 1])
    assert trivial.twist(x, 3) == x  # full-field Frobenius fixes everything
    rel = FieldCoefficients(F25, twist_q=5)
    assert rel.twist(x, 2) == x  # q^2-power is the identity on F_25
    assert rel.twist(x, 1) == x ** 5


def test_noncommutativity_witness():
    for v in range(25):
        a = F25.from_encoded(v)
        fa = SkewPoly.from_list(K25, [F25.element(0), a])
        one_tau = SkewPoly.tau(K25)
        left = skew_mul(fa, one_tau)
        right = skew_mul(one_tau, fa)
        in_f5 = a == a ** 5
        assert (left == right) == in_f5


def test_skew_mul_twists_by_the_frobenius_rows_without_powmod(monkeypatch):
    # the product matches the one built from the powmod definition
    # b^(q^i) of the twist, and once the ring's Frobenius rows exist no
    # twist in A/(lambda) runs a powmod at all
    from drinfeldlab import kernel

    ring = ResidueRing(P("T^3+T+1"))
    rc = ResidueCoefficients(ring)
    phi_t = SkewPoly.from_list(rc, [P("T"), P("T^2+3"), P("4*T+1")])
    rng = random.Random(16)
    elems = ring.elements()
    for _ in range(5):
        g = SkewPoly(rc, [rng.choice(elems) for _ in range(4)])
        want = [rc.zero] * (len(phi_t.coeffs) + len(g.coeffs) - 1)
        for i, a in enumerate(phi_t.coeffs):
            for j, b in enumerate(g.coeffs):
                want[i + j] += a * b ** (5 ** i)
        assert skew_mul(phi_t, g) == SkewPoly(rc, want)
    exponents = []
    vpowmod = kernel.vpowmod

    def recording(ctx, a, e, mod):
        exponents.append(e)
        return vpowmod(ctx, a, e, mod)

    monkeypatch.setattr(kernel, "vpowmod", recording)
    assert ring.frobenius_map()
    prod = skew_mul(phi_t, g)
    assert exponents == []
    assert prod == SkewPoly(rc, want)
