import random
from fractions import Fraction

import pytest

from drinfeldlab.drinfeld import (
    DrinfeldModule,
    carlitz_det_module,
    carlitz_module,
    e_phi,
    j_invariant,
    newton_polygon,
    phi_of,
    reduce_module,
    reduction_height,
    valuation_of_j,
)
from drinfeldlab.errors import (
    NotGoodReduction,
    WrongRank,
    ZeroJInvariant,
    ZeroPolynomial,
)
from drinfeldlab.fields import make_field
from drinfeldlab.polys import (
    POS_INF,
    Poly,
    PrimeIdeal,
    enumerate_monic_irreducibles,
    parse_poly,
    valuation,
)
from drinfeldlab.skew import SkewPoly, skew_mul
from oracles import act, carlitz_twist_witness, power_lead, reduction_type

F5 = make_field(5)


def P(text):
    return parse_poly(F5, text)


def PI(text):
    return PrimeIdeal(P(text))


def M(g1_text, g2_text):
    return DrinfeldModule(F5, [P(g1_text), P(g2_text)])


def test_phi_of_carlitz_square():
    c = carlitz_module(F5)
    f = phi_of(c, P("T^2"))
    assert [repr(x) for x in f.coeffs] == ["T^2", "T^5+T", "1"]


def test_phi_of_identity_and_rank2():
    c = carlitz_module(F5)
    assert phi_of(c, Poly.one(F5)) == SkewPoly.one(phi_of(c, P("T")).ring)
    m = M("T+1", "4")
    f = phi_of(m, P("T"))
    assert list(f.coeffs) == [P("T"), P("T+1"), P("4")]


def test_phi_of_homomorphism_laws():
    rng = random.Random(21)
    m = M("T+1", "2*T")
    for _ in range(25):
        a = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 4))])
        b = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 4))])
        assert phi_of(m, a + b) == phi_of(m, a) + phi_of(m, b)
        assert phi_of(m, a * b) == skew_mul(phi_of(m, a), phi_of(m, b))
        if not a.is_zero():
            f = phi_of(m, a)
            assert len(f.coeffs) - 1 == 2 * (len(a.coeffs) - 1)
            assert f.coeffs[0] == a


def test_j_invariant_examples():
    assert j_invariant(M("0", "3*T"))[0].is_zero()
    num, den = j_invariant(M("1", "4"))
    assert num == P("4") and den == P("1")  # 1/(-1) = -1 = 4
    with pytest.raises(WrongRank):
        j_invariant(carlitz_module(F5))


def test_j_invariant_twist_invariance():
    rng = random.Random(22)
    q = 5
    for _ in range(40):
        g1 = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 4))])
        g2 = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 4))])
        if g2.is_zero():
            continue
        phi = DrinfeldModule(F5, [g1, g2])
        for cval in range(1, 5):
            c = F5.element(cval)
            twisted = DrinfeldModule(
                F5, [g1 * c ** (q - 1), g2 * c ** (q * q - 1)])
            assert j_invariant(twisted) == j_invariant(phi)


def test_valuation_of_j():
    q = 5
    lam = PI("T+4")  # T - 1
    # nu(g1) = 0, leading -g2^(q-1) with nu(g2) = 1 => nu(j) = -(q-1)
    phi = carlitz_det_module(F5, P("2"), P("T+4"))
    assert valuation_of_j(phi, lam) == -(q - 1)
    # nu(g1) = 1, leading a lam-unit => q + 1
    phi2 = DrinfeldModule(F5, [P("T+4"), P("2")])
    assert valuation_of_j(phi2, lam) == q + 1
    # j a unit at lam
    phi3 = M("1", "4")
    assert valuation_of_j(phi3, lam) == 0
    assert valuation_of_j(M("0", "1"), lam) is POS_INF


def test_reduction_type_examples():
    lam = PI("T+4")
    good = carlitz_det_module(F5, P("T"), P("T+1"))  # g2 unit at lam
    assert reduction_type(good, lam).kind == "good"
    stable = carlitz_det_module(F5, P("2"), P("T+4"))
    rd = reduction_type(stable, lam)
    assert rd.kind == "stable_rank_1"
    assert rd.height == 1
    # nu(g1) = 1 is not a multiple of q-1: no integral twist exists
    unstable = DrinfeldModule(F5, [P("T+4"), P("T+4")])
    assert reduction_type(unstable, lam).kind == "unstable"
    for prime_text in ("T", "T+2", "T^2+2"):
        rd = reduction_type(carlitz_module(F5), PI(prime_text))
        assert rd.kind == "good" and rd.height == 1


def test_reduction_height_examples():
    assert reduction_height(M("1", "4"), PI("T")) == 1
    assert reduction_height(M("T", "4"), PI("T")) == 2
    assert reduction_height(carlitz_module(F5), PI("T+2")) == 1
    assert reduction_height(carlitz_module(F5), PI("T^2+2")) == 1
    with pytest.raises(NotGoodReduction):
        reduction_height(M("1", "T"), PI("T"))


def test_reduction_height_deg2_prime():
    lam = PI("T^2+2")
    assert reduction_height(M("1", "4"), lam) in (1, 2)
    # supersingular instance: with g1 = 2, g2 = T both the tau and tau^3
    # coefficients of phi_lam vanish (trace of Tbar is 0) and the tau^2
    # coefficient is Nr(2) + 2*Tbar^2 = 4 + 2*(-2) = 0
    phi = M("2", "T")
    assert reduction_height(phi, lam) == 2


def test_e_phi_examples():
    q = 5
    lam = PI("T+4")
    phi = carlitz_det_module(F5, P("2"), P("T+4"))  # nu(j) = -(q-1)
    for a, want in ((P("T"), q), (P("T^2+2"), q * q), (P("T^2"), q * q)):
        assert e_phi(phi, lam, a) == want
    # nu(j) = 0 => order 1
    assert e_phi(M("1", "4"), lam, P("T")) == 1
    # nu(j) = -2, deg a = 1 => denominator of -2/20 = 10
    phi2 = DrinfeldModule(F5, [P("1"), P("T+4") * P("T+4")])
    assert valuation_of_j(phi2, lam) == -2
    assert e_phi(phi2, lam, P("T")) == 10
    with pytest.raises(ZeroJInvariant):
        e_phi(M("0", "1"), lam, P("T"))


def test_newton_polygon_height1():
    rep = newton_polygon(M("1", "4"), PI("T"))
    assert rep.segments == ((Fraction(1, 4), 4), (Fraction(0), 20))
    assert rep.total_length == 24


def test_newton_polygon_height2():
    rep = newton_polygon(M("T", "4"), PI("T"))
    assert rep.segments == ((Fraction(1, 24), 24),)
    assert rep.total_length == 24


def test_newton_polygon_family_property():
    rng = random.Random(23)
    q = 5
    p = PI("T")
    count = 0
    while count < 20:
        g1 = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 4))])
        g2 = Poly(F5, [rng.randrange(5) for _ in range(rng.randrange(1, 4))])
        if g2.is_zero() or (g2 % p.gen).is_zero():
            continue
        phi = DrinfeldModule(F5, [g1, g2])
        h = reduction_height(phi, p)
        rep = newton_polygon(phi, p)
        assert rep.total_length == q ** 2 - 1
        n_p = q ** (h * p.degree)
        first_val, first_len = rep.segments[0]
        assert first_len == n_p - 1
        assert first_val == Fraction(1, n_p - 1)
        if len(rep.segments) > 1:
            assert rep.segments[1] == (Fraction(0), q ** 2 - n_p)
        count += 1


def _newton_over_A(phi, p):
    """Oracle: lower hull of (q^i - 1, nu_p(c_i)) over the coefficients c_i
    of phi_p computed over A, as (root valuation, length) segments."""
    q = phi.ctx.q
    hull = []
    for i, c in enumerate(phi_of(phi, p.gen).coeffs):
        if c.is_zero():
            continue
        x, y = q ** i - 1, valuation(c, p)
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # keep (x1, y1) only if it lies strictly below the chord
            if (y1 - y0) * (x - x1) < (y - y1) * (x1 - x0):
                break
            hull.pop()
        hull.append((x, y))
    return tuple((Fraction(y0 - y1, x1 - x0), x1 - x0)
                 for (x0, y0), (x1, y1) in zip(hull, hull[1:]))


def test_newton_polygon_matches_hull_over_A():
    rng = random.Random(31)
    by_kind = {}  # (rank, height) -> cases
    for q in (5, 7):
        ctx = make_field(q)
        primes = [p for d in (1, 2, 3)
                  for p in enumerate_monic_irreducibles(ctx, d)]
        cases = 0
        while cases < 120:
            p = rng.choice(primes)
            rank = rng.choice((1, 2))
            gs = [Poly(ctx, [rng.randrange(q) for _ in range(3)])
                  for _ in range(rank)]
            if rank == 2 and rng.randrange(3) == 0:
                # g1 in p: supersingular (height 2) at odd-degree primes
                gs[0] = gs[0] * p.gen
            if gs[-1].is_zero() or (gs[-1] % p.gen).is_zero():
                continue
            phi = DrinfeldModule(ctx, gs)
            assert newton_polygon(phi, p).segments == _newton_over_A(phi, p)
            key = (rank, reduction_height(phi, p))
            by_kind[key] = by_kind.get(key, 0) + 1
            cases += 1
    assert by_kind[(1, 1)] + by_kind[(2, 2)] >= 50
    assert min(by_kind[(1, 1)], by_kind[(2, 1)], by_kind[(2, 2)]) >= 20


def test_newton_polygon_requires_good():
    with pytest.raises(NotGoodReduction):
        newton_polygon(M("1", "T"), PI("T"))


def test_carlitz_twist_witness():
    assert carlitz_twist_witness(P("T") ** 4) == P("T")
    assert carlitz_twist_witness(Poly.one(F5)) == Poly.one(F5)
    assert carlitz_twist_witness(P("T")) is None
    assert carlitz_twist_witness(P("2*T^4")) is None  # not monic
    l = P("T^2+2")
    assert carlitz_twist_witness(l ** 4) == l
    with pytest.raises(ZeroPolynomial):
        carlitz_twist_witness(Poly.zero(F5))


def test_carlitz_det_module_shape():
    phi = carlitz_det_module(F5, P("1"), P("T"))
    assert phi.g2 == -(P("T") ** 4)
    assert carlitz_twist_witness(-phi.g2) == P("T")


@pytest.mark.parametrize("field", [(5, 1), (7, 1), (11, 1), (5, 2)],
                         ids=str)
def test_carlitz_det_module_matches_square_and_multiply(field):
    # g2^(q-1) as the exact division g2(T^q) / g2, against dense
    # square-and-multiply: a monic, a non-monic (2(T + 4), as in the
    # acceptance suite), a reducible and a constant g2, then seeded ones
    ctx = make_field(*field)
    t = Poly.T(ctx)
    g1 = t + 1
    rng = random.Random(31 * ctx.q)
    shapes = [t + 4, (t + 4) * 2, t * (t + 1) ** 2 * (t + 2),
              Poly.constant(ctx, 3)]
    while len(shapes) < 12:
        g2 = Poly(ctx, [rng.randrange(ctx.q)
                        for _ in range(rng.randrange(1, 6))])
        if not g2.is_zero():
            shapes.append(g2)
    for g2 in shapes:
        phi = carlitz_det_module(ctx, g1, g2)
        assert phi.g1 == g1
        assert phi.g2 == -Poly(ctx, power_lead(ctx, g2)), g2


def test_thm1_shape_reduction_properties():
    # nu(g1) >= 0, nu(g2) = 0 at lam: good reduction, e_phi at p-power levels
    # divides (q-1) q^(deg a)
    rng = random.Random(24)
    lam = PI("T+3")
    for _ in range(30):
        g1 = Poly(F5, [rng.randrange(5) for _ in range(3)])
        g2 = Poly(F5, [rng.randrange(5) for _ in range(2)] + [1])
        if (g2 % lam.gen).is_zero():
            continue
        phi = carlitz_det_module(F5, g1, g2)
        assert reduction_type(phi, lam).kind == "good"
        if not g1.is_zero() and valuation_of_j(phi, lam) != 0:
            e = e_phi(phi, lam, P("T^2+2"))
            assert ((5 - 1) * 5 ** 2) % e == 0


def test_reduced_module_action():
    # Carlitz at (T - c): T acts on F_5 as multiplication by c + 1
    for c in range(5):
        lam = PrimeIdeal(Poly.from_coeffs(F5, [(-c) % 5, 1]))
        red = reduce_module(carlitz_module(F5), lam)
        for xv in range(5):
            x = red.ring.element(xv)
            assert act(red, Poly.T(F5), x) == red.ring.element((c + 1) * xv)
