import random

import pytest

from drinfeldlab import residues
from drinfeldlab.criteria import in_omega_tilde
from drinfeldlab.drinfeld import DrinfeldModule, reduce_module
from drinfeldlab.errors import NotAField, NotInvertible, RingMismatch
from drinfeldlab.fields import is_square, make_field
from drinfeldlab.polys import (
    Poly,
    PrimeIdeal,
    eval_at,
    gcd,
    is_irreducible,
    parse_poly,
)
from drinfeldlab.residues import (
    ResidueRing,
    is_square_mod_prime,
    norm_to_base,
    quadratic_is_irreducible,
    residue_inv,
)

F5 = make_field(5)


def P(text):
    return parse_poly(F5, text)


def R(modtext):
    return ResidueRing(P(modtext))


def test_ring_flags():
    ring = R("T^2+2")
    assert ring.is_prime
    assert ring.cardinality == 25
    ring2 = R("T^2")
    assert not ring2.is_prime
    assert ring2.cardinality == 25


def test_ring_of_prime_ideal_takes_primality(monkeypatch):
    p = PrimeIdeal(P("T^2+2"))
    plain = ResidueRing(p.gen)
    tested = []
    rabin = residues.is_irreducible
    monkeypatch.setattr(residues, "is_irreducible",
                        lambda f, *frob: tested.append(f) or rabin(f, *frob))
    ring = ResidueRing(p)
    reduce_module(DrinfeldModule(F5, [P("T"), P("1")]), p)
    assert in_omega_tilde(p).verified
    assert tested == []
    assert ring.is_prime
    assert ring == plain and hash(ring) == hash(plain)
    assert not R("T^2").is_prime
    assert tested == [P("T^2")]
    with pytest.raises(ValueError):
        R("2*T+1")


def test_residue_arith_examples():
    ring = R("T^2+2")
    t = ring.t
    assert t * t == ring.element(3)  # T^2 = -2 = 3
    x = ring.element(P("2*T+1"))
    assert x * ring.one == x
    assert x + (-x) == ring.zero
    assert x - x == ring.zero


def test_residue_arith_mismatch():
    with pytest.raises(RingMismatch):
        R("T").one + R("T+1").one


def test_residue_inv_examples():
    ring = R("T")
    assert residue_inv(ring.element(2)) == ring.element(3)
    ring = R("T^2+2")
    inv_t = residue_inv(ring.t)
    assert inv_t == ring.element(P("2*T"))
    assert ring.t * inv_t == ring.one
    with pytest.raises(NotInvertible) as exc:
        residue_inv(R("T^2").t)
    assert exc.value.gcd == P("T")


def test_norm_examples():
    ring = R("T^2+2")
    # constant c has norm c^n
    for c in range(5):
        want = F5.element(c) ** 2
        assert norm_to_base(ring.element(c)) == want
    # norm of T mod (T^2+2): T^(1+5) = (T^2)^3 = 3^3 = 27 = 2
    assert norm_to_base(ring.t) == F5.element(2)
    assert norm_to_base(ring.zero) == F5.element(0)
    with pytest.raises(NotAField):
        norm_to_base(R("T^2").t)


def test_norm_multiplicative_and_surjective():
    rng = random.Random(3)
    for modtext in ("T", "T+2", "T^2+2", "T^2+3"):
        ring = R(modtext)
        elems = ring.elements()
        for _ in range(150):
            a, b = rng.choice(elems), rng.choice(elems)
            assert norm_to_base(a * b) == norm_to_base(a) * norm_to_base(b)
        images = {norm_to_base(e).val for e in elems}
        assert images == set(range(5))


def test_is_square_examples():
    ring = R("T")
    assert is_square_mod_prime(ring.one)
    # (3 - T) mod (T) = 3, a non-square in F_5
    assert not is_square_mod_prime(ring.element(P("3") - Poly.T(F5)))
    rng = random.Random(4)
    big = R("T^3+T+1")
    assert big.is_prime
    for _ in range(30):
        x = rng.choice(big.elements())
        assert is_square_mod_prime(x * x)


def test_is_square_vs_brute():
    for modtext in ("T", "T^2+2", "T^3+T+1"):
        ring = R(modtext)
        elems = ring.elements()
        squares = {(e * e) for e in elems}
        for e in elems:
            assert is_square_mod_prime(e) == (e in squares)


@pytest.mark.parametrize("p, m", [(5, 1), (7, 1), (3, 2), (5, 2)])
def test_quadratic_reciprocity_against_euler(p, m):
    # c - T is a square mod a monic prime l iff l(c) is a square in F_q:
    # the law behind lambda_scan, against the Euler criterion in A/(l)
    ctx = make_field(p, m)
    rng = random.Random(p * 100 + m)
    for deg in (1, 2, 3, 4):
        for _ in range(6):
            while True:
                gen = Poly(ctx, [rng.randrange(ctx.q) for _ in range(deg)]
                           + [1])
                if is_irreducible(gen):
                    break
            ring = ResidueRing(PrimeIdeal(gen))
            for c in rng.sample(range(ctx.q), 3):
                residue = ring.element(Poly(ctx, (c,)) - Poly.T(ctx))
                assert is_square_mod_prime(residue) == is_square(
                    eval_at(gen, ctx.from_encoded(c))), (gen, c)


def test_quadratic_irreducible_examples():
    ring = R("T")
    # disc = 1 - 8 = 3, a non-square mod 5
    s = ring.element(P("T+2"))  # (T - 3) mod T = 2
    assert quadratic_is_irreducible(F5.element(1), s)
    assert not quadratic_is_irreducible(F5.element(0), ring.zero)  # X^2
    assert not quadratic_is_irreducible(F5.element(2), ring.one)  # (X-1)^2


def _brute_quadratic_reducible(r, s):
    ring = s.ring
    for x in ring.elements():
        if x * x - ring.element(r) * x + s == ring.zero:
            return True
    return False


def test_quadratic_vs_brute_roots():
    for modtext in ("T", "T+1", "T^2+2", "T^3+T+1"):
        ring = R(modtext)
        elems = ring.elements()
        rng = random.Random(5)
        pool = elems if ring.cardinality <= 25 else [
            rng.choice(elems) for _ in range(20)]
        for rv in range(5):
            r = F5.element(rv)
            for s in pool:
                assert quadratic_is_irreducible(r, s) == (
                    not _brute_quadratic_reducible(r, s))
    # over F_9 the encoded 4 is 1 + x; the discriminant needs 4 = 1
    F9 = make_field(3, 2)
    for gen in ((0, 1), (4, 0, 1), (5, 2, 1)):
        ring = ResidueRing(Poly(F9, gen))
        assert ring.is_prime
        elems = ring.elements()
        rng = random.Random(9)
        pool = elems if ring.cardinality <= 9 else [
            rng.choice(elems) for _ in range(20)]
        for r in F9.elements():
            for s in pool:
                assert quadratic_is_irreducible(r, s) == (
                    not _brute_quadratic_reducible(r, s))


def test_unit_group_cardinality():
    for modtext in ("T", "T+3", "T^2+2"):
        ring = R(modtext)
        assert len(ring.units()) == ring.cardinality - 1
    ring = R("T^2")  # non-prime: q^2 - q units
    assert len(ring.units()) == 20


def test_nonprime_square_test_refused():
    with pytest.raises(NotAField):
        is_square_mod_prime(R("T^2").one)
    with pytest.raises(NotAField):
        quadratic_is_irreducible(F5.element(1), R("T^2").one)


def test_index_round_trip():
    ring = R("T^2+2")
    for i in range(ring.cardinality):
        assert ring.index_of(ring.from_index(i)) == i


def test_residue_ops_match_poly_reduction():
    # sums are not reduced again and products run in the kernel; both must
    # equal the Poly-level result reduced by a full division
    rng = random.Random(61)
    for ctx, modtext in ((F5, "T^2+T"), (F5, "T^3+T+1"),
                         (make_field(7), "T^4+3")):
        ring = ResidueRing(parse_poly(ctx, modtext))
        for _ in range(200):
            x = ring.from_index(rng.randrange(ring.cardinality))
            y = ring.from_index(rng.randrange(ring.cardinality))
            mod = ring.modulus
            assert (x + y).rep == (x.rep + y.rep) % mod
            assert (x - y).rep == (x.rep - y.rep) % mod
            assert (-x).rep == (-x.rep) % mod
            assert (x * y).rep == (x.rep * y.rep) % mod


@pytest.mark.parametrize("q,lin,quad", [(5, "T+2", "T^2+2"),
                                        (7, "T+3", "T^2+1")])
def test_residue_inv_every_unit(q, lin, quad):
    ctx = make_field(q)
    for text in (lin, quad):
        p = parse_poly(ctx, text)
        for ring in (ResidueRing(p), ResidueRing(p * p)):
            units = ring.units()
            n = ring.cardinality
            assert len(units) == n - n // q ** p.degree  # p | non-units
            for x in units:
                inv = residue_inv(x)
                assert x * inv == ring.one
                assert (x.rep * inv.rep) % ring.modulus == Poly.one(ctx)


def test_residue_inv_non_units_carry_gcd():
    ring = R("T^2+T")
    non_units = [x for x in ring.elements() if not x.is_unit()]
    assert len(non_units) == 25 - 16
    for x in non_units:
        with pytest.raises(NotInvertible) as exc:
            residue_inv(x)
        assert exc.value.gcd == gcd(x.rep, ring.modulus)
        assert exc.value.gcd.degree >= 1
