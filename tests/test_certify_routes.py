"""The Rabin test, the square test and the prime sieve, against the routes
they replaced.

`kernel.rabin` forms T^(q^i) mod f by Frobenius twists on the map a prime
keeps from parse, `is_square_mod_prime` reads Euler's criterion off the norm,
`kernel.vresultant` forms that norm as the resultant Res(f, x) by Euclid,
with no map, and the sieve marks composite indices by affine families.  The
square-and-multiply Rabin and Euler tests, the conjugate product by powmod
and the product sieve are kept here as seeded oracles, and the cofactor
walk in `oracles.py`.
"""

import itertools
import operator
import random

import pytest

from drinfeldlab import cli, kernel
from drinfeldlab.criteria import in_lambda_set, in_omega_tilde, theorem2_build
from drinfeldlab.drinfeld import DrinfeldModule, ReducedModule, reduction_height
from drinfeldlab.fields import is_square, make_field
from drinfeldlab.polys import (
    Poly,
    PrimeIdeal,
    enumerate_monic_irreducibles,
    eval_at,
    irreducible_indices,
    is_irreducible,
    parse_poly,
    poly_from_index,
)
from drinfeldlab.residues import ResidueRing, is_square_mod_prime, norm_to_base
from oracles import irreducible_count, walk_sieve

F5 = make_field(5)
F127 = make_field(127)
# a degree-64 prime over F_127, drawn from a seeded stream
PRIME_64 = (
    "T^64+54*T^63+23*T^62+30*T^61+117*T^60+39*T^59+46*T^58+42*T^57"
    "+119*T^56+118*T^55+67*T^54+13*T^52+12*T^51+8*T^50+88*T^49+67*T^48"
    "+113*T^47+75*T^46+89*T^45+51*T^44+13*T^43+122*T^42+77*T^41+85*T^40"
    "+86*T^39+83*T^38+71*T^37+103*T^36+15*T^35+72*T^34+84*T^33+111*T^32"
    "+124*T^31+98*T^30+16*T^29+15*T^28+115*T^27+107*T^26+93*T^25+19*T^24"
    "+6*T^23+35*T^22+80*T^21+33*T^20+58*T^19+33*T^18+30*T^17+25*T^16"
    "+2*T^15+4*T^14+110*T^13+91*T^12+39*T^11+34*T^10+93*T^9+37*T^8+98*T^7"
    "+21*T^6+122*T^5+75*T^4+70*T^3+102*T^2+13*T+88")


def _rabin_by_powmod(ctx, f):
    """Rabin's test by square-and-multiply: T^(q^n) = T mod f and
    gcd(f, T^(q^(n/l)) - T) = 1 for every prime l dividing n = deg f."""
    n = len(f) - 1
    if n == 1:
        return True
    x = [0, 1]
    if kernel.vpowmod(ctx, x, ctx.q ** n, f) != x:
        return False
    return all(len(kernel.vgcd(ctx, f, kernel.vsub(
        ctx, kernel.vpowmod(ctx, x, ctx.q ** (n // ell), f), x))) == 1
        for ell in kernel.prime_divisors(n))


def _monic(rng, ctx, degree):
    return Poly(ctx, [rng.randrange(ctx.q) for _ in range(degree)] + [1])


def _prime(rng, ctx, degree):
    while True:
        f = _monic(rng, ctx, degree)
        if is_irreducible(f):
            return f


def _rabin_cases(rng, ctx, degree):
    """Monic polynomials of the given degree: a prime, a prime power, a
    product with a repeated factor, a product of two primes, then random
    ones."""
    yield _prime(rng, ctx, degree)
    if degree > 1:
        d = next(d for d in (2, 3, 1) if degree % d == 0)
        yield _prime(rng, ctx, d) ** (degree // d)
        g = _monic(rng, ctx, rng.randrange(1, degree // 2 + 1))
        yield g * g * _monic(rng, ctx, degree - 2 * g.degree)
        a = rng.randrange(1, degree)
        yield _prime(rng, ctx, a) * _prime(rng, ctx, degree - a)
    while True:
        yield _monic(rng, ctx, degree)


# field -> polynomials per degree 1..12; over F_25, where the
# square-and-multiply oracle is slowest (every coefficient product is a
# kernel call), one per degree 7..12: 432 + 336 + 144 + 18 = 930 in all
RABIN_FIELDS = {(5, 1): 36, (7, 1): 28, (127, 1): 12, (5, 2): 2}


@pytest.mark.parametrize("field", RABIN_FIELDS, ids=str)
def test_rabin_by_twists_matches_square_and_multiply(field):
    ctx = make_field(*field)
    rng = random.Random(1700 + ctx.q)
    tested = verdicts = 0
    for degree in range(1, 13):
        cases = itertools.islice(_rabin_cases(rng, ctx, degree),
                                 RABIN_FIELDS[field])
        if ctx.m > 1 and degree > 6:
            # a prime of F_5[T] stays prime over F_25 iff its degree is odd
            cases = [Poly(ctx, _prime(rng, F5, degree).coeffs)]
        for f in cases:
            want = _rabin_by_powmod(ctx, f.coeffs)
            frob = kernel.FrobeniusMap(ctx, f.coeffs)
            assert kernel.rabin(frob) == want, f
            assert is_irreducible(f) == want, f
            tested += 1
            verdicts += want
    assert 0 < verdicts < tested
    assert tested == {5: 432, 7: 336, 127: 144, 25: 18}[ctx.q]


def _euler_by_powmod(x):
    """Euler's criterion x^((N-1)/2) = 1 in A/p, N = #(A/p), by powmod."""
    ring = x.ring
    if x.is_zero():
        return True
    return kernel.vpowmod(ring.ctx, x.rep.coeffs, (ring.cardinality - 1) // 2,
                          ring.modulus.coeffs) == [1]


@pytest.mark.parametrize("field", [(5, 1), (7, 1), (127, 1), (5, 2)],
                         ids=str)
def test_square_by_norm_matches_euler_and_reciprocity(field):
    ctx = make_field(*field)
    rng = random.Random(1800 + ctx.q)
    for degree in (1, 2, 3, 5, 8, 12) if ctx.m == 1 else (1, 2, 3):
        ring = ResidueRing(PrimeIdeal(_prime(rng, ctx, degree)))
        gen = ring.modulus
        xs = [ring.zero, ring.one] + [
            ring.from_index(rng.randrange(ring.cardinality)) for _ in range(6)]
        for x in xs:
            assert is_square_mod_prime(x) == _euler_by_powmod(x), (gen, x)
            assert is_square_mod_prime(x * x)
        # reciprocity: N(c - T) = gen(c), so c - T is a square mod gen
        # iff gen(c) is a square in F_q
        for c in rng.sample(range(ctx.q), 4):
            x = ring.element(Poly(ctx, (c,)) - Poly.T(ctx))
            value = eval_at(gen, ctx.from_encoded(c))
            assert norm_to_base(x) == value, (gen, c)
            assert is_square_mod_prime(x) == is_square(value), (gen, c)


def test_square_in_extension_field_matches_euler():
    for ctx in (make_field(5, 2), make_field(7, 2), make_field(3, 3)):
        squares = {ctx.mul(x, x) for x in range(ctx.q)}
        for x in range(ctx.q):
            want = ctx.pow(x, (ctx.q - 1) // 2) in (0, 1)
            assert is_square(ctx.from_encoded(x)) == want == (x in squares)


def _conjugate_product(ctx, mod, v):
    """v v^q ... v^(q^(d-1)) mod a monic `mod` of degree d, q = ctx.q, each
    conjugate the powmod to the q of the last: no Frobenius map."""
    conj = nr = kernel._trim(list(v))
    for _ in range(len(mod) - 2):
        conj = kernel.vpowmod(ctx, conj, ctx.q, mod)
        nr = kernel.vmulmod(ctx, nr, conj, mod)
    return nr


def _refuse_twists(monkeypatch):
    def refuse(*args):
        raise AssertionError("a norm built or applied a Frobenius map")

    monkeypatch.setattr(kernel.FrobeniusMap, "__init__", refuse)
    monkeypatch.setattr(kernel, "vfrobenius", refuse)


@pytest.mark.parametrize("field", [(5, 1), (7, 1), (5, 2)], ids=str)
def test_norm_by_doubling_matches_the_conjugate_product(field, monkeypatch):
    # the resultant Res(f, v) of a prime f of every degree from 1 to 20
    # (10 over F_25, whose field ops are slow) is the norm of v mod f, the
    # product of its conjugates, and takes no twist
    ctx = make_field(*field)
    rng = random.Random(1900 + ctx.q)
    for d in range(1, 21 if ctx.m == 1 else 11):
        mod = list(_prime(rng, ctx, d).coeffs)
        vs = [kernel._trim([rng.randrange(ctx.q) for _ in range(d)])
              for _ in range(3)]
        want = [_conjugate_product(ctx, mod, v) for v in vs]
        _refuse_twists(monkeypatch)
        got = [kernel.vresultant(ctx, mod, v) for v in vs]
        monkeypatch.undo()
        for v, nr, norm in zip(vs, got, want):
            assert ([nr] if nr else []) == norm, (mod, v)


@pytest.mark.parametrize("p", [3, 5])
def test_norm_by_doubling_in_extension_fields(p):
    # the norm down to F_p that fields.is_square reads, the resultant over
    # Z/p of the field's modulus and an element's digits, for F_{p^m} with
    # m = 2..5; then norms of F_9, F_27 and F_25 residue fields at primes
    # of degree 1-6 over those fields
    rng = random.Random(2000 + p)
    zp = kernel.Zp(p)
    for m in range(2, 6):
        ctx = make_field(p, m)
        xs = range(1, ctx.q) if ctx.q < 300 else rng.sample(range(1, ctx.q),
                                                              300)
        for x in xs:
            digits = ctx.decode(x)
            nr = kernel.vresultant(zp, ctx.modulus, digits)
            assert [nr] == _conjugate_product(zp, ctx.modulus, digits), (
                ctx, x)
    for m in (2, 3) if p == 3 else (2,):
        ctx = make_field(p, m)
        for d in range(1, 7):
            mod = list(_prime(rng, ctx, d).coeffs)
            for _ in range(3):
                v = kernel._trim([rng.randrange(ctx.q) for _ in range(d)])
                nr = kernel.vresultant(ctx, mod, v)
                assert ([nr] if nr else []) == _conjugate_product(
                    ctx, mod, v), (ctx, mod, v)


def _factored(rng, ctx):
    """(f, its prime factors with multiplicity) for a random monic f of
    degree 2-8 with a repeated factor or two distinct ones."""
    while True:
        primes = [_prime(rng, ctx, rng.randrange(1, 4))
                  for _ in range(rng.randrange(1, 4))]
        primes.append(rng.choice(primes))
        f = Poly.one(ctx)
        for g in primes:
            f = f * g
        if f.degree <= 8:
            return list(f.coeffs), [list(g.coeffs) for g in primes]


@pytest.mark.parametrize("field", [(5, 1), (7, 1), (3, 2), (5, 2)],
                         ids=str)
def test_resultant_over_reducible_moduli(field):
    # Res(f, g) is multiplicative in f, so over a reducible f it is the
    # product of the norms of g at f's prime factors; it is zero iff f and
    # g share a factor, g = 0 included, c^(deg f) for a constant c, and
    # unchanged when g of degree >= deg f is first reduced mod f
    ctx = make_field(*field)
    rng = random.Random(2100 + ctx.q)
    zeros = 0
    for _ in range(12):
        f, factors = _factored(rng, ctx)
        d = len(f) - 1
        assert kernel.vresultant(ctx, f, []) == 0
        for c in (1, rng.randrange(1, ctx.q)):
            assert kernel.vresultant(ctx, f, [c]) == ctx.pow(c, d)
        gs = [kernel._trim([rng.randrange(ctx.q) for _ in range(n)])
              for n in (d, d + 1, 2 * d + 3)]
        gs.append(kernel.vmul(ctx, factors[0], [1, 2]))  # a common factor
        for g in gs:
            want = 1
            for h in factors:
                want = ctx.mul(want, kernel.vresultant(ctx, h, g))
            got = kernel.vresultant(ctx, f, g)
            assert got == want, (f, g)
            assert got == kernel.vresultant(ctx, f, kernel.vmod(ctx, g, f))
            assert (got == 0) == (kernel.vgcd(ctx, f, g) != [1]), (f, g)
            zeros += got == 0
    assert zeros >= 12


def _product_sieve(ctx, degree):
    """Monic irreducibles of the degree by forming every product g * h of a
    prime g of degree <= degree/2 and a monic h, marked at its index."""
    q = ctx.q
    top = q ** degree
    composite = bytearray(top)
    weights = [q ** i for i in range(degree)] + [0]
    for d in range(1, degree // 2 + 1):
        for g in _product_sieve(ctx, d):
            for tail in itertools.product(range(q), repeat=degree - d):
                prod = kernel.vmul(ctx, g.coeffs, tail + (1,))
                composite[sum(map(operator.mul, prod, weights))] = 1
    return [poly_from_index(ctx, top + idx)
            for idx, marked in enumerate(composite) if not marked]


@pytest.mark.parametrize("field, max_deg", [
    ((5, 1), 5), ((7, 1), 4), ((11, 1), 3), ((5, 2), 2), ((7, 2), 2)],
    ids=str)
def test_index_sieve_matches_product_sieve(field, max_deg, monkeypatch):
    ctx = make_field(*field)
    want = {d: _product_sieve(ctx, d) for d in range(1, max_deg + 1)}

    def no_product(*args):
        raise AssertionError("the sieve formed a polynomial product")

    monkeypatch.setattr(kernel, "vmul", no_product)
    for d in range(1, max_deg + 1):
        got = [lam.gen for lam in enumerate_monic_irreducibles(ctx, d)]
        assert got == want[d], d
        assert len(got) == irreducible_count(ctx.q, d)


@pytest.mark.parametrize("field, max_deg", [
    ((5, 1), 6), ((7, 1), 5), ((11, 1), 4), ((13, 1), 3), ((5, 2), 3),
    ((7, 2), 2), ((3, 3), 3), ((257, 1), 2), ((17, 2), 2)], ids=str)
def test_family_sieve_matches_the_cofactor_walk(field, max_deg, monkeypatch):
    # the affine families against the cofactor walk they replaced, index
    # for index: q^n up to about 20,000, F_{p^m} on its F_p-digits, and
    # q = 257 and 289 on lists in place of bytes
    ctx = make_field(*field)
    want = {d: walk_sieve(ctx, d) for d in range(1, max_deg + 1)}

    def no_product(*args):
        raise AssertionError("the sieve formed a polynomial product")

    monkeypatch.setattr(kernel, "vmul", no_product)
    for d in range(1, max_deg + 1):
        got = list(irreducible_indices(ctx, d))
        assert got == want[d], d
        assert len(got) == irreducible_count(ctx.q, d)


def test_degree_64_omega_takes_one_powmod(monkeypatch):
    # parsing the prime builds its Frobenius map (the one powmod, T^q); the
    # Rabin test, the residue ring and the Euler tests reuse that map
    calls = []
    vpowmod = kernel.vpowmod
    monkeypatch.setattr(kernel, "vpowmod",
                        lambda *args: calls.append(args[2]) or vpowmod(*args))
    p = PrimeIdeal(parse_poly(F127, PRIME_64))
    cert = in_omega_tilde(p)
    assert cert.verified and cert.checks[0]["euler_tests"] >= 1
    assert calls == [127]
    assert ResidueRing(p).frobenius_map() is p.frob


def test_ring_of_a_poly_keeps_its_rabin_map(monkeypatch):
    built = []
    frobenius_map = kernel.FrobeniusMap
    monkeypatch.setattr(kernel, "FrobeniusMap", lambda ctx, mod: built.append(
        mod) or frobenius_map(ctx, mod))
    ring = ResidueRing(parse_poly(F5, "T^4+2"))
    x = ring.element(parse_poly(F5, "T+3"))
    assert ring.is_prime
    assert is_square_mod_prime(x) == _euler_by_powmod(x)
    assert x.frobenius(3) == x ** (5 ** 3)
    assert len(built) == 1


def test_norms_and_square_tests_build_no_frobenius_map(monkeypatch):
    # the map is built only to twist: a triple certificate and theorem 2
    # at a trusted prime, a field with its default modulus (found and
    # cached before the patch) and its square tests build none, while a
    # given modulus is Rabin-tested on one map
    fields = [make_field(p, m) for p, m in ((5, 2), (3, 3), (7, 2))]
    built = []
    build = kernel.FrobeniusMap.__init__
    monkeypatch.setattr(kernel.FrobeniusMap, "__init__", lambda frob, ctx,
                        mod: built.append(mod) or build(frob, ctx, mod))
    for text, g1, c in (("T^2+2", "T+1", 3), ("T^3+3*T+2", "1", 1),
                        ("T^4+2", "T^2+4", 0)):
        l = PrimeIdeal(parse_poly(F5, text), _trusted=True)
        cert = in_lambda_set(l, parse_poly(F5, g1), F5.element(c))
        _, cert2 = theorem2_build(l, parse_poly(F5, g1), F5.element(c))
        assert cert.checks[1]["passed"] == cert2.checks[1]["passed"]
    for ctx in fields:
        again = make_field(ctx.p, ctx.m)
        assert again == ctx
        assert sum(map(again.is_square, range(ctx.q))) == (ctx.q + 1) // 2
    assert built == []
    make_field(5, 2, (2, 0, 1))
    assert built == [(2, 0, 1)]


def test_reduction_height_reads_the_vectors(monkeypatch):
    # the height is the index of phi_p's first nonzero tau-coefficient
    # vector; no skew polynomial is built
    def no_skew(*args):
        raise AssertionError("reduction_height built a skew polynomial")

    monkeypatch.setattr(ReducedModule, "of", no_skew)
    phi = DrinfeldModule(F5, [parse_poly(F5, "1"), parse_poly(F5, "4")])
    assert reduction_height(phi, PrimeIdeal(parse_poly(F5, "T"))) == 1
    for text in ("T^2+2", "T^3+3*T+2"):
        p = PrimeIdeal(parse_poly(F5, text))
        vectors = ReducedModule(phi, p).vectors(p.gen)
        ht = next(i for i, v in enumerate(vectors) if v)
        assert reduction_height(phi, p) == ht // p.degree


def test_primes_streams_from_the_sieve(capsys, monkeypatch):
    # `primes` checks its flags before returning, then yields one record
    # at a time: the first record of a million comes at once
    args = cli._table_args(["primes", "--q", "1000003", "--max-deg", "1"])
    code, records = cli._primes(args)
    assert code == 0 and iter(records) is records
    first = list(itertools.islice(records, 3))
    assert [r["prime"] for r in first] == ["T", "T+1", "T+2"]
    for argv in (["primes", "--q", "5", "--exact-deg", "0"],
                 ["primes", "--q", "5", "--exact-deg", "11"],
                 ["primes", "--q", "5", "--max-deg", "11"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().out == ""
    for output in ("jsonl", "csv", "pretty"):
        assert cli.main(["--output", output, "primes", "--q", "5",
                         "--max-deg", "3"]) == 0
        text = capsys.readouterr().out
        assert text.count("T^3+3*T+2") == 1
