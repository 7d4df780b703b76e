"""The q-power Frobenius of A/(f) as a linear map, against powmod.

Every route through `kernel.frobenius_rows` is checked on seeded inputs
against the powmod definition it replaced: x^(q^k), the norm exponent
(q^n - 1)/(q - 1), and whole Frobenius charpolys.
"""

import random

import pytest

from drinfeldlab import frobenius, kernel
from drinfeldlab.drinfeld import DrinfeldModule
from drinfeldlab.fields import make_field
from drinfeldlab.frobenius import frob_general
from drinfeldlab.polys import Poly, PrimeIdeal, is_irreducible
from drinfeldlab.residues import ResidueElement, ResidueRing, norm_to_base

FIELDS = [make_field(5), make_field(7), make_field(11), make_field(5, 2)]


def _monic(rng, ctx, degree):
    return Poly(ctx, [rng.randrange(ctx.q) for _ in range(degree)] + [1])


def _prime(rng, ctx, degree):
    while True:
        f = _monic(rng, ctx, degree)
        if is_irreducible(f):
            return f


def _moduli(rng, ctx):
    """Primes of degree 1..8, the square of a prime and a reducible
    modulus with two distinct factors."""
    primes = [_prime(rng, ctx, d) for d in range(1, 9)]
    square = primes[1] ** 2
    while True:
        g = _prime(rng, ctx, 2)
        if g != primes[2]:
            break
    return primes + [square, primes[2] * g]


def _random_element(rng, ring):
    return ring.from_index(rng.randrange(ring.cardinality))


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_frobenius_matches_powmod(ctx):
    rng = random.Random(100 + ctx.q)
    for mod in _moduli(rng, ctx):
        ring = ResidueRing(mod)
        xs = [ring.zero, ring.one, ring.t] + [_random_element(rng, ring)
                                              for _ in range(4)]
        for x in xs:
            for k in range(4):
                assert x.frobenius(k) == x ** (ctx.q ** k), (mod, x, k)


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_frobenius_rows_are_the_q_powers_of_t(ctx):
    rng = random.Random(200 + ctx.q)
    for mod in _moduli(rng, ctx):
        ring = ResidueRing(mod)
        rows = ring.frobenius_rows()
        assert len(rows) == ring.degree
        for i, row in enumerate(rows):
            assert Poly(ctx, row) == (ring.t ** (ctx.q * i)).rep
        assert ring.frobenius_rows() is rows  # built once


def test_vlincomb_is_the_sum_of_scaled_rows():
    rng = random.Random(7)
    for ctx in FIELDS:
        rows = [[rng.randrange(ctx.q) for _ in range(rng.randrange(5))]
                for _ in range(4)]
        v = [rng.randrange(ctx.q) for _ in range(4)]
        want = []
        for c, row in zip(v, rows):
            want = kernel.vadd(ctx, want, kernel.vscale(ctx, row, c))
        assert kernel.vlincomb(ctx, v, rows) == want


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_norm_matches_the_powmod_exponent(ctx):
    rng = random.Random(300 + ctx.q)
    q = ctx.q
    for d in range(1, 9):
        ring = ResidueRing(_prime(rng, ctx, d))
        e = (q ** d - 1) // (q - 1)
        for _ in range(4):
            x = _random_element(rng, ring)
            if x.is_zero():
                continue
            want = (x ** e).rep
            assert want.degree == 0
            assert norm_to_base(x) == want.coefficient(0)


def _powmod_frobenius(self, k=1):
    return self ** (self.ring.ctx.q ** k)


def _powmod_norm(x):
    ring = x.ring
    q, n = ring.ctx.q, ring.degree
    return (x ** ((q ** n - 1) // (q - 1))).rep.coefficient(0)


def _charpolys(ctx, degrees, seed):
    rng = random.Random(seed)
    out = []
    for d in degrees:
        while True:
            g1, g2 = _monic(rng, ctx, 2), _monic(rng, ctx, 1)
            lam = PrimeIdeal(_prime(rng, ctx, d), _trusted=True)
            if not (g2 % lam.gen).is_zero():
                break
        cp = frob_general(DrinfeldModule(ctx, [g1, g2]), lam)
        out.append((cp.a, cp.b))
    return out


@pytest.mark.parametrize("q, degrees", [(5, range(9, 17)), (7, range(1, 9))])
def test_frob_general_matches_the_powmod_twist(monkeypatch, q, degrees):
    ctx = make_field(q)
    fast = _charpolys(ctx, degrees, 400 + q)
    monkeypatch.setattr(ResidueElement, "frobenius", _powmod_frobenius)
    monkeypatch.setattr(frobenius, "norm_to_base", _powmod_norm)
    assert _charpolys(ctx, degrees, 400 + q) == fast
