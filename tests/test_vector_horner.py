"""phi_a over A/(lambda) on kernel vectors, against the object route.

`ReducedModule.of` runs `kernel.vhorner` on coefficient vectors.  The route
it replaced, `_horner` with `skew_mul` on SkewPoly and ResidueElement
objects, stays as the oracle here, on seeded primes of degree 1 to 16
over F_5, 1 to 12 over F_7 and F_11 and 1 to 6 over F_25 (whose field ops
make the object route take seconds above that), polynomials a of degree 0
to 2 deg(lambda), rank-1 and rank-2 modules, and the twisted rank-1 module
of the stable branch of `reduction_type`.
"""

import random

import pytest

from drinfeldlab.drinfeld import (
    DrinfeldModule,
    _horner,
    reduce_module,
    reduction_type,
)
from drinfeldlab.fields import make_field
from drinfeldlab.polys import Poly, PrimeIdeal, is_irreducible
from drinfeldlab.skew import ht_deg

F5 = make_field(5)


def _poly(rng, ctx, degree):
    """A polynomial of exactly the given degree."""
    return Poly(ctx, [rng.randrange(ctx.q) for _ in range(degree)]
                + [rng.randrange(1, ctx.q)])


def _prime(rng, ctx, degree):
    while True:
        f = Poly(ctx, [rng.randrange(ctx.q) for _ in range(degree)] + [1])
        if is_irreducible(f):
            return PrimeIdeal(f, _trusted=True)


def _object_route(red, a):
    return _horner(red.ring.ctx, red.phi_T(), a)


def _cases(rng, ctx, m):
    """Zero, a nonzero constant, a of random degree up to 2m, and of
    degree 2m."""
    return [Poly.zero(ctx), Poly.constant(ctx, rng.randrange(1, ctx.q)),
            _poly(rng, ctx, rng.randrange(1, 2 * m + 1)),
            _poly(rng, ctx, 2 * m)]


@pytest.mark.parametrize("ctx, max_deg", [
    (make_field(5), 16), (make_field(7), 12), (make_field(11), 12),
    (make_field(5, 2), 6)], ids=["q5", "q7", "q11", "q25"])
def test_vector_horner_matches_the_object_route(ctx, max_deg):
    rng = random.Random(600 + ctx.q)
    for deg in range(1, max_deg + 1):
        lam = _prime(rng, ctx, deg)
        for rank in (1, 2):
            gs = [_poly(rng, ctx, rng.randrange(3)) for _ in range(rank)]
            red = reduce_module(DrinfeldModule(ctx, gs), lam)
            for a in _cases(rng, ctx, deg):
                assert red.of(a) == _object_route(red, a), (lam, gs, a)
        # bad reduction: the leading coefficient vanishes mod lambda
        red = reduce_module(DrinfeldModule(ctx, [_poly(rng, ctx, 1),
                                                 lam.gen]), lam)
        assert not red.is_good
        a = _poly(rng, ctx, min(deg, 4))
        assert red.of(a) == _object_route(red, a)


def test_vector_horner_of_constants():
    red = reduce_module(DrinfeldModule(F5, [Poly.T(F5), Poly.one(F5)]),
                        PrimeIdeal(Poly(F5, (2, 0, 1))))
    assert red.of(0).is_zero()
    assert red.of(3) == _object_route(red, 3)
    assert red.vectors(3) == [[3]]
    assert red.vectors(Poly.zero(F5)) == []


@pytest.mark.parametrize("lam_text", [(1, 1), (2, 0, 1), (1, 1, 0, 1)],
                         ids=["T+1", "T^2+2", "T^3+T+1"])
def test_stable_branch_twisted_module(lam_text):
    # g1 = lam^(q-1) h and g2 = lam^(q^2): k = 1, and nu(g2) = q^2 exceeds
    # k(q^2 - 1), so reduction_type reduces the rank-1 module T + h tau
    lam = PrimeIdeal(Poly(F5, lam_text))
    h = Poly(F5, (2, 1))
    phi = DrinfeldModule(F5, [lam.gen ** 4 * h, lam.gen ** 25])
    data = reduction_type(phi, lam)
    assert data.kind == "stable_rank_1"
    red = reduce_module(DrinfeldModule(F5, [h]), lam)
    image = red.of(lam.gen)
    assert image == _object_route(red, lam.gen)
    assert data.height == ht_deg(image)[0] // lam.degree
