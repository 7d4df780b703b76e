"""Rank-1 and rank-2 Drinfeld modules over A = F_q[T].

A module is stored by the tau-coefficients of phi_T beyond the constant term;
the constant is always T itself (generic characteristic, gamma the inclusion
of A into its fraction field).  Reductions at primes build the
finite-characteristic picture over the residue field.
"""

from __future__ import annotations

import functools

from . import kernel, skew
from .errors import (
    InternalInconsistency,
    NotGoodReduction,
    WrongRank,
    ZeroJInvariant,
    ZeroPolynomial,
)
from .fields import FieldCtx
from .polys import POS_INF, Poly, PrimeIdeal, gcd, valuation
from .residues import ResidueElement, ResidueRing


class DrinfeldModule:
    """phi_T = T + g_1 tau (+ g_2 tau^2); g_i are the stored coefficients."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        gs = [c if isinstance(c, Poly) else Poly.constant(ctx, c)
              for c in coeffs]
        if len(gs) not in (1, 2):
            raise WrongRank(f"rank must be 1 or 2, got {len(gs)}")
        for g in gs:
            if g.ctx != ctx:
                raise WrongRank("coefficient over a different field")
        if gs[-1].is_zero():
            raise ZeroPolynomial("leading coefficient of phi_T must be nonzero")
        self.ctx = ctx
        self.coeffs = tuple(gs)

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    @property
    def g1(self) -> Poly:
        return self.coeffs[0]

    @property
    def g2(self) -> Poly:
        if self.rank != 2:
            raise WrongRank("g2 exists only in rank 2")
        return self.coeffs[1]

    def phi_T(self) -> skew.SkewPoly:
        ring = skew.PolyCoefficients(self.ctx)
        return skew.SkewPoly(ring, (Poly.T(self.ctx),) + self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, DrinfeldModule) and self.ctx == other.ctx
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __repr__(self):
        parts = ["T"] + [f"({g!r})t^{i + 1}"
                         for i, g in enumerate(self.coeffs)]
        return "DrinfeldModule(" + " + ".join(parts) + ")"


def carlitz_module(ctx: FieldCtx) -> DrinfeldModule:
    """The rank-1 module with phi_T = T + tau."""
    return DrinfeldModule(ctx, [Poly.one(ctx)])


def carlitz_det_module(ctx: FieldCtx, g1: Poly, g2: Poly) -> DrinfeldModule:
    """Rank-2 module T + g1*tau - g2^(q-1)*tau^2.

    The leading coefficient is minus a (q-1)-th power, which makes the
    determinant side isomorphic to the Carlitz module over F.
    """
    if g2.is_zero():
        raise ZeroPolynomial("g2 must be nonzero")
    lead = kernel.power(g2.coeffs, ctx.q - 1,
                        functools.partial(kernel.vmul, ctx), [1])
    return DrinfeldModule(ctx, [g1, Poly(ctx, kernel.vsub(ctx, (), lead))])


def _horner(ctx: FieldCtx, phi_t: skew.SkewPoly, a) -> skew.SkewPoly:
    """phi_a = sum a_i phi_T^i over the coefficient ring of phi_t, by Horner
    on the coefficients of a (a Poly over ctx, or a constant)."""
    if not isinstance(a, Poly):
        a = Poly.constant(ctx, a)
    ring = phi_t.ring
    if a.is_zero():
        return skew.SkewPoly.zero(ring)
    acc = skew.SkewPoly.constant(ring, a.coefficient(len(a.coeffs) - 1))
    for i in range(len(a.coeffs) - 2, -1, -1):
        # acc and phi_t both lie in F_q[phi_t], so they commute; multiplying
        # on the left twists acc's coefficients by at most q^2 and multiplies
        # them only by phi_t's short coefficients.  acc * phi_t needs only a
        # table of phi_t's coefficients twisted by q^i, but over A/(lambda)
        # those are full size, so every product is full size by full size
        acc = (skew.skew_mul(phi_t, acc)
               + skew.SkewPoly.constant(ring, a.coefficient(i)))
    return acc


def phi_of(phi: DrinfeldModule, a) -> skew.SkewPoly:
    """phi_a over A by Horner on the coefficients of a."""
    return _horner(phi.ctx, phi.phi_T(), a)


class ReducedModule:
    """phi mod a prime, the one reduction that frob_general,
    frob_identity_check and reduction_height read: `vecs` holds T, g_1
    (, g_2) reduced by kernel.vmod, and `vectors` forms phi_a on one
    kernel.HornerMap.  `phi_T` and `of` wrap kernel vectors in
    ResidueElements only when called."""

    __slots__ = ("ring", "vecs", "prime", "_step")

    def __init__(self, phi: DrinfeldModule, prime: PrimeIdeal):
        gen = prime.gen.coeffs
        self.prime = prime
        self.ring = ResidueRing(prime)
        self.vecs = [kernel.vmod(phi.ctx, c, gen)
                     for c in [(0, 1)] + [g.coeffs for g in phi.coeffs]]
        self._step = None

    @property
    def is_good(self) -> bool:
        return bool(self.vecs[-1])

    @property
    def rc(self) -> skew.ResidueCoefficients:
        """The skew-polynomial coefficient ring A/(prime)."""
        return skew.ResidueCoefficients(self.ring)

    def _skew(self, vecs) -> skew.SkewPoly:
        ring = self.ring
        return skew.SkewPoly(self.rc, [ResidueElement(ring, Poly(ring.ctx, v))
                                       for v in vecs])

    def phi_T(self) -> skew.SkewPoly:
        return self._skew(self.vecs)

    def vectors(self, a, cap=None) -> list:
        """The tau-coefficients of phi_a over the residue field as kernel
        vectors, by kernel.vhorner on phi_T's kernel.HornerMap, built on
        first use on the ring's Frobenius map: the one the prime's Rabin
        test built, or a new one for a trusted prime (a is a Poly over
        ctx, or a constant).  With a cap, those of tau^0 .. tau^cap only."""
        ring = self.ring
        if not isinstance(a, Poly):
            a = Poly.constant(ring.ctx, a)
        if self._step is None:
            self._step = kernel.HornerMap(ring.frobenius_map(), self.vecs)
        return kernel.vhorner(self._step, a.coeffs, cap)

    def of(self, a) -> skew.SkewPoly:
        """phi_a over the residue field, by Horner."""
        return self._skew(self.vectors(a))


def reduce_module(phi: DrinfeldModule, prime: PrimeIdeal) -> ReducedModule:
    return ReducedModule(phi, prime)


def j_invariant(phi: DrinfeldModule) -> tuple[Poly, Poly]:
    """(numerator, denominator) of g_1^(q+1)/g_2, reduced, monic denominator."""
    if phi.rank != 2:
        raise WrongRank("j-invariant needs rank 2")
    ctx = phi.ctx
    num = phi.g1 ** (ctx.q + 1)
    den = phi.g2
    if num.is_zero():
        return Poly.zero(ctx), Poly.one(ctx)
    g = gcd(num, den)
    num, den = num // g, den // g
    inv = den.lead().inverse()
    return num * inv, den * inv


def valuation_of_j(phi: DrinfeldModule, lam: PrimeIdeal):
    """nu_lambda of the j-invariant; POS_INF when j = 0."""
    if phi.rank != 2:
        raise WrongRank("j-invariant needs rank 2")
    num, den = j_invariant(phi)
    if num.is_zero():
        return POS_INF
    return valuation(num, lam) - valuation(den, lam)


def reduction_height(phi: DrinfeldModule, lam: PrimeIdeal) -> int:
    """ht_tau of the reduction of phi_lambda divided by deg(lambda): the
    index of its first nonzero tau-coefficient vector.  phi_lambda is
    formed up to tau^deg(lambda) only: the height is at most the rank, so
    when all of those vanish it is 2 (the supersingular case)."""
    red = reduce_module(phi, lam)
    if not red.is_good:
        raise NotGoodReduction(f"{phi!r} has bad reduction at {lam!r}")
    vecs = red.vectors(lam.gen, cap=lam.degree)
    if not vecs:
        if phi.rank == 1:
            raise InternalInconsistency("rank-1 reduction of height above 1")
        return 2
    ht = next(i for i, v in enumerate(vecs) if v)
    if ht % lam.degree != 0:
        raise InternalInconsistency(
            "tau-height not divisible by the prime degree")
    return ht // lam.degree


def e_phi(phi: DrinfeldModule, lam: PrimeIdeal, a: Poly) -> int:
    """Order of nu_lambda(j)/((q-1) N(a)) in Q/Z: the reduced denominator."""
    if phi.rank != 2:
        raise WrongRank("e_phi is for rank 2")
    if not a.is_monic():
        raise ValueError("the level polynomial must be monic")
    nu = valuation_of_j(phi, lam)
    if nu is POS_INF:
        raise ZeroJInvariant("e_phi needs a nonzero j-invariant")
    from fractions import Fraction

    q = phi.ctx.q
    deg_a = len(a.coeffs) - 1
    return Fraction(nu, (q - 1) * q ** deg_a).denominator


class NewtonPolygonReport:
    """Lower-hull segments of phi_p(x)/x as (root valuation, length) pairs,
    with the reduction height that fixes them."""

    __slots__ = ("prime", "segments", "height")

    def __init__(self, prime: PrimeIdeal, segments, height: int):
        from fractions import Fraction

        self.segments = tuple((Fraction(s), int(l)) for s, l in segments)
        self.prime = prime
        self.height = height

    @property
    def total_length(self) -> int:
        return sum(l for _, l in self.segments)

    def __eq__(self, other):
        return (isinstance(other, NewtonPolygonReport)
                and self.prime == other.prime
                and self.segments == other.segments)

    def __repr__(self):
        return f"NewtonPolygon({self.prime!r}, {list(self.segments)})"


def newton_polygon(phi: DrinfeldModule, p: PrimeIdeal) -> NewtonPolygonReport:
    """Valuations of the p-torsion: the lower hull of (q^i - 1, nu_p(c_i))
    for the coefficients c_i of phi_p, slopes negated (root valuations).

    With good reduction the hull is fixed by the height h: c_0 = p has
    valuation 1, c_i is divisible by p exactly while its reduction vanishes
    (i < h deg p), and the leading coefficient is a p-unit.  So the torsion
    has n = q^(h deg p) - 1 roots of valuation 1/n and the rest are units.
    """
    from fractions import Fraction

    q = phi.ctx.q
    height = reduction_height(phi, p)
    n = q ** (height * p.degree) - 1
    total = q ** (phi.rank * p.degree) - 1
    segments = [(Fraction(1, n), n)]
    if n < total:
        segments.append((0, total - n))
    return NewtonPolygonReport(p, segments, height)
