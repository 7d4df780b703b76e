"""Arithmetic in A/(f): quotient rings of F_q[T] by a monic modulus.

When the modulus is irreducible the ring is the field F_{q^n} and carries the
norm down to F_q, the square test read off that norm (Euler's criterion
x^((q^n-1)/2) = N(x)^((q-1)/2)), and the quadratic irreducibility test
that drives the certificate machinery.  Every norm is a resultant,
N(x mod p) = Res(p, x), taken by Euclid in `kernel.vresultant` with no
Frobenius map.  The quadratic test is a tuple routine (`vquadratic`) on
the prime generator and reduced coefficient vectors, which the
certificates call directly, and `quadratic_is_irreducible` wraps it for
ResidueElements; `is_square_mod_prime` takes either a ResidueElement or,
with the prime generator, a vector.  Non-prime moduli (level p^2 work)
support arithmetic only, and `generates_units` decides by the structure of
(A/p^level)^* whether given units generate it, listing no unit.

Elements keep their fully reduced representative.  Products, powers and
inverses run in `kernel` modulo the monic modulus, as F_{p^m} arithmetic
does; sums need no reduction.  The q-power Frobenius is F_q-linear on every
A/(f), prime or not: its matrix (`kernel.FrobeniusMap`, one packed
F_p-digit map for every q) is built once per ring, and twists apply it by
`kernel.vfrobenius` in place of a powmod.  A ring takes the map its
modulus's Rabin test ran on: the parsed PrimeIdeal's, or the one its own
test built; a ring of a trusted prime builds it on first twist.
"""

from __future__ import annotations

from . import kernel
from .errors import (
    NotAField,
    NotInvertible,
    RingMismatch,
)
from .fields import FieldCtx, FqElement
from .polys import (
    Poly,
    PrimeIdeal,
    gcd,
    is_irreducible,
    poly_from_index,
    powmod,
)


class ResidueRing:
    """A/(modulus) for a monic modulus of degree >= 1, or A/p for a
    PrimeIdeal p, whose primality is not tested again."""

    __slots__ = ("modulus", "is_prime", "cardinality", "_frob")

    def __init__(self, modulus: Poly | PrimeIdeal):
        if isinstance(modulus, PrimeIdeal):
            modulus, self._frob, self.is_prime = (modulus.gen, modulus.frob,
                                                  True)
        elif not modulus.is_monic() or len(modulus.coeffs) - 1 < 1:
            raise ValueError("modulus must be monic of degree >= 1")
        else:
            self._frob = kernel.FrobeniusMap(modulus.ctx, modulus.coeffs)
            self.is_prime = is_irreducible(modulus, self._frob)
        self.modulus = modulus
        self.cardinality = modulus.ctx.q ** (len(modulus.coeffs) - 1)

    @property
    def ctx(self) -> FieldCtx:
        return self.modulus.ctx

    @property
    def degree(self) -> int:
        return len(self.modulus.coeffs) - 1

    def frobenius_map(self) -> kernel.FrobeniusMap:
        """x -> x^q on the ring as a kernel.FrobeniusMap, built once."""
        if self._frob is None:
            self._frob = kernel.FrobeniusMap(self.ctx, self.modulus.coeffs)
        return self._frob

    def element(self, value) -> "ResidueElement":
        """Reduce a Poly, FqElement or int into the ring."""
        if isinstance(value, ResidueElement):
            if value.ring != self:
                raise RingMismatch("element from a different residue ring")
            return value
        if isinstance(value, (FqElement, int)):
            value = Poly.constant(self.ctx, value)
        return ResidueElement(self, value % self.modulus)

    @property
    def zero(self) -> "ResidueElement":
        return ResidueElement(self, Poly.zero(self.ctx))

    @property
    def one(self) -> "ResidueElement":
        return ResidueElement(self, Poly.one(self.ctx))

    @property
    def t(self) -> "ResidueElement":
        """The class of T."""
        return self.element(Poly.T(self.ctx))

    def elements(self):
        """All residues, ascending index order (constant digit fastest)."""
        return [self.from_index(i) for i in range(self.cardinality)]

    def from_index(self, idx: int) -> "ResidueElement":
        """The residue numbered idx mod cardinality; inverts index_of."""
        return ResidueElement(self,
                              poly_from_index(self.ctx, idx % self.cardinality))

    def index_of(self, x: "ResidueElement") -> int:
        return kernel.vindex(x.rep.coeffs, self.ctx.q)

    def units(self):
        return [x for x in self.elements() if x.is_unit()]

    def __eq__(self, other):
        return isinstance(other, ResidueRing) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("ring", self.modulus))

    def __repr__(self):
        return f"ResidueRing(mod {self.modulus!r})"


class ResidueElement:
    """Residue class with its fully reduced representative."""

    __slots__ = ("ring", "rep")

    def __init__(self, ring: ResidueRing, rep: Poly):
        self.ring = ring
        self.rep = rep

    def _same(self, other) -> "ResidueElement":
        if isinstance(other, ResidueElement):
            if other.ring != self.ring:
                raise RingMismatch("elements from different residue rings")
            return other
        if isinstance(other, (int, FqElement, Poly)):
            return self.ring.element(other)
        raise TypeError(f"cannot combine ResidueElement with {type(other)}")

    # sums and negations of reduced representatives are already reduced
    def __add__(self, other):
        other = self._same(other)
        return ResidueElement(self.ring, self.rep + other.rep)

    __radd__ = __add__

    def __neg__(self):
        return ResidueElement(self.ring, -self.rep)

    def __sub__(self, other):
        other = self._same(other)
        return ResidueElement(self.ring, self.rep - other.rep)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._same(other)
        ctx = self.ring.ctx
        return ResidueElement(self.ring, Poly(ctx, kernel.vmulmod(
            ctx, self.rep.coeffs, other.rep.coeffs,
            self.ring.modulus.coeffs)))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return residue_inv(self) ** (-e)
        return ResidueElement(self.ring,
                              powmod(self.rep, e, self.ring.modulus))

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def is_unit(self) -> bool:
        return gcd(self.rep, self.ring.modulus).is_one()

    def frobenius(self, k: int = 1) -> "ResidueElement":
        """k-fold q-power Frobenius x -> x^(q^k), by the ring's rows."""
        ring, v = self.ring, self.rep.coeffs
        for _ in range(k):
            v = kernel.vfrobenius(ring.frobenius_map(), v)
        return ResidueElement(ring, Poly(ring.ctx, v))

    def __eq__(self, other):
        if isinstance(other, (int, FqElement, Poly)):
            try:
                other = self.ring.element(other)
            except RingMismatch:
                return False
        return (isinstance(other, ResidueElement) and self.ring == other.ring
                and self.rep == other.rep)

    def __hash__(self):
        return hash(("residue", self.ring.modulus, self.rep))

    def __repr__(self):
        return f"[{self.rep!r}]"


def residue_inv(x: ResidueElement) -> ResidueElement:
    """Multiplicative inverse; NotInvertible carries the offending gcd."""
    ring = x.ring
    g, u = kernel.vxgcd(ring.ctx, x.rep.coeffs, ring.modulus.coeffs)
    if g != [1]:
        g = Poly(ring.ctx, g)
        raise NotInvertible(f"{x!r} shares the factor {g!r} with the modulus",
                            gcd=g)
    return ResidueElement(ring, Poly(ring.ctx, u))


def generates_units(ctx, modp, level: int, units) -> bool:
    """Whether the units that `units()` yields as coefficient vectors
    generate (A/p^level)^*, for the monic prime p with coefficients modp
    and level 1 or 2.  Each condition below calls `units()` afresh and
    draws from it only until it holds.

    Decided by the structure of the group; no unit is listed.  With
    N = q^deg p, (A/p^level)^* = C_(N-1) x (1 + pA/p^level), of coprime
    orders, the second factor trivial at level 1 and (A/p, +) at level 2,
    by 1 + py -> y.  So the units generate it iff, for each prime r
    dividing N - 1, some u^((N-1)/r) is not 1 mod p, and, at level 2,
    the F_p-digits of the y = (u^(N-1) - 1)/p mod p reach rank m deg p,
    q = p^m, as raising to N - 1 is onto the second factor.
    """
    degree = len(modp) - 1
    order = ctx.q ** degree - 1
    missing = set(kernel.prime_divisors(order))
    for u in units():
        missing -= {r for r in missing
                    if kernel.vpowmod(ctx, u, order // r, modp) != [1]}
        if not missing:
            break
    rank = (level - 1) * ctx.m * degree
    if missing or not rank:
        return not missing
    mod = kernel.vmul(ctx, modp, modp)

    def digits(u):
        y = kernel.vsub(ctx, kernel.vpowmod(ctx, u, order, mod), [1])
        return kernel.fp_digits(ctx, kernel.vdivmod(ctx, y, modp)[0])

    rows = kernel.vechelon(kernel.Zp(ctx.p), map(digits, units()), rank)
    return len(rows) == rank


def vquadratic(gen: Poly, r: int, s):
    """(r^2 - 4s, whether X^2 - rX + s has no root) over the field A/(gen),
    for a monic prime gen, an encoded r and a reduced s.  Irreducible iff
    the discriminant is a non-square (q odd); zero, a double root, counts
    as a square.  The constant 4 is scaled in as 4 mod p, an element of
    the prime field."""
    ctx = gen.ctx
    disc = kernel.vsub(ctx, [ctx.mul(r, r)], kernel.vscale(ctx, s, 4 % ctx.p))
    return disc, not is_square_mod_prime(disc, gen)


def norm_to_base(x: ResidueElement) -> FqElement:
    """Field norm F_{q^n} -> F_q of x: the resultant Res(p, x) of the
    prime and the representative, by kernel.vresultant."""
    ring = x.ring
    if not ring.is_prime:
        raise NotAField("norm needs a prime modulus")
    return FqElement(ring.ctx, kernel.vresultant(
        ring.ctx, ring.modulus.coeffs, x.rep.coeffs))


def is_square_mod_prime(x, gen: Poly = None) -> bool:
    """Whether x is a square in the field A/p (zero counts), for x a
    ResidueElement of a prime residue ring or, given the monic prime gen,
    a vector.  Euler's criterion by the norm:
    x^((q^n-1)/2) = N(x)^((q-1)/2), so x is a square iff N(x) =
    Res(p, x) is one in F_q.  That costs one Euclid, not a powmod."""
    if gen is None:
        if not x.ring.is_prime:
            raise NotAField("square test needs a prime modulus")
        gen, x = x.ring.modulus, x.rep.coeffs
    return gen.ctx.is_square(kernel.vresultant(gen.ctx, gen.coeffs, x))


def quadratic_is_irreducible(r: FqElement, s: ResidueElement) -> bool:
    """Whether X^2 - r*X + s has no root over the prime residue ring:
    vquadratic on the ring's modulus."""
    ring = s.ring
    if not ring.is_prime:
        raise NotAField("quadratic test needs a prime modulus")
    if r.ctx != ring.ctx:
        raise RingMismatch("linear coefficient from a different base field")
    return vquadratic(ring.modulus, r.val, s.rep.coeffs)[1]
