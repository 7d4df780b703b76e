"""The twisted polynomial ring K{tau} with tau*c = c^q*tau.

Coefficients live in one of three rings: A = F_q[T], a residue ring A/(f),
or a finite field carrying a designated twist subfield.  Products follow
(a*tau^i)(b*tau^j) = a*b^(q^i)*tau^(i+j) extended bilinearly.  Coefficients
are added, multiplied and tested for zero by their own operators; a ring
adapter supplies only what differs between the rings: the twist, coercion,
zero and one, and the F_q-coordinate vectors for linear solving.
"""

from __future__ import annotations

from .errors import ContextMismatch, NoSolution, RingMismatch
from .fields import FieldCtx, FqElement
from .kernel import power, vechelon
from .polys import Poly
from .residues import ResidueElement, ResidueRing


class PolyCoefficients:
    """Coefficient ring A = F_q[T]; twisting spreads exponents, since the
    base-field coefficients are Frobenius-fixed."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx

    @property
    def q(self) -> int:
        return self.ctx.q

    @property
    def zero(self) -> Poly:
        return Poly.zero(self.ctx)

    @property
    def one(self) -> Poly:
        return Poly.one(self.ctx)

    def coerce(self, value) -> Poly:
        if isinstance(value, Poly):
            if value.ctx != self.ctx:
                raise RingMismatch("polynomial over a different field")
            return value
        if isinstance(value, (int, FqElement)):
            return Poly.constant(self.ctx, value)
        raise TypeError(f"cannot coerce {type(value)} into A")

    def twist(self, a: Poly, k: int) -> Poly:
        if k == 0 or a.is_zero():
            return a
        step = self.q ** k
        out = [0] * ((len(a.coeffs) - 1) * step + 1)
        for j, c in enumerate(a.coeffs):
            out[j * step] = c
        return Poly(self.ctx, out)

    def vector(self, a: Poly, width: int):
        cs = a.coeffs
        return [cs[i] if i < len(cs) else 0 for i in range(width)]

    def vector_width(self, a: Poly) -> int:
        return len(a.coeffs)

    def scalar_ctx(self) -> FieldCtx:
        return self.ctx

    def __eq__(self, other):
        return isinstance(other, PolyCoefficients) and self.ctx == other.ctx

    def __hash__(self):
        return hash(("coeff-poly", self.ctx))

    def __repr__(self):
        return f"A over {self.ctx!r}"


class ResidueCoefficients:
    """Coefficient ring A/(f)."""

    __slots__ = ("ring",)

    def __init__(self, ring: ResidueRing):
        self.ring = ring

    @property
    def q(self) -> int:
        return self.ring.ctx.q

    @property
    def zero(self) -> ResidueElement:
        return self.ring.zero

    @property
    def one(self) -> ResidueElement:
        return self.ring.one

    def coerce(self, value) -> ResidueElement:
        return self.ring.element(value)

    def twist(self, a: ResidueElement, k: int) -> ResidueElement:
        if k == 0 or a.is_zero():
            return a
        return a.frobenius(k)

    def vector(self, a: ResidueElement, width: int):
        cs = a.rep.coeffs
        return [cs[i] if i < len(cs) else 0 for i in range(width)]

    def vector_width(self, a: ResidueElement) -> int:
        return self.ring.degree

    def scalar_ctx(self) -> FieldCtx:
        return self.ring.ctx

    def __eq__(self, other):
        return isinstance(other, ResidueCoefficients) and self.ring == other.ring

    def __hash__(self):
        return hash(("coeff-residue", self.ring))

    def __repr__(self):
        return f"{self.ring!r} coefficients"


class FieldCoefficients:
    """Coefficient field F_{p^m} twisted over a designated subfield F_q.

    twist_q defaults to the full field order (trivial twist); passing a
    proper subfield order makes tau the relative Frobenius, e.g. F_25{tau}
    over q = 5.
    """

    __slots__ = ("ctx", "twist_q")

    def __init__(self, ctx: FieldCtx, twist_q: int | None = None):
        self.ctx = ctx
        if twist_q is None:
            twist_q = ctx.q
        s = 0
        t = twist_q
        while t % ctx.p == 0 and t > 1:
            t //= ctx.p
            s += 1
        if t != 1 or s == 0 or ctx.m % s != 0:
            raise ContextMismatch(
                f"twist order {twist_q} is not a subfield order of F_{ctx.p}^{ctx.m}")
        self.twist_q = twist_q

    @property
    def q(self) -> int:
        return self.twist_q

    @property
    def zero(self) -> FqElement:
        return FqElement(self.ctx, 0)

    @property
    def one(self) -> FqElement:
        return FqElement(self.ctx, 1)

    def coerce(self, value) -> FqElement:
        return self.ctx.element(value)

    def twist(self, a: FqElement, k: int) -> FqElement:
        if k == 0 or a.val == 0:
            return a
        return a ** (self.twist_q ** k)

    def vector(self, a: FqElement, width: int):
        return [a.val]

    def vector_width(self, a: FqElement) -> int:
        return 1

    def scalar_ctx(self) -> FieldCtx:
        if self.twist_q != self.ctx.q:
            raise RingMismatch(
                "F_q-linear solving needs the twist field to be the whole "
                "coefficient field")
        return self.ctx

    def __eq__(self, other):
        return (isinstance(other, FieldCoefficients) and self.ctx == other.ctx
                and self.twist_q == other.twist_q)

    def __hash__(self):
        return hash(("coeff-field", self.ctx, self.twist_q))

    def __repr__(self):
        return f"{self.ctx!r} with twist q={self.twist_q}"


class SkewPoly:
    """Twisted polynomial sum c_i tau^i over a coefficient ring adapter."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def from_list(cls, ring, values) -> "SkewPoly":
        return cls(ring, [ring.coerce(v) for v in values])

    @classmethod
    def zero(cls, ring) -> "SkewPoly":
        return cls(ring, ())

    @classmethod
    def one(cls, ring) -> "SkewPoly":
        return cls(ring, (ring.one,))

    @classmethod
    def constant(cls, ring, value) -> "SkewPoly":
        return cls(ring, (ring.coerce(value),))

    @classmethod
    def tau(cls, ring, k: int = 1) -> "SkewPoly":
        return cls(ring, [ring.zero] * k + [ring.one])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def deg_tau(self):
        return len(self.coeffs) - 1 if self.coeffs else None

    def coefficient(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ring.zero

    def _same(self, other) -> "SkewPoly":
        if not isinstance(other, SkewPoly):
            raise TypeError(f"cannot combine SkewPoly with {type(other)}")
        if other.ring != self.ring:
            raise RingMismatch("skew polynomials over different rings")
        return other

    def __add__(self, other):
        other = self._same(other)
        ring = self.ring
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return SkewPoly(ring, out)

    def __neg__(self):
        return SkewPoly(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._same(other))

    def __mul__(self, other):
        return skew_mul(self, other)

    def __pow__(self, e: int) -> "SkewPoly":
        return power(self, e, skew_mul, SkewPoly.one(self.ring))

    def scale(self, value) -> "SkewPoly":
        """Left-multiply by a coefficient (no twisting)."""
        c = self.ring.coerce(value)
        return SkewPoly(self.ring, [c * x for x in self.coeffs])

    def __eq__(self, other):
        return (isinstance(other, SkewPoly) and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "SkewPoly(0)"
        parts = [f"({c!r})t^{i}" for i, c in enumerate(self.coeffs)]
        return "SkewPoly(" + " + ".join(parts) + ")"


def skew_mul(f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Product under (a*tau^i)(b*tau^j) = a*b^(q^i)*tau^(i+j)."""
    g = f._same(g)
    ring = f.ring
    if f.is_zero() or g.is_zero():
        return SkewPoly.zero(ring)
    out = [ring.zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    twisted = g.coeffs  # g's coefficients raised to q^i, one step per i
    for i, a in enumerate(f.coeffs):
        if i:
            twisted = [ring.twist(b, 1) for b in twisted]
        if a.is_zero():
            continue
        for j, b in enumerate(twisted):
            if not b.is_zero():
                out[i + j] += a * b
    return SkewPoly(ring, out)


def linear_solve_left(target: SkewPoly, basis) -> tuple:
    """Coefficients over F_q expressing target in the F_q-span of basis.

    Equates tau-coefficients and unfolds each into its F_q-coordinate
    equations, one kernel vector each: -t at index 0 and unknown j at index
    n - j, so kernel.vechelon pivots on the earliest basis element first.
    Back-substitution runs up the leads with free unknowns at zero; a row
    led at index 0 is an inconsistent equation.  Raises NoSolution if
    target is outside the span.
    """
    basis = list(basis)
    if not basis:
        raise NoSolution("empty basis")
    ring = target.ring
    for b in basis:
        if b.ring != ring:
            raise RingMismatch("basis and target over different rings")
    ctx = ring.scalar_ctx()
    n = len(basis)
    tau_width = max([len(target.coeffs)] + [len(b.coeffs) for b in basis])
    elem_width = max(
        [1]
        + [ring.vector_width(c) for b in basis for c in b.coeffs]
        + [ring.vector_width(c) for c in target.coeffs])
    neg_target = -target
    equations = []
    for i in range(tau_width):
        tvec = ring.vector(neg_target.coefficient(i), elem_width)
        bvecs = [ring.vector(b.coefficient(i), elem_width) for b in basis]
        for component in range(elem_width):
            equations.append([tvec[component]]
                             + [bv[component] for bv in reversed(bvecs)])
    rows = vechelon(ctx, equations, n + 1)
    if 0 in rows:
        raise NoSolution("target is outside the span of the basis")
    y = [1] + [0] * n  # y[n - j] is unknown j
    for lead in sorted(rows):
        acc = 0
        for c, x in zip(rows[lead][:lead], y):
            acc = ctx.add(acc, ctx.mul(c, x))
        y[lead] = ctx.neg(acc)
    sol = y[:0:-1]
    # reconstruct to guard against free variables silently zeroed
    recon = SkewPoly.zero(ring)
    for c, b in zip(sol, basis):
        recon = recon + b.scale(c)
    if recon != target:
        raise NoSolution("target is outside the span of the basis")
    return tuple(FqElement(ctx, v) for v in sol)
