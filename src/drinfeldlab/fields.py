"""Exact arithmetic in F_q, q = p^m with p an odd prime and q >= 5.

Elements are encoded as integers in [0, q): the base-p digits of the encoded
value are the coefficients of the canonical representative, constant digit
first.  FieldCtx owns the encoded-integer primitives; FqElement is a thin
value wrapper around (ctx, encoded value).

Over a prime field the primitives are `% p` one-liners.  For m > 1 they
decode both operands to their digit vectors and run the `kernel` over
`kernel.Zp(p)` modulo the field's monic modulus, the same code that does
arithmetic in A/(f).  The square test reads the norm down to F_p, the
resultant of the modulus and the element's digits (`kernel.vresultant`);
a Frobenius map is built only to Rabin-test a modulus.
"""

from __future__ import annotations

import itertools

from . import kernel
from .errors import (
    ContextMismatch,
    DivisionByZero,
    FieldTooSmall,
    NotIrreducibleModulus,
    NotPrime,
)


_MODULUS_CACHE: dict[tuple[int, int], tuple[int, ...]] = {}


def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree m over Z/p.

    Smallest in lexicographic order on (c_{m-1}, ..., c_0), so the choice is
    reproducible without external data.
    """
    key = (p, m)
    if key not in _MODULUS_CACHE:
        zp = kernel.Zp(p)
        for tail in itertools.product(range(p), repeat=m):
            cand = [tail[m - 1 - i] for i in range(m)] + [1]
            if kernel.rabin(kernel.FrobeniusMap(zp, cand)):
                _MODULUS_CACHE[key] = tuple(cand)
                break
    return _MODULUS_CACHE[key]


class FieldCtx:
    """The field F_{p^m} with its modulus; owns encoded-int arithmetic.
    A given modulus is Rabin-tested over Z/p on a kernel.FrobeniusMap
    built for that test alone."""

    __slots__ = ("p", "m", "q", "modulus", "_dec", "_zp")

    def __init__(self, p: int, m: int = 1, modulus=None):
        if not isinstance(p, int) or kernel.prime_divisors(p) != [p]:
            raise NotPrime(f"p = {p!r} is not prime")
        if not isinstance(m, int) or m < 1:
            raise NotIrreducibleModulus(f"extension degree m = {m!r} invalid")
        if p == 2 or p ** m < 5:
            raise FieldTooSmall(f"q = {p}^{m} is not an odd prime power >= 5")
        self.p = p
        self.m = m
        self.q = p ** m
        self._zp = kernel.Zp(p)
        if modulus is not None:
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != m + 1 or mod[-1] != 1:
                raise NotIrreducibleModulus(
                    f"modulus must be monic of degree {m}")
            if m > 1 and not kernel.rabin(kernel.FrobeniusMap(self._zp, mod)):
                raise NotIrreducibleModulus(
                    f"modulus {mod} is reducible over F_{p}")
        self.modulus = (None if m == 1 else
                        _default_modulus(p, m) if modulus is None else mod)
        self._dec = None if m == 1 else [
            tuple((v // p ** i) % p for i in range(m)) for v in range(self.q)]

    # -- encoding --

    def encode(self, coeffs) -> int:
        p = self.p
        val = 0
        for i, c in enumerate(coeffs):
            val += (int(c) % p) * p ** i
        return val

    def decode(self, val: int) -> tuple:
        if self.m == 1:
            return (val,)
        return self._dec[val]

    # -- encoded-int primitives --

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        return self.encode(kernel.vadd(self._zp, self._dec[a], self._dec[b]))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        return self.encode(kernel.vsub(self._zp, (), self._dec[a]))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        return self.encode(kernel.vmulmod(self._zp, self._dec[a],
                                          self._dec[b], self.modulus))

    def pow(self, a: int, e: int) -> int:
        if self.m == 1:
            return pow(a, e, self.p) if e >= 0 else pow(self.inv(a), -e, self.p)
        if e < 0:
            a, e = self.inv(a), -e
        return self.encode(kernel.vpowmod(self._zp, self._dec[a], e,
                                          self.modulus))

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("division by zero in " + str(self))
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def is_square(self, a: int) -> bool:
        """Euler criterion a^((q-1)/2) = 1 for an encoded a; zero counts as
        a square.  Over F_{p^m} it reads N(a)^((p-1)/2) = 1, as
        a^((q-1)/(p-1)) is the norm N(a) down to F_p, the resultant of the
        modulus and a's digits over Z/p (kernel.vresultant): no powmod."""
        if a == 0:
            return True
        if self.m > 1:
            a = kernel.vresultant(self._zp, self.modulus, self._dec[a])
        return pow(a, (self.p - 1) // 2, self.p) == 1

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    # -- element constructors --

    def element(self, value) -> "FqElement":
        """Build an element from an int (constant, reduced mod p) or a
        coefficient sequence of length <= m."""
        if isinstance(value, FqElement):
            if value.ctx != self:
                raise ContextMismatch("element from a different field")
            return value
        if isinstance(value, int):
            return FqElement(self, value % self.p)
        coeffs = list(value)
        if len(coeffs) > self.m:
            raise ContextMismatch(
                f"coefficient vector longer than m = {self.m}")
        return FqElement(self, self.encode(coeffs))

    def from_encoded(self, val: int) -> "FqElement":
        return FqElement(self, val)

    def elements(self):
        """All q elements, constants first, ascending encoded order."""
        return [FqElement(self, v) for v in range(self.q)]

    # -- value semantics --

    def __eq__(self, other):
        return (isinstance(other, FieldCtx) and self.p == other.p
                and self.m == other.m and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"FieldCtx(F_{self.p})"
        return f"FieldCtx(F_{self.p}^{self.m}, modulus={self.modulus})"


class FqElement:
    """An element of F_q tied to its FieldCtx.  Immutable value type."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx: FieldCtx, val: int):
        self.ctx = ctx
        self.val = val

    @property
    def coeffs(self) -> tuple:
        """Canonical coefficient vector of length m over Z/p."""
        return self.ctx.decode(self.val)

    def _check(self, other) -> "FqElement":
        if not isinstance(other, FqElement):
            if isinstance(other, int):
                return self.ctx.element(other)
            raise TypeError(f"cannot combine FqElement with {type(other)}")
        if other.ctx != self.ctx:
            raise ContextMismatch("elements from different field contexts")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FqElement(self.ctx, self.ctx.add(self.val, other.val))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return FqElement(self.ctx, self.ctx.sub(self.val, other.val))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return FqElement(self.ctx, self.ctx.neg(self.val))

    def __mul__(self, other):
        other = self._check(other)
        return FqElement(self.ctx, self.ctx.mul(self.val, other.val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other.val == 0:
            raise DivisionByZero("division by zero")
        return FqElement(self.ctx, self.ctx.mul(self.val,
                                                self.ctx.inv(other.val)))

    def __pow__(self, e: int):
        return FqElement(self.ctx, self.ctx.pow(self.val, e))

    def inverse(self) -> "FqElement":
        return FqElement(self.ctx, self.ctx.inv(self.val))

    def is_zero(self) -> bool:
        return self.val == 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.val == other % self.ctx.p and (
                self.val < self.ctx.p)
        return (isinstance(other, FqElement) and self.ctx == other.ctx
                and self.val == other.val)

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.m, self.ctx.modulus, self.val))

    def __repr__(self):
        if self.ctx.m == 1:
            return str(self.val)
        return f"Fq({self.coeffs})"


def make_field(p: int, m: int = 1, modulus=None) -> FieldCtx:
    """Validated field context; deterministic built-in modulus when omitted."""
    return FieldCtx(p, m, modulus)


def is_square(x: FqElement) -> bool:
    """Euler criterion x^((q-1)/2) = 1; zero counts as a square
    (FieldCtx.is_square on the encoded value)."""
    return x.ctx.is_square(x.val)


def enumerate_elements(ctx: FieldCtx) -> list[FqElement]:
    """All q elements in the documented order: constants first, then by
    ascending canonical coefficient vector (most-significant digit last)."""
    return ctx.elements()
