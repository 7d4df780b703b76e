"""Arithmetic and number theory in A = F_q[T].

Polynomials are dense tuples of encoded field values, ascending degree, no
trailing zeros.  The zero polynomial has degree NEG_INF (a sentinel, never a
number); valuation of the zero polynomial is POS_INF.

Every coefficient loop of the ring arithmetic (sums, products, division, gcd,
powmod, the Rabin test) runs in `kernel`, over prime and extension fields
alike.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import random
import re

from .errors import (
    ContextMismatch,
    DegreeCapExceeded,
    DegreeZeroInput,
    EnumerationCapExceeded,
    NotIrreducibleModulus,
    ParamsOutOfRange,
    ZeroPolynomial,
)
from . import kernel
from .fields import FieldCtx, FqElement


@functools.total_ordering
class _Infinity:
    """A signed infinity: NEG_INF, the degree of the zero polynomial, orders
    below every integer and POS_INF, its valuation, above.  Each is a
    module-level singleton, and copies and unpickled values are it again."""

    __slots__ = ("sign", "name")

    def __init__(self, sign: int, name: str):
        self.sign, self.name = sign, name

    def __lt__(self, other):
        if isinstance(other, _Infinity):
            return self.sign < other.sign
        return self.sign < 0

    def __repr__(self):
        return self.name

    def __reduce__(self):
        return self.name


NEG_INF = _Infinity(-1, "NEG_INF")
POS_INF = _Infinity(1, "POS_INF")

DEFAULT_ENUMERATION_CAP = 10_000_000
# The largest prime degree the commands omega, lambda, frob, thm1-verify,
# thm1-search, thm2, newton and obstruction accept, checked before any work:
# frob_general takes about 0.1 s at degree 64 for q = 5 and 0.17 s for
# q = 127 (min of 15, in-process, bench/layers.py, 2 vCPUs).
PRIME_DEG_CAP = 64
# The most samples (or certificates held in full) one call takes.
SAMPLE_CAP = 10_000
DEFAULT_FACTOR_DEGREE_CAP = 512
# parse_poly builds a dense coefficient list, so T^k costs memory linear in k.
PARSE_DEGREE_CAP = DEFAULT_FACTOR_DEGREE_CAP

_FACTOR_SEED = 20240801  # fixed stream: reproducible factorizations


class Poly:
    """Element of A = F_q[T]."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        self.ctx = ctx
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors --

    @classmethod
    def from_coeffs(cls, ctx: FieldCtx, coeffs) -> "Poly":
        enc = []
        for c in coeffs:
            if isinstance(c, FqElement):
                if c.ctx != ctx:
                    raise ContextMismatch("coefficient from a different field")
                enc.append(c.val)
            else:
                enc.append(int(c) % ctx.p)
        return cls(ctx, enc)

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (1,))

    @classmethod
    def T(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (0, 1))

    @classmethod
    def constant(cls, ctx: FieldCtx, c) -> "Poly":
        if isinstance(c, FqElement):
            if c.ctx != ctx:
                raise ContextMismatch("constant from a different field")
            return cls(ctx, (c.val,))
        return cls(ctx, (int(c) % ctx.p,))

    # -- basic queries --

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def lead(self) -> FqElement:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return FqElement(self.ctx, self.coeffs[-1])

    def coefficient(self, i: int) -> FqElement:
        v = self.coeffs[i] if 0 <= i < len(self.coeffs) else 0
        return FqElement(self.ctx, v)

    def _same(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ctx != self.ctx:
                raise ContextMismatch("polynomials over different fields")
            return other
        if isinstance(other, (FqElement, int)):
            return Poly.constant(self.ctx, other)
        raise TypeError(f"cannot combine Poly with {type(other)}")

    # -- ring operations --

    def __add__(self, other):
        other = self._same(other)
        return Poly(self.ctx, kernel.vadd(self.ctx, self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ctx, kernel.vsub(self.ctx, (), self.coeffs))

    def __sub__(self, other):
        other = self._same(other)
        return Poly(self.ctx, kernel.vsub(self.ctx, self.coeffs, other.coeffs))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._same(other)
        return Poly(self.ctx, kernel.vmul(self.ctx, self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        return kernel.power(self, e, operator.mul, Poly.one(self.ctx))

    def __divmod__(self, other):
        other = self._same(other)
        quo, rem = kernel.vdivmod(self.ctx, self.coeffs, other.coeffs)
        return Poly(self.ctx, quo), Poly(self.ctx, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return Poly(self.ctx, kernel.vmonic(self.ctx, self.coeffs))

    def derivative(self) -> "Poly":
        ctx = self.ctx
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(ctx.mul(i % ctx.p, self.coeffs[i]))
        return Poly(ctx, out)

    def __call__(self, c):
        return eval_at(self, c)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ctx == other.ctx and self.coeffs == other.coeffs
        if isinstance(other, (int, FqElement)):
            return self == Poly.constant(self.ctx, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __repr__(self):
        if self.ctx.m == 1:
            return poly_to_text(self)
        return f"Poly({self.coeffs})"


class PrimeIdeal:
    """Non-zero prime of A: a monic irreducible generator plus its degree.
    An untrusted generator keeps, as `frob`, the kernel.FrobeniusMap of
    A/(gen) its Rabin test ran on (a trusted one has None), for the
    residue ring to adopt."""

    __slots__ = ("gen", "degree", "frob")

    def __init__(self, gen: Poly, _trusted: bool = False):
        if not gen.is_monic():
            raise NotIrreducibleModulus("prime generator must be monic")
        self.frob = None
        if not _trusted:
            self.frob = kernel.FrobeniusMap(gen.ctx, gen.coeffs)
            if not is_irreducible(gen, self.frob):
                raise NotIrreducibleModulus(f"{gen!r} is not irreducible")
        self.gen = gen
        self.degree = len(gen.coeffs) - 1

    @property
    def ctx(self) -> FieldCtx:
        return self.gen.ctx

    def __eq__(self, other):
        return isinstance(other, PrimeIdeal) and self.gen == other.gen

    def __hash__(self):
        return hash(("prime", self.gen))

    def __repr__(self):
        return f"({self.gen!r})"


# -- ring and number-theory operations --


def eval_at(f: Poly, c) -> FqElement:
    """f(c) by Horner; equals the remainder of f mod (T - c)."""
    ctx = f.ctx
    if isinstance(c, FqElement):
        if c.ctx != ctx:
            raise ContextMismatch("evaluation point from a different field")
        cv = c.val
    else:
        cv = int(c) % ctx.p
    return FqElement(ctx, kernel.veval(ctx, f.coeffs, cv))


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd (zero if both inputs are zero)."""
    if f.ctx != g.ctx:
        raise ContextMismatch("gcd over different fields")
    return Poly(f.ctx, kernel.vgcd(f.ctx, f.coeffs, g.coeffs))


def powmod(f: Poly, e: int, mod: Poly) -> Poly:
    """f^e mod `mod` by square-and-multiply."""
    if f.ctx != mod.ctx:
        raise ContextMismatch("powmod over different fields")
    return Poly(f.ctx, kernel.vpowmod(f.ctx, f.coeffs, e, mod.coeffs))


def is_irreducible(f: Poly, frob=None) -> bool:
    """Rabin's test, gcd conditions against T^(q^i) - T, on `frob`, the
    kernel.FrobeniusMap of A/(f) for a monic f, or on a map built here for
    f's monic associate."""
    if len(f.coeffs) < 2:
        raise DegreeZeroInput("irreducibility needs degree >= 1")
    if frob is None:
        frob = kernel.FrobeniusMap(f.ctx, kernel.vmonic(f.ctx, f.coeffs))
    return kernel.rabin(frob)


def poly_from_index(ctx: FieldCtx, idx: int) -> Poly:
    """The polynomial whose coefficients are the base-q digits of idx,
    constant digit first."""
    return Poly(ctx, kernel.vdigits(idx, ctx.q))


def check_enumeration_cap(ctx: FieldCtx, degree: int,
                          cap: int = DEFAULT_ENUMERATION_CAP, least: int = 0):
    """Raise EnumerationCapExceeded if degree has more than cap monic
    candidates, DegreeZeroInput if it is below least (1 for the prime
    scans), ParamsOutOfRange if it is negative; a scan over degrees 1..d
    checks d before any work."""
    if degree < least:
        raise DegreeZeroInput(f"degree must be >= {least}")
    if degree < 0:
        raise ParamsOutOfRange(f"degree bound {degree} is negative")
    # the largest d with q^d <= cap, multiplied up: never q ** degree
    top, count = -1, 1
    while count <= cap:
        top, count = top + 1, count * ctx.q
    if degree > top:
        raise EnumerationCapExceeded(
            f"{ctx.q}^{degree} candidates exceed cap {cap}")


def check_prime_degree(f: Poly) -> None:
    """Reject a prime generator of degree above PRIME_DEG_CAP."""
    if len(f.coeffs) - 1 > PRIME_DEG_CAP:
        raise ParamsOutOfRange(
            f"prime degree must be at most {PRIME_DEG_CAP}")


def check_samples(count: int, what: str = "samples") -> None:
    """Reject a count of samples (or of what else is held in full, such as
    certificates) outside 0..SAMPLE_CAP."""
    if not 0 <= count <= SAMPLE_CAP:
        raise ParamsOutOfRange(f"{what} must be in 0..{SAMPLE_CAP}")


def enumerate_monic_irreducibles(ctx: FieldCtx, degree: int,
                                 cap: int = DEFAULT_ENUMERATION_CAP):
    """All monic irreducibles of exactly the given degree, in lexicographic
    coefficient order (the leading side most significant), by the index
    sieve of `irreducible_indices`."""
    indices = irreducible_indices(ctx, degree, cap)
    top = ctx.q ** degree
    return [PrimeIdeal(poly_from_index(ctx, top + idx), _trusted=True)
            for idx in indices]


def irreducible_indices(ctx: FieldCtx, degree: int,
                        cap: int = DEFAULT_ENUMERATION_CAP):
    """An iterator over the base-q indices, the leading 1 left out, of the
    monic irreducibles of exactly the given degree, ascending.  The degree
    and the cap are checked here, before any work; the sieve runs when the
    iterator is first read."""
    check_enumeration_cap(ctx, degree, cap, least=1)
    return _sieve(ctx, degree)


_UNMARKED = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _sieve(ctx: FieldCtx, n: int):
    """Yield the indices of the monic irreducibles of degree n.

    The monic multiples of a monic prime g of degree d <= n/2 form one
    affine family.  The high digits U = (f_d, .., f_(n-1)) of a multiple
    fix its low ones, -(T^n + sum_j U_j T^(d+j)) mod g, so the block of
    q^d indices at U holds one multiple, at U q^d + low(U).  Each low
    digit is built for all U at once, as a column in U's order: digit U_j
    concatenates copies of the column shifted by each multiple of the
    same digit of -T^(d+j) mod g (`kernel._times_t`), one F_p-digit of
    U_j at a time.  A column is `bytes`, shifted by translate tables,
    where q < 256.  No polynomial product is formed."""
    q, p, add = ctx.q, ctx.p, ctx.add
    total = q ** n
    composite = bytearray(total)
    small = q < 256
    table = functools.lru_cache(maxsize=None)(  # x -> x + a, to translate
        lambda a: bytes(add(x, a) for x in range(q)).ljust(256, b"\0"))
    for d in range(1, n // 2 + 1):
        span = q ** d
        for g_idx in _sieve(ctx, d):
            g = kernel.vdigits(span + g_idx, q)
            rows = [g[:d]]  # rows[j] = -T^(d+j) mod g
            for _ in range(n - d):
                rows.append(kernel._times_t(ctx, rows[-1], g))
            low = None  # low(U) by Horner on its digits, the top one first
            for k in range(d - 1, -1, -1):
                *steps, c0 = [row[k] if k < len(row) else 0 for row in rows]
                col = bytes([c0]) if small else [c0]
                # U_j = sum_t c_t x^t by its F_p-digits c_t, lowest first:
                # col + c_t a for c_t = 0 .. p - 1, a = x^t s
                for a in (ctx.mul(p ** t, s) for s in steps
                          for t in range(ctx.m)):
                    shifts = [0]
                    for _ in range(p - 1):
                        shifts.append(add(shifts[-1], a))
                    col = (b"".join([col.translate(table(b)) for b in shifts])
                           if small else [add(x, b) for b in shifts
                                          for x in col])
                low = col if low is None else map(
                    operator.add, map(operator.mul, low, itertools.repeat(q)),
                    col)
            for idx in map(operator.add, range(0, total, span), low):
                composite[idx] = 1
    yield from itertools.compress(range(total),
                                  composite.translate(_UNMARKED))


def valuation(f: Poly, lam: PrimeIdeal):
    """Largest k with lam^k | f; POS_INF for the zero polynomial."""
    if f.ctx != lam.gen.ctx:
        raise ContextMismatch("valuation over different fields")
    if f.is_zero():
        return POS_INF
    return kernel.vvaluation(f.ctx, f.coeffs, lam.gen.coeffs)


def factor(f: Poly):
    """Complete factorization into monic irreducibles.

    Returns a list of (PrimeIdeal, multiplicity) sorted by (degree, coeffs);
    the unit is the leading coefficient of f.  Equal-degree splitting draws
    from a fixed seeded stream, so output is reproducible.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if len(f.coeffs) - 1 > DEFAULT_FACTOR_DEGREE_CAP:
        raise DegreeCapExceeded(f"degree {len(f.coeffs) - 1} exceeds cap "
                                f"{DEFAULT_FACTOR_DEGREE_CAP}")
    rng = random.Random(_FACTOR_SEED)
    found: dict[tuple, int] = {}
    _factor_monic(f.monic(), 1, found, rng)
    ctx = f.ctx
    items = sorted(found.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return [(PrimeIdeal(Poly(ctx, cs), _trusted=True), e) for cs, e in items]


def _factor_monic(f: Poly, outer_mult: int, found: dict, rng) -> None:
    ctx = f.ctx
    if len(f.coeffs) - 1 == 0:
        return
    deriv = f.derivative()
    if deriv.is_zero():
        # f = g(T^p) with p-th-power coefficients; c -> c^(p^(m-1)) is the
        # p-th root in F_{p^m}
        p = ctx.p
        e_root = p ** (ctx.m - 1)
        root_coeffs = [ctx.pow(c, e_root) for c in f.coeffs[::p]]
        _factor_monic(Poly(ctx, root_coeffs), outer_mult * p, found, rng)
        return
    w = gcd(f, deriv)
    squarefree = f // w
    for h in _squarefree_factors(squarefree, rng):
        mult = 0
        cur = f
        while True:
            qt, r = divmod(cur, h)
            if not r.is_zero():
                break
            mult += 1
            cur = qt
        found[h.coeffs] = found.get(h.coeffs, 0) + outer_mult * mult
        # remove fully so the residual is a pure p-th power
        f = cur
    if len(f.coeffs) - 1 > 0:
        _factor_monic(f, outer_mult, found, rng)


def _squarefree_factors(g: Poly, rng):
    """Distinct-degree then equal-degree splitting of a squarefree monic g."""
    ctx = g.ctx
    q = ctx.q
    out = []
    x = Poly.T(ctx)
    h = x
    d = 0
    while len(g.coeffs) - 1 >= 1:
        d += 1
        if 2 * d > len(g.coeffs) - 1:
            out.append(g)
            break
        h = powmod(h, q, g)
        gd = gcd(h - x, g)
        if gd.degree >= 1:
            out.extend(_equal_degree_split(gd, d, rng))
            g = g // gd
            h = h % g
    return out


def _equal_degree_split(g: Poly, d: int, rng):
    """Cantor-Zassenhaus for odd q: g is a product of degree-d irreducibles."""
    ctx = g.ctx
    n = len(g.coeffs) - 1
    if n == d:
        return [g]
    exp = (ctx.q ** d - 1) // 2
    while True:
        r = Poly(ctx, [rng.randrange(ctx.q) for _ in range(n)])
        if r.is_zero():
            continue
        s = powmod(r, exp, g)
        t = gcd(s - Poly.one(ctx), g)
        if 1 <= t.degree < n:
            left = _equal_degree_split(t, d, rng)
            right = _equal_degree_split(g // t, d, rng)
            return left + right


# -- text grammar (prime fields only) --

# one term: a sign, then c*T^k, c*T, T^k, T or c; the text is cut before
# each sign.  `$` also matches before a piece's trailing newline, so a
# piece such as "T\n" reads as T.
_TERM_RE = re.compile(r"([+-]?)(?:(?:(\d+)\*)?T(?:\^(\d+))?|(\d+))$")
_PIECE_RE = re.compile(r"[+-]?[^+-]*")


def parse_poly(ctx: FieldCtx, text: str) -> Poly:
    """Parse `term ('+' term)*` with terms c, c*T, c*T^k, T, T^k.

    Coefficients run over 0..p-1; a leading `-` on a term is accepted as an
    input convenience and negates it mod p (canonical output never uses it).
    Exponents above PARSE_DEGREE_CAP raise DegreeCapExceeded.
    """
    if ctx.m != 1:
        raise ContextMismatch("text grammar is defined for prime fields only")
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty polynomial text")
    acc: dict[int, int] = {}
    for raw in filter(None, _PIECE_RE.findall(text)):
        m = _TERM_RE.match(raw)
        if not m:
            raise ValueError(f"bad polynomial term {raw!r}")
        sign, c, k, const = m.groups()
        c, k = (int(c or 1), int(k or 1)) if const is None else (int(const), 0)
        if k > PARSE_DEGREE_CAP:
            raise DegreeCapExceeded(
                f"exponent {k} exceeds cap {PARSE_DEGREE_CAP}")
        if c >= ctx.p:
            raise ValueError(
                f"coefficient {c} out of range 0..{ctx.p - 1}")
        acc[k] = (acc.get(k, 0) + (-c if sign == "-" else c)) % ctx.p
    deg = max(acc) if acc else 0
    return Poly(ctx, [acc.get(i, 0) for i in range(deg + 1)])


def coeffs_to_text(ctx: FieldCtx, coeffs) -> str:
    """Canonical text of a trimmed coefficient vector over a prime field,
    ascending degree in, descending out: `T^2+4*T+3`, `0` for zero."""
    if ctx.m != 1:
        raise ContextMismatch("text grammar is defined for prime fields only")
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("T" if c == 1 else f"{c}*T")
        else:
            parts.append(f"T^{i}" if c == 1 else f"{c}*T^{i}")
    return "+".join(parts)


def index_texts(ctx: FieldCtx, degree: int, indices):
    """Yield (idx, text) for base-q indices of monic polynomials of the
    given degree, the leading 1 left out, as `irreducible_indices` yields
    them.  The text of the low floor(degree/2) digits is read from a table
    of q^floor(degree/2) entries, at most the square root of the
    enumeration cap; the text of the high ones, T^degree included, is
    formed only when they change, so once per block of ascending indices."""
    q, half = ctx.q, degree // 2
    span, lead = q ** half, q ** (degree - half)
    low = [""] + ["+" + coeffs_to_text(ctx, kernel.vdigits(lo, q))
                  for lo in range(1, span)]
    pad = [0] * half
    last = high = None
    for idx in indices:
        top, lo = divmod(idx, span)
        if top != last:
            last = top
            high = coeffs_to_text(ctx, pad + kernel.vdigits(lead + top, q))
        yield idx, high + low[lo]


# One encoder for every record a certificate or a command prints:
# json.dumps with non-default separators builds a new encoder per call.
# Every record is a fresh tree, so no cycle check runs: a cyclic record
# raises RecursionError inside `encode`, before any of it is written.
COMPACT_JSON = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def poly_to_text(f: Poly) -> str:
    """Canonical text: descending degree, e.g. `T^2+4*T+3`."""
    return coeffs_to_text(f.ctx, f.coeffs)
