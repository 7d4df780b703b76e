"""Box counts for the congruence family behind the positive-density result.

W(X) is the height-bounded coefficient box; S(X) the sub-family cut out by
the two congruences fixing the behaviour at (T - c_1) and (T - c_2).  All
ratios are exact rationals; formula mode evaluates closed forms, brute mode
enumerates coefficient tuples and filters them by `kernel.vmod`.
"""

from __future__ import annotations

import collections
import itertools

from . import kernel
from .errors import BruteCapExceeded, ParamsOutOfRange
from .fields import FieldCtx, FqElement
from .polys import Poly

DEFAULT_BRUTE_CAP = 1_000_000
X_CAP = 100
# Counts are written as decimal text, and Python refuses to convert an int
# of more than 4,300 digits (about 14,284 bits).
COUNT_BITS_CAP = 14_000


def check_box_size(X: int) -> None:
    """Reject a box size X outside 1..X_CAP."""
    if not 1 <= X <= X_CAP:
        raise ParamsOutOfRange(f"X must be in 1..{X_CAP}")


def check_weights(q: int, d1: int, d2: int, X: int) -> None:
    """Reject height weights that are not positive, or whose box counts
    could pass COUNT_BITS_CAP bits: every count is below
    q^((d1 + d2) X) < 2^((d1 + d2) X bits(q))."""
    if d1 < 1 or d2 < 1:
        raise ParamsOutOfRange("height weights must be positive")
    if (d1 + d2) * X * q.bit_length() > COUNT_BITS_CAP:
        raise ParamsOutOfRange(
            f"(d1 + d2) * X * bits(q) must be at most {COUNT_BITS_CAP}")


class CensusParams:
    """Height weights (d1, d2), box size X and the congruence data for S."""

    __slots__ = ("ctx", "d1", "d2", "X", "c1", "c2", "b1", "b2")

    def __init__(self, ctx: FieldCtx, d1: int, d2: int, X: int,
                 c1: FqElement | None = None, c2: FqElement | None = None,
                 b1: Poly | None = None, b2: Poly | None = None):
        check_box_size(X)
        check_weights(ctx.q, d1, d2, X)
        self.ctx = ctx
        self.d1 = d1
        self.d2 = d2
        self.X = X
        if c1 is not None or c2 is not None or b1 is not None or b2 is not None:
            if c1 is None or c2 is None or b1 is None or b2 is None:
                raise ParamsOutOfRange(
                    "congruence data needs all of c1, c2, b1, b2")
            if c1 == c2:
                raise ParamsOutOfRange("c1 and c2 must differ")
            _validate_class(ctx, c1, c2, b1, b2)
        self.c1 = c1
        self.c2 = c2
        self.b1 = b1
        self.b2 = b2

    def with_X(self, X: int) -> "CensusParams":
        return CensusParams(self.ctx, self.d1, self.d2, X, self.c1, self.c2,
                            self.b1, self.b2)


def _validate_class(ctx, c1, c2, b1, b2):
    c1, c2, b1, b2 = c1.val, c2.val, b1.coeffs, b2.coeffs
    if not (len(b1) < 3 and len(b2) < 4):
        raise ParamsOutOfRange("class representatives must have deg b1 < 2, "
                               "deg b2 < 3")
    if kernel.veval(ctx, b1, c1) or not kernel.veval(ctx, b1, c2):
        raise ParamsOutOfRange(
            "b1 must be divisible by T-c1 and coprime to T-c2")
    quo, rem = kernel.vdivmod(ctx, b2, (ctx.neg(c2), 1))
    if (rem or not kernel.veval(ctx, quo, c2)
            or not kernel.veval(ctx, b2, c1)):
        raise ParamsOutOfRange(
            "b2 must be exactly divisible by T-c2 and coprime to T-c1")


def class_vectors(ctx: FieldCtx, c1: int, c2: int):
    """The admitted b1 and b2 for encoded c1 != c2 as coefficient vectors,
    each lazily in lexicographic order: b1 = v (T - c1) for a unit v, and
    b2 = e (T - c2) for deg e < 2 with e(c1) e(c2) != 0.  The valid pairs
    are their product."""
    if c1 == c2:
        raise ParamsOutOfRange("c1 and c2 must differ")
    l1, l2 = (ctx.neg(c1), 1), (ctx.neg(c2), 1)
    b1s = (kernel.vmul(ctx, l1, (v,)) for v in range(1, ctx.q))
    b2s = (kernel.vmul(ctx, l2, e) for e in kernel.vectors_below(ctx.q, 2)
           if kernel.veval(ctx, e, c1) and kernel.veval(ctx, e, c2))
    return b1s, b2s


def default_congruence_class(ctx: FieldCtx, c1: FqElement, c2: FqElement):
    """The lexicographically first valid (b1, b2) pair, without listing
    the others."""
    b1s, b2s = class_vectors(ctx, c1.val, c2.val)
    return Poly(ctx, next(b1s)), Poly(ctx, next(b2s))


def count_W(params: CensusParams, mode: str = "formula",
            cap: int = DEFAULT_BRUTE_CAP) -> int:
    """#W(X) = q^(d1 X) (q^(d2 X) - 1): pairs with g2 nonzero in the box."""
    q = params.ctx.q
    n1, n2 = params.d1 * params.X, params.d2 * params.X
    if mode == "formula":
        return q ** n1 * (q ** n2 - 1)
    if mode != "brute":
        raise ValueError(f"unknown mode {mode!r}")
    if q ** n1 * q ** n2 > cap:
        raise BruteCapExceeded(f"{q}^{n1 + n2} pairs exceed cap {cap}")
    # every g1 pairs with the same g2 box: count it once
    return q ** n1 * sum(1 for g2 in kernel.vectors_below(q, n2) if g2)


def count_S(params: CensusParams, mode: str = "formula",
            all_classes: bool = False,
            g2_deg_bound: int | None = None) -> int:
    """#S(X) = q^(d1 X + d2 X/(q-1) - 5) for one congruence class.

    Formula mode needs both degree floors integral and >= 3 (the proof's
    range).  Brute mode reduces each box once and counts the residues;
    g2_deg_bound overrides the g2 box when the slot-degree reading is wanted.
    all_classes sums over every valid (b1, b2) pair.
    """
    if params.b1 is None:
        raise ParamsOutOfRange("count_S needs congruence data")
    ctx = params.ctx
    q = ctx.q
    n1 = params.d1 * params.X
    # the proof's displayed bound: deg(g2) < d2 X / (q-1)
    n2, rem = divmod(params.d2 * params.X, q - 1)
    if mode == "formula":
        if n1 < 3 or n2 < 3 or rem:
            raise ParamsOutOfRange(
                "formula mode needs d1 X and d2 X/(q-1) integral and >= 3")
        per_class = q ** (n1 - 2) * q ** (n2 - 3)
        # (q - 1)^3 classes: q - 1 units v, and (e(c1), e(c2)) both units
        return per_class * (q - 1) ** 3 if all_classes else per_class
    if mode != "brute":
        raise ValueError(f"unknown mode {mode!r}")
    if g2_deg_bound is None:
        # coefficient slots for deg(g2) strictly below the rational bound
        n2 += 1 if rem else 0
    else:
        if g2_deg_bound < 0:
            raise ParamsOutOfRange("g2_deg_bound must be >= 0")
        n2 = g2_deg_bound
    if q ** n1 * q ** n2 > DEFAULT_BRUTE_CAP:
        raise BruteCapExceeded(
            f"{q}^{n1 + n2} pairs exceed cap {DEFAULT_BRUTE_CAP}")
    l1, l2 = (ctx.neg(params.c1.val), 1), (ctx.neg(params.c2.val), 1)
    m1 = kernel.vmul(ctx, l1, l2)
    m2 = kernel.vmul(ctx, m1, l2)
    classes = ([(params.b1.coeffs, params.b2.coeffs)] if not all_classes
               else itertools.product(*class_vectors(
                   ctx, params.c1.val, params.c2.val)))
    # each box is reduced once; a class reads its two residues' counts
    g1_counts = collections.Counter(
        tuple(kernel.vmod(ctx, g1, m1)) for g1 in kernel.vectors_below(q, n1))
    g2_counts = collections.Counter(
        tuple(kernel.vmod(ctx, g2, m2)) for g2 in kernel.vectors_below(q, n2))
    return sum(g1_counts[tuple(kernel.vmod(ctx, b1, m1))]
               * g2_counts[tuple(kernel.vmod(ctx, b2, m2))]
               for b1, b2 in classes)


def density_table(params: CensusParams, xs) -> list:
    """(X, #S(X)/#W(X)) as exact rationals for each X in the sweep."""
    from fractions import Fraction

    out = []
    for x in xs:
        p = params.with_X(x)
        ratio = Fraction(count_S(p, "formula"), count_W(p, "formula"))
        out.append((x, ratio))
    return out
