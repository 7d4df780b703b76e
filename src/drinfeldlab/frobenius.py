"""Frobenius characteristic polynomials of rank-2 modules at good primes.

The pair (a, b) with X^2 - aX + b is produced by the norm formula for b,
with the trace a read off phi_b at general primes; two independent oracles
(the defining identity in the twisted ring, and the characteristic ideal of
the induced T-action on the residue field) cross-validate every output.

frob_general and frob_identity_check read phi mod lam through
drinfeld.ReducedModule: the unit is the norm of its leading kernel vector,
a resultant (kernel.vresultant), and its one kernel.HornerMap forms phi_b
and phi_a.  The Euler-Poincare oracle shares no step with them: it reduces
phi_T by kernel.vmod itself, builds the T-action by running products
(kernel.vmulmod by the factors T^(q^i), each from deg lam >= 2 on one
kernel.vpowmod of the one before), touching no Frobenius or Horner map,
and takes its characteristic polynomial by Hessenberg reduction
(kernel.vcharpoly).
"""

from __future__ import annotations

from . import kernel
from .drinfeld import DrinfeldModule, ReducedModule, reduce_module
from .errors import (
    BruteCapExceeded,
    CapExceeded,
    InternalInconsistency,
    NotGoodReduction,
    ParamsOutOfRange,
    WrongDegree,
    WrongRank,
)
from .fields import FqElement
from .polys import (  # noqa: F401  (PRIME_DEG_CAP, check_prime_degree)
    PRIME_DEG_CAP,
    Poly,
    PrimeIdeal,
    check_enumeration_cap,
    check_prime_degree,
    enumerate_monic_irreducibles,
)
from .residues import generates_units

DEFAULT_BRUTE_CAP = 5 ** 4
# The largest N = q^deg p that det_generation_check (det-gen) admits.  It
# lists no unit; its cost is factoring N - 1 by trial division (2, then odd
# divisors only), worst at N - 1 = 2 * (a prime): kernel.prime_divisors
# takes 0.04-0.05 s on 2 * 499,999,999,979 and 0.10-0.14 s on
# 2 * 4,999,999,999,937, near N = 10^13 (five runs each, 2 vCPUs).
DET_GEN_FIELD_CAP = 10 ** 12


def check_det_gen_field(q: int, degree: int) -> int:
    """N = q^degree, the size of A/p at a prime of the given degree,
    rejected above DET_GEN_FIELD_CAP before the Rabin test; multiplied up
    to the cap, so a huge degree costs no work."""
    field = 1
    for _ in range(degree):
        field *= q
        if field > DET_GEN_FIELD_CAP:
            raise CapExceeded(f"#(A/p) = {q}^{degree} exceeds cap "
                              f"{DET_GEN_FIELD_CAP}")
    return field


class FrobCharpoly:
    """X^2 - aX + b for the Frobenius at one good prime; `unit` is b
    divided by the monic prime generator, an FqElement."""

    __slots__ = ("prime", "a", "b", "unit")

    def __init__(self, prime: PrimeIdeal, a: Poly, b: Poly):
        if not a.is_zero() and 2 * (len(a.coeffs) - 1) > prime.degree:
            raise WrongDegree("trace degree exceeds deg(prime)/2")
        quot, rem = kernel.vdivmod(b.ctx, b.coeffs, prime.gen.coeffs)
        if rem or len(quot) != 1:
            raise WrongDegree("the determinant must be a unit times the prime")
        self.prime = prime
        self.a = a
        self.b = b
        self.unit = FqElement(b.ctx, quot[0])

    def __eq__(self, other):
        return (isinstance(other, FrobCharpoly) and self.prime == other.prime
                and self.a == other.a and self.b == other.b)

    def __repr__(self):
        return f"FrobCharpoly(X^2 - ({self.a!r})X + ({self.b!r}))"


def _require_rank2(phi: DrinfeldModule):
    if phi.rank != 2:
        raise WrongRank("Frobenius charpoly machinery needs rank 2")


def deg1_trace(phi: DrinfeldModule, c: int):
    """(a, u), encoded, with X^2 - aX + u (T - c) the Frobenius charpoly at
    the degree-1 prime T - c: u = -Delta(c)^{-1} and a = u g_1(c), Delta
    the leading coefficient of phi_T, each value by kernel.veval.  Raises
    NotGoodReduction at bad reduction, Delta(c) = 0."""
    _require_rank2(phi)
    ctx = phi.ctx
    delta_c = kernel.veval(ctx, phi.g2.coeffs, c)
    if not delta_c:
        lam = Poly(ctx, (ctx.neg(c), 1))
        raise NotGoodReduction(f"bad reduction at ({lam!r})")
    u = ctx.neg(ctx.inv(delta_c))
    return ctx.mul(u, kernel.veval(ctx, phi.g1.coeffs, c)), u


def frob_deg1(phi: DrinfeldModule, lam: PrimeIdeal) -> FrobCharpoly:
    """Closed form at a degree-1 prime (T - c): a = -Delta(c)^{-1} g_1(c),
    b = -Delta(c)^{-1} (T - c), Delta the leading coefficient of phi_T
    (deg1_trace)."""
    _require_rank2(phi)
    if lam.degree != 1:
        raise WrongDegree(f"{lam!r} does not have degree 1")
    ctx = phi.ctx
    a, u = deg1_trace(phi, ctx.neg(lam.gen.coeffs[0]))
    return FrobCharpoly(lam, Poly(ctx, (a,)),
                        Poly(ctx, kernel.vscale(ctx, lam.gen.coeffs, u)))


def _good_reduction(phi: DrinfeldModule, lam: PrimeIdeal) -> ReducedModule:
    """phi reduced at lam (reduce_module); raises NotGoodReduction unless
    the leading coefficient stays nonzero."""
    _require_rank2(phi)
    red = reduce_module(phi, lam)
    if not red.is_good:
        raise NotGoodReduction(f"bad reduction at {lam!r}")
    return red


def _identity_holds(red: ReducedModule, a: Poly, phi_b) -> bool:
    """Whether phi_b = phi_a tau^m - tau^{2m} over A/(lam), deg lam = m,
    compared coefficient by coefficient on the tau-coefficient vectors of
    phi_b and of phi_a, which red.vectors forms; right multiplication by
    tau^m shifts, since 1 is Frobenius-fixed."""
    m = red.prime.degree
    want = [[]] * m + red.vectors(a)
    want += [[]] * (2 * m + 1 - len(want))
    want[2 * m] = kernel.vsub(a.ctx, want[2 * m], [1])
    while want and not want[-1]:
        want.pop()
    return want == phi_b


def frob_general(phi: DrinfeldModule, lam: PrimeIdeal) -> FrobCharpoly:
    """Norm formula for b, trace read off phi_b, identity check enforced.

    phi_b = phi_a tau^m - tau^{2m} over the residue field, so the tau^m
    coefficient of phi_b is a mod lam, that is a, as deg a <= m/2 < m.
    Works on the reduced module's kernel vectors: the unit from the norm
    of g_2 mod lam, a resultant (kernel.vresultant), and phi_b and phi_a
    on its one kernel.HornerMap.  Runs the general route at every degree
    (no closed-form shortcut), so degree-1 agreement with frob_deg1 is a
    genuine cross-check.
    """
    red = _good_reduction(phi, lam)
    ctx, m, gen = phi.ctx, lam.degree, lam.gen.coeffs
    sign = 1 if m % 2 == 0 else ctx.p - 1  # -1 in every F_{p^m}
    b = Poly(ctx, kernel.vscale(ctx, gen, ctx.mul(
        sign, ctx.inv(kernel.vresultant(ctx, gen, red.vecs[2])))))
    phi_b = red.vectors(b)
    a = Poly(ctx, phi_b[m] if m < len(phi_b) else ())
    if not _identity_holds(red, a, phi_b):
        raise InternalInconsistency(
            "norm formula and Frobenius identity disagree; this is a bug")
    return FrobCharpoly(lam, a, b)


def frob_identity_check(phi: DrinfeldModule, cp: FrobCharpoly) -> bool:
    """Whether tau^{2m} - phi_a tau^m + phi_b = 0 over the residue field."""
    red = _good_reduction(phi, cp.prime)
    return _identity_holds(red, cp.a, red.vectors(cp.b))


def euler_poincare_oracle(phi: DrinfeldModule, lam: PrimeIdeal) -> Poly:
    """Characteristic ideal of the induced A-module structure on the residue
    field: the characteristic polynomial of the F_q-linear T-action.

    Independent of frob_general: phi_T, reduced by kernel.vmod with no
    ReducedModule, sends T^j to sum c_i T^(j q^i), term i's value carried
    from column to column by one kernel.vmulmod by T^(q^i).  Those factors
    are formed only when a second column reads them (deg lam >= 2): T,
    then each one kernel.vpowmod to the exponent q of the one before, so
    a degree-1 prime takes no powmod.  No Frobenius or Horner map is
    touched, and the charpoly comes by Hessenberg reduction
    (kernel.vcharpoly).  For rank 2 it must equal the monic associate of
    P(1) = 1 - a + b.
    """
    ctx = phi.ctx
    m = lam.degree
    if ctx.q ** m > DEFAULT_BRUTE_CAP:
        raise BruteCapExceeded(f"residue field of size {ctx.q}^{m} over cap")
    gen = lam.gen.coeffs
    vecs = [kernel.vmod(ctx, c, gen)
            for c in [(0, 1)] + [g.coeffs for g in phi.coeffs]]
    if not vecs[-1]:
        raise NotGoodReduction(f"bad reduction at {lam!r}")
    # term i's running value c_i T^(j q^i), and its factor T^(q^i), read
    # from the second column on: T, then the q-th power of the one before
    factor, terms = [0, 1], []
    for i, c in enumerate(vecs):
        if i and m > 1:
            factor = kernel.vpowmod(ctx, factor, ctx.q, gen)
        if c:
            terms.append([c, factor])
    cols = []
    for j in range(m):
        img = []
        for term in terms:
            img = kernel.vadd(ctx, img, term[0])
            if j < m - 1:
                term[0] = kernel.vmulmod(ctx, term[0], term[1], gen)
        cols.append(img + [0] * (m - len(img)))
    return Poly(ctx, kernel.vcharpoly(ctx, cols))


def det_generation_check(p: PrimeIdeal, level: int, max_deg: int) -> bool:
    """Whether the primes of degree <= max_deg away from p generate the whole
    unit group of A/p^level (the finite shadow of determinant surjectivity).

    Decided by residues.generates_units, by the structure of the group,
    on the primes degree by degree; no unit is listed.  N = q^deg p is
    bounded (check_det_gen_field) first, as N - 1 is factored by trial
    division.
    """
    if level not in (1, 2):
        raise ParamsOutOfRange(f"level {level} unsupported (use 1 or 2)")
    ctx = p.ctx
    check_det_gen_field(ctx.q, p.degree)
    check_enumeration_cap(ctx, max_deg)
    return generates_units(ctx, p.gen.coeffs, level, lambda: (
        lam.gen.coeffs for d in range(1, max_deg + 1)
        for lam in enumerate_monic_irreducibles(ctx, d) if lam != p))
