"""Decidable criteria and machine-checkable certificates.

Certificates are the artifact's primary output: they echo their inputs in
canonical text, record the witnesses found, and re-validate from those fields
alone.  Nothing here claims to compute a Galois image; a verified certificate
asserts that the stated hypotheses were checked.

The public types (PrimeIdeal, Poly, FqElement, DrinfeldModule) are
unwrapped once, at the boundary; the criteria compute on coefficient
tuples.  Whether c - T is a square mod p is read off its norm p(c) in
F_q; the triple's discriminant is tested by `residues.is_square_mod_prime`
on its norm, the resultant with the prime.  Valuations run by
`kernel.vvaluation`, values and degree-1 traces by integer Horner, and
the scan's values at every point by one packed sum per prime.  No residue
ring or Frobenius map is built, and each text is formed once per
certificate.
"""

from __future__ import annotations

import itertools

from . import census, drinfeld, frobenius, kernel, residues
from .errors import (
    ContextMismatch,
    InsufficientPrimes,
    NotInOmegaTilde,
    ParamsOutOfRange,
    WrongDegree,
)
from .fields import FieldCtx, FqElement, make_field
from .polys import (
    COMPACT_JSON,
    POS_INF,
    Poly,
    PrimeIdeal,
    check_enumeration_cap,
    check_samples,
    coeffs_to_text,
    irreducible_indices,
    parse_poly,
)

# theorem2_build expands l^(q-1) densely, at a cost quadratic in (q-1) deg l:
# `thm2` takes 0.7 s at q = 1009, deg l = 4 and 0.6 s at q = 257, deg l = 16,
# the bound itself (one subprocess run each, 2 vCPUs)
THM2_POWER_DEG_CAP = 4096


def check_theorem2_prime(l: Poly) -> None:
    """Reject an l with (q - 1) deg l above THM2_POWER_DEG_CAP; reads q and
    deg l alone, so it can run before the Rabin test."""
    if (l.ctx.q - 1) * (len(l.coeffs) - 1) > THM2_POWER_DEG_CAP:
        raise ParamsOutOfRange(f"thm2 needs (q - 1) deg l <= "
                               f"{THM2_POWER_DEG_CAP}")


class Certificate:
    """Self-validating witness record for one checked hypothesis set."""

    __slots__ = ("kind", "q", "inputs", "witnesses", "verified", "checks")

    def __init__(self, kind, q, inputs, witnesses, verified, checks):
        self.kind = kind
        self.q = q
        self.inputs = inputs
        self.witnesses = witnesses
        self.verified = verified
        self.checks = checks

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "q": self.q,
            "inputs": self.inputs,
            "witnesses": self.witnesses,
            "verified": self.verified,
            "checks": self.checks,
        }

    def to_json(self) -> str:
        return COMPACT_JSON.encode(self.as_dict())

    def __repr__(self):
        flag = "verified" if self.verified else "failed"
        return f"Certificate({self.kind}, {flag})"


def _val_entry(v):
    return "inf" if v is POS_INF else int(v)


def _valuation(ctx, g, lam):
    return kernel.vvaluation(ctx, g, lam) if g else POS_INF


def _nonsquare_at(ctx, prime, c: int) -> bool:
    """Whether c - T is a non-square modulo the monic prime `prime`: a
    non-square in F_{q^n} iff its norm to F_q is one, and that norm,
    the product of c - T^(q^i), is prime(c): the resultant
    Res(prime, c - T) at degree 1, taken as one Horner."""
    return not ctx.is_square(kernel.veval(ctx, prime, c))


def in_omega_tilde(p: PrimeIdeal) -> Certificate:
    """Scan c_1 in field order for c_1 - T a non-square mod p."""
    ctx, prime = p.ctx, p.gen.coeffs
    witness = next((c1 for c1 in range(ctx.q)
                    if _nonsquare_at(ctx, prime, c1)), None)
    checks = [{
        "check": "exists c1 with c1 - T a non-square mod prime",
        "passed": witness is not None,
        "euler_tests": ctx.q if witness is None else witness + 1,
    }]
    return Certificate(
        kind="omega_tilde",
        q=ctx.q,
        inputs={"prime": coeffs_to_text(ctx, p.gen.coeffs)},
        witnesses={"c1": witness},
        verified=witness is not None,
        checks=checks,
    )


def _triple(l: PrimeIdeal, g1: Poly, c: FqElement):
    """(r1 = g1(c), the discriminant r1^2 - 4(T - c) mod l, membership,
    the checks recorded): membership is g1 outside l and
    X^2 - r1 X + (T - c) irreducible mod l."""
    ctx = l.ctx
    if g1.ctx != ctx or c.ctx != ctx:
        raise ContextMismatch("triple components over different fields")
    f, g = l.gen.coeffs, g1.coeffs
    nu = _valuation(ctx, g, f)
    r1 = kernel.veval(ctx, g, c.val)
    # the discriminant has degree 1: its norm is one division step
    disc, quad_irred = residues.vquadratic(
        l.gen, r1, kernel.vmod(ctx, (ctx.neg(c.val), 1), f))
    checks = [
        {"check": "g1 outside the prime l", "passed": nu == 0,
         "valuation": _val_entry(nu)},
        {"check": "X^2 - r1*X + (T - c) irreducible mod l",
         "passed": quad_irred},
    ]
    return r1, disc, nu == 0 and quad_irred, checks


def in_lambda_set(l: PrimeIdeal, g1: Poly, c: FqElement) -> Certificate:
    """Membership test for the triple (l, g1, c): g1 outside l and
    X^2 - r1 X + (T - c) irreducible mod l, r1 = g1 mod (T - c)."""
    r1, disc, verified, checks = _triple(l, g1, c)
    ctx = l.ctx
    return Certificate(
        kind="lambda_triple",
        q=ctx.q,
        inputs={"l": coeffs_to_text(ctx, l.gen.coeffs),
                "g1": coeffs_to_text(ctx, g1.coeffs), "c": c.val},
        witnesses={"c": c.val, "r1": r1,
                   "discriminant": coeffs_to_text(ctx, disc)},
        verified=verified,
        checks=checks,
    )


class LambdaScanReport:
    """Per-prime verdicts for the existence scan behind the triple set."""

    __slots__ = ("q", "mode", "max_deg", "records", "counterexamples",
                 "all_pass", "first_counterexample", "note")

    def __init__(self, q, mode, max_deg, records, counterexamples, note):
        self.q = q
        self.mode = mode
        self.max_deg = max_deg
        self.records = records
        self.counterexamples = counterexamples
        self.all_pass = not counterexamples
        self.first_counterexample = (
            counterexamples[0] if counterexamples else None)
        self.note = note

    def as_dict(self) -> dict:
        return {
            "op": "lambda_scan",
            "q": self.q,
            "mode": self.mode,
            "max_deg": self.max_deg,
            "primes_scanned": len(self.records),
            "all_pass": self.all_pass,
            "first_counterexample": self.first_counterexample,
            "counterexamples": self.counterexamples,
            "note": self.note,
        }


def lambda_scan(ctx: FieldCtx, max_deg: int,
                mode: str = "affirm") -> LambdaScanReport:
    """For each monic irreducible l (degree <= max_deg, or exactly max_deg in
    find_counterexample mode) decide whether some (c, r1) in F_q^2 makes
    X^2 - r1 X + (T - c) irreducible mod l.

    Membership of a triple depends on g1 only through r1 = g1(c), and every
    winning pair is realized by the canonical g1 recorded in the verdict
    (r1 itself when nonzero, else T - c; its text formed once per pair).
    A prime's values at every point are one `kernel.point_values` call.
    """
    if mode not in ("affirm", "find_counterexample"):
        raise ValueError(f"unknown mode {mode!r}")
    if ctx.m != 1:
        raise ContextMismatch("lambda_scan records primes as text, which is "
                              "defined over prime fields only")
    check_enumeration_cap(ctx, max_deg)
    degrees = (range(1, max_deg + 1) if mode == "affirm"
               else range(max_deg, max_deg + 1))
    # r1^2 - 4(T - c) = 4(c' - T) with c' = c + r1^2/4, and by reciprocity
    # c' - T is a non-square mod l iff l(c') is a non-square in F_q: the
    # resultant with l at degree 1, read off the prime's values at every c'
    p = ctx.p
    quarter = ctx.inv(4 % p)
    quarter_squares = [r1 * r1 * quarter % p for r1 in range(p)]
    squares = {x * x % p for x in range(p)}
    values = kernel.point_values(p, max_deg)
    g1_texts = {}
    records = []
    counterexamples = []
    for deg in degrees:
        top = p ** deg
        for idx in irreducible_indices(ctx, deg):
            gen = kernel.vdigits(top + idx, p)
            nonsquare = [v not in squares for v in values(gen)]
            found = next(((c, r1) for c in range(p)
                          for r1, shift in enumerate(quarter_squares)
                          if nonsquare[(c + shift) % p]), None)
            witness = None
            if found is not None:
                c, r1 = found
                if found not in g1_texts:
                    g1_texts[found] = coeffs_to_text(
                        ctx, (r1,) if r1 else (ctx.neg(c), 1))
                witness = {"c": c, "r1": r1, "g1": g1_texts[found]}
            text = coeffs_to_text(ctx, gen)
            records.append({"prime": text, "degree": deg,
                            "passes": witness is not None,
                            "witness": witness})
            if witness is None:
                counterexamples.append(text)
    note = None
    if mode == "affirm" and counterexamples:
        note = ("affirm scan found failing primes under the l-reading of the "
                "triple-set hypothesis")
    return LambdaScanReport(ctx.q, mode, max_deg, records, counterexamples,
                            note)


def _theorem1(ctx, prime, g1, g2, c1: int, c2: int, witness_ok: bool,
              prime_text: str) -> Certificate:
    """The theorem-1 certificate for the prime's coefficient tuple, g1 and
    g2 as vectors, encoded c1 and c2, and the verdict on c1 - T."""
    lam1, lam2 = (ctx.neg(c1), 1), (ctx.neg(c2), 1)
    nu11 = _valuation(ctx, g1, lam1)
    nu21 = _valuation(ctx, g1, lam2)
    nu12 = _valuation(ctx, g2, lam1)
    nu22 = _valuation(ctx, g2, lam2)
    checks = [
        {"check": "g2 nonzero", "passed": bool(g2)},
        {"check": "c1 - T non-square mod p", "passed": witness_ok},
        {"check": "lambda2 != lambda1", "passed": c1 != c2},
        {"check": "lambda2 != p", "passed": lam2 != prime},
        {"check": "nu_lambda1(g1) >= 1", "passed": bool(nu11 >= 1),
         "valuation": _val_entry(nu11)},
        {"check": "nu_lambda2(g1) == 0", "passed": nu21 == 0,
         "valuation": _val_entry(nu21)},
        {"check": "nu_lambda1(g2) == 0", "passed": nu12 == 0,
         "valuation": _val_entry(nu12)},
        {"check": "nu_lambda2(g2) == 1", "passed": nu22 == 1,
         "valuation": _val_entry(nu22)},
    ]
    return Certificate(
        kind="theorem1",
        q=ctx.q,
        inputs={"prime": prime_text, "g1": coeffs_to_text(ctx, g1),
                "g2": coeffs_to_text(ctx, g2), "c1": c1, "c2": c2},
        witnesses={
            "c1": c1,
            "lambda1": coeffs_to_text(ctx, lam1),
            "lambda2": coeffs_to_text(ctx, lam2),
            "valuations": {
                "lambda1_g1": _val_entry(nu11),
                "lambda2_g1": _val_entry(nu21),
                "lambda1_g2": _val_entry(nu12),
                "lambda2_g2": _val_entry(nu22),
            },
        },
        verified=all(ch["passed"] for ch in checks),
        checks=checks,
    )


def theorem1_verify(g1: Poly, g2: Poly, p: PrimeIdeal, c1: FqElement,
                    c2: FqElement) -> Certificate:
    """Check the full hypothesis list for the congruence-condition theorem:
    p in the non-square set with witness c1, lambda_2 distinct from lambda_1
    and p, and the four valuations of (g1, g2) at lambda_1, lambda_2."""
    ctx = p.ctx
    return _theorem1(ctx, p.gen.coeffs, g1.coeffs, g2.coeffs, c1.val, c2.val,
                     _nonsquare_at(ctx, p.gen.coeffs, c1.val),
                     coeffs_to_text(ctx, p.gen.coeffs))


def theorem1_search(p: PrimeIdeal, max_deg: int, limit: int):
    """Verified certificates from the congruence parametrization
    g1 = b1 + a1 (T-c1)(T-c2), g2 = b2 + a2 (T-c1)(T-c2)^2, enumerated
    lexicographically in (c1, c2, b1, b2, a1, a2).  The a1 and a2 pools are
    drawn lazily, a2 afresh for each a1, so no pool is held; max_deg is
    checked against the enumeration cap and limit against SAMPLE_CAP
    before any work.  Each c1 - T is tested once, not once per
    candidate."""
    ctx = p.ctx
    check_samples(limit, "limit")
    check_enumeration_cap(ctx, max_deg)
    prime = p.gen.coeffs
    witnesses = [c1 for c1 in range(ctx.q) if _nonsquare_at(ctx, prime, c1)]
    if not witnesses:
        raise NotInOmegaTilde(f"{p!r} admits no non-square witness")
    if limit <= 0:
        return []
    prime_text = coeffs_to_text(ctx, prime)
    certs = []
    for c1 in witnesses:
        lam1 = (ctx.neg(c1), 1)
        for c2 in range(ctx.q):
            if c2 == c1:
                continue
            lam2 = (ctx.neg(c2), 1)
            if lam2 == prime:
                continue
            m1 = kernel.vmul(ctx, lam1, lam2)
            m2 = kernel.vmul(ctx, m1, lam2)
            for b1, b2 in itertools.product(
                    *census.class_vectors(ctx, c1, c2)):
                for a1 in kernel.vectors_below(ctx.q, max_deg - 1):
                    g1 = kernel.vadd(ctx, b1, kernel.vmul(ctx, a1, m1))
                    if len(g1) - 1 > max_deg:
                        continue
                    for a2 in kernel.vectors_below(ctx.q, max_deg - 2):
                        g2 = kernel.vadd(ctx, b2, kernel.vmul(ctx, a2, m2))
                        if len(g2) - 1 > max_deg:
                            continue
                        cert = _theorem1(ctx, prime, g1, g2, c1, c2, True,
                                         prime_text)
                        if cert.verified:
                            certs.append(cert)
                            if len(certs) >= limit:
                                return certs
    return certs


def theorem2_build(l: PrimeIdeal, g1: Poly, c: FqElement):
    """Build phi_T = T + g1 tau - l^(q-1) tau^2 and certify the triple,
    recording the degree-1 Frobenius trace comparisons a_lambda = g1(d)."""
    check_theorem2_prime(l.gen)
    ctx = l.ctx
    r1, _, member, checks = _triple(l, g1, c)
    module = drinfeld.carlitz_det_module(ctx, g1, l.gen)
    l_text, g1_text = (coeffs_to_text(ctx, l.gen.coeffs),
                       coeffs_to_text(ctx, g1.coeffs))
    trace_records = []
    for d in range(ctx.q):
        lam = (ctx.neg(d), 1)
        if lam == l.gen.coeffs:
            continue
        lam_text = coeffs_to_text(ctx, lam)
        # Delta(d) = -l(d)^(q-1) is nonzero: d is no root of the prime l
        a, u = frobenius.deg1_trace(module, d)
        want = kernel.veval(ctx, g1.coeffs, d)
        ok = a == want and u == 1  # a_lambda = g1(d), b = T - d
        # a constant's text is its value
        trace_records.append({"lambda": lam_text, "trace": str(a),
                              "g1_value": str(want), "passed": ok})
        checks.append({"check": f"frobenius trace at {lam_text}"
                                " equals g1 value", "passed": ok})
        if len(trace_records) == 3:
            break
    verified = member and all(r["passed"] for r in trace_records)
    cert = Certificate(
        kind="theorem2",
        q=ctx.q,
        inputs={"l": l_text, "g1": g1_text, "c": c.val},
        witnesses={
            "triple": {"l": l_text, "g1": g1_text, "c": c.val},
            "r1": r1,
            "module": {"g1": g1_text,
                       "g2": coeffs_to_text(ctx, module.g2.coeffs)},
            "trace_checks": trace_records,
        },
        verified=verified,
        checks=checks,
    )
    return module, cert


def reducibility_obstruction(phi: drinfeld.DrinfeldModule, p: PrimeIdeal,
                             degree1_primes) -> Certificate:
    """Decide whether a unit zeta of A/p meets the trace congruences
    a_lambda = zeta^{-1} lambda + zeta mod p at every supplied degree-1
    prime; verified means none does, so the mod-p action cannot be reducible.

    Each congruence reads zeta^2 - a_lambda zeta + lambda = 0 in the field
    A/p.  Two of them at distinct primes lambda_1, lambda_2 subtract to
    (a_2 - a_1) zeta = lambda_2 - lambda_1, a nonzero constant, so only
    zeta = (lambda_2 - lambda_1)/(a_2 - a_1) can survive, none when
    a_1 = a_2; that one root is checked against every prime.  The record
    counts all #(A/p) - 1 units as tested; the work does not grow with
    that count.  Residues are reduced vectors mod p: as p is prime, every
    nonzero one is inverted by kernel.vxgcd."""
    lams = list(degree1_primes)
    if len(set(lams)) < 2:
        raise InsufficientPrimes(
            "the contradiction needs at least 2 distinct primes")
    ctx, f = p.ctx, p.gen.coeffs
    traces = []
    for lam in lams:
        if lam.degree != 1:
            raise WrongDegree(f"{lam!r} does not have degree 1")
        if lam.gen == p.gen:
            raise ParamsOutOfRange("supplied primes must differ from p")
        a = frobenius.deg1_trace(phi, ctx.neg(lam.gen.coeffs[0]))[0]
        traces.append((kernel.vmod(ctx, lam.gen.coeffs, f), [a] if a else []))
    lam1, a1 = traces[0]
    lam2, a2 = next((lam, a) for lam, a in traces if lam != lam1)
    surviving = []
    if a1 != a2:
        inv = kernel.vxgcd(ctx, kernel.vsub(ctx, a2, a1), f)[1]
        zeta = kernel.vmulmod(ctx, kernel.vsub(ctx, lam2, lam1), inv, f)
        zeta_inv = kernel.vxgcd(ctx, zeta, f)[1]
        if all(a == kernel.vadd(ctx, kernel.vmulmod(ctx, zeta_inv, lam, f),
                                zeta) for lam, a in traces):
            surviving.append(coeffs_to_text(ctx, zeta))
    tested = ctx.q ** p.degree - 1
    verified = not surviving
    checks = [{
        "check": "no unit zeta satisfies every trace congruence",
        "passed": verified,
        "units_tested": tested,
        "surviving": surviving,
    }]
    lam_texts = [coeffs_to_text(ctx, lam.gen.coeffs) for lam in lams]
    return Certificate(
        kind="obstruction",
        q=ctx.q,
        inputs={"g1": coeffs_to_text(ctx, phi.g1.coeffs),
                "g2": coeffs_to_text(ctx, phi.g2.coeffs),
                "prime": coeffs_to_text(ctx, f),
                "degree1_primes": lam_texts},
        witnesses={"primes": list(lam_texts),
                   "zeta_scan": {"tested": tested, "surviving": surviving}},
        verified=verified,
        checks=checks,
    )


def revalidate(cert) -> bool:
    """Recompute a certificate from its recorded inputs and compare.

    Returns True when the recomputation reproduces the verified flag and the
    witnesses.  Only prime base fields are supported (the text echo uses the
    CLI grammar).
    """
    data = cert.as_dict() if isinstance(cert, Certificate) else dict(cert)
    q = data["q"]
    ctx = make_field(q)
    inputs = data["inputs"]
    kind = data["kind"]
    if kind == "omega_tilde":
        fresh = in_omega_tilde(PrimeIdeal(parse_poly(ctx, inputs["prime"])))
    elif kind == "lambda_triple":
        fresh = in_lambda_set(PrimeIdeal(parse_poly(ctx, inputs["l"])),
                              parse_poly(ctx, inputs["g1"]),
                              ctx.element(inputs["c"]))
    elif kind == "theorem1":
        fresh = theorem1_verify(parse_poly(ctx, inputs["g1"]),
                                parse_poly(ctx, inputs["g2"]),
                                PrimeIdeal(parse_poly(ctx, inputs["prime"])),
                                ctx.element(inputs["c1"]),
                                ctx.element(inputs["c2"]))
    elif kind == "theorem2":
        _, fresh = theorem2_build(PrimeIdeal(parse_poly(ctx, inputs["l"])),
                                  parse_poly(ctx, inputs["g1"]),
                                  ctx.element(inputs["c"]))
    elif kind == "obstruction":
        phi = drinfeld.DrinfeldModule(ctx, [parse_poly(ctx, inputs["g1"]),
                                            parse_poly(ctx, inputs["g2"])])
        lams = [PrimeIdeal(parse_poly(ctx, t))
                for t in inputs["degree1_primes"]]
        fresh = reducibility_obstruction(
            phi, PrimeIdeal(parse_poly(ctx, inputs["prime"])), lams)
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    fresh_data = fresh.as_dict()
    return (fresh_data["verified"] == data["verified"]
            and fresh_data["witnesses"] == data["witnesses"])
