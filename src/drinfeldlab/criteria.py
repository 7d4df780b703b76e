"""Decidable criteria and machine-checkable certificates.

Certificates are the artifact's primary output: they echo their inputs in
canonical text, record the witnesses found, and re-validate from those fields
alone.  Nothing here claims to compute a Galois image; a verified certificate
asserts that the stated hypotheses were checked.
"""

from __future__ import annotations

import json

from .census import valid_congruence_classes
from .drinfeld import DrinfeldModule, carlitz_det_module
from .errors import (
    ContextMismatch,
    InsufficientPrimes,
    NotInOmegaTilde,
    ParamsOutOfRange,
    WrongDegree,
)
from .fields import FieldCtx, FqElement, enumerate_elements, make_field
from .frobenius import frob_deg1
from .groups import check_samples
from .polys import (
    POS_INF,
    Poly,
    PrimeIdeal,
    check_enumeration_cap,
    enumerate_monic_irreducibles,
    eval_at,
    parse_poly,
    poly_to_text,
    polys_below,
    valuation,
)
from .residues import (
    ResidueRing,
    is_square_mod_prime,
    quadratic_is_irreducible,
    residue_inv,
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
        return json.dumps(self.as_dict(), separators=(",", ":"))

    def __repr__(self):
        flag = "verified" if self.verified else "failed"
        return f"Certificate({self.kind}, {flag})"


def _val_entry(v):
    return "inf" if v is POS_INF else int(v)


def in_omega_tilde(p: PrimeIdeal) -> Certificate:
    """Scan c_1 in field order for c_1 - T a non-square mod p."""
    ctx = p.ctx
    ring = ResidueRing(p)
    witness = None
    tested = 0
    for c1 in enumerate_elements(ctx):
        tested += 1
        residue = ring.element(Poly.constant(ctx, c1) - Poly.T(ctx))
        if not is_square_mod_prime(residue):
            witness = c1
            break
    checks = [{
        "check": "exists c1 with c1 - T a non-square mod prime",
        "passed": witness is not None,
        "euler_tests": tested,
    }]
    return Certificate(
        kind="omega_tilde",
        q=ctx.q,
        inputs={"prime": poly_to_text(p.gen)},
        witnesses={"c1": witness.val if witness is not None else None},
        verified=witness is not None,
        checks=checks,
    )


def in_lambda_set(l: PrimeIdeal, g1: Poly, c: FqElement) -> Certificate:
    """Membership test for the triple (l, g1, c): g1 outside l and
    X^2 - r1 X + (T - c) irreducible mod l, r1 = g1 mod (T - c)."""
    ctx = l.ctx
    if g1.ctx != ctx or c.ctx != ctx:
        raise ContextMismatch("triple components over different fields")
    ring = ResidueRing(l)
    nu = valuation(g1, l)
    g1_outside = (nu == 0)
    r1 = eval_at(g1, c)
    s = ring.element(Poly.T(ctx) - Poly.constant(ctx, c))
    quad_irred = quadratic_is_irreducible(r1, s)
    disc = ring.element(r1) * ring.element(r1) - ring.element(4) * s
    checks = [
        {"check": "g1 outside the prime l", "passed": g1_outside,
         "valuation": _val_entry(nu)},
        {"check": "X^2 - r1*X + (T - c) irreducible mod l",
         "passed": quad_irred},
    ]
    return Certificate(
        kind="lambda_triple",
        q=ctx.q,
        inputs={"l": poly_to_text(l.gen), "g1": poly_to_text(g1),
                "c": c.val},
        witnesses={"c": c.val, "r1": r1.val,
                   "discriminant": poly_to_text(disc.rep)},
        verified=g1_outside and quad_irred,
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
    (r1 itself when nonzero, else T - c).
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
    # c' - T is a non-square mod l iff l(c') is a non-square in F_q
    p = ctx.p
    quarter = ctx.inv(4 % p)
    quarter_squares = [r1 * r1 * quarter % p for r1 in range(p)]
    squares = {x * x % p for x in range(p)}
    records = []
    counterexamples = []
    for deg in degrees:
        for l in enumerate_monic_irreducibles(ctx, deg):
            top = l.gen.coeffs[::-1]
            nonsquare = []
            for x in range(p):  # l(x) by Horner on ints: ctx is F_p
                acc = 0
                for c in top:
                    acc = (acc * x + c) % p
                nonsquare.append(acc not in squares)
            found = next(((c, r1) for c in range(ctx.q)
                          for r1, shift in enumerate(quarter_squares)
                          if nonsquare[ctx.add(c, shift)]), None)
            witness = None
            if found is not None:
                c, r1 = found
                g1 = Poly(ctx, (r1,) if r1 else (ctx.neg(c), 1))
                witness = {"c": c, "r1": r1, "g1": poly_to_text(g1)}
            rec = {"prime": poly_to_text(l.gen), "degree": deg,
                   "passes": witness is not None, "witness": witness}
            records.append(rec)
            if witness is None:
                counterexamples.append(poly_to_text(l.gen))
    note = None
    if mode == "affirm" and counterexamples:
        note = ("affirm scan found failing primes under the l-reading of the "
                "triple-set hypothesis")
    return LambdaScanReport(ctx.q, mode, max_deg, records, counterexamples,
                            note)


def theorem1_verify(g1: Poly, g2: Poly, p: PrimeIdeal, c1: FqElement,
                    c2: FqElement) -> Certificate:
    """Check the full hypothesis list for the congruence-condition theorem:
    p in the non-square set with witness c1, lambda_2 distinct from lambda_1
    and p, and the four valuations of (g1, g2) at lambda_1, lambda_2."""
    ctx = p.ctx
    lam1_gen = Poly.T(ctx) - Poly.constant(ctx, c1)
    lam2_gen = Poly.T(ctx) - Poly.constant(ctx, c2)
    lam1 = PrimeIdeal(lam1_gen, _trusted=True)
    lam2 = PrimeIdeal(lam2_gen, _trusted=True)
    ring = ResidueRing(p)
    witness_ok = not is_square_mod_prime(
        ring.element(Poly.constant(ctx, c1) - Poly.T(ctx)))
    distinct = (c1 != c2)
    lam2_not_p = (lam2_gen != p.gen)
    g2_nonzero = not g2.is_zero()
    nu11 = valuation(g1, lam1)
    nu21 = valuation(g1, lam2)
    nu12 = valuation(g2, lam1)
    nu22 = valuation(g2, lam2)
    checks = [
        {"check": "g2 nonzero", "passed": g2_nonzero},
        {"check": "c1 - T non-square mod p", "passed": witness_ok},
        {"check": "lambda2 != lambda1", "passed": distinct},
        {"check": "lambda2 != p", "passed": lam2_not_p},
        {"check": "nu_lambda1(g1) >= 1", "passed": bool(nu11 >= 1),
         "valuation": _val_entry(nu11)},
        {"check": "nu_lambda2(g1) == 0", "passed": nu21 == 0,
         "valuation": _val_entry(nu21)},
        {"check": "nu_lambda1(g2) == 0", "passed": nu12 == 0,
         "valuation": _val_entry(nu12)},
        {"check": "nu_lambda2(g2) == 1", "passed": nu22 == 1,
         "valuation": _val_entry(nu22)},
    ]
    verified = all(ch["passed"] for ch in checks)
    return Certificate(
        kind="theorem1",
        q=ctx.q,
        inputs={"prime": poly_to_text(p.gen), "g1": poly_to_text(g1),
                "g2": poly_to_text(g2), "c1": c1.val, "c2": c2.val},
        witnesses={
            "c1": c1.val,
            "lambda1": poly_to_text(lam1_gen),
            "lambda2": poly_to_text(lam2_gen),
            "valuations": {
                "lambda1_g1": _val_entry(nu11),
                "lambda2_g1": _val_entry(nu21),
                "lambda1_g2": _val_entry(nu12),
                "lambda2_g2": _val_entry(nu22),
            },
        },
        verified=verified,
        checks=checks,
    )


def theorem1_search(p: PrimeIdeal, max_deg: int, limit: int):
    """Verified certificates from the congruence parametrization
    g1 = b1 + a1 (T-c1)(T-c2), g2 = b2 + a2 (T-c1)(T-c2)^2, enumerated
    lexicographically in (c1, c2, b1, b2, a1, a2).  The a1 and a2 pools are
    drawn lazily, a2 afresh for each a1, so no pool is held; max_deg is
    checked against the enumeration cap and limit against SAMPLE_CAP
    before any work."""
    ctx = p.ctx
    check_samples(limit, "limit")
    check_enumeration_cap(ctx, max_deg)
    elements = enumerate_elements(ctx)
    ring = ResidueRing(p)
    witnesses = [c1 for c1 in elements if not is_square_mod_prime(
        ring.element(Poly.constant(ctx, c1) - Poly.T(ctx)))]
    if not witnesses:
        raise NotInOmegaTilde(f"{p!r} admits no non-square witness")
    if limit <= 0:
        return []
    certs = []
    for c1 in witnesses:
        lam1_gen = Poly.T(ctx) - Poly.constant(ctx, c1)
        for c2 in elements:
            if c2 == c1:
                continue
            lam2_gen = Poly.T(ctx) - Poly.constant(ctx, c2)
            if lam2_gen == p.gen:
                continue
            m1 = lam1_gen * lam2_gen
            m2 = lam1_gen * lam2_gen * lam2_gen
            for b1, b2 in valid_congruence_classes(ctx, c1, c2):
                for a1 in polys_below(ctx, max_deg - 1):
                    g1 = b1 + a1 * m1
                    if len(g1.coeffs) - 1 > max_deg:
                        continue
                    for a2 in polys_below(ctx, max_deg - 2):
                        g2 = b2 + a2 * m2
                        if len(g2.coeffs) - 1 > max_deg:
                            continue
                        cert = theorem1_verify(g1, g2, p, c1, c2)
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
    membership = in_lambda_set(l, g1, c)
    module = carlitz_det_module(ctx, g1, l.gen)
    checks = list(membership.checks)
    trace_records = []
    count = 0
    for d in enumerate_elements(ctx):
        lam_gen = Poly.T(ctx) - Poly.constant(ctx, d)
        if lam_gen == l.gen:
            continue
        lam = PrimeIdeal(lam_gen, _trusted=True)
        cp = frob_deg1(module, lam)
        want = Poly.constant(ctx, eval_at(g1, d))
        ok = (cp.a == want) and (cp.b == lam_gen)
        trace_records.append({"lambda": poly_to_text(lam_gen),
                              "trace": poly_to_text(cp.a),
                              "g1_value": poly_to_text(want),
                              "passed": ok})
        checks.append({"check": f"frobenius trace at {poly_to_text(lam_gen)}"
                               " equals g1 value", "passed": ok})
        count += 1
        if count == 3:
            break
    verified = membership.verified and all(r["passed"] for r in trace_records)
    cert = Certificate(
        kind="theorem2",
        q=ctx.q,
        inputs={"l": poly_to_text(l.gen), "g1": poly_to_text(g1),
                "c": c.val},
        witnesses={
            "triple": {"l": poly_to_text(l.gen), "g1": poly_to_text(g1),
                       "c": c.val},
            "r1": membership.witnesses["r1"],
            "module": {"g1": poly_to_text(module.g1),
                       "g2": poly_to_text(module.g2)},
            "trace_checks": trace_records,
        },
        verified=verified,
        checks=checks,
    )
    return module, cert


def reducibility_obstruction(phi: DrinfeldModule, p: PrimeIdeal,
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
    that count."""
    lams = list(degree1_primes)
    if len(set(lams)) < 2:
        raise InsufficientPrimes(
            "the contradiction needs at least 2 distinct primes")
    ctx = p.ctx
    ring = ResidueRing(p)
    traces = []
    for lam in lams:
        if lam.degree != 1:
            raise WrongDegree(f"{lam!r} does not have degree 1")
        if lam.gen == p.gen:
            raise ParamsOutOfRange("supplied primes must differ from p")
        cp = frob_deg1(phi, lam)  # raises NotGoodReduction on the bad locus
        traces.append((ring.element(lam.gen), ring.element(cp.a)))
    lam1, a1 = traces[0]
    lam2, a2 = next((lam, a) for lam, a in traces if lam != lam1)
    surviving = []
    if a1 != a2:
        zeta = (lam2 - lam1) * residue_inv(a2 - a1)
        zeta_inv = residue_inv(zeta)
        if all(a == zeta_inv * lam + zeta for lam, a in traces):
            surviving.append(poly_to_text(zeta.rep))
    tested = ring.cardinality - 1
    verified = not surviving
    checks = [{
        "check": "no unit zeta satisfies every trace congruence",
        "passed": verified,
        "units_tested": tested,
        "surviving": surviving,
    }]
    return Certificate(
        kind="obstruction",
        q=ctx.q,
        inputs={"g1": poly_to_text(phi.g1), "g2": poly_to_text(phi.g2),
                "prime": poly_to_text(p.gen),
                "degree1_primes": [poly_to_text(l.gen) for l in lams]},
        witnesses={"primes": [poly_to_text(l.gen) for l in lams],
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
        phi = DrinfeldModule(ctx, [parse_poly(ctx, inputs["g1"]),
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
