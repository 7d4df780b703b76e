"""Output checks for every job kind the workloads generate.

Each check takes a job's argv, exit code and stdout and returns None when
the output is right, or a one-line reason.  The expected values come from
`arith` and closed forms, never from the package under test; the one
exception is certificate revalidation, which replays a certificate from its
own recorded fields through `criteria.revalidate`.
"""

from __future__ import annotations

import json
from fractions import Fraction

import arith

# `lambda-scan --q 5 --exact-deg 5 --find-counterexample` fails at exactly
# this many primes
KNOWN_COUNTEREXAMPLES = {(5, 5): 22}

CENSUS_BRUTE_CAP = 1_000_000    # census.DEFAULT_BRUTE_CAP


def flags(argv):
    """{flag name: value} of a CLI argv; a flag without value maps to True."""
    out = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = True
            i += 1
    return out


def _verdict(code, verified):
    return None if code == (0 if verified else 1) else \
        f"exit code {code} does not match verified={verified}"


def _revalidated(rec):
    from drinfeldlab import criteria
    return None if criteria.revalidate(rec) else \
        f"{rec['kind']} certificate fails revalidation"


def _omega(f, q, recs, code):
    (rec,) = recs
    prime = arith.from_text(f["prime"], q)
    want = next((c for c in range(q)
                 if not arith.is_square_mod(arith.sub([c], [0, 1], q),
                                            prime, q)), None)
    if rec["witnesses"]["c1"] != want:
        return f"omega witness {rec['witnesses']['c1']} != {want}"
    return _verdict(code, rec["verified"]) or _revalidated(rec)


def _quad_irreducible(r1, c, l, q):
    disc = arith.rem(arith.sub([r1 * r1 % q], [(-4 * c) % q, 4], q), l, q)
    return bool(disc) and not arith.is_square_mod(disc, l, q)


def _lambda(f, q, recs, code):
    (rec,) = recs
    l, g1, c = arith.from_text(f["l"], q), arith.from_text(f["g1"], q), \
        int(f["c"])
    want = bool(arith.rem(g1, l, q)) and \
        _quad_irreducible(arith.evaluate(g1, c, q), c, l, q)
    if rec["verified"] != want:
        return f"lambda verdict {rec['verified']} != {want}"
    return _verdict(code, want) or _revalidated(rec)


def _certificate(f, q, recs, code):
    """thm1-verify and obstruction: one certificate, replayed."""
    (rec,) = recs
    return _verdict(code, rec["verified"]) or _revalidated(rec)


def _thm2(f, q, recs, code):
    module, cert = recs
    l = arith.from_text(f["l"], q)
    lead = [1]
    for _ in range(q - 1):
        lead = arith.mul(lead, l, q)
    want = arith.to_text(arith.sub([], lead, q))
    if module["g2"] != want:
        return f"thm2 module g2 {module['g2']} != -l^(q-1) = {want}"
    return _verdict(code, cert["verified"]) or _revalidated(cert)


def _newton(f, q, recs, code):
    (rec,) = recs
    d = len(arith.from_text(f["prime"], q)) - 1
    if rec["total_length"] != q ** (2 * d) - 1:
        return f"newton total_length {rec['total_length']} != q^(2d) - 1"
    if rec["height"] not in (1, 2) or rec["n_p"] != q ** (rec["height"] * d):
        return f"newton height {rec['height']} / n_p {rec['n_p']} invalid"
    return None if code == 0 else f"exit code {code}"


def _takes_nonsquare(l, q):
    """Whether l(x) is a non-square of F_q for some x: by quadratic
    reciprocity in F_q[T], exactly when some X^2 - r1 X + (T - c) is
    irreducible mod l."""
    return any(not arith.is_square_fp(arith.evaluate(l, x, q), q)
               for x in range(q))


def _primes_ok(texts, q, deg):
    """Reason the listed primes are not all monic irreducibles of degree
    deg, distinct and complete, or None."""
    if len(texts) != arith.necklace(q, deg):
        return f"{len(texts)} primes of degree {deg}, " \
               f"necklace count {arith.necklace(q, deg)}"
    if len(set(texts)) != len(texts):
        return f"duplicate primes of degree {deg}"
    for t in texts:
        f = arith.from_text(t, q)
        if len(f) != deg + 1 or f[-1] != 1 or not arith.is_irreducible(f, q):
            return f"{t} is not a monic irreducible of degree {deg}"
    return None


def _lambda_scan(f, q, recs, code):
    *records, summary = recs
    if "find-counterexample" in f:
        degrees = [int(f["exact-deg"])]
    else:
        degrees = list(range(1, int(f["max-deg"]) + 1))
    for d in degrees:
        bad = _primes_ok([r["prime"] for r in records if r["degree"] == d],
                         q, d)
        if bad:
            return bad
    for r in records:
        if r["passes"] != _takes_nonsquare(arith.from_text(r["prime"], q), q):
            return f"lambda-scan verdict wrong at {r['prime']}"
    failing = [r["prime"] for r in records if not r["passes"]]
    if summary["counterexamples"] != failing:
        return "lambda-scan counterexample list does not match its records"
    known = KNOWN_COUNTEREXAMPLES.get((q, degrees[0]))
    if "find-counterexample" in f:
        if known is not None and len(failing) != known:
            return f"{len(failing)} counterexamples, {known} known"
        return None if code == (0 if failing else 1) else \
            f"exit code {code}"
    return None if code == (1 if failing else 0) else f"exit code {code}"


def _primes(f, q, recs, code):
    if "exact-deg" in f:
        degrees = [int(f["exact-deg"])]
    else:
        degrees = list(range(1, int(f["max-deg"]) + 1))
    for d in degrees:
        bad = _primes_ok([r["prime"] for r in recs if r["degree"] == d], q, d)
        if bad:
            return bad
    if len(recs) != sum(arith.necklace(q, d) for d in degrees):
        return "primes output has records of unrequested degrees"
    return None if code == 0 else f"exit code {code}"


def _thm1_search(f, q, recs, code):
    *certs, summary = recs
    limit = int(f["limit"])
    if summary["found"] != len(certs) or summary["requested"] != limit:
        return "thm1-search summary does not match its certificates"
    for cert in certs:
        if not cert["verified"]:
            return "thm1-search returned an unverified certificate"
        bad = _revalidated(cert)
        if bad:
            return bad
    return None if code == (0 if len(certs) == limit else 1) else \
        f"exit code {code}"


def _congruence_count(n, k, rep_deg, q):
    """Polynomials of degree < n congruent to a fixed residue of degree
    rep_deg modulo a polynomial of degree k."""
    if n >= k:
        return q ** (n - k)
    return 1 if rep_deg < n else 0


def _density(f, q, recs, code):
    """Expected counts for the default class (c1, c2) = (0, 1): the census
    takes b1 = T and b2 = T - 1, both of degree 1."""
    if "c1" in f or "c2" in f or f.get("mode") != "brute":
        return "density oracle covers brute mode with the default class"
    d1, d2, xmax = int(f["d1"]), int(f["d2"]), int(f["x"])
    want = []
    for x in range(1, xmax + 1):
        n1, n2w = d1 * x, d2 * x
        n2s = -(-n2w // (q - 1))
        if q ** (n1 + n2s) > CENSUS_BRUTE_CAP:
            continue
        s = _congruence_count(n1, 2, 1, q) * _congruence_count(n2s, 3, 1, q)
        w = q ** n1 * (q ** n2w - 1)
        w_mode = "brute" if q ** (n1 + n2w) <= CENSUS_BRUTE_CAP else "formula"
        ratio = Fraction(s, w)
        if n1 >= 3 and n2w % (q - 1) == 0 and n2w // (q - 1) >= 3:
            closed = (Fraction(1, q ** 5) * Fraction(q) ** (n2w // (q - 1) - n2w)
                      / (1 - Fraction(1, q ** n2w)))
            if ratio != closed:
                return f"density count ratio at X={x} misses the closed form"
        want.append((x, s, w, w_mode, ratio.numerator, ratio.denominator))
    got = [(r["X"], r["count_S"], r["count_W"], r["w_mode"], r["ratio_num"],
            r["ratio_den"]) for r in recs]
    if got != want:
        return f"density records {got} != expected {want}"
    return None if code == 0 else f"exit code {code}"


def _frob(f, q, recs, code):
    (rec,) = recs
    if rec["identity_holds"] is not True:
        return "frob identity check failed"
    if rec["oracle_matches"] is False:
        return "frob disagrees with the Euler-Poincare oracle"
    prime = arith.from_text(f["prime"], q)
    if arith.from_text(rec["b"], q) != arith.mul([rec["unit"]], prime, q):
        return "frob b is not unit * prime"
    if 2 * (len(arith.from_text(rec["a"], q)) - 1) > len(prime) - 1:
        return "frob trace degree exceeds deg(prime)/2"
    return None if code == 0 else f"exit code {code}"


def _lemma_a1(f, q, recs, code):
    (rec,) = recs
    n = rec["q_field"]
    orders = {c["case"]: c["order"] for c in rec["forced_cases"]}
    if n != q or orders.get("sl2") != n * (n * n - 1) \
            or orders.get("gl2") != (n * n - 1) * (n * n - n):
        return f"lemma-a1 forced orders {orders} wrong for q={n}"
    if rec["violations"] or rec["samples"] != int(f["samples"]):
        return "lemma-a1 reported violations"
    return None if code == 0 else f"exit code {code}"


def _pr_level2(f, q, recs, code):
    (rec,) = recs
    full = (q * q - 1) * (q * q - q) * q ** 4
    forced = {c["case"]: c["order"] for c in rec["forced_cases"]}
    if rec["full_order"] != full or forced.get("full_group") != full:
        return f"pr-level2 full group order {forced.get('full_group')} " \
               f"!= {full}"
    if rec["violations"] or len(rec["sample_cases"]) != int(f["samples"]):
        return "pr-level2 reported violations"
    return None if code == 0 else f"exit code {code}"


def _det_gen(f, q, recs, code):
    (rec,) = recs
    p = arith.from_text(f["prime"], q)
    level, max_deg = int(f["level"]), int(f["max-deg"])
    d = len(p) - 1
    units = q ** (level * d) - q ** ((level - 1) * d)
    if rec["unit_group_order"] != units:
        return "det-gen unit group order wrong"
    modulus = p if level == 1 else arith.mul(p, p, q)
    gens = []
    for deg in range(1, max_deg + 1):
        for idx in range(q ** deg):
            lam = [(idx // q ** i) % q for i in range(deg)] + [1]
            if lam != p and arith.is_irreducible(lam, q):
                gens.append(arith.rem(lam, modulus, q))
    seen = {(1,)}
    frontier = [[1]]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = arith.rem(arith.mul(x, g, q), modulus, q)
            if tuple(y) not in seen:
                seen.add(tuple(y))
                frontier.append(y)
    want = len(seen) == units
    if rec["generated"] != want:
        return f"det-gen generated={rec['generated']}, expected {want}"
    return None if code == (0 if want else 1) else f"exit code {code}"


_CHECKS = {
    "omega": _omega, "lambda": _lambda, "thm1-verify": _certificate,
    "thm2": _thm2, "obstruction": _certificate, "newton": _newton,
    "lambda-scan": _lambda_scan, "primes": _primes,
    "thm1-search": _thm1_search, "density": _density, "frob": _frob,
    "lemma-a1": _lemma_a1, "pr-level2": _pr_level2, "det-gen": _det_gen,
}


def check(argv, code, stdout):
    """None if the job's output is right, else the reason it is not."""
    if code not in (0, 1):
        return f"exit code {code}"
    try:
        recs = [json.loads(line) for line in stdout.splitlines()]
        f = flags(argv)
        return _CHECKS[argv[0]](f, int(f["q"]), recs, code)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"
