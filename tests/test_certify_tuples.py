"""The certificates on coefficient tuples, against the object-level route
they replaced.

`criteria` unwraps its inputs once and computes on coefficient tuples:
square tests by the norm on the prime's Frobenius map, valuations by a
vdivmod loop, values and degree-1 traces by integer Horner, and no residue
ring.  The object-level criteria it replaced are kept here as the seeded
oracle, on residue rings, FqElement and Poly arithmetic alone, with
Euler's criterion by powmod in place of the norm.  The CLI records are
also checked with every ResidueElement, Poly and FqElement operation
refused.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from drinfeldlab import cli
from drinfeldlab.criteria import (
    Certificate,
    in_lambda_set,
    in_omega_tilde,
    reducibility_obstruction,
    revalidate,
    theorem1_search,
    theorem1_verify,
    theorem2_build,
)
from drinfeldlab.drinfeld import DrinfeldModule
from drinfeldlab.errors import NotGoodReduction
from drinfeldlab.fields import FqElement, enumerate_elements, make_field
from drinfeldlab.polys import (
    POS_INF,
    Poly,
    PrimeIdeal,
    enumerate_monic_irreducibles,
    eval_at,
    is_irreducible,
    parse_poly,
    poly_to_text,
    valuation,
)
from drinfeldlab.residues import ResidueElement, ResidueRing, residue_inv
from oracles import polys_below, valid_congruence_classes


# -- the object-level route ------------------------------------------------


def _is_square(x):
    """Euler's criterion x^((N-1)/2) = 1 in A/p by powmod; zero is a
    square."""
    return x.is_zero() or x ** ((x.ring.cardinality - 1) // 2) == x.ring.one


def _eval(f, c):
    """f(c) by Horner on FqElements."""
    acc = c.ctx.from_encoded(0)
    for coef in reversed(f.coeffs):
        acc = acc * c + c.ctx.from_encoded(coef)
    return acc


def _valuation(f, lam):
    if f.is_zero():
        return POS_INF
    k = 0
    while True:
        f, r = divmod(f, lam.gen)
        if not r.is_zero():
            return k
        k += 1


def _val_entry(v):
    return "inf" if v is POS_INF else int(v)


def _quadratic_is_irreducible(r, s):
    ring = s.ring
    disc = ring.element(r) * ring.element(r) - ring.element(4) * s
    return not disc.is_zero() and not _is_square(disc)


def _frob_deg1(phi, lam):
    """(a, b) at the degree-1 prime lam = T - c by the closed form."""
    c = -lam.gen.coefficient(0)
    delta_c = _eval(phi.g2, c)
    if delta_c.is_zero():
        raise NotGoodReduction(f"bad reduction at {lam!r}")
    u = -(delta_c.inverse())
    return Poly.constant(phi.ctx, u * _eval(phi.g1, c)), lam.gen * u


def _omega(p):
    ctx = p.ctx
    ring = ResidueRing(p)
    witness, tested = None, 0
    for c1 in enumerate_elements(ctx):
        tested += 1
        if not _is_square(ring.element(Poly.constant(ctx, c1) - Poly.T(ctx))):
            witness = c1
            break
    return Certificate(
        "omega_tilde", ctx.q, {"prime": poly_to_text(p.gen)},
        {"c1": witness.val if witness is not None else None},
        witness is not None,
        [{"check": "exists c1 with c1 - T a non-square mod prime",
          "passed": witness is not None, "euler_tests": tested}])


def _lambda(l, g1, c):
    ctx = l.ctx
    ring = ResidueRing(l)
    nu = _valuation(g1, l)
    r1 = _eval(g1, c)
    s = ring.element(Poly.T(ctx) - Poly.constant(ctx, c))
    quad = _quadratic_is_irreducible(r1, s)
    disc = ring.element(r1) * ring.element(r1) - ring.element(4) * s
    checks = [
        {"check": "g1 outside the prime l", "passed": nu == 0,
         "valuation": _val_entry(nu)},
        {"check": "X^2 - r1*X + (T - c) irreducible mod l", "passed": quad},
    ]
    return Certificate(
        "lambda_triple", ctx.q,
        {"l": poly_to_text(l.gen), "g1": poly_to_text(g1), "c": c.val},
        {"c": c.val, "r1": r1.val, "discriminant": poly_to_text(disc.rep)},
        nu == 0 and quad, checks)


def _theorem1(g1, g2, p, c1, c2):
    ctx = p.ctx
    lam1_gen = Poly.T(ctx) - Poly.constant(ctx, c1)
    lam2_gen = Poly.T(ctx) - Poly.constant(ctx, c2)
    lam1 = PrimeIdeal(lam1_gen, _trusted=True)
    lam2 = PrimeIdeal(lam2_gen, _trusted=True)
    ring = ResidueRing(p)
    witness_ok = not _is_square(
        ring.element(Poly.constant(ctx, c1) - Poly.T(ctx)))
    nu11, nu21 = _valuation(g1, lam1), _valuation(g1, lam2)
    nu12, nu22 = _valuation(g2, lam1), _valuation(g2, lam2)
    checks = [
        {"check": "g2 nonzero", "passed": not g2.is_zero()},
        {"check": "c1 - T non-square mod p", "passed": witness_ok},
        {"check": "lambda2 != lambda1", "passed": c1 != c2},
        {"check": "lambda2 != p", "passed": lam2_gen != p.gen},
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
        "theorem1", ctx.q,
        {"prime": poly_to_text(p.gen), "g1": poly_to_text(g1),
         "g2": poly_to_text(g2), "c1": c1.val, "c2": c2.val},
        {"c1": c1.val, "lambda1": poly_to_text(lam1_gen),
         "lambda2": poly_to_text(lam2_gen),
         "valuations": {"lambda1_g1": _val_entry(nu11),
                        "lambda2_g1": _val_entry(nu21),
                        "lambda1_g2": _val_entry(nu12),
                        "lambda2_g2": _val_entry(nu22)}},
        all(ch["passed"] for ch in checks), checks)


def _theorem1_search(p, max_deg, limit):
    ctx = p.ctx
    elements = enumerate_elements(ctx)
    ring = ResidueRing(p)
    certs = []
    for c1 in elements:
        if _is_square(ring.element(Poly.constant(ctx, c1) - Poly.T(ctx))):
            continue
        lam1_gen = Poly.T(ctx) - Poly.constant(ctx, c1)
        for c2 in elements:
            lam2_gen = Poly.T(ctx) - Poly.constant(ctx, c2)
            if c2 == c1 or lam2_gen == p.gen:
                continue
            m1 = lam1_gen * lam2_gen
            m2 = m1 * lam2_gen
            for b1, b2 in valid_congruence_classes(ctx, c1, c2):
                for a1 in polys_below(ctx, max_deg - 1):
                    g1 = b1 + a1 * m1
                    if len(g1.coeffs) - 1 > max_deg:
                        continue
                    for a2 in polys_below(ctx, max_deg - 2):
                        g2 = b2 + a2 * m2
                        if len(g2.coeffs) - 1 > max_deg:
                            continue
                        cert = _theorem1(g1, g2, p, c1, c2)
                        if cert.verified:
                            certs.append(cert)
                            if len(certs) >= limit:
                                return certs
    return certs


def _theorem2(l, g1, c):
    ctx = l.ctx
    membership = _lambda(l, g1, c)
    module = DrinfeldModule(ctx, [g1, -(l.gen ** (ctx.q - 1))])
    checks = list(membership.checks)
    records = []
    for d in enumerate_elements(ctx):
        lam_gen = Poly.T(ctx) - Poly.constant(ctx, d)
        if lam_gen == l.gen:
            continue
        a, b = _frob_deg1(module, PrimeIdeal(lam_gen, _trusted=True))
        want = Poly.constant(ctx, _eval(g1, d))
        ok = a == want and b == lam_gen
        records.append({"lambda": poly_to_text(lam_gen),
                        "trace": poly_to_text(a),
                        "g1_value": poly_to_text(want), "passed": ok})
        checks.append({"check": f"frobenius trace at {poly_to_text(lam_gen)}"
                                " equals g1 value", "passed": ok})
        if len(records) == 3:
            break
    return module, Certificate(
        "theorem2", ctx.q,
        {"l": poly_to_text(l.gen), "g1": poly_to_text(g1), "c": c.val},
        {"triple": {"l": poly_to_text(l.gen), "g1": poly_to_text(g1),
                    "c": c.val},
         "r1": membership.witnesses["r1"],
         "module": {"g1": poly_to_text(module.g1),
                    "g2": poly_to_text(module.g2)},
         "trace_checks": records},
        membership.verified and all(r["passed"] for r in records), checks)


def _obstruction(phi, p, lams):
    ctx = p.ctx
    ring = ResidueRing(p)
    traces = [(ring.element(lam.gen),
               ring.element(_frob_deg1(phi, lam)[0])) for lam in lams]
    lam1, a1 = traces[0]
    lam2, a2 = next((lam, a) for lam, a in traces if lam != lam1)
    surviving = []
    if a1 != a2:
        zeta = (lam2 - lam1) * residue_inv(a2 - a1)
        zeta_inv = residue_inv(zeta)
        if all(a == zeta_inv * lam + zeta for lam, a in traces):
            surviving.append(poly_to_text(zeta.rep))
    tested = ring.cardinality - 1
    return Certificate(
        "obstruction", ctx.q,
        {"g1": poly_to_text(phi.g1), "g2": poly_to_text(phi.g2),
         "prime": poly_to_text(p.gen),
         "degree1_primes": [poly_to_text(lam.gen) for lam in lams]},
        {"primes": [poly_to_text(lam.gen) for lam in lams],
         "zeta_scan": {"tested": tested, "surviving": surviving}},
        not surviving,
        [{"check": "no unit zeta satisfies every trace congruence",
          "passed": not surviving, "units_tested": tested,
          "surviving": surviving}])


# -- the comparison ----------------------------------------------------------


def _poly(rng, ctx, degree):
    return Poly(ctx, [rng.randrange(ctx.q) for _ in range(degree + 1)])


def _same(new, old):
    """The two routes give one certificate, and it revalidates."""
    assert new.as_dict() == old.as_dict()
    assert new.to_json() == old.to_json()
    assert revalidate(new)
    assert revalidate(json.loads(new.to_json()))
    return new.verified


def _same_or_bad_reduction(new_route, old_route):
    """Both routes raise NotGoodReduction, or give one certificate."""
    try:
        old = old_route()
    except NotGoodReduction:
        with pytest.raises(NotGoodReduction):
            new_route()
        return None
    return _same(new_route(), old)


def _primes(rng, ctx, degree, count):
    """count seeded monic irreducibles of the degree, trusted."""
    out = []
    while len(out) < count:
        f = Poly(ctx, [rng.randrange(ctx.q) for _ in range(degree)] + [1])
        if is_irreducible(f):
            out.append(PrimeIdeal(f, _trusted=True))
    return out


# a degree-5 prime outside the non-square set, where there is one
OMEGA_FAILS = {5: "T^5+4*T+1", 7: "T^5+T^3+2*T^2+5*T+2"}


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_certificates_match_the_object_level_route(q):
    ctx = make_field(q)
    rng = random.Random(2000 + q)
    degree1 = enumerate_monic_irreducibles(ctx, 1)
    verdicts = {kind: set() for kind in ("omega", "lambda", "thm1", "thm2",
                                         "obstruction")}
    for degree in range(1, 7):
        primes = _primes(rng, ctx, degree, 3)
        if degree == 5 and q in OMEGA_FAILS:
            primes.append(PrimeIdeal(parse_poly(ctx, OMEGA_FAILS[q]),
                                     _trusted=True))
        for l in primes:
            p = PrimeIdeal(l.gen)  # untrusted: keeps its Rabin map
            zero = Poly.zero(ctx)
            verdicts["omega"].add(_same(in_omega_tilde(p), _omega(p)))
            verdicts["omega"].add(_same(in_omega_tilde(l), _omega(l)))
            # a random g1, zero g1, g1 in l, and c a root of l at degree 1
            root = ctx.from_encoded((-l.gen.coeffs[0]) % q)
            for g1, c in ((_poly(rng, ctx, rng.randrange(4)),
                           ctx.from_encoded(rng.randrange(q))),
                          (zero, ctx.from_encoded(rng.randrange(q))),
                          (l.gen * _poly(rng, ctx, 1), root),
                          (_poly(rng, ctx, 2), root)):
                verdicts["lambda"].add(_same(in_lambda_set(p, g1, c),
                                             _lambda(p, g1, c)))
                assert valuation(g1, l) == _valuation(g1, l)
                assert eval_at(g1, c) == _eval(g1, c)
                new_module, new = theorem2_build(p, g1, c)
                old_module, old = _theorem2(p, g1, c)
                assert new_module == old_module
                verdicts["thm2"].add(_same(new, old))
            # random pairs, a passing pair, c1 = c2, and lambda2 = p
            c1, c2 = (ctx.from_encoded(v) for v in rng.sample(range(q), 2))
            lin = [Poly.T(ctx) - Poly.constant(ctx, c) for c in (c1, c2)]
            cases = [(_poly(rng, ctx, 3), _poly(rng, ctx, 3), c1, c2),
                     (lin[0] * _poly(rng, ctx, 1) + lin[0] * lin[1],
                      lin[1] * ctx.from_encoded(rng.randrange(1, q)), c1, c2),
                     (zero, zero, c1, c1)]
            if degree == 1:
                cases.append((lin[0], lin[1], c1, root))
            for g1, g2, x1, x2 in cases:
                verdicts["thm1"].add(_same(theorem1_verify(g1, g2, p, x1, x2),
                                           _theorem1(g1, g2, p, x1, x2)))
            # two or three degree-1 primes other than l; some have bad
            # reduction
            lams = rng.sample([lam for lam in degree1 if lam != l],
                              rng.choice((2, 3)))
            modules = [DrinfeldModule(ctx, [_poly(rng, ctx, 2), Poly(ctx, [
                rng.randrange(q), rng.randrange(q), rng.randrange(1, q)])])]
            if degree == 1:
                # p = T - e and phi_T = T + (e + 1 - T) tau - tau^2 give
                # a_lambda = e + 1 - c at lambda = T - c: zeta = 1 survives
                e = (-l.gen.coeffs[0]) % q
                modules.append(DrinfeldModule(ctx, [
                    Poly(ctx, [(e + 1) % q, q - 1]), Poly(ctx, [q - 1])]))
            for phi in modules:
                verdicts["obstruction"].add(_same_or_bad_reduction(
                    lambda: reducibility_obstruction(phi, p, lams),
                    lambda: _obstruction(phi, p, lams)))
    # every kind reaches a passing and a failing certificate (omega fails
    # only at the primes of OMEGA_FAILS)
    for kind, seen in verdicts.items():
        want = {True} if kind == "omega" and q not in OMEGA_FAILS else {
            True, False}
        assert want <= seen, kind


@pytest.mark.parametrize("q, prime, max_deg, limit", [
    (5, "T^2+3", 4, 60), (7, "T^2+1", 3, 40), (11, "T+3", 3, 30)])
def test_theorem1_search_matches_the_object_level_route(q, prime, max_deg,
                                                        limit):
    p = PrimeIdeal(parse_poly(make_field(q), prime))
    new = theorem1_search(p, max_deg, limit)
    old = _theorem1_search(p, max_deg, limit)
    assert [c.as_dict() for c in new] == [c.as_dict() for c in old]
    assert len(new) == limit


# -- no ResidueElement, Poly or FqElement arithmetic in the commands -------

# (argv, sha256 of its stdout, exit code), recorded from the object-level
# route; a degree-64 prime over F_5, T^64+T+4, among them
GUARDED_CALLS = (
    ("omega --q 5 --prime T+4", 0,
     "aaa3eb4e1b8347450967230276ff38c0035626f23c35488a23b9c98142cbd72f"),
    ("omega --q 5 --prime T^5+4*T+1", 1,
     "1bdc8663ef1d87530b1b15acec0db4597d010276620f142ab62f50d066ddaf3a"),
    ("omega --q 5 --prime T^64+T+4", 0,
     "c386d9c9122332dfeb8063de1a02ed2ef6591bece4d6e801d40bfc1f4a521bda"),
    ("omega --q 7 --prime T^3+T+1", 0,
     "44a0101d613022b6c0d28c10d65c3bf1827b424546576aa123030630035857b6"),
    ("lambda --q 5 --l T --g1 1 --c 3", 0,
     "2ec3817d6f5f659f9dfea2e8c367201309fb8b28252ad2221fb75a3ffa9f9d93"),
    ("lambda --q 5 --l T^64+T+4 --g1 T^2+3 --c 2", 0,
     "b03cb7eeb4f72e127da26d9a0b99f8ca410e824858753e09886f8b98704cfd71"),
    ("lambda --q 7 --l T+4 --g1 0 --c 3", 1,
     "54094420eaf2f7483b08bec4d3d87b5b5fb2ccca5f26b90807d0fc2deefebb8e"),
    ("thm1-verify --q 5 --g1 T --g2 T+4 --prime T^2+3 --c1 0 --c2 1", 0,
     "000c590499377f9e5c3f2a072d587062ca5ad0efe7ace22127b72b22f65630b7"),
    ("thm1-verify --q 7 --g1 T^2+1 --g2 3 --prime T^3+T+1 --c1 2 --c2 2", 1,
     "3ce2a9c25e4733a2a242b35debc13a14de98765ba6a1eef9a9ba61d023531c70"),
    ("thm1-search --q 5 --prime T^2+3 --max-deg 4 --limit 100", 0,
     "246594095557b404f2e2a9126119a33c191a4dddb69ef0970d1506bdd65dfa20"),
    ("thm2 --q 5 --l T --g1 1 --c 3", 0,
     "208f5d764ee7eb0db3e648ab34b5a63c3354e0c0e6d9fc3f2e5f5fd54274d543"),
    ("thm2 --q 7 --l T^3+T+1 --g1 T+2 --c 5", 0,
     "d8d57baaa536294293108690474bf926ab7b6d697150ec6d62a5d930d65df18e"),
    ("obstruction --q 5 --g1 1 --g2 4*T^4 --prime T+1 --c1 1 --c2 2", 0,
     "8ba4c8f3e603f4f520f835b5b9213f39098fe4a964ee2fc5075b583d8ed20e86"),
    ("obstruction --q 5 --g1 4*T+1 --g2 4 --prime T --c1 1 --c2 2", 1,
     "35a05320073746bbf7a37e6519ccbeb20cfe7a75f030876d0321f5704b5c0a84"),
    # bad reduction at T - 0: exit 2, nothing printed
    ("obstruction --q 5 --g1 1 --g2 T --prime T+1 --c1 0 --c2 2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("lambda-scan --q 5 --max-deg 4", 0,
     "a881fd159b055a5d6da8232040f1e7bf30723b64bcaf047eb7e4ed281cf0410e"),
    ("lambda-scan --q 5 --exact-deg 5 --find-counterexample", 0,
     "8771795381cd32bfdace4a350fb23c45fd27700e3e53653d92ab2d2ce6676345"),
    ("primes --q 7 --max-deg 3", 0,
     "8965c9082ebca388e45d7289f3dbf71b5b1beb11069e259b9ac426cb44132220"),
    ("--output csv thm2 --q 5 --l T --g1 1 --c 3", 0,
     "76890df9b9b641af1cc749e34401e33aaae512615e2ead5bdad45c220fd36569"),
    ("--output pretty omega --q 5 --prime T^2+2", 0,
     "e572d43f375180ea4a2cd916418e292b3a1c3ec42303039c14ab0aeda5147308"),
)


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} ran")
    return refuse


def _guard(monkeypatch):
    monkeypatch.setattr(ResidueElement, "__init__",
                        _refuse("ResidueElement.__init__"))
    for cls, names in (
            (Poly, ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                    "__mul__", "__rmul__", "__pow__", "__divmod__",
                    "__floordiv__", "__mod__")),
            (FqElement, ("__add__", "__radd__", "__sub__", "__rsub__",
                         "__neg__", "__mul__", "__rmul__", "__truediv__",
                         "__pow__", "inverse"))):
        for name in names:
            monkeypatch.setattr(cls, name, _refuse(f"{cls.__name__}.{name}"))


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv, code, digest", GUARDED_CALLS,
                         ids=[argv for argv, _, _ in GUARDED_CALLS])
def test_commands_print_the_same_records_without_object_arithmetic(
        argv, code, digest, monkeypatch):
    _guard(monkeypatch)
    assert _stdout(argv.split()) == (code, digest)
