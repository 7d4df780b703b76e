import random
from fractions import Fraction

import pytest

from drinfeldlab import drinfeld, frobenius, kernel, residues
from drinfeldlab.drinfeld import (
    DrinfeldModule,
    carlitz_det_module,
    carlitz_module,
    newton_polygon,
    reduce_module,
    reduction_height,
)
from drinfeldlab.errors import (
    InternalInconsistency,
    NotCoprime,
    NotGoodReduction,
    ParamsOutOfRange,
    WrongDegree,
    WrongRank,
)
from drinfeldlab.frobenius import (
    FrobCharpoly,
    det_generation_check,
    euler_poincare_oracle,
    frob_deg1,
    frob_general,
    frob_identity_check,
)
from drinfeldlab.fields import make_field
from drinfeldlab.polys import (
    Poly,
    PrimeIdeal,
    enumerate_monic_irreducibles,
    eval_at,
    is_irreducible,
    parse_poly,
)
from drinfeldlab.residues import ResidueRing
from drinfeldlab.skew import SkewPoly, linear_solve_left
from oracles import (
    abelian_span,
    cofactor_charpoly,
    det_level_check,
    powmod_t_action,
)

F5 = make_field(5)


def P(text):
    return parse_poly(F5, text)


def PI(text):
    return PrimeIdeal(P(text))


def M(g1_text, g2_text):
    return DrinfeldModule(F5, [P(g1_text), P(g2_text)])


def _random_module(rng, shape=False, ctx=F5):
    while True:
        g1 = Poly(ctx, [rng.randrange(ctx.q)
                        for _ in range(rng.randrange(1, 4))])
        g2 = Poly(ctx, [rng.randrange(ctx.q)
                        for _ in range(rng.randrange(1, 4))])
        if g2.is_zero():
            continue
        if shape:
            return carlitz_det_module(ctx, g1, g2)
        return DrinfeldModule(ctx, [g1, g2])


def _good_deg1_primes(phi):
    ctx = phi.ctx
    out = []
    for c in range(ctx.q):
        if not eval_at(phi.g2, ctx.element(c)).is_zero():
            out.append(PrimeIdeal(Poly.from_coeffs(ctx, [(-c) % ctx.q, 1])))
    return out


def test_frob_deg1_carlitz_det_shape_zero_trace():
    # nu_lam(g1) >= 1 on the shape with leading -(g2^(q-1)): a = 0, b = lam
    lam = PI("T+4")  # (T - 1)
    phi = carlitz_det_module(F5, P("T+4"), P("T+1"))
    cp = frob_deg1(phi, lam)
    assert cp.a.is_zero()
    assert cp.b == lam.gen


def test_frob_deg1_worked_example():
    phi = M("1", "4")  # T + tau - tau^2
    cp = frob_deg1(phi, PI("T+3"))  # (T - 2)
    assert cp.a == P("1")
    assert cp.b == P("T+3")
    assert frob_identity_check(phi, cp)


def test_frob_deg1_shape_trace_is_g1_value():
    lam = PI("T+2")  # (T - 3)
    phi = carlitz_det_module(F5, P("T^2+1"), P("T"))
    cp = frob_deg1(phi, lam)
    r2 = eval_at(phi.g1, F5.element(3))
    assert cp.a == Poly.constant(F5, r2)
    assert cp.b == lam.gen


def test_frob_deg1_errors():
    with pytest.raises(WrongDegree):
        frob_deg1(M("1", "4"), PI("T^2+2"))
    with pytest.raises(NotGoodReduction):
        frob_deg1(M("1", "T"), PI("T"))
    with pytest.raises(WrongRank):
        frob_deg1(carlitz_module(F5), PI("T"))  # type: ignore[arg-type]


def test_frob_general_matches_deg1():
    rng = random.Random(31)
    for ctx in (F5, make_field(7)):
        for _ in range(100):
            phi = _random_module(rng, ctx=ctx)
            for lam in _good_deg1_primes(phi):
                assert frob_general(phi, lam) == frob_deg1(phi, lam)


def test_frob_general_deg2():
    phi = M("1", "4")
    lam = PI("T^2+2")
    cp = frob_general(phi, lam)
    assert cp.a.degree <= 1
    assert cp.b == lam.gen  # Nr(-1) = 1 for even degree
    assert frob_identity_check(phi, cp)
    oracle = euler_poincare_oracle(phi, lam)
    p1 = Poly.one(F5) - cp.a + cp.b
    assert oracle == p1.monic()


def test_frob_general_deg3_with_oracle():
    phi = M("T+1", "2")
    lam = PI("T^3+T+1")
    cp = frob_general(phi, lam)
    assert 2 * (len(cp.a.coeffs) - 1) <= 3
    assert frob_identity_check(phi, cp)
    oracle = euler_poincare_oracle(phi, lam)  # 125 <= 5^4 cap
    p1 = Poly.one(F5) - cp.a + cp.b
    assert oracle == p1.monic()


def test_frob_general_deg4_cap_boundary():
    # largest residue field under the default brute cap: 5^4 elements,
    # three trace unknowns; both oracles must still agree
    phi = M("T+1", "2")
    lam = PI("T^4+2")
    cp = frob_general(phi, lam)
    assert cp.a == P("3*T^2+3*T+3")
    assert cp.b == lam.gen
    assert frob_identity_check(phi, cp)
    oracle = euler_poincare_oracle(phi, lam)
    assert oracle == (Poly.one(F5) - cp.a + cp.b).monic()
    from drinfeldlab.errors import BruteCapExceeded

    with pytest.raises(BruteCapExceeded):
        euler_poincare_oracle(phi, PI("T^5+4*T+1"))


def _random_prime(rng, ctx, degree):
    while True:
        gen = Poly(ctx, [rng.randrange(ctx.q) for _ in range(degree)] + [1])
        if is_irreducible(gen):
            return PrimeIdeal(gen, _trusted=True)


def _trace_by_linear_solve(phi, lam, b):
    """The trace a of degree <= m/2 with tau^{2m} + phi_b = phi_a tau^m,
    by an F_q-linear solve against the basis phi_T^i tau^m."""
    red = reduce_module(phi, lam)
    m = lam.degree
    phi_t = red.phi_T()
    tau_m = SkewPoly.tau(red.rc, m)
    phi_b = SkewPoly.zero(red.rc)
    for i, c in enumerate(b.coeffs):
        phi_b = phi_b + (phi_t ** i).scale(c)
    target = SkewPoly.tau(red.rc, 2 * m) + phi_b
    basis = [phi_t ** i * tau_m for i in range(m // 2 + 1)]
    alphas = linear_solve_left(target, basis)
    return Poly.from_coeffs(phi.ctx, [al.val for al in alphas])


def test_frob_general_matches_linear_solve():
    # the linear solve powers phi_T by right multiplication, so it shares no
    # Horner code with frob_general
    rng = random.Random(35)
    F7 = make_field(7)
    for degree in range(1, 9):
        for k in range(25):
            ctx = (F5, F7)[k % 2]
            lam = _random_prime(rng, ctx, degree)
            phi = _random_module(rng, ctx=ctx)
            while (phi.g2 % lam.gen).is_zero():
                phi = _random_module(rng, ctx=ctx)
            cp = frob_general(phi, lam)
            assert _trace_by_linear_solve(phi, lam, cp.b) == cp.a


def test_det_level_check_deg2_lambda():
    phi = carlitz_det_module(F5, P("T+1"), P("T"))
    lam = PI("T^2+2")
    for level in (P("T+3"), P("T^2+3"), P("T") ** 2):
        assert det_level_check(phi, lam, level)


def test_frob_general_wrong_rank():
    with pytest.raises(WrongRank):
        frob_general(carlitz_module(F5), PI("T"))  # type: ignore[arg-type]


def test_identity_check_perturbation():
    phi = M("1", "4")
    for lam in (PI("T+3"), PI("T^2+2")):
        cp = frob_general(phi, lam)
        assert frob_identity_check(phi, cp)
        bad = FrobCharpoly(lam, cp.a + Poly.one(F5), cp.b)
        assert not frob_identity_check(phi, bad)


@pytest.mark.parametrize("ctx", [F5, make_field(5, 2)], ids=["q5", "q25"])
def test_frob_charpoly_wants_a_unit_times_the_prime(ctx):
    # b = u lam for every unit u, read back as u; b = 0, lam + 1, T lam
    # and a nonzero constant are refused
    lam = PrimeIdeal(Poly(ctx, (1, 1, 0, 1)))
    a = Poly.zero(ctx)
    for u in ctx.elements()[1:]:
        assert FrobCharpoly(lam, a, lam.gen * u).unit == u
    for b in (Poly.zero(ctx), lam.gen + Poly.one(ctx), lam.gen * Poly.T(ctx),
              Poly.one(ctx)):
        with pytest.raises(WrongDegree):
            FrobCharpoly(lam, a, b)


def _good_pair(rng, ctx, degree):
    while True:
        phi = _random_module(rng, ctx=ctx)
        gen = Poly(ctx, [rng.randrange(ctx.q) for _ in range(degree)] + [1])
        if is_irreducible(gen) and not (phi.g2 % gen).is_zero():
            return phi, PrimeIdeal(gen, _trusted=True)


@pytest.mark.parametrize("ctx, degree", [
    (F5, 1), (F5, 2), (F5, 9), (make_field(7), 5), (make_field(5, 2), 3)],
    ids=["q5-1", "q5-2", "q5-9", "q7-5", "q25-3"])
def test_identity_check_catches_a_wrong_unit_or_trace(monkeypatch, ctx,
                                                      degree):
    # with b = u lambda for a wrong unit u, phi_b has tau^(2m) coefficient
    # -2, not -1, whatever trace is read off it: frob_general must refuse
    phi, lam = _good_pair(random.Random(700 + ctx.q + degree), ctx, degree)
    cp = frob_general(phi, lam)
    assert frob_identity_check(phi, cp)
    one = Poly.one(ctx)
    assert not frob_identity_check(phi, FrobCharpoly(lam, cp.a + one, cp.b))
    assert not frob_identity_check(phi, FrobCharpoly(lam, cp.a, cp.b * 2))
    if degree >= 2:
        bad_a = cp.a + Poly.T(ctx)
        assert not frob_identity_check(phi, FrobCharpoly(lam, bad_a, cp.b))
    resultant = kernel.vresultant
    monkeypatch.setattr(kernel, "vresultant", lambda ctx, f, g: ctx.mul(
        resultant(ctx, f, g), 2))
    with pytest.raises(InternalInconsistency):
        frob_general(phi, lam)


def test_frob_exits_3_on_a_wrong_unit_at_degree_16(capsys, monkeypatch):
    from drinfeldlab import cli

    resultant = kernel.vresultant
    monkeypatch.setattr(kernel, "vresultant", lambda ctx, f, g: ctx.mul(
        resultant(ctx, f, g), 2))
    code = cli.main(["frob", "--q", "5", "--g1", "1", "--g2", "4",
                     "--prime", "T^16+T^3+3*T+2"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == "" and "bug" in err


def test_euler_poincare_oracle_deg1():
    # phi = T + tau - tau^2 at (T - c): T acts as multiplication by c
    for c in range(5):
        lam = PrimeIdeal(Poly.from_coeffs(F5, [(-c) % 5, 1]))
        phi = M("1", "4")
        oracle = euler_poincare_oracle(phi, lam)
        assert oracle == Poly.from_coeffs(F5, [(-c) % 5, 1])
        cp = frob_deg1(phi, lam)
        p1 = Poly.one(F5) - cp.a + cp.b
        assert oracle == p1.monic()


def test_euler_poincare_oracle_carlitz():
    # Carlitz at (T - c): T acts as multiplication by c + 1
    for c in range(5):
        lam = PrimeIdeal(Poly.from_coeffs(F5, [(-c) % 5, 1]))
        oracle = euler_poincare_oracle(carlitz_module(F5), lam)
        assert oracle == Poly.from_coeffs(F5, [(-(c + 1)) % 5, 1])


def _oracle_agreement_cases():
    """(phi, lam, monic P(1)) from frob_deg1 and frob_general, seeded."""
    rng = random.Random(32)
    cases = []
    for _ in range(50):
        phi = _random_module(rng)
        for lam in _good_deg1_primes(phi):
            cp = frob_deg1(phi, lam)
            cases.append((phi, lam, (Poly.one(F5) - cp.a + cp.b).monic()))
        lam2 = PI("T^2+2")
        if not (phi.g2 % lam2.gen).is_zero():
            cp = frob_general(phi, lam2)
            cases.append((phi, lam2, (Poly.one(F5) - cp.a + cp.b).monic()))
    return cases


def test_oracle_agreement_random():
    for phi, lam, p1 in _oracle_agreement_cases():
        assert euler_poincare_oracle(phi, lam) == p1


@pytest.mark.parametrize("p, m", [(5, 1), (7, 1), (11, 1), (13, 1),
                                  (3, 2), (5, 2), (3, 3), (7, 2), (5, 3)],
                         ids=str)
def test_oracle_matches_the_powmod_t_action(p, m):
    # the running products against one powmod per entry, both charpolys
    # by cofactors, at every degree with q^deg <= 625, rank 1 and rank 2,
    # g_1 zero mod lambda included; where the leading coefficient
    # vanishes mod lambda both refuse
    ctx = make_field(p, m)
    rng = random.Random(960 + ctx.q)
    degree = 1
    while ctx.q ** degree <= frobenius.DEFAULT_BRUTE_CAP:
        for k in range(16):
            lam = _random_prime(rng, ctx, degree)
            phi = _random_module(rng, ctx=ctx)
            while (phi.g2 % lam.gen).is_zero():
                phi = _random_module(rng, ctx=ctx)
            if k % 4 == 1:
                phi = DrinfeldModule(ctx, [phi.g2])
            elif k % 4 == 2:
                phi = DrinfeldModule(ctx, [phi.g1 * lam.gen, phi.g2])
            elif k % 4 == 3:
                phi = DrinfeldModule(ctx, [phi.g1, phi.g2 * lam.gen])
                with pytest.raises(NotGoodReduction):
                    powmod_t_action(phi, lam)
                with pytest.raises(NotGoodReduction):
                    euler_poincare_oracle(phi, lam)
                continue
            want = cofactor_charpoly(ctx, powmod_t_action(phi, lam))
            assert euler_poincare_oracle(phi, lam) == want, (phi, lam)
        degree += 1


@pytest.mark.parametrize("p, m", [(7, 1), (127, 1), (5, 2), (3, 3)],
                         ids=str)
def test_oracle_t_action_matches_the_powmod_t_action(monkeypatch, p, m):
    # at deg lam = 1 to 4, past the residue-field bound (which the test
    # above keeps, so it reaches degree 4 at q = 5 only), the oracle's
    # charpoly equals that of the one-powmod-per-entry columns, both by
    # Hessenberg reduction, so only the T-action differs; rank 1 and 2
    monkeypatch.setattr(frobenius, "DEFAULT_BRUTE_CAP", 127 ** 4)
    ctx = make_field(p, m)
    rng = random.Random(2700 + ctx.q)
    for degree in range(1, 5):
        for rank in (1, 2, 2):
            phi, lam = _good_pair(rng, ctx, degree)
            if rank == 1:
                phi = DrinfeldModule(ctx, [phi.g2])
            want = kernel.vcharpoly(ctx, powmod_t_action(phi, lam))
            assert euler_poincare_oracle(phi, lam) == Poly(ctx, want), (
                phi, lam)


def test_oracle_powmods_only_for_a_second_column(monkeypatch):
    # at deg lam = 1 the one column reads no factor T^(q^i), so no powmod
    # mod lam runs; from deg 2 on, one to the exponent q per tau-degree
    # above 0 (over F_25 the field's own inverses are powmods too)
    monkeypatch.setattr(frobenius, "DEFAULT_BRUTE_CAP", 25 ** 3)
    powmods = []
    vpowmod = kernel.vpowmod
    monkeypatch.setattr(kernel, "vpowmod", lambda ctx, a, e, mod: (
        powmods.append((e, tuple(mod))) or vpowmod(ctx, a, e, mod)))
    for ctx in (F5, make_field(7), make_field(5, 2)):
        rng = random.Random(27 + ctx.q)
        for degree in (1, 2, 3):
            for rank in (1, 2):
                phi, lam = _good_pair(rng, ctx, degree)
                if rank == 1:
                    phi = DrinfeldModule(ctx, [phi.g2])
                powmods.clear()
                euler_poincare_oracle(phi, lam)
                assert [e for e, mod in powmods if mod == lam.gen.coeffs] == (
                    [] if degree == 1 else [ctx.q] * rank)


def test_oracle_is_independent_of_the_frobenius_rows(monkeypatch):
    # the oracle reduces phi_T itself and raises T^j to j q^i by running
    # products, its factors by powmods, so it still answers, and still
    # agrees, with every Frobenius map unavailable (its build, its rows
    # and its twist), and with the reduced module, its Horner map and
    # vhorner unavailable, all of which frob_general reads.  The primes
    # are parsed first (their Rabin test builds a map); the trusted ones
    # have none, and over F_7 and F_25 frob_general would have to build
    # one
    cases = _oracle_agreement_cases()
    for ctx, degree in ((make_field(7), 3), (make_field(5, 2), 2)):
        rng = random.Random(900 + ctx.q)
        for _ in range(4):
            phi, lam = _good_pair(rng, ctx, degree)
            cp = frob_general(phi, lam)
            cases.append((phi, lam, (Poly.one(ctx) - cp.a + cp.b).monic()))
    phi2, lam2 = next((phi, lam) for phi, lam, _ in cases if lam.degree == 2)

    def unavailable(*args):
        raise AssertionError("the oracle used a map or a reduced module")

    for name in ("FrobeniusMap", "vfrobenius", "frobenius_rows",
                 "HornerMap", "vhorner"):
        monkeypatch.setattr(kernel, name, unavailable)
    monkeypatch.setattr(drinfeld.ReducedModule, "__init__", unavailable)
    with pytest.raises(AssertionError):
        frob_general(phi2, lam2)
    for phi, lam, p1 in cases:
        assert euler_poincare_oracle(phi, lam) == p1


def test_frob_general_builds_one_horner_map(monkeypatch):
    # phi_b and phi_a are both formed on the reduced module's one map, at
    # a parsed prime and at a trusted one
    built, used = [], []
    horner_map, vhorner = kernel.HornerMap, kernel.vhorner
    monkeypatch.setattr(kernel, "HornerMap", lambda *args: (
        built.append(horner_map(*args)) or built[-1]))
    monkeypatch.setattr(kernel, "vhorner", lambda step, a, cap=None: (
        used.append(step) or vhorner(step, a, cap)))
    for phi, lam in ((M("1", "4"), PI("T^2+2")),
                     _good_pair(random.Random(41), F5, 5)):
        built.clear()
        used.clear()
        frob_general(phi, lam)
        assert len(built) == 1 and used == built * 2


def test_command_paths_build_no_residue_element(monkeypatch):
    # frob and newton run on kernel vectors alone: with ResidueElement
    # unavailable each call still returns its known values (a, b, the
    # height, the Newton segments), ordinary and supersingular
    cases = [(M("1", "4"), PI("T^2+2"), (1, 3), (2, 0, 1), 1,
              ((Fraction(1, 24), 24), (0, 600))),
             (M("0", "1"), PI("T^3+3*T+2"), (), (3, 2, 0, 4), 2,
              ((Fraction(1, 15624), 15624),)),
             (M("1", "4"), PI("T"), (1,), (0, 1), 1,
              ((Fraction(1, 4), 4), (0, 20)))]

    def unavailable(*args):
        raise AssertionError("a ResidueElement was built")

    monkeypatch.setattr(residues.ResidueElement, "__init__", unavailable)
    for phi, lam, a, b, height, segments in cases:
        cp = frob_general(phi, lam)
        assert (cp.a.coeffs, cp.b.coeffs) == (a, b)
        assert frob_identity_check(phi, cp)
        assert reduction_height(phi, lam) == height
        assert tuple(newton_polygon(phi, lam).segments) == segments


def _charpoly_matrices(rng, q, n):
    """n x n matrices over F_q: the zero matrix, one whose first column
    is zero below the subdiagonal's first entry, which is zero too (no
    pivot: the skip branch), one whose subdiagonal entry is zero with a
    nonzero entry below it (the pivot swap), and seeded ones, dense and
    half zero."""
    def rand(density):
        return [[rng.randrange(q) if rng.random() < density else 0
                 for _ in range(n)] for _ in range(n)]

    out = [[[0] * n for _ in range(n)]]
    if n >= 3:
        skip, swap = rand(1), rand(1)
        for i in range(1, n):
            skip[i][0] = swap[i][0] = 0
        swap[n - 1][0] = rng.randrange(1, q)
        out += [skip, swap]
    return out + [rand(1) for _ in range(4)] + [rand(0.5) for _ in range(4)]


@pytest.mark.parametrize("ctx", [F5, make_field(7), make_field(3, 2),
                                 make_field(5, 2)], ids=lambda c: f"q{c.q}")
def test_hessenberg_charpoly_matches_cofactors(monkeypatch, ctx):
    # kernel.vcharpoly against cofactor expansion up to 6 x 6, with the
    # skip and swap branches of the reduction each taken
    rng = random.Random(950 + ctx.q)
    pivots = []
    inv = kernel._inv
    monkeypatch.setattr(kernel, "_inv", lambda ctx, c: (
        pivots.append(c) or inv(ctx, c)))
    for n in range(1, 7):
        for rows in _charpoly_matrices(rng, ctx.q, n):
            before = [list(r) for r in rows]
            del pivots[:]
            got = kernel.vcharpoly(ctx, rows)
            assert rows == before  # reduced on a copy
            assert Poly(ctx, got) == cofactor_charpoly(ctx, rows), rows
            assert len(got) == n + 1 and got[-1] == 1
            if not any(map(any, rows)):
                assert got == [0] * n + [1]
                assert not pivots  # every column skipped
    for rows, first in ((((1, 2, 3), (0, 4, 1), (0, 1, 2)), None),
                        (((1, 2, 3), (0, 4, 1), (2, 1, 2)), 2)):
        del pivots[:]
        assert Poly(ctx, kernel.vcharpoly(ctx, rows)) == cofactor_charpoly(
            ctx, rows)
        # no pivot in column 0: the only elimination step is skipped; a
        # zero subdiagonal entry: the row below is swapped up as the pivot
        assert pivots == ([] if first is None else [first])


def test_charpoly_invariants_random():
    rng = random.Random(33)
    for _ in range(100):
        phi = _random_module(rng)
        for lam in _good_deg1_primes(phi):
            cp = frob_deg1(phi, lam)
            assert 2 * (len(cp.a.coeffs) - 1) <= lam.degree or cp.a.is_zero()
            assert not cp.unit.is_zero()
            assert cp.b == lam.gen * cp.unit


def test_det_level_check_shape():
    rng = random.Random(34)
    for _ in range(40):
        phi = _random_module(rng, shape=True)
        lams = _good_deg1_primes(phi)
        for lam in lams[:2]:
            for level in (P("T^2+2"), P("T^2+3"), PI("T^2+2").gen ** 2):
                if (level % lam.gen).is_zero():
                    continue
                assert det_level_check(phi, lam, level)


def test_det_level_check_not_coprime():
    phi = carlitz_det_module(F5, P("1"), P("T+1"))
    with pytest.raises(NotCoprime):
        det_level_check(phi, PI("T"), P("T"))


def test_det_generation_examples():
    assert det_generation_check(PI("T"), 1, 1)
    assert det_generation_check(PI("T"), 2, 2)
    with pytest.raises(ParamsOutOfRange):
        det_generation_check(PI("T"), 3, 2)


def _bfs_det_generation_check(p, level, max_deg):
    """Every unit times every prime generator until nothing new appears:
    the oracle for the coset-extension route."""
    ctx = p.ctx
    ring = ResidueRing(p.gen ** level)
    generators = [ring.element(lam.gen) for d in range(1, max_deg + 1)
                  for lam in enumerate_monic_irreducibles(ctx, d) if lam != p]
    d = p.degree
    unit_count = ctx.q ** (level * d) - ctx.q ** ((level - 1) * d)
    seen = {ring.one}
    frontier = [ring.one]
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = x * g
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == unit_count


def test_det_generation_matches_bfs_oracle():
    rng = random.Random(55)
    verdicts = set()
    for q in (5, 7):
        ctx = make_field(q)
        for deg in (1, 2):
            primes = enumerate_monic_irreducibles(ctx, deg)
            for p in rng.sample(primes, 3):
                for level in (1, 2):
                    for max_deg in (0, 1, 2):
                        want = _bfs_det_generation_check(p, level, max_deg)
                        assert det_generation_check(p, level, max_deg) == want
                        verdicts.add(want)
    assert verdicts == {True, False}


def test_det_generation_matches_residue_span():
    # the coefficient-tuple span against abelian_span over ResidueElements,
    # on seeded primes at levels 1 and 2, q = 5 and 7
    rng = random.Random(15)
    verdicts = set()
    for q in (5, 7):
        ctx = make_field(q)
        for deg in (1, 2):
            for p in rng.sample(enumerate_monic_irreducibles(ctx, deg), 2):
                for level in (1, 2):
                    ring = ResidueRing(p.gen ** level)
                    units = q ** (level * deg) - q ** ((level - 1) * deg)
                    for max_deg in (0, 1, 2):
                        gens = (ring.element(lam.gen)
                                for d in range(1, max_deg + 1)
                                for lam in enumerate_monic_irreducibles(ctx, d)
                                if lam != p)
                        span = abelian_span(ring.one, gens,
                                            lambda x, y: x * y, units)
                        want = len(span) == units
                        assert det_generation_check(p, level, max_deg) == want
                        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("q, m, deg, level, max_degs, count", [
    (5, 2, 1, 1, (0, 1, 2), 2), (5, 2, 1, 2, (0, 1), 2),
    (5, 1, 3, 2, (0, 1), 1)])
def test_det_generation_by_structure_matches_bfs_oracle(
        monkeypatch, q, m, deg, level, max_degs, count):
    # over the base field F_25 the level-2 factor 1 + pA/p^2 is F_5^(m deg)
    # = F_5^2, and at a degree-3 prime over F_5 it is F_5^3: the F_p-rank
    # sought is m deg p, and level 1 seeks none
    ranks = []
    vechelon = kernel.vechelon

    def recording(ctx, vectors, dim=None):
        ranks.append(dim)
        return vechelon(ctx, vectors, dim)

    monkeypatch.setattr(kernel, "vechelon", recording)
    ctx = make_field(q, m)
    rng = random.Random(10 * q + m + deg)
    verdicts = set()
    for p in rng.sample(enumerate_monic_irreducibles(ctx, deg), count):
        for max_deg in max_degs:
            want = _bfs_det_generation_check(p, level, max_deg)
            assert det_generation_check(p, level, max_deg) == want
            verdicts.add(want)
    assert verdicts == {True, False}
    assert set(ranks) == ({m * deg} if level == 2 else set())


def test_det_generation_lists_no_units(monkeypatch):
    # 390,000 units in A/(T^4+2)^2: decided with no unit span, both
    # conditions from the degree-1 primes alone, though max-deg 3 admits
    # more.  The library keeps no span; a residue ring lists its elements
    # only through these two methods.
    def refuse(*args, **kwargs):
        raise AssertionError("units listed")

    assert not hasattr(residues, "abelian_span")
    monkeypatch.setattr(residues.ResidueRing, "units", refuse)
    monkeypatch.setattr(residues.ResidueRing, "elements", refuse)
    drawn = []
    enumerate_primes = frobenius.enumerate_monic_irreducibles

    def recording(ctx, degree):
        drawn.append(degree)
        return enumerate_primes(ctx, degree)

    monkeypatch.setattr(frobenius, "enumerate_monic_irreducibles", recording)
    p = PI("T^4+2")
    assert det_generation_check(p, 2, 3) and drawn == [1, 1]
    assert not det_generation_check(p, 2, 0)


def test_det_generation_insufficient_generators():
    # modulo (T-1)^2 the single unit -1+T = (T) mod (T-1)^2... use max_deg
    # so small the group cannot be generated: only T itself is excluded at
    # p = (T), so deg-1 primes give {T-c : c != 0} which already generate;
    # instead check a degree-2 prime with max_deg 0 fails cleanly
    assert not det_generation_check(PI("T^2+2"), 1, 0)
