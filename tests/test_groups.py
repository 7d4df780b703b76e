import itertools
import json
import math
import random

import pytest

from drinfeldlab import frobenius, groups, kernel
from drinfeldlab.cli import main
from drinfeldlab.errors import (
    CapExceeded,
    ContextMismatch,
    NotAField,
    NotInvertible,
    ParamsOutOfRange,
)
from drinfeldlab.fields import make_field
from drinfeldlab.groups import (
    DEFAULT_CLOSURE_CAP,
    LEMMA_FIELD_CAP,
    SAMPLE_CAP,
    Mat2,
    acts_irreducibly,
    check_samples,
    closure,
    contains_sl2,
    identity,
    pink_rutsche_level2,
    sl2_group,
    verify_lemma_A1,
    _Level2,
    _acts_irreducibly_encoded,
    _lemma_facts,
    _lemma_generators,
    _primitive_companion,
    _random_invertible,
    _sl2_generators,
    _tables,
    _unit_generator,
)
from drinfeldlab.polys import Poly, PrimeIdeal, parse_poly, poly_to_text
from drinfeldlab.residues import ResidueElement, ResidueRing, residue_inv
from oracles import abelian_span

F5 = make_field(5)
RING5 = ResidueRing(parse_poly(F5, "T"))


def test_closure_identity():
    H = closure([identity(RING5)])
    assert H == {identity(RING5)}


def test_closure_sl2_order():
    H = sl2_group(RING5)
    assert len(H) == 120
    for m in list(H)[:10]:
        assert m.det() == RING5.one


def test_closure_gl2_order():
    gens = [Mat2(RING5, ((1, 1), (0, 1))), Mat2(RING5, ((1, 0), (1, 1))),
            Mat2(RING5, ((2, 0), (0, 1)))]
    H = closure(gens)
    assert len(H) == 480


def test_closure_rejects_noninvertible():
    with pytest.raises(NotInvertible):
        closure([Mat2(RING5, ((1, 0), (0, 0)))])


def test_closure_cap():
    gens = [Mat2(RING5, ((1, 1), (0, 1))), Mat2(RING5, ((1, 0), (1, 1)))]
    with pytest.raises(CapExceeded):
        closure(gens, cap=50)


def test_closure_cap_checked_at_insertion():
    # SL_2(F_5) has 120 elements; the BFS must stop at the first element
    # past the cap, not at the end of a frontier level
    gens = [Mat2(RING5, ((1, 1), (0, 1))), Mat2(RING5, ((1, 0), (1, 1)))]
    for cap in (1, 7, 50, 119):
        tab = _tables(RING5)
        with pytest.raises(CapExceeded) as exc:
            tab.closure([tab.encode(g) for g in gens], cap)
        assert len(exc.traceback[-1].locals["seen"]) == cap + 1
    assert len(closure(gens, cap=120)) == 120


def test_acts_irreducibly():
    diagonal = closure([Mat2(RING5, ((2, 0), (0, 1))),
                        Mat2(RING5, ((1, 0), (0, 2)))])
    assert not acts_irreducibly(diagonal)
    gl2 = closure([Mat2(RING5, ((1, 1), (0, 1))),
                   Mat2(RING5, ((1, 0), (1, 1))),
                   Mat2(RING5, ((2, 0), (0, 1)))])
    assert acts_irreducibly(gl2)
    cartan = _nonsplit_cartan(RING5)
    assert len(cartan) == 24
    assert acts_irreducibly(cartan)


def _companion_span(ring, r, s):
    """Every aI + bM with (a, b) != 0, M = [[0, s], [1, r]]: the unit group
    of F[M], the non-split Cartan when X^2 - rX - s is irreducible, listed
    element by element."""
    return {Mat2(ring, ((a, b * s), (b, a + b * r)))
            for a in ring.elements() for b in ring.elements()
            if not (a.is_zero() and b.is_zero())}


def _first_irreducible_companion(ring):
    """(r, s) of the first X^2 - rX - s irreducible over the field."""
    from drinfeldlab.residues import is_square_mod_prime

    return next((r, s) for r in ring.elements() for s in ring.elements()
                if not (r * r + ring.element(4) * s).is_zero()
                and not is_square_mod_prime(r * r + ring.element(4) * s))


def _nonsplit_cartan(ring):
    """The non-split Cartan of the first irreducible companion matrix M by
    explicit closure: as xI + yM = y((x/y)I + M) for y != 0, the scalars gI
    (g generating the units) and the shifts aI + M generate it."""
    r, s = _first_irreducible_companion(ring)
    g = _first_generator_by_order(ring)
    shifts = [Mat2(ring, ((a, s), (1, a + r))) for a in ring.elements()]
    return closure([Mat2(ring, ((g, 0), (0, g)))] + shifts)


@pytest.mark.parametrize("q, modulus", [(5, "T"), (7, "T"), (13, "T"),
                                        (5, "T^2+2")])
def test_nonsplit_cartan_closure_matches_enumeration(q, modulus):
    # the lemma lab's one generator, a companion matrix of order N^2 - 1,
    # spans the whole enumerated Cartan, as do scalars and shifts
    ring = ResidueRing(parse_poly(make_field(q), modulus))
    cartan = _nonsplit_cartan(ring)
    assert len(cartan) == ring.cardinality ** 2 - 1
    assert cartan == _companion_span(ring, *_first_irreducible_companion(ring))
    tab = _tables(ring)
    generator = _primitive_companion(tab)
    _, s, _, r = generator
    want = _companion_span(ring, ring.from_index(r), ring.from_index(s))
    assert len(want) == ring.cardinality ** 2 - 1
    assert closure([tab.decode(generator)]) == want
    assert _lemma_generators(tab)["nonsplit_cartan"] == [generator]


def _exhaustive_companion(tab):
    """The first companion [[0, s], [1, r]] of order N^2 - 1, every unit s
    tried, by powers of the matrix alone."""
    order = tab.n ** 2 - 1
    one = tab.ident
    for r in range(tab.n):
        for s in sorted(tab.units):
            m = (0, s, 1, r)
            if kernel.power(m, order, tab.mat_mul, one) == one and all(
                    kernel.power(m, order // l, tab.mat_mul, one) != one
                    for l in kernel.prime_divisors(order)):
                return m


@pytest.mark.parametrize("q", [5, 7, 11, 13, 101, 127])
def test_primitive_companion_matches_exhaustive_search(q, monkeypatch):
    # only an s whose -s generates F_q^* is tried, and prime_divisors runs
    # once; the first companion found is the same
    tab = _tables(ResidueRing(parse_poly(make_field(q), "T")))
    want = _exhaustive_companion(tab)
    log = tab.log
    factored = []
    prime_divisors = kernel.prime_divisors
    monkeypatch.setattr(kernel, "prime_divisors",
                        lambda n: factored.append(n) or prime_divisors(n))
    assert _primitive_companion(tab) == want
    assert factored == [q * q - 1]
    assert math.gcd(log[tab.neg[want[1]]], q - 1) == 1


def test_acts_irreducibly_needs_field():
    ring = ResidueRing(parse_poly(F5, "T^2"))
    with pytest.raises(NotAField):
        acts_irreducibly([identity(ring)])


def test_contains_sl2():
    gl2 = closure([Mat2(RING5, ((1, 1), (0, 1))),
                   Mat2(RING5, ((1, 0), (1, 1))),
                   Mat2(RING5, ((2, 0), (0, 1)))])
    assert contains_sl2(gl2)
    assert contains_sl2(sl2_group(RING5))
    borel = closure([Mat2(RING5, ((2, 0), (0, 1))),
                     Mat2(RING5, ((1, 0), (0, 2))),
                     Mat2(RING5, ((1, 1), (0, 1)))])
    assert len(borel) == 80
    assert not contains_sl2(borel)


def test_lagrange_property():
    import random

    rng = random.Random(77)
    gl2_order = (25 - 1) * (25 - 5)
    for _ in range(15):
        gens = []
        for _ in range(rng.choice((1, 2))):
            while True:
                m = Mat2(RING5, tuple(
                    tuple(rng.randrange(5) for _ in range(2))
                    for _ in range(2)))
                if m.is_invertible():
                    break
            gens.append(m)
        H = closure(gens)
        assert gl2_order % len(H) == 0


def test_verify_lemma_a1_f5():
    report = verify_lemma_A1(RING5, samples=60, seed=11)
    assert report["violations"] == []
    assert report["hypothesis_hits"] >= 1
    cases = {c["case"]: c for c in report["forced_cases"]}
    assert cases["gl2"]["hypotheses_met"] and cases["gl2"]["contains_sl2"]
    assert cases["sl2"]["contains_sl2"]
    assert not cases["borel"]["acts_irreducibly"]
    assert cases["nonsplit_cartan"]["acts_irreducibly"]
    assert not cases["nonsplit_cartan"]["has_subgroup_of_field_order"]
    assert cases["borel"]["order"] == 80
    assert cases["split_cartan"]["order"] == 16
    assert cases["nonsplit_cartan"]["order"] == 24


def test_verify_lemma_a1_f7():
    ring7 = ResidueRing(parse_poly(make_field(7), "T"))
    report = verify_lemma_A1(ring7, samples=40, seed=12)
    assert report["violations"] == []
    cases = {c["case"]: c for c in report["forced_cases"]}
    assert cases["sl2"]["order"] == 336
    assert cases["gl2"]["order"] == 2016


def test_verify_lemma_a1_determinism():
    a = verify_lemma_A1(RING5, samples=25, seed=5)
    b = verify_lemma_A1(RING5, samples=25, seed=5)
    assert a == b


def test_verify_lemma_a1_budget(monkeypatch, capsys):
    # a field of 131 > LEMMA_FIELD_CAP elements is refused before the
    # dense tables are built; at the CLI that is a usage error
    assert LEMMA_FIELD_CAP == 128

    def refuse(ring):
        raise AssertionError("tables built")

    monkeypatch.setattr(groups, "_Tables", refuse)
    ring = ResidueRing(parse_poly(make_field(131), "T"))
    with pytest.raises(CapExceeded):
        verify_lemma_A1(ring, samples=1, seed=1)
    code = main(["lemma-a1", "--q", "131", "--prime", "T", "--samples", "1",
                 "--seed", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("q, modulus", [(5, "T^3+T+1"), (127, "T")])
def test_verify_lemma_a1_at_the_field_bound(capsys, q, modulus):
    # F_125 = A/(T^3+T+1) and F_127, one sample each, through the CLI
    code = main(["lemma-a1", "--q", str(q), "--prime", modulus,
                 "--samples", "1", "--seed", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["violations"] == []
    N = report["q_field"]
    assert N in (125, 127)
    cases = {c["case"]: c for c in report["forced_cases"]}
    assert cases["gl2"]["order"] == (N * N - 1) * (N * N - N)
    assert cases["sl2"]["order"] == N * (N * N - 1)
    assert cases["nonsplit_cartan"]["order"] == N * N - 1
    assert cases["gl2"]["contains_sl2"] and cases["gl2"]["hypotheses_met"]
    assert not cases["borel"]["acts_irreducibly"]


def _bfs_lemma_facts(tab, sl2, gens):
    """(|H|, H acts irreducibly, SL_2 <= H) for H = <gens> from its explicit
    BFS closure: closure, acts_irreducibly and contains_sl2 on the encoded
    elements, so GL_2(F_25) is not decoded into 374,400 Mat2 objects."""
    H = tab.closure(gens, DEFAULT_CLOSURE_CAP)
    return len(H), _acts_irreducibly_encoded(tab, H), sl2 <= H


@pytest.mark.parametrize("q, modulus, count", [(5, "T", 300), (7, "T", 300),
                                               (11, "T", 30),
                                               (5, "T^2+2", 20)])
def test_lemma_facts_match_bfs_oracle(q, modulus, count):
    # the stabiliser chain against BFS on the forced generator sets and on
    # seeded subgroups with 1-3 random generators
    ring = ResidueRing(parse_poly(make_field(q), modulus))
    tab = _tables(ring)
    sl2 = tab.closure(_sl2_generators(tab), DEFAULT_CLOSURE_CAP)
    rng = random.Random(100 * q + count)
    sets = list(_lemma_generators(tab).values())
    for _ in range(count):
        sets.append([_random_invertible(rng, tab)
                     for _ in range(rng.choice((1, 2, 3)))])
    seen = set()
    for gens in sets:
        facts = _lemma_facts(tab, gens)
        assert facts == _bfs_lemma_facts(tab, sl2, gens), gens
        seen.add(facts[1:])
    # reducible and irreducible subgroups, with and without SL_2
    assert seen == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize("modulus, seed", [("T^2+2", 25), ("T^3+T+1", 125)])
def test_lemma_facts_p_part_on_borel_subgroups(modulus, seed):
    # subgroups of the Borel whose unipotent part H n U is a proper F_5-
    # subspace of F_25 or F_125: lower triangular generators with diagonal
    # entries in F_5^* and unipotent entries in a random F_5-span of fewer
    # than deg directions, over F_25 with a scalar of order 3 beside them,
    # half of them conjugated off the Borel; the p-part step of the Borel
    # projection against BFS, each closure below 2,000 elements
    ring = ResidueRing(parse_poly(F5, modulus))
    tab = _tables(ring)
    n, MUL, ADD = tab.n, tab.mul, tab.add
    rng = random.Random(seed)
    orders = set()
    for _ in range(40):
        directions = [rng.randrange(1, n)
                      for _ in range(rng.randrange(1, ring.degree))]
        gens = []
        for _ in range(rng.choice((1, 2, 3))):
            c = 0
            for u in directions:
                c = ADD[c][MUL[rng.randrange(5)][u]]
            gens.append((rng.randrange(1, 5), 0, c, rng.randrange(1, 5)))
        if n == 25 and rng.random() < 0.5:
            cube = kernel.power(_unit_generator(tab), 8,
                                lambda x, y: MUL[x][y], 1)
            gens.append((cube, 0, 0, cube))
        if rng.random() < 0.5:
            w = _random_invertible(rng, tab)
            gens = [tab.mat_mul(tab.mat_mul(tab.mat_inv(w), g), w)
                    for g in gens]
        H = tab.closure(gens, 2000)
        assert len(H) < 2000 and math.gcd(len(H), n) < n
        assert _lemma_facts(tab, gens) == (
            len(H), _acts_irreducibly_encoded(tab, H), False), gens
        orders.add(len(H))
    # H n U of order 5, and of order 25 inside F_125, is reached
    assert 80 in orders and (n == 25 or 400 in orders)


def test_verify_lemma_a1_f25():
    # the largest field the BFS closures reached: F_25 = A/(T^2+2)
    ring = ResidueRing(parse_poly(F5, "T^2+2"))
    report = verify_lemma_A1(ring, samples=3, seed=6)
    assert report["violations"] == []
    cases = {c["case"]: c for c in report["forced_cases"]}
    assert cases["gl2"]["order"] == (625 - 1) * (625 - 25)
    assert cases["sl2"]["order"] == cases["gl2"]["order"] // 24
    assert cases["nonsplit_cartan"]["order"] == 624


def test_pink_rutsche_level2_small_run():
    p = PrimeIdeal(parse_poly(F5, "T"))
    report = pink_rutsche_level2(p, samples=3, seed=7)
    assert report["violations"] == []
    assert report["full_order"] == 300000
    assert len(report["sample_cases"]) == 3
    cases = {c["case"]: c for c in report["forced_cases"]}
    assert cases["full_group"]["hypotheses_met"]
    assert cases["full_group"]["is_full_group"]
    lift = cases["teichmuller_lift"]
    assert not lift["hypotheses_met"]
    assert not lift["det_full"]
    assert not lift["level1_nonscalar"]
    assert lift["mod_p_full"]
    assert lift["order"] == 480


def test_pink_rutsche_determinism():
    p = PrimeIdeal(parse_poly(F5, "T"))
    a = pink_rutsche_level2(p, samples=2, seed=9)
    b = pink_rutsche_level2(p, samples=2, seed=9)
    assert a == b


def test_pink_rutsche_rejects_higher_degree():
    p = PrimeIdeal(parse_poly(F5, "T^2+2"))
    with pytest.raises(ParamsOutOfRange):
        pink_rutsche_level2(p, samples=1, seed=1)


def test_pink_rutsche_nontrivial_prime():
    # the lab works at any degree-1 prime, not just (T)
    p = PrimeIdeal(parse_poly(F5, "T+2"))
    report = pink_rutsche_level2(p, samples=1, seed=4)
    assert report["violations"] == []
    assert {c["case"]: c for c in report["forced_cases"]}[
        "full_group"]["is_full_group"]


# (modulus, encoded generators) -> facts of the BFS closure, so the
# forced cases close once per prime
_BFS_FACTS = {}


def _bfs_facts(p, mats):
    """(|H|, det(H) full, |H mod p|, H has a non-scalar element that is
    the identity mod p) for H = <mats>, by explicit BFS closure of H inside
    GL_2(A/p^2): the oracle for the congruence-kernel route."""
    q = p.ctx.q
    ring2 = ResidueRing(p.gen ** 2)
    tab2 = _tables(ring2)
    key = (ring2.modulus, tuple(tab2.encode(m) for m in mats))
    if key in _BFS_FACTS:
        return _BFS_FACTS[key]
    ring1 = ResidueRing(p)
    proj = []
    pi_digit = []
    for i in range(ring2.cardinality):
        x = ring2.from_index(i)
        proj.append(ring1.index_of(ring1.element(x.rep)))
        digit = (x.rep - (x.rep % p.gen)) // p.gen
        pi_digit.append(ring1.index_of(ring1.element(digit)))
    one1 = ring1.index_of(ring1.one)
    zero1 = ring1.index_of(ring1.zero)

    def has_level1_nonscalar(H_enc):
        for a, b, c, d in H_enc:
            if (proj[a], proj[b], proj[c], proj[d]) != (one1, zero1, zero1,
                                                        one1):
                continue
            n00, n01, n10, n11 = (pi_digit[a], pi_digit[b], pi_digit[c],
                                  pi_digit[d])
            if n01 != zero1 or n10 != zero1 or n00 != n11:
                return True
        return False

    H_enc = tab2.closure(list(key[1]), DEFAULT_CLOSURE_CAP)
    facts = (len(H_enc),
             len({tab2.mat_det(x) for x in H_enc}) == q * q - q,
             len({(proj[a], proj[b], proj[c], proj[d])
                  for a, b, c, d in H_enc}),
             has_level1_nonscalar(H_enc))
    _BFS_FACTS[key] = facts
    return facts


def _random_invertible_elements(rng, ring):
    """The same draws as groups._random_invertible, built from residues."""
    n = ring.cardinality
    while True:
        m = Mat2(ring, ((ring.from_index(rng.randrange(n)),
                         ring.from_index(rng.randrange(n))),
                        (ring.from_index(rng.randrange(n)),
                         ring.from_index(rng.randrange(n)))))
        if m.is_invertible():
            return m


@pytest.mark.parametrize("q, modulus", [(5, "T"), (13, "T+2"), (5, "T^2+2"),
                                        (5, "T^2")])
def test_random_invertible_index_draws_match_element_draws(q, modulus):
    # the samplers of both labs draw matrices as index 4-tuples; they are
    # the matrices that four from_index draws and is_invertible would give
    ring = ResidueRing(parse_poly(make_field(q), modulus))
    tab = _tables(ring)
    fast, slow = random.Random(q), random.Random(q)
    for _ in range(200):
        assert (tab.decode(_random_invertible(fast, tab))
                == _random_invertible_elements(slow, ring))
    assert fast.random() == slow.random()


def _bfs_pink_rutsche_level2(p, samples, seed):
    """The level-2 lab report with every subgroup closed by BFS."""
    q = p.ctx.q
    full_order = (q * q - 1) * (q * q - q) * q ** 4
    ring2 = ResidueRing(p.gen ** 2)
    ring1 = ResidueRing(p)

    def examine(name, gens):
        order, det_full, modp_order, nonscalar = _bfs_facts(p, gens)
        modp_full = modp_order == (q * q - 1) * (q * q - q)
        hypotheses = det_full and modp_full and nonscalar
        record = {"case": name, "order": order, "det_full": det_full,
                  "mod_p_full": modp_full,
                  "level1_nonscalar": nonscalar,
                  "hypotheses_met": hypotheses,
                  "is_full_group": order == full_order}
        if hypotheses and order != full_order:
            violations.append(record)
        return record

    g2 = _first_generator_by_order(ring2)
    pi = ring2.element(p.gen)
    forced_sets = {
        "full_group": [Mat2(ring2, ((1, 1), (0, 1))),
                       Mat2(ring2, ((1, 0), (1, 1))),
                       Mat2(ring2, ((ring2.one, pi), (0, 1))),
                       Mat2(ring2, ((1, 0), (pi, ring2.one))),
                       Mat2(ring2, ((g2, 0), (0, 1)))],
        "teichmuller_lift": [Mat2(ring2, ((1, 1), (0, 1))),
                             Mat2(ring2, ((1, 0), (1, 1))),
                             Mat2(ring2, ((_first_generator_by_order(ring1).rep,
                                           0), (0, 1)))],
    }
    rng = random.Random(seed)
    violations = []
    forced_records = [examine(name, gens)
                      for name, gens in forced_sets.items()]
    sample_records = []
    for i in range(samples):
        k = rng.choice((2, 2, 3))
        gens = [_random_invertible_elements(rng, ring2) for _ in range(k)]
        sample_records.append(examine(f"sample_{i}", gens))
    filtered_out = sum(1 for r in forced_records + sample_records
                       if not r["hypotheses_met"])
    return {
        "op": "pink_rutsche_level2",
        "ring": poly_to_text(ring2.modulus),
        "prime": poly_to_text(p.gen),
        "seed": seed,
        "samples": samples,
        "full_order": full_order,
        "filtered_out": filtered_out,
        "violations": violations,
        "forced_cases": forced_records,
        "sample_cases": sample_records,
    }


def test_level2_facts_match_bfs_on_structured_subgroups():
    # the constant matrices GL_2(F_5) plus one level-1 element: the kernel
    # part is the scalars (rank 1), sl_2 (rank 3) or all of M_2 (rank 4);
    # diagonal constants plus diag(1+T, 1): the kernel part is diag(*, 0)
    p = PrimeIdeal(parse_poly(F5, "T"))
    ring2 = ResidueRing(p.gen ** 2)
    t = ring2.t
    constants = [Mat2(ring2, ((1, 1), (0, 1))), Mat2(ring2, ((1, 0), (1, 1))),
                 Mat2(ring2, ((2, 0), (0, 1)))]
    diagonal = [Mat2(ring2, ((2, 0), (0, 1))), Mat2(ring2, ((1, 0), (0, 2)))]
    cases = [
        (constants + [Mat2(ring2, ((1 + t, 0), (0, 1 + t)))],
         (2400, True, 480, False)),
        (constants + [Mat2(ring2, ((1, t), (0, 1)))],
         (60000, False, 480, True)),
        (constants + [Mat2(ring2, ((1 + t, 0), (0, 1)))],
         (300000, True, 480, True)),
        (constants, (480, False, 480, False)),
        (diagonal + [Mat2(ring2, ((1 + t, 0), (0, 1)))],
         (80, True, 16, True)),
    ]
    lab = _Level2(p)
    for mats, want in cases:
        assert lab.facts([lab.tab.encode(m) for m in mats]) == want
        assert _bfs_facts(p, mats) == want


def _lift_bfs_facts(lab, gens):
    """(|H|, det(H) full, |Hbar|, H n K not scalar) for H = <gens> by a BFS
    over Hbar that keeps one lift r_x per element; the Schreier generators
    r_x g r_(xg)^-1 generate H n K and their pi-digit matrices span it.
    Only Hbar is listed, so this oracle reaches q = 11."""
    tab, proj, digits, m = lab.tab, lab.proj, lab.digits, lab.m

    def bar(x):
        return tuple(proj[e] for e in x)

    lifts = {bar(tab.ident): tab.ident}
    frontier = [tab.ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tab.mat_mul(x, g)
                if bar(y) not in lifts:
                    lifts[bar(y)] = y
                    nxt.append(y)
        frontier = nxt
    inv_lift = {key: tab.mat_inv(r) for key, r in lifts.items()}
    congruent = [tab.mat_mul(y, inv_lift[bar(y)])
              for y in (tab.mat_mul(r, g) for r in lifts.values()
                        for g in gens)]
    rows = kernel.vechelon(kernel.Zp(lab.char),
                           [sum((digits[e] for e in s), ()) for s in congruent],
                           4 * m)
    basis = [row + [0] * (4 * m - len(row)) for row in rows.values()]
    units = len(tab.units)  # listed from the inverse table
    dets = abelian_span(tab.one, [tab.mat_det(g) for g in gens],
                        lambda x, y: tab.mul[x][y], units)
    return (len(lifts) * lab.char ** len(basis), len(dets) == units,
            len(lifts),
            any(any(v[m:3 * m]) or v[:m] != v[3 * m:] for v in basis))


@pytest.mark.parametrize("q, prime, count", [(7, "T", 6), (7, "T+3", 6),
                                             (11, "T", 3)])
def test_level2_facts_match_lift_bfs(q, prime, count):
    # the stabiliser chain against a BFS over the mod-p image, past the
    # q = 5 reach of the full BFS oracle: seeded generator sets, each drawn
    # from GL_2(A/p^2), from its mod-p Borel, or from its mod-p torus
    lab = _Level2(PrimeIdeal(parse_poly(make_field(q), prime)))
    tab = lab.tab
    in_p = [x for x in range(tab.n) if lab.proj[x] == lab.tab1.zero]
    rng = random.Random(q + count)
    seen = set()
    for shape in ("gl2", "borel", "torus") * count:
        gens = []
        for _ in range(rng.choice((1, 2, 3))):
            a, b, c, d = _random_invertible(rng, tab)
            while shape != "gl2" and lab.proj[c] != lab.tab1.zero:
                c = rng.choice(in_p)
            if shape == "torus":
                b = rng.choice(in_p)
            if tab.mat_det((a, b, c, d)) in tab.units:
                gens.append((a, b, c, d))
        gens = gens or [tab.ident]
        facts = lab.facts(gens)
        assert facts == _lift_bfs_facts(lab, gens), gens
        seen.add(facts[1:])
    # full and partial determinants, scalar and non-scalar kernel parts
    assert {f[0] for f in seen} == {f[2] for f in seen} == {True, False}


@pytest.mark.parametrize("q", [17, 29])
def test_pink_rutsche_refuses_large_q_before_sizing(capsys, monkeypatch, q):
    # A/p^2 has q^2 > 256 residues: too many for the dense tables, so the
    # run is a usage error and no subgroup is sized
    def refuse(*args):
        raise AssertionError("a subgroup was sized")

    monkeypatch.setattr(groups, "_schreier", refuse)
    code = main(["pr-level2", "--q", str(q), "--prime", "T", "--samples",
                 "1", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "too large" in captured.err


@pytest.mark.parametrize("prime", ["T", "T+2"])
def test_pink_rutsche_matches_bfs_oracle(prime):
    p = PrimeIdeal(parse_poly(F5, prime))
    for seed in range(1, 6):
        want = _bfs_pink_rutsche_level2(p, samples=3, seed=seed)
        got = pink_rutsche_level2(p, samples=3, seed=seed)
        assert json.dumps(got) == json.dumps(want)


def test_fp_basis_rank_matches_span_enumeration():
    # kernel.vechelon against the enumerated span, over prime fields and
    # over F_25, whose encoded values it combines through the field ops
    rng = random.Random(2024)
    f25 = make_field(5, 2)
    cases = [(kernel.Zp(p), p, dim, 5) for p, dim in
             ((2, 4), (3, 4), (5, 4), (5, 3), (3, 6))] + [(f25, 25, 3, 3)]
    for ctx, q, dim, most in cases:
        if q == 25:
            add = [[f25.add(x, y) for y in range(q)] for x in range(q)]
            mul = [[f25.mul(x, y) for y in range(q)] for x in range(q)]
        else:
            add = [[(x + y) % q for y in range(q)] for x in range(q)]
            mul = [[x * y % q for y in range(q)] for x in range(q)]

        def combo(coeffs, vectors):
            out = [0] * dim
            for c, v in zip(coeffs, vectors):
                out = [add[o][mul[c][x]] for o, x in zip(out, v)]
            return tuple(out)

        for _ in range(12):
            vectors = [tuple(rng.randrange(q) for _ in range(dim))
                       for _ in range(rng.randrange(most))]
            if vectors and rng.random() < 0.5:
                # force a dependent vector
                a, b = rng.randrange(q), rng.randrange(q)
                vectors.append(combo((a, b), (vectors[0], vectors[-1])))
            span = {combo(coeffs, vectors)
                    for coeffs in itertools.product(range(q),
                                                    repeat=len(vectors))}
            rows = kernel.vechelon(ctx, vectors, dim)
            assert q ** len(rows) == len(span)
            for i, row in rows.items():
                assert len(row) == i + 1 and row[-1] == 1
                assert tuple(row) + (0,) * (dim - i - 1) in span


def test_level2_scalar_test_reads_padded_rows_over_f9():
    # over F_9 (m = 2) the pi-digits of I + pi I are (1, 0, 0, 0, 0, 0, 1, 0):
    # its row ends in a zero, which the scalar test must not drop
    f9 = make_field(3, 2)
    p = PrimeIdeal(Poly.T(f9))
    lab = _Level2(p)
    pi, one_pi = p.gen, Poly.one(f9) + p.gen
    scalar = lab.tab.encode(Mat2(lab.ring2, ((one_pi, 0), (0, one_pi))))
    unipotent = lab.tab.encode(Mat2(lab.ring2, ((1, pi), (0, 1))))
    assert lab.facts([scalar]) == (3, False, 1, False)
    assert lab.facts([unipotent]) == (3, False, 1, True)


def test_sample_counts_bounded():
    for ok in (0, 20, 500, SAMPLE_CAP):
        check_samples(ok)
    p = PrimeIdeal(parse_poly(F5, "T"))
    for bad in (-1, -3, SAMPLE_CAP + 1):
        with pytest.raises(ParamsOutOfRange):
            pink_rutsche_level2(p, samples=bad, seed=1)
        with pytest.raises(ParamsOutOfRange):
            verify_lemma_A1(RING5, samples=bad, seed=1)


def _first_generator_by_order(ring):
    """The first unit whose multiplicative order is the unit count."""
    target = len(ring.units())
    for x in ring.units():
        order, y = 1, x
        while y != ring.one:
            y, order = y * x, order + 1
        if order == target:
            return x
    return None


def test_unit_generator_matches_order_loop():
    # rings of verify_lemma_A1 (here q^n <= 25) and of pink_rutsche_level2
    # (A/p and A/p^2 at deg p = 1)
    rings = [ResidueRing(parse_poly(F5, "T^2+2")),
             ResidueRing(parse_poly(F5, "T^2+4*T+2")),
             ResidueRing(Poly.T(make_field(5, 2)))]
    for q in (5, 7, 11, 13):
        ctx = make_field(q)
        for text in ("T", "T+1", "T+3"):
            p = parse_poly(ctx, text)
            rings += [ResidueRing(p), ResidueRing(p * p)]
    for ring in rings:
        assert (_unit_generator(_tables(ring))
                == ring.index_of(_first_generator_by_order(ring)))


def test_tables_neg_units_inv_match_residue_elements():
    # _Tables reads negatives, units and inverses off its own add and mul
    # tables; ResidueElement negation and the gcd unit test are the oracle,
    # on A/p and A/p^2 at q = 5 and 7, on A/(T^2+2) and over F_9
    rings = [ResidueRing(parse_poly(F5, "T^2+2")),
             ResidueRing(Poly.T(make_field(3, 2)))]
    for q in (5, 7):
        for text in ("T", "T+3"):
            p = parse_poly(make_field(q), text)
            rings += [ResidueRing(p), ResidueRing(p * p)]
    for ring in rings:
        tab = _tables(ring)
        elems = ring.elements()
        assert (tab.zero, tab.one) == (ring.index_of(ring.zero),
                                       ring.index_of(ring.one))
        assert tab.ident == (tab.one, tab.zero, tab.zero, tab.one)
        assert tab.neg == [ring.index_of(-x) for x in elems]
        assert tab.units == {i for i, x in enumerate(elems) if x.is_unit()}
        assert set(tab.inv) == tab.units
        for i, j in tab.inv.items():
            assert elems[i] * elems[j] == ring.one


def _product_tables(ring):
    """The dense tables of a residue ring from polynomial arithmetic on the
    digit vectors of the indices: every sum a vadd, every product a
    vmulmod, negatives by vsub, units by the gcd with the modulus and
    inverses by the extended gcd."""
    ctx, mod, q = ring.ctx, ring.modulus.coeffs, ring.ctx.q
    vecs = [x.rep.coeffs for x in ring.elements()]
    units = {i for i, a in enumerate(vecs)
             if kernel.vgcd(ctx, list(a), list(mod)) == [1]}
    return {
        "vecs": vecs,
        "add": [[kernel.vindex(kernel.vadd(ctx, a, b), q) for b in vecs]
                for a in vecs],
        "mul": [[kernel.vindex(kernel.vmulmod(ctx, a, b, mod), q)
                 for b in vecs] for a in vecs],
        "neg": [kernel.vindex(kernel.vsub(ctx, [], a), q) for a in vecs],
        "units": units,
        "inv": {i: ring.index_of(residue_inv(ring.from_index(i)))
                for i in units},
    }


def _table_rings():
    """F_5 rings of degree 1-3, one of them reducible; F_49 = A/(T^2+1) over
    F_7; degree-1 rings over F_25 and F_49, at T and at T + (1 + x), x the
    generator of F_{p^2}; the A/p^2 of the level-2 lab."""
    rings = {f"5-{text}": ResidueRing(parse_poly(F5, text))
             for text in ("T", "T^2+2", "T^3+T+1", "T^2+T")}
    rings["7-T^2+1"] = ResidueRing(parse_poly(make_field(7), "T^2+1"))
    for p in (5, 7):
        ctx = make_field(p, 2)
        shifted = Poly.T(ctx) + Poly.constant(ctx, ctx.from_encoded(p + 1))
        rings[f"{p}^2-T"] = ResidueRing(Poly.T(ctx))
        rings[f"{p}^2-T+1+x"] = ResidueRing(shifted)
    for q, text in ((5, "T"), (5, "T+2"), (7, "T+3"), (13, "T+1")):
        p = parse_poly(make_field(q), text)
        rings[f"{q}-({text})^2"] = ResidueRing(p * p)
    return rings


TABLE_RINGS = _table_rings()


@pytest.mark.parametrize("name", TABLE_RINGS)
def test_tables_match_the_product_oracle(name):
    # _Tables fills its tables by digit recurrences; each entry must be the
    # one polynomial arithmetic gives
    ring = TABLE_RINGS[name]
    tab = groups._Tables(ring)
    want = _product_tables(ring)
    for key in want:
        assert getattr(tab, key) == want[key], key


@pytest.mark.parametrize("name", TABLE_RINGS)
def test_tables_make_at_most_n_mulmods(monkeypatch, name):
    # a table of n residues takes at most n kernel.vmulmod calls; over a
    # prime base field it takes none (digit products are ints mod p), over
    # F_{p^m} each of the q (q - 1) digit products is one F_p[x] mulmod,
    # which only a degree-1 ring, the field itself, has more of than n
    ring = TABLE_RINGS[name]
    calls = []
    mulmod = kernel.vmulmod

    def counting(*args):
        calls.append(args)
        return mulmod(*args)

    monkeypatch.setattr(kernel, "vmulmod", counting)
    groups._Tables(ring)
    q, n = ring.ctx.q, ring.cardinality
    assert len(calls) == (0 if ring.ctx.m == 1 else q * (q - 1))
    assert len(calls) <= n or ring.degree == 1


def _drawn_and_available(monkeypatch, tab, gens):
    """(Schreier generators _lemma_facts drew, the number its stream had)."""
    runs = []
    stream = groups._schreier_stream

    def recording(*args):
        drawn = []
        runs.append((args, drawn))
        for s in stream(*args):
            drawn.append(s)
            yield s

    monkeypatch.setattr(groups, "_schreier_stream", recording)
    facts = _lemma_facts(tab, gens)
    monkeypatch.setattr(groups, "_schreier_stream", stream)
    (args, drawn), = runs
    return facts, len(drawn), len(list(stream(*args)))


@pytest.mark.parametrize("q, modulus", [(5, "T"), (7, "T"), (11, "T+3"),
                                        (5, "T^2+2")])
def test_lemma_facts_stop_at_the_borel_bound(monkeypatch, q, modulus):
    # GL_2 and SL_2 reach the full orbit and the full (n - 1)|det H| pairs
    # before their stream runs dry, and stop there with the same facts; the
    # split Cartan's orbit of 0 is {0}, so it draws every generator
    ring = ResidueRing(parse_poly(make_field(q), modulus))
    tab = _tables(ring)
    forced = _lemma_generators(tab)
    n = tab.n
    for name in ("gl2", "sl2"):
        facts, drawn, available = _drawn_and_available(monkeypatch, tab,
                                                       forced[name])
        assert 0 < drawn < available, name
        assert facts[2]
    facts, drawn, available = _drawn_and_available(
        monkeypatch, tab, forced["split_cartan"])
    assert drawn == available > 0
    assert facts == ((n - 1) ** 2, False, False)


def _unipotents_from_residues(ring):
    """The standard unipotents over the F_p-basis x^i T^j of the residue
    field, built from residues."""
    ctx = ring.ctx
    gens = []
    for i in range(ctx.m):
        t_power = ring.element(ctx.from_encoded(ctx.p ** i))
        for _ in range(ring.degree):
            gens += [Mat2(ring, ((1, t_power), (0, 1))),
                     Mat2(ring, ((1, 0), (t_power, 1)))]
            t_power = t_power * ring.t
    return gens


@pytest.mark.parametrize("ctx, modulus", [(F5, "T^2+2"), (F5, "T"),
                                          (make_field(7, 2), None)])
def test_sl2_generators_decode_to_the_standard_unipotents(ctx, modulus):
    # over F_25 = A/(T^2+2), F_5 and F_49 = F_49[T]/(T): the encoded
    # generators are the residue-built unipotents and close to SL_2
    ring = ResidueRing(Poly.T(ctx) if modulus is None
                       else parse_poly(ctx, modulus))
    tab = _tables(ring)
    gens = _sl2_generators(tab)
    assert [tab.decode(g) for g in gens] == _unipotents_from_residues(ring)
    N = ring.cardinality
    assert len(tab.closure(gens, DEFAULT_CLOSURE_CAP)) == N * (N * N - 1)


def test_lemma_lab_refuses_a_non_prime_base_field(monkeypatch):
    # F_25 as F_25[T]/(T): refused before any table is built or sample run
    def refuse(*args):
        raise AssertionError("work started before the field check")

    monkeypatch.setattr(groups, "_tables", refuse)
    monkeypatch.setattr(groups, "_lemma_facts", refuse)
    ring = ResidueRing(Poly.T(make_field(5, 2)))
    with pytest.raises(ContextMismatch):
        verify_lemma_A1(ring, samples=200, seed=1)


def test_level2_lab_refuses_a_non_prime_base_field(monkeypatch):
    # over F_9 the units of A/p^2 are not cyclic; the lab is refused before
    # any table is built or unit generator sought
    def refuse(*args):
        raise AssertionError("work started before the field check")

    monkeypatch.setattr(groups, "_Level2", refuse)
    monkeypatch.setattr(groups, "_unit_generator", refuse)
    p = PrimeIdeal(Poly.T(make_field(3, 2)))
    with pytest.raises(ContextMismatch):
        pink_rutsche_level2(p, samples=1, seed=1)


def test_lab_paths_build_no_residue_or_matrix_objects(monkeypatch):
    # run cold (no cached tables), the two labs and det_generation_check
    # compute on table indices and coefficient tuples alone: no
    # ResidueElement arithmetic, no Mat2
    def refuse(*args, **kwargs):
        raise AssertionError("object arithmetic on a lab path")

    for name in ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                 "__mul__", "__rmul__", "__pow__", "is_unit"):
        monkeypatch.setattr(ResidueElement, name, refuse)
    monkeypatch.setattr(Mat2, "__init__", refuse)
    monkeypatch.setattr(groups, "_TABLE_CACHE", {})
    report = verify_lemma_A1(ResidueRing(parse_poly(F5, "T^2+2")),
                             samples=3, seed=1)
    assert report["violations"] == [] and len(report["forced_cases"]) == 5
    report = pink_rutsche_level2(PrimeIdeal(parse_poly(make_field(7), "T+3")),
                                 samples=2, seed=1)
    assert report["violations"] == [] and len(report["sample_cases"]) == 2
    p = PrimeIdeal(parse_poly(F5, "T^2+2"))
    assert frobenius.det_generation_check(p, 2, 2)
    assert not frobenius.det_generation_check(p, 1, 0)
