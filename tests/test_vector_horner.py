"""phi_a over A/(lambda) on kernel vectors, against the routes it replaced.

`ReducedModule.vectors` applies the Horner step acc -> phi_T acc + a_i as
one packed F_p-linear map (`kernel.HornerMap`, `kernel.vhorner`).  Two
routes it replaced stay here as oracles:

- the per-coefficient loop, which twists acc's coefficients and forms each
  new one by its own mulmods, on seeded cases at every word width of the
  packed map, on both unpack paths, over prime fields and F_25 and F_125;
- `_horner` with `skew_mul` on SkewPoly and ResidueElement objects, on
  seeded primes of degree 1 to 16 over F_5, 1 to 12 over F_7 and F_11 and 1
  to 6 over F_25 (whose field ops make the object route take seconds above
  that), polynomials a of degree 0 to 2 deg(lambda), rank-1 and rank-2
  modules, and the twisted rank-1 module of the stable branch of
  `reduction_type`; and on coefficient lists as given (empty, constant,
  zero top coefficients) at every tau-degree cap.

The map's rows are also checked word for word against the build whose
tau^0 block they replaced, one vmulmod per basis element
(`oracles.vmulmod_horner_rows`).
"""

import random

import pytest

from drinfeldlab import kernel
from drinfeldlab.drinfeld import (
    DrinfeldModule,
    _horner,
    reduce_module,
    reduction_height,
)
from drinfeldlab.fields import make_field
from drinfeldlab.frobenius import frob_general
from drinfeldlab.polys import Poly, PrimeIdeal, is_irreducible
from oracles import ht_deg, reduction_type, vmulmod_horner_rows

F5 = make_field(5)


def _poly(rng, ctx, degree):
    """A polynomial of exactly the given degree."""
    return Poly(ctx, [rng.randrange(ctx.q) for _ in range(degree)]
                + [rng.randrange(1, ctx.q)])


def _prime(rng, ctx, degree):
    while True:
        f = Poly(ctx, [rng.randrange(ctx.q) for _ in range(degree)] + [1])
        if is_irreducible(f):
            return PrimeIdeal(f, _trusted=True)


def _object_route(red, a):
    return _horner(red.ring.ctx, red.phi_T(), a)


def _cases(rng, ctx, m):
    """Zero, a nonzero constant, a of random degree up to 2m, and of
    degree 2m."""
    return [Poly.zero(ctx), Poly.constant(ctx, rng.randrange(1, ctx.q)),
            _poly(rng, ctx, rng.randrange(1, 2 * m + 1)),
            _poly(rng, ctx, 2 * m)]


@pytest.mark.parametrize("ctx, max_deg", [
    (make_field(5), 16), (make_field(7), 12), (make_field(11), 12),
    (make_field(5, 2), 6)], ids=["q5", "q7", "q11", "q25"])
def test_vector_horner_matches_the_object_route(ctx, max_deg):
    rng = random.Random(600 + ctx.q)
    for deg in range(1, max_deg + 1):
        lam = _prime(rng, ctx, deg)
        for rank in (1, 2):
            gs = [_poly(rng, ctx, rng.randrange(3)) for _ in range(rank)]
            red = reduce_module(DrinfeldModule(ctx, gs), lam)
            for a in _cases(rng, ctx, deg):
                assert red.of(a) == _object_route(red, a), (lam, gs, a)
        # bad reduction: the leading coefficient vanishes mod lambda
        red = reduce_module(DrinfeldModule(ctx, [_poly(rng, ctx, 1),
                                                 lam.gen]), lam)
        assert not red.is_good
        a = _poly(rng, ctx, min(deg, 4))
        assert red.of(a) == _object_route(red, a)


def test_vector_horner_of_constants():
    red = reduce_module(DrinfeldModule(F5, [Poly.T(F5), Poly.one(F5)]),
                        PrimeIdeal(Poly(F5, (2, 0, 1))))
    assert red.of(0).is_zero()
    assert red.of(3) == _object_route(red, 3)
    assert red.vectors(3) == [[3]]
    assert red.vectors(Poly.zero(F5)) == []


@pytest.mark.parametrize("ctx", [F5, make_field(7), make_field(5, 2),
                                 make_field(3, 3)], ids=lambda c: f"q{c.q}")
def test_flat_horner_edge_cases_match_the_object_route(ctx):
    # kernel.vhorner on coefficient lists as given: a = [], zero and
    # nonzero constants and a with zero top coefficients, for rank 1, rank
    # 2 and a leading coefficient zero mod lambda; with every cap up to
    # past the top it keeps exactly the coefficients of tau^0 .. tau^cap
    rng = random.Random(650 + ctx.q)
    for deg in (1, 2, 3):
        lam = _prime(rng, ctx, deg)
        c = rng.randrange(1, ctx.q)
        for gs in ([_poly(rng, ctx, 0)],
                   [_poly(rng, ctx, 2), _poly(rng, ctx, 1)],
                   [_poly(rng, ctx, 1), lam.gen * _poly(rng, ctx, 1)]):
            red = reduce_module(DrinfeldModule(ctx, gs), lam)
            step = kernel.HornerMap(red.ring.frobenius_map(), red.vecs)
            for a in ([], [0], [0, 0, 0], [c], [c, 0, 0],
                      [rng.randrange(ctx.q) for _ in range(2 * deg)] + [0, 0],
                      list(lam.gen.coeffs)):
                full = kernel.vhorner(step, a)
                assert red._skew(full) == _object_route(red, Poly(ctx, a)), (
                    lam, gs, a)
                for cap in range(len(full) + 2):
                    want = full[:cap + 1]
                    while want and not want[-1]:
                        want.pop()
                    assert kernel.vhorner(step, a, cap) == want
                    assert red.vectors(Poly(ctx, a), cap) == want


@pytest.mark.parametrize("ctx", [F5, make_field(7), make_field(5, 2)],
                         ids=lambda c: f"q{c.q}")
def test_reduction_height_forms_phi_lambda_to_tau_m_first(monkeypatch, ctx):
    # one Horner, capped at tau^m: when all of those coefficients vanish
    # the height is 2, still the first nonzero index of the full
    # phi_lambda over m.  g_1 = 0 makes every odd-degree prime
    # supersingular
    rng = random.Random(680 + ctx.q)
    caps = []
    vhorner = kernel.vhorner
    monkeypatch.setattr(kernel, "vhorner", lambda step, a, cap=None: (
        caps.append(cap) or vhorner(step, a, cap)))
    heights = set()
    for deg in range(1, 7 if ctx.q < 25 else 4):
        for g1 in (_poly(rng, ctx, 1), Poly.zero(ctx)):
            lam = _prime(rng, ctx, deg)
            g2 = _poly(rng, ctx, 1)
            while (g2 % lam.gen).is_zero():
                g2 = _poly(rng, ctx, 1)
            for gs in ([g1, g2], [g2]):
                phi = DrinfeldModule(ctx, gs)
                full = reduce_module(phi, lam).vectors(lam.gen)
                del caps[:]
                height = reduction_height(phi, lam)
                assert height == next(
                    i for i, v in enumerate(full) if v) // deg
                assert caps == [deg]
                heights.add((len(gs), height))
    assert heights == {(1, 1), (2, 1), (2, 2)}


def test_reduction_height_rank1_needs_a_nonzero_capped_block(monkeypatch):
    # a rank-1 reduction has height 1, so an empty block up to tau^m is a
    # bug, not a supersingular prime
    from drinfeldlab.drinfeld import ReducedModule
    from drinfeldlab.errors import InternalInconsistency

    lam = PrimeIdeal(Poly(F5, (2, 0, 1)))
    phi = DrinfeldModule(F5, [Poly(F5, (1,))])
    assert reduction_height(phi, lam) == 1
    monkeypatch.setattr(ReducedModule, "vectors", lambda self, a, cap=None: [])
    with pytest.raises(InternalInconsistency):
        reduction_height(phi, lam)


@pytest.mark.parametrize("lam_text", [(1, 1), (2, 0, 1), (1, 1, 0, 1)],
                         ids=["T+1", "T^2+2", "T^3+T+1"])
def test_stable_branch_twisted_module(lam_text):
    # g1 = lam^(q-1) h and g2 = lam^(q^2): k = 1, and nu(g2) = q^2 exceeds
    # k(q^2 - 1), so reduction_type reduces the rank-1 module T + h tau
    lam = PrimeIdeal(Poly(F5, lam_text))
    h = Poly(F5, (2, 1))
    phi = DrinfeldModule(F5, [lam.gen ** 4 * h, lam.gen ** 25])
    data = reduction_type(phi, lam)
    assert data.kind == "stable_rank_1"
    red = reduce_module(DrinfeldModule(F5, [h]), lam)
    image = red.of(lam.gen)
    assert image == _object_route(red, lam.gen)
    assert data.height == ht_deg(image)[0] // lam.degree


def _coefficient_loop(frob, phi_t, a):
    """phi_a by left Horner one tau-coefficient at a time: acc's
    coefficients twisted by q^k for every tau^k of phi_T, one vfrobenius
    each, and each new coefficient sum_k c_k acc_(l-k)^(q^k) formed by its
    own mulmods."""
    ctx, mod, r = frob.ctx, frob.mod, len(phi_t) - 1
    acc = []
    for c in reversed(a):
        twisted = [acc]
        for _ in range(r):
            twisted.append([kernel.vfrobenius(frob, x) for x in twisted[-1]])
        out = []
        for l in range(len(acc) + r):
            coeff = [c] if l == 0 and c else []
            for k in range(max(0, l - len(acc) + 1), min(l, r) + 1):
                coeff = kernel.vadd(ctx, coeff, kernel.vmulmod(
                    ctx, phi_t[k], twisted[k][l - k], mod))
            out.append(coeff)
        while out and not out[-1]:
            out.pop()
        acc = out
    return acc


def _bound(step, p):
    """The largest word a step of the map can form, plus one."""
    return (step.r + 1) * step.n * (p - 1) ** 2 + p


def _modules(rng, ctx, lam):
    """Rank 1, rank 2, rank 2 with phi_T's tau-coefficient zero mod lam,
    and bad reduction (the leading coefficient zero mod lam)."""
    return [[_poly(rng, ctx, rng.randrange(3))],
            [_poly(rng, ctx, rng.randrange(3)), _poly(rng, ctx, 1)],
            [lam.gen * _poly(rng, ctx, 0), _poly(rng, ctx, 2)],
            [_poly(rng, ctx, 1), lam.gen]]


def _coefficient_lists(rng, ctx, m):
    """a = 0, a constant, a of random degree up to 2m, and a with leading
    zero coefficients, as coefficient lists."""
    return [[], [0], [rng.randrange(1, ctx.q)],
            [rng.randrange(ctx.q) for _ in range(rng.randrange(2, 2 * m + 2))],
            [rng.randrange(ctx.q) for _ in range(m)] + [0, 0]]


@pytest.mark.parametrize("cast", [True, False], ids=["cast", "from_bytes"])
@pytest.mark.parametrize("p, m, degrees, slots", [
    (5, 1, range(1, 13), {2}), (127, 1, range(1, 9), {2, 4}),
    (65521, 1, range(1, 5), {8}), (2147483647, 1, range(1, 4), {8, 16}),
    (5, 2, range(1, 6), {2}), (5, 3, range(1, 4), {2})],
    ids=["q5", "q127", "q65521", "q2^31-1", "q25", "q125"])
def test_step_map_matches_the_coefficient_loop(monkeypatch, cast, p, m,
                                               degrees, slots):
    # every word width: 2 bytes at q = 5, 4 at q = 127 from rank 2 or
    # degree 2, 8 at q = 65521, 16 at p = 2^31 - 1 beyond rank 1 and
    # degree 1, for which no memoryview format exists.  Without the casts
    # every width unpacks word by word, as on a big-endian host.
    if not cast:
        monkeypatch.setattr(kernel, "_SLOT_FORMATS", {})
    ctx = make_field(p, m)
    rng = random.Random(700 + p + m)
    seen = set()
    for deg in degrees:
        lam = _prime(rng, ctx, deg)
        for gs in _modules(rng, ctx, lam):
            red = reduce_module(DrinfeldModule(ctx, gs), lam)
            frob = red.ring.frobenius_map()
            phi_t = red.vecs
            step = kernel.HornerMap(frob, phi_t)
            assert step.n == m * deg and step.r == len(gs)
            # the narrowest word of 2, 4, 8, ... bytes that holds every
            # sum of a step
            bound = _bound(step, p)
            assert 256 ** step.slot > bound
            assert step.slot == 2 or bound >= 256 ** (step.slot // 2)
            seen.add(step.slot)
            for a in _coefficient_lists(rng, ctx, deg):
                want = _coefficient_loop(frob, phi_t, a)
                assert kernel.vhorner(step, a) == want, (lam, gs, a)
            assert red.vectors(Poly(ctx, a)) == want
    assert seen == slots


@pytest.mark.parametrize("p, deg, rank, bound, slot", [
    (181, 1, 1, 64_981, 2), (131, 2, 1, 67_731, 4)])
def test_step_map_at_a_word_boundary(p, deg, rank, bound, slot):
    # the first bound sits just below 2^16 = 65,536 and keeps 2-byte
    # words; the second sits just above it and needs 4
    ctx = make_field(p)
    rng = random.Random(800 + p)
    for _ in range(4):
        lam = _prime(rng, ctx, deg)
        gs = [Poly(ctx, [p - 1] * 3) for _ in range(rank)]
        red = reduce_module(DrinfeldModule(ctx, gs), lam)
        frob = red.ring.frobenius_map()
        phi_t = red.vecs
        step = kernel.HornerMap(frob, phi_t)
        assert (_bound(step, p), step.slot) == (bound, slot)
        for a in ([p - 1] * 8, [rng.randrange(p) for _ in range(12)]):
            assert kernel.vhorner(step, a) == _coefficient_loop(frob, phi_t,
                                                                 a)


@pytest.mark.parametrize("p, m", [(5, 1), (7, 1), (127, 1), (5, 2),
                                  (3, 3)], ids=str)
def test_step_map_rows_match_the_mulmod_build(p, m):
    # the tau^0 block by T-steps against one vmulmod per basis element,
    # word for word, at degree 1 to 12: phi_T = T + ... at rank 1 and 2,
    # and a c_0 other than T (a shift that wraps at every row)
    ctx = make_field(p, m)
    rng = random.Random(270 + ctx.q)
    for deg in range(1, 13):
        lam = _prime(rng, ctx, deg)
        frob = kernel.FrobeniusMap(ctx, lam.gen.coeffs)
        for gs in _modules(rng, ctx, lam)[:2]:
            phi_t = reduce_module(DrinfeldModule(ctx, gs), lam).vecs
            for c0 in (phi_t[0], _poly(rng, ctx, deg - 1).coeffs):
                step = kernel.HornerMap(frob, [c0, *phi_t[1:]])
                want = vmulmod_horner_rows(frob, [c0, *phi_t[1:]])
                assert step.rows == [kernel._pack(row, step.slot)
                                     for row in want], (lam, gs, c0)


def test_step_map_is_built_once_per_module(monkeypatch):
    built = []
    horner_map = kernel.HornerMap
    monkeypatch.setattr(kernel, "HornerMap",
                        lambda *args: built.append(1) or horner_map(*args))
    lam = PrimeIdeal(Poly(F5, (2, 0, 1)))
    red = reduce_module(DrinfeldModule(F5, [Poly.T(F5), Poly.one(F5)]), lam)
    first = red.vectors(lam.gen)
    assert red.vectors(Poly.T(F5)) and red.vectors(lam.gen) == first
    assert built == [1]


def test_frob_general_twists_for_the_map_and_the_norm_only(monkeypatch):
    # at a degree-12 prime, rank 2: 2 * 12 basis twists for the step map
    # and none for the norm of the leading coefficient, a resultant; the
    # Horners for phi_b and phi_a twist no tau-coefficient
    rng = random.Random(612)
    lam = _prime(rng, F5, 12)
    phi = DrinfeldModule(F5, [_poly(rng, F5, 2), _poly(rng, F5, 1)])
    twists = []
    vfrobenius = kernel.vfrobenius
    monkeypatch.setattr(kernel, "vfrobenius",
                        lambda *args: twists.append(1) or vfrobenius(*args))
    frob_general(phi, lam)
    assert len(twists) == 2 * 12
    assert not hasattr(kernel, "vdotmod")
