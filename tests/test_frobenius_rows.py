"""The q-power Frobenius of A/(f) as a linear map, against powmod.

`kernel.FrobeniusMap` is one packed F_p-linear map on the F_p-digits of
x for every q.  Every route through it is checked on seeded inputs
against the powmod definition it replaced: x^(q^k), the norm exponent
(q^n - 1)/(q - 1), and whole Frobenius charpolys.  The packed twist
`kernel.vfrobenius` is checked against `vlincomb`, the dense sum of the
rows of `kernel.frobenius_rows` kept here as the oracle, and against
powmod, at every slot width and over F_25, F_49 and F_125.
"""

import collections
import random

import pytest

from drinfeldlab import kernel
from drinfeldlab.drinfeld import DrinfeldModule
from drinfeldlab.fields import make_field
from drinfeldlab.frobenius import frob_general
from drinfeldlab.polys import Poly, PrimeIdeal, is_irreducible
from drinfeldlab.residues import ResidueRing, norm_to_base

FIELDS = [make_field(5), make_field(7), make_field(11), make_field(5, 2)]
EXTENSION_FIELDS = [make_field(5, 2), make_field(7, 2), make_field(5, 3)]


def vlincomb(ctx, v, rows):
    """sum v[i] * rows[i] over F_q by dense rows: the image of the
    coordinate vector v under the linear map with the given rows.  Over a
    prime field the sum is accumulated over Z and reduced mod p once."""
    if ctx.m != 1:
        out = []
        for c, row in zip(v, rows):
            if c:
                out = kernel.vadd(ctx, out, kernel.vscale(ctx, row, c))
        return out
    out = [0] * max(map(len, rows), default=0)
    for c, row in zip(v, rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return kernel._trim([c % ctx.p for c in out])


def _assert_narrowest_slot(frob, n, p):
    # the narrowest word of 2, 4, 8, ... bytes above n (p - 1)^2, the
    # largest sum a twist forms in one word
    bound = n * (p - 1) ** 2
    assert 256 ** frob.slot > bound
    assert frob.slot == 2 or bound >= 256 ** (frob.slot // 2)


def _monic(rng, ctx, degree):
    return Poly(ctx, [rng.randrange(ctx.q) for _ in range(degree)] + [1])


def _prime(rng, ctx, degree):
    while True:
        f = _monic(rng, ctx, degree)
        if is_irreducible(f):
            return f


def _moduli(rng, ctx):
    """Primes of degree 1..8, the square of a prime and a reducible
    modulus with two distinct factors."""
    primes = [_prime(rng, ctx, d) for d in range(1, 9)]
    square = primes[1] ** 2
    while True:
        g = _prime(rng, ctx, 2)
        if g != primes[2]:
            break
    return primes + [square, primes[2] * g]


def _random_element(rng, ring):
    return ring.from_index(rng.randrange(ring.cardinality))


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_frobenius_matches_powmod(ctx):
    rng = random.Random(100 + ctx.q)
    for mod in _moduli(rng, ctx):
        ring = ResidueRing(mod)
        xs = [ring.zero, ring.one, ring.t] + [_random_element(rng, ring)
                                              for _ in range(4)]
        for x in xs:
            for k in range(4):
                assert x.frobenius(k) == x ** (ctx.q ** k), (mod, x, k)


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_frobenius_rows_are_the_q_powers_of_t(ctx):
    rng = random.Random(200 + ctx.q)
    for mod in _moduli(rng, ctx):
        ring = ResidueRing(mod)
        rows = kernel.frobenius_rows(ctx, list(mod.coeffs))
        frob = ring.frobenius_map()
        assert len(rows) == ring.degree
        for i, row in enumerate(rows):
            want = (ring.t ** (ctx.q * i)).rep
            assert Poly(ctx, row) == want
            # the ring's one packed map sends T^i to the same row
            assert Poly(ctx, kernel.vfrobenius(frob, [0] * i + [1])) == want
        assert ring.frobenius_map() is frob  # built once


def test_vlincomb_is_the_sum_of_scaled_rows():
    # the dense oracle on random rows, then the packed twist against it on
    # the Frobenius rows of a random modulus
    rng = random.Random(7)
    for ctx in FIELDS + EXTENSION_FIELDS:
        rows = [[rng.randrange(ctx.q) for _ in range(rng.randrange(5))]
                for _ in range(4)]
        v = [rng.randrange(ctx.q) for _ in range(4)]
        want = []
        for c, row in zip(v, rows):
            want = kernel.vadd(ctx, want, kernel.vscale(ctx, row, c))
        assert vlincomb(ctx, v, rows) == want
        mod = list(_monic(rng, ctx, 4).coeffs)
        frob = kernel.FrobeniusMap(ctx, mod)
        assert (kernel.vfrobenius(frob, kernel._trim(v))
                == vlincomb(ctx, v, kernel.frobenius_rows(ctx, mod)))


@pytest.mark.parametrize("cast", [True, False], ids=["cast", "from_bytes"])
@pytest.mark.parametrize("slot", [2, 4, 8, 16])
def test_pack_round_trips_through_unpack(monkeypatch, cast, slot):
    # words up to the slot's largest, packed by struct.pack where a format
    # of that width exists (none at 16 bytes) and word by word otherwise,
    # as on a big-endian host
    if not cast:
        monkeypatch.setattr(kernel, "_SLOT_FORMATS", {})
    assert (slot in kernel._SLOT_FORMATS) == (cast and slot < 16)
    rng = random.Random(slot)
    top = 256 ** slot
    for count in (1, 4, 64, 192):
        words = [rng.randrange(top) for _ in range(count - 2)] + [top - 1, 0]
        words = words[-count:]
        packed = kernel._pack(words, slot)
        assert packed == kernel.vindex(words, top)
        assert kernel._unpack_mod(packed, count, slot, top) == words


@pytest.mark.parametrize("p, degrees, slot", [
    (5, (1, 2, 8, 16), 2), (127, (64,), 4), (2147483647, (1, 2, 4), 8),
    (2147483647, (5, 8), 16)])
def test_packed_twist_matches_dense_rows_and_powmod(p, degrees, slot):
    # slots of 2, 4, 8 and 16 bytes; the last is unpacked word by word, as
    # no memoryview format is that wide
    ctx = make_field(p)
    rng = random.Random(500 + p % 1000)
    for d in degrees:
        mod = list(_monic(rng, ctx, d).coeffs)
        frob = kernel.FrobeniusMap(ctx, mod)
        rows = kernel.frobenius_rows(ctx, mod)
        assert not hasattr(frob, "rows")  # only the packed rows are kept
        # over a prime field row i packs T^(q i) mod f itself, word by word
        assert frob.packed == [kernel.vindex(row, 256 ** slot)
                               for row in rows]
        assert frob.slot == slot
        _assert_narrowest_slot(frob, d, p)
        xs = [[], [1], [0, 1], [p - 1] * d]
        xs += [kernel._trim([rng.randrange(p) for _ in range(d)])
               for _ in range(3)]
        for x in (x for x in xs if len(x) <= d):  # reduced mod `mod`
            y = x
            for k in (1, 2):
                dense = vlincomb(ctx, y, rows)
                y = kernel.vfrobenius(frob, y)
                assert y == dense, (mod, x, k)
                assert y == kernel.vpowmod(ctx, x, p ** k, mod), (mod, x, k)


def test_extension_fields_twist_by_the_dense_rows():
    # over F_25, F_49 and F_125 the one packed map on the n = m deg f
    # F_p-digits twists as the dense rows and as powmod do, at prime,
    # prime-square and reducible moduli of degree 1-8
    for ctx in EXTENSION_FIELDS:
        p, m, q = ctx.p, ctx.m, ctx.q
        rng = random.Random(900 + q)
        for mod in _moduli(rng, ctx):
            mod, d = list(mod.coeffs), mod.degree
            frob = ResidueRing(Poly(ctx, mod)).frobenius_map()
            rows = kernel.frobenius_rows(ctx, mod)
            assert not hasattr(frob, "rows") and len(frob.packed) == m * d
            _assert_narrowest_slot(frob, m * d, p)
            xs = [[], [1], [0, 1], [q - 1] * d, [3, 0, 17]]
            xs += [kernel._trim([rng.randrange(q) for _ in range(d)])
                   for _ in range(3)]
            for x in (x for x in xs if len(x) <= d):  # reduced mod `mod`
                y = x
                for k in (1, 2):
                    dense = vlincomb(ctx, y, rows)
                    y = kernel.vfrobenius(frob, y)
                    assert y == dense, (mod, x, k)
                    assert y == kernel.vpowmod(ctx, x, q ** k, mod), (mod, x)


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"q{c.q}")
def test_norm_matches_the_powmod_exponent(ctx):
    rng = random.Random(300 + ctx.q)
    q = ctx.q
    for d in range(1, 9):
        ring = ResidueRing(_prime(rng, ctx, d))
        e = (q ** d - 1) // (q - 1)
        for _ in range(4):
            x = _random_element(rng, ring)
            if x.is_zero():
                continue
            want = (x ** e).rep
            assert want.degree == 0
            assert norm_to_base(x) == want.coefficient(0)


def _powmod_twist(frob, v):
    """x^q by powmod modulo the ring's modulus: no packed or dense row."""
    return kernel.vpowmod(frob.ctx, v, frob.ctx.q, frob.mod)


def _powmod_norm(ctx, f, g):
    """Res(f, g) for a monic prime f as the norm g^((q^n - 1)/(q - 1))
    mod f, n = deg f, by powmod: no Euclid."""
    q, n = ctx.q, len(f) - 1
    return (kernel.vpowmod(ctx, g, (q ** n - 1) // (q - 1), f) or [0])[0]


def _charpolys(ctx, degrees, seed):
    rng = random.Random(seed)
    out = []
    for d in degrees:
        while True:
            g1, g2 = _monic(rng, ctx, 2), _monic(rng, ctx, 1)
            lam = PrimeIdeal(_prime(rng, ctx, d), _trusted=True)
            if not (g2 % lam.gen).is_zero():
                break
        cp = frob_general(DrinfeldModule(ctx, [g1, g2]), lam)
        out.append((cp.a, cp.b))
    return out


class _NoRows:
    """The packed rows of a map built on the oracle side: applying them
    fails."""

    def __iter__(self):
        raise AssertionError("the oracle applied Frobenius rows")

    __len__ = __iter__


@pytest.mark.parametrize("q, degrees", [(5, range(9, 17)), (7, range(1, 9)),
                                        (25, range(1, 6))])
def test_frob_general_matches_the_powmod_twist(monkeypatch, q, degrees):
    # every twist in A/(lambda) goes through kernel.vfrobenius, the basis
    # twists that feed the rows of the Horner's step map included: the
    # fast side applies the packed F_p-digit rows there, m deg(lambda) of
    # them, the oracle side raises to q by powmod and applies no
    # Frobenius row at all
    ctx = {c.q: c for c in FIELDS}[q]
    shapes = []
    vfrobenius = kernel.vfrobenius

    def recording(frob, v):
        shapes.append(len(frob.packed) == ctx.m * (len(frob.mod) - 1))
        return vfrobenius(frob, v)

    monkeypatch.setattr(kernel, "vfrobenius", recording)
    fast = _charpolys(ctx, degrees, 400 + q)
    assert shapes and all(shapes)

    build = kernel.FrobeniusMap.__init__

    def rowless(frob, *args):
        build(frob, *args)
        frob.packed = _NoRows()

    powmod_twists = collections.Counter()
    monkeypatch.setattr(kernel, "vfrobenius", lambda frob, v: (
        powmod_twists.update([tuple(frob.mod)]) or _powmod_twist(frob, v)))
    monkeypatch.setattr(kernel.FrobeniusMap, "__init__", rowless)
    norms = collections.Counter()
    monkeypatch.setattr(kernel, "vresultant", lambda ctx, f, g: (
        norms.update([tuple(f)]) or _powmod_norm(ctx, f, g)))
    assert _charpolys(ctx, degrees, 400 + q) == fast
    # each step map's rows came from the powmod twist, 2 deg(lambda) of
    # them, besides the twists of the Rabin test that drew lambda, and
    # each unit from the one norm, taken by powmod
    for _, b in fast:
        lam = tuple(kernel.vmonic(ctx, list(b.coeffs)))
        assert powmod_twists[lam] >= 2 * (len(lam) - 1), lam
        assert norms[lam] == 1, lam
