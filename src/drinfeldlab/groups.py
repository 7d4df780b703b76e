"""Verification lab for the group-theoretic ingredients.

Neither sampled suite lists the subgroup it examines: both size it by
Schreier levels (_schreier).  The SL_2-criterion suite runs one, at
infinity of P^1(F), and sizes that stabiliser through the Borel; it reads
irreducibility and SL_2 containment off H's generators and order, and
draws the stabiliser's Schreier generators only until the sizes the Borel
allows are reached.  The level-two full-group suite runs them on P^1(A/p)
and on the diagonal torus of GL_2(A/p), and reads H's intersection with
the congruence kernel off the last level's Schreier generators.

Both compute on table indices alone, over prime base fields: a residue is
its base-q index, a matrix a 4-tuple of indices, and every operation a
lookup in the dense tables of _Tables, which a ResidueRing only builds,
by recurrences on the base-q digits of the indices.
The explicit-set APIs (Mat2, closure, acts_irreducibly, sl2_group,
contains_sl2) remain as the test oracle.
"""

from __future__ import annotations

import functools
import math
import random

from . import kernel
from .errors import (
    CapExceeded,
    ContextMismatch,
    InternalInconsistency,
    NotAField,
    NotInvertible,
    ParamsOutOfRange,
)
from .polys import (  # noqa: F401  (SAMPLE_CAP)
    SAMPLE_CAP,
    Poly,
    PrimeIdeal,
    check_samples,
    poly_to_text,
)
from .residues import ResidueRing, generates_units

DEFAULT_CLOSURE_CAP = 400_000
LEMMA_FIELD_CAP = 128
_TABLE_RING_CAP = 256


def check_lemma_field(f: Poly) -> None:
    """Reject a modulus f whose residue ring has more than LEMMA_FIELD_CAP
    elements; reads q and deg f alone, so it can run before the Rabin test."""
    if f.ctx.q ** (len(f.coeffs) - 1) > LEMMA_FIELD_CAP:
        raise CapExceeded(f"the lemma lab limits the field to "
                          f"q^n <= {LEMMA_FIELD_CAP}")


def check_level2_prime(f: Poly) -> None:
    """Reject a prime generator f of degree other than 1; reads deg f
    alone, so it can run before the Rabin test."""
    if len(f.coeffs) != 2:
        raise ParamsOutOfRange("level-2 lab needs deg(p) = 1")


class Mat2:
    """2x2 matrix over a residue ring."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring: ResidueRing, entries):
        rows = tuple(tuple(ring.element(e) for e in row) for row in entries)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("need a 2x2 entry array")
        self.ring = ring
        self.entries = rows

    def det(self):
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def is_invertible(self) -> bool:
        return self.det().is_unit()

    def __eq__(self, other):
        return (isinstance(other, Mat2) and self.ring == other.ring
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.ring, self.entries))

    def __repr__(self):
        (a, b), (c, d) = self.entries
        return f"Mat2[[{a!r},{b!r}],[{c!r},{d!r}]]"


def identity(ring: ResidueRing) -> Mat2:
    return Mat2(ring, ((1, 0), (0, 1)))


class _Tables:
    """Dense index tables for one residue ring A/(f), f monic of degree d.
    The base-q index of the residue 0 is 0 and of 1 is 1; negatives,
    inverses and units are read off the add and mul tables.

    Both tables are filled from the base-q digits of the indices, with
    F_q operations on single digits and lookups, and no polynomial
    product.  Write a = a_0 + q a' for the constant digit a_0.  Sums go
    digit by digit: add[a][b] = (a_0 + b_0) + q add[a'][b'].  As mul is
    symmetric, row b is column b, filled from rows filled before it:
    a constant b < q scales digit by digit, mul[a][b] = a_0 b + q
    mul[a'][b]; b = b_0 + q b' with b' and b_0 nonzero is the sum of rows
    q b' and b_0; and b = q b' is row b' read at T a, whose index ta[a] is
    q (a mod q^(d-1)) plus the top digit times T^d = T^d - f mod f."""

    zero, one, ident = 0, 1, (1, 0, 0, 1)

    def __init__(self, ring: ResidueRing):
        n = ring.cardinality
        if n > _TABLE_RING_CAP:
            raise CapExceeded(f"ring of size {n} too large for dense tables")
        self.ring = ring
        self.n = n
        ctx, mod, q = ring.ctx, ring.modulus.coeffs, ring.ctx.q
        low = n // q       # the residues of degree < d - 1: indices < low
        self.vecs = vecs = [()]
        for a in range(1, n):
            vecs.append((a % q,) + vecs[a // q])
        digits = [[ctx.add(a, x) for x in range(q)] for a in range(q)]
        self.add = add = [list(range(n))]
        for a in range(1, n):
            add.append([x + q * h for h in add[a // q][:low]
                        for x in digits[a % q]])
        self.mul = mul = [[0] * n]
        for b in range(1, q):
            digit = [ctx.mul(x, b) for x in range(q)]
            row = list(digit)
            for a1 in range(1, low):
                h = q * row[a1]
                row += [x + h for x in digit]
            mul.append(row)
        # the index of T^d mod f, and ta[a] that of T a mod f
        top = kernel.vindex([ctx.neg(c) for c in mod[:-1]], q)
        ta = [add[q * (a % low)][mul[a // low][top]] for a in range(n)]
        for b in range(q, n):
            b0, b1 = b % q, b // q
            mul.append([mul[b1][t] for t in ta] if not b0 else
                       [add[x][y] for x, y in zip(mul[b - b0], mul[b0])])
        self.neg = [row.index(0) for row in add]
        self.inv = {i: row.index(1) for i, row in enumerate(self.mul)
                    if 1 in row}
        self.units = set(self.inv)

    def encode(self, m: Mat2):
        idx = self.ring.index_of
        (a, b), (c, d) = m.entries
        return (idx(a), idx(b), idx(c), idx(d))

    def decode(self, t) -> Mat2:
        e = self.ring.from_index
        return Mat2(self.ring, ((e(t[0]), e(t[1])), (e(t[2]), e(t[3]))))

    @functools.cached_property
    def log(self) -> list:
        """Over a field, the discrete logarithm of each unit to the base
        _unit_generator(self), by residue index (None at 0)."""
        log, x, g = [None] * self.n, 1, _unit_generator(self)
        for i in range(self.n - 1):
            log[x] = i
            x = self.mul[x][g]
        return log

    def mat_mul(self, x, y):
        a, b, c, d = x
        e, f, g, h = y
        MUL, ADD = self.mul, self.add
        return (ADD[MUL[a][e]][MUL[b][g]], ADD[MUL[a][f]][MUL[b][h]],
                ADD[MUL[c][e]][MUL[d][g]], ADD[MUL[c][f]][MUL[d][h]])

    def mat_det(self, x):
        a, b, c, d = x
        return self.add[self.mul[a][d]][self.neg[self.mul[b][c]]]

    def mat_inv(self, x):
        a, b, c, d = x
        MUL, NEG = self.mul, self.neg
        s = MUL[self.inv[self.mat_det(x)]]
        return (s[d], NEG[s[b]], NEG[s[c]], s[a])

    def closure(self, gens, cap: int):
        """BFS product closure of encoded generators from the identity."""
        seen = {self.ident}
        frontier = [self.ident]
        mat_mul = self.mat_mul
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = mat_mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        if len(seen) > cap:
                            raise CapExceeded(f"closure exceeded cap {cap}")
                        nxt.append(y)
            frontier = nxt
        return seen


_TABLE_CACHE: dict = {}


def _tables(ring: ResidueRing) -> _Tables:
    tab = _TABLE_CACHE.get(ring.modulus)
    if tab is None:
        tab = _TABLE_CACHE[ring.modulus] = _Tables(ring)
    return tab


def closure(generators, cap: int = DEFAULT_CLOSURE_CAP) -> set:
    """The subgroup generated by the given matrices, as an explicit set."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    ring = gens[0].ring
    for g in gens:
        if not g.is_invertible():
            raise NotInvertible(f"{g!r} is not invertible", gcd=None)
    tab = _tables(ring)
    enc = tab.closure([tab.encode(g) for g in gens], cap)
    return {tab.decode(t) for t in enc}


def acts_irreducibly(H) -> bool:
    """No line of (A/p)^2 is fixed by every element of H (prime ring)."""
    H = list(H)
    if not H:
        raise ValueError("empty matrix set")
    ring = H[0].ring
    if not ring.is_prime:
        raise NotAField("irreducibility of the line action needs a field")
    tab = _tables(ring)
    enc = [tab.encode(m) for m in H]
    return _acts_irreducibly_encoded(tab, enc)


def _acts_irreducibly_encoded(tab: _Tables, enc) -> bool:
    lines = [(1, x) for x in range(tab.n)] + [(0, 1)]
    MUL, ADD, NEG = tab.mul, tab.add, tab.neg
    for v0, v1 in lines:
        fixed = True
        for a, b, c, d in enc:
            w0 = ADD[MUL[a][v0]][MUL[b][v1]]
            w1 = ADD[MUL[c][v0]][MUL[d][v1]]
            # parallel iff v0*w1 - v1*w0 = 0
            if ADD[MUL[v0][w1]][NEG[MUL[v1][w0]]] != 0:
                fixed = False
                break
        if fixed:
            return False
    return True


def _sl2_generators(tab: _Tables):
    """Standard unipotents over an additive F_p-basis of the residue field,
    encoded over tab: [[1,1],[0,1]] and [[1,0],[1,1]] over a prime field;
    extension fields need the basis x^i T^j, of index p^i q^j (x^i encodes
    as p^i), as the integer unipotents only generate SL_2 of F_p."""
    ctx = tab.ring.ctx
    gens = []
    for i in range(ctx.m):
        for j in range(tab.ring.degree):
            b = ctx.p ** i * ctx.q ** j
            gens += [(1, b, 0, 1), (1, 0, b, 1)]
    return gens


def sl2_group(ring: ResidueRing) -> set:
    """SL_2 of the residue field as an explicit unipotent closure."""
    tab = _tables(ring)
    return closure(tab.decode(g) for g in _sl2_generators(tab))


def contains_sl2(H) -> bool:
    """Whether H contains the closure of the two standard unipotents."""
    H = set(H)
    if not H:
        raise ValueError("empty matrix set")
    ring = next(iter(H)).ring
    if not ring.is_prime:
        raise NotAField("SL_2 containment check needs a field")
    return sl2_group(ring) <= H


def _has_order(x, order: int, mul, one, primes) -> bool:
    """Whether x has exactly the given multiplicative order: x^order is one
    and no x^(order/l) is, for l in primes, the prime divisors of the
    order."""
    return kernel.power(x, order, mul, one) == one and all(
        kernel.power(x, order // l, mul, one) != one for l in primes)


def _unit_generator(tab: _Tables) -> int:
    """The index of a generator of the unit group (cyclic for the rings
    used here): the first unit whose order is the order of the group."""
    MUL = tab.mul
    order = len(tab.units)
    primes = kernel.prime_divisors(order)
    for x in sorted(tab.units):
        if _has_order(x, order, lambda a, b: MUL[a][b], 1, primes):
            return x
    raise InternalInconsistency("unit group has no single generator")


def _primitive_companion(tab: _Tables):
    """The first companion matrix [[0, s], [1, r]] of order N^2 - 1: it
    generates the non-split Cartan, the unit group of F[M] ~ F_{N^2}.
    Its determinant -s is the norm of a generator of F_{N^2}^*, so it
    generates F_N^*: an s with gcd(log(-s), N - 1) != 1 is never tried."""
    n, log, neg = tab.n, tab.log, tab.neg
    order = n ** 2 - 1
    primes = kernel.prime_divisors(order)
    units = [s for s in sorted(tab.units)
             if math.gcd(log[neg[s]], n - 1) == 1]
    for r in range(n):
        for s in units:
            m = (0, s, 1, r)
            if _has_order(m, order, tab.mat_mul, tab.ident, primes):
                return m
    raise InternalInconsistency("no primitive companion matrix")


def _transversal(tab: _Tables, base, gens, image):
    """The orbit of base under H = <gens>, encoded over tab, acting by
    image(point, generator), as {x: r_x} with r_x in H taking base to x."""
    mat_mul = tab.mat_mul
    trans = {base: tab.ident}
    orbit = [base]
    for x in orbit:
        for g in gens:
            y = image(x, g)
            if y not in trans:
                trans[y] = mat_mul(trans[x], g)
                orbit.append(y)
    return trans


def _schreier(tab: _Tables, base, gens, image):
    """(|base^H|, Schreier generators of the stabiliser H_base) for
    H = <gens>, encoded over tab, acting by image(point, generator).

    The orbit keeps one transversal element r_x per point x; the products
    r_x g r_(xg)^-1 other than the identity generate H_base (Seress,
    Permutation Group Algorithms, ch. 4)."""
    trans = _transversal(tab, base, gens, image)
    return len(trans), set(_schreier_stream(tab, trans, gens, image))


def _schreier_stream(tab: _Tables, trans, gens, image):
    """The Schreier generators for the transversal trans, formed lazily,
    each distinct one once and the identity never, for a caller that may
    need only some of them: a caller that stops early forms neither the
    rest of them nor the inverses r_y^-1 only they would use, as each
    inverse is formed on first use."""
    mat_mul, mat_inv = tab.mat_mul, tab.mat_inv
    back = {}
    seen = {tab.ident}
    for x, r in trans.items():
        for g in gens:
            y = image(x, g)
            r_inv = back.get(y)
            if r_inv is None:
                r_inv = back[y] = mat_inv(trans[y])
            s = mat_mul(mat_mul(r, g), r_inv)
            if s not in seen:
                seen.add(s)
                yield s


def _lemma_facts(tab: _Tables, gens):
    """(|H|, H acts irreducibly, SL_2(F) <= H) for H = <gens>, encoded over
    a field of n elements, by one Schreier level on the n + 1 points of
    P^1 and the structure of the Borel; H is never listed.

    Matrices act on row vectors: the point x < n is the line of (x, 1) and
    n is infinity, the line of (1, 0).  H_inf, given by its Schreier
    generators, lies in the lower triangular Borel T U, and the projection
    pi_T: (a, 0, c, d) -> (a, d) has kernel U, of order n: |H_inf| =
    |H_inf n U| |pi_T(H_inf)|.  As H_inf,0 = H_inf n T has order prime to
    p, |H_inf n U| is the p-part gcd(|0^(H_inf)|, n) of an orbit of points
    alone.  H fixes a point iff every generator does, and H n SL_2 has
    order |H| / |det H|.

    F^* is cyclic of order m = n - 1, so by discrete logarithms det H has
    order m / gcd(m, log det g over the generators g), and pi_T(H_inf) is
    L / m Z^2 for the lattice L spanned by m Z^2 and the (log a, log d) of
    the Schreier generators, of order m^2 / [Z^2 : L].  The generators are
    drawn one at a time, each growing the orbit of 0 and L, until the orbit
    has all n points and pi_T(H_inf) all m |det H| pairs (a, d) with ad in
    det H.  H_inf lies in the Borel with determinants in det H, so neither
    can grow past those sizes: the stop is exact, and the generators not
    drawn could change neither count.
    """
    n, MUL, ADD, inv = tab.n, tab.mul, tab.add, tab.inv

    def image(x, g):
        a, b, c, d = g
        u, v = (a, b) if x == n else (ADD[MUL[x][a]][c], ADD[MUL[x][b]][d])
        return n if v == 0 else MUL[u][inv[v]]

    m, log = n - 1, tab.log
    # det H has order m / det_gcd
    det_gcd = math.gcd(m, *(log[tab.mat_det(g)] for g in gens))
    trans = _transversal(tab, n, gens, image)
    orbit, points, drawn = {0}, [0], []
    # the (log a, log d) of the drawn generators span, with m Z^2, the
    # lattice of rows (a0, b0), (0, c0), of index a0 c0 in Z^2
    a0, b0, c0 = m, 0, m
    for g in _schreier_stream(tab, trans, gens, image):
        if len(orbit) < n:
            drawn.append(g)
            i = len(points)
            for y in [image(x, g) for x in points]:
                if y not in orbit:
                    orbit.add(y)
                    points.append(y)
            while i < len(points):
                x = points[i]
                i += 1
                for h in drawn:
                    y = image(x, h)
                    if y not in orbit:
                        orbit.add(y)
                        points.append(y)
        # Euclid on the rows (a0, b0) and the new one, then c0 absorbs the
        # row that leads with 0
        r, v = (a0, b0), (log[g[0]], log[g[3]])
        while v[0]:
            k = r[0] // v[0]
            r, v = v, (r[0] - k * v[0], r[1] - k * v[1])
        c0 = math.gcd(c0, v[1])
        a0, b0 = r[0], r[1] % c0
        if len(orbit) == n and a0 * c0 == det_gcd:
            break
    order = len(trans) * math.gcd(len(orbit), n) * (m * m // (a0 * c0))
    return (order, _acts_irreducibly_encoded(tab, gens),
            order * det_gcd // m == n * (n * n - 1))


def _lemma_generators(tab: _Tables) -> dict:
    """Encoded generators of the forced taxonomy cases of the lemma lab."""
    g = tab.log.index(1)    # _unit_generator(tab), of logarithm 1
    return {
        "borel": [(g, 0, 0, 1), (1, 0, 0, g), (1, 1, 0, 1)],
        "split_cartan": [(g, 0, 0, 1), (1, 0, 0, g)],
        "nonsplit_cartan": [_primitive_companion(tab)],
        "sl2": _sl2_generators(tab),
        "gl2": [(1, 1, 0, 1), (1, 0, 1, 1), (g, 0, 0, 1)],
    }


def verify_lemma_A1(ring: ResidueRing, samples: int, seed: int) -> dict:
    """Sampled check of the SL_2 criterion: any subgroup with a subgroup of
    order #F acting irreducibly must contain SL_2(F).

    Forced taxonomy cases (Borel, split/non-split Cartan, SL_2, GL_2) run
    before the seeded random generator sets.  No subgroup is listed: each
    is sized by a stabiliser chain on P^1(F) (see _lemma_facts), so the
    field may have up to LEMMA_FIELD_CAP elements.  Expected violations:
    none.
    """
    check_samples(samples)
    if ring.ctx.m != 1:
        raise ContextMismatch("the lemma lab works over a prime base field")
    if not ring.is_prime:
        raise NotAField("the lemma lab works over a field")
    check_lemma_field(ring.modulus)
    N = ring.cardinality
    tab = _tables(ring)
    rng = random.Random(seed)
    violations = []
    hypothesis_hits = 0

    def examine(name, gens):
        nonlocal hypothesis_hits
        order, irreducible, contains = _lemma_facts(tab, gens)
        has_field_subgroup = (order % N == 0)
        hypotheses = has_field_subgroup and irreducible
        if hypotheses:
            hypothesis_hits += 1
            if not contains:
                violations.append({"case": name, "order": order})
        return {"case": name, "order": order,
                "has_subgroup_of_field_order": has_field_subgroup,
                "acts_irreducibly": irreducible,
                "hypotheses_met": hypotheses,
                "contains_sl2": contains}

    forced_records = [examine(name, gens)
                      for name, gens in _lemma_generators(tab).items()]
    for i in range(samples):
        examine(f"sample_{i}", [_random_invertible(rng, tab)
                                for _ in range(rng.choice((1, 2, 3)))])
    return {
        "op": "verify_lemma_A1",
        "ring": poly_to_text(ring.modulus),
        "q_field": N,
        "seed": seed,
        "samples": samples,
        "hypothesis_hits": hypothesis_hits,
        "violations": violations,
        "forced_cases": forced_records,
    }


def _random_invertible(rng, tab: _Tables):
    """A uniform invertible matrix, encoded: four index draws per attempt."""
    n = tab.n
    while True:
        m = (rng.randrange(n), rng.randrange(n), rng.randrange(n),
             rng.randrange(n))
        if tab.mat_det(m) in tab.units:
            return m


class _Level2:
    """GL_2(A/p^2) at a degree-1 prime p, sized through the congruence
    kernel K = I + pM_2 ~ (M_2(A/p), +) without listing any subgroup.

    For H = <gens> with image Hbar in GL_2(A/p), the stabiliser chain runs
    through the mod-p projection: the levels at infinity and 0 of P^1(A/p)
    leave the elements of H that are diagonal mod p, and one level on the
    diagonal torus of GL_2(A/p), based at the identity, leaves H n K.  So
    |Hbar| is the product of the three orbit lengths, the last level's
    Schreier generators generate H n K, and their pi-digit matrices span
    it over F_p: |H| = |Hbar| p^rank.  det(H) is generated by the
    determinants of the generators, tested by residues.generates_units.
    """

    def __init__(self, p: PrimeIdeal):
        ctx = p.ctx
        self.char, self.m = ctx.p, ctx.m
        self.ring2, self.ring1 = ResidueRing(p.gen ** 2), ResidueRing(p)
        self.tab, self.tab1 = _tables(self.ring2), _tables(self.ring1)
        # x = pi_digit * p + low: low is the mod-p projection, and the
        # pi-digit, a constant, has m F_p-digits (zero padded, as the four
        # entries of a matrix are concatenated)
        self.proj, self.digits = [], []
        for x in self.tab.vecs:
            pi_digit, low = kernel.vdivmod(ctx, x, p.gen.coeffs)
            self.proj.append(kernel.vindex(low, ctx.q))
            self.digits.append(tuple(kernel.fp_digits(ctx, pi_digit or [0])))

    def facts(self, gens):
        """(|H|, det(H) full, |Hbar|, H n K not scalar) for H = <gens>,
        the generators encoded over A/p^2."""
        tab, proj, digits, m = self.tab, self.proj, self.digits, self.m
        n, MUL, ADD, inv = (self.tab1.n, self.tab1.mul, self.tab1.add,
                            self.tab1.inv)

        def line(x, g):
            a, b, c, d = proj[g[0]], proj[g[1]], proj[g[2]], proj[g[3]]
            u, v = (a, b) if x == n else (ADD[MUL[x][a]][c], ADD[MUL[x][b]][d])
            return n if v == 0 else MUL[u][inv[v]]

        def torus(x, g):
            return MUL[x[0]][proj[g[0]]], MUL[x[1]][proj[g[3]]]

        top, stabiliser = _schreier(tab, n, gens, line)
        middle, diagonal = _schreier(tab, 0, stabiliser, line)
        trans = _transversal(tab, (1, 1), diagonal, torus)
        # vechelon stops drawing this level's generators at full rank
        congruent = _schreier_stream(tab, trans, diagonal, torus)
        rows = kernel.vechelon(kernel.Zp(self.char), (
            sum((digits[e] for e in s), ()) for s in congruent), 4 * m)
        # padded back to 4m digits, or a scalar row ending in zeros would
        # fail the scalar test
        basis = [row + [0] * (4 * m - len(row)) for row in rows.values()]
        det_full = generates_units(
            self.ring1.ctx, self.ring1.modulus.coeffs, 2,
            lambda: (tab.vecs[tab.mat_det(g)] for g in gens))
        modp_order = top * middle * len(trans)
        return (modp_order * self.char ** len(basis), det_full, modp_order,
                any(any(v[m:3 * m]) or v[:m] != v[3 * m:] for v in basis))


def pink_rutsche_level2(p: PrimeIdeal, samples: int, seed: int) -> dict:
    """Finite shadow of the full-group criterion in GL_2(A/p^2): any sampled
    subgroup with full determinant image, full mod-p image, and a non-scalar
    element congruent to the identity mod p must be all of GL_2(A/p^2).

    No subgroup is listed: each is sized by a stabiliser chain through its
    mod-p image and the congruence kernel (see _Level2).
    """
    check_samples(samples)
    if p.ctx.m != 1:
        raise ContextMismatch("the level-2 lab works over a prime base field")
    check_level2_prime(p.gen)
    q = p.ctx.q
    full_order = (q * q - 1) * (q * q - q) * q ** 4
    gl2_modp_order = (q * q - 1) * (q * q - q)
    lab = _Level2(p)
    tab = lab.tab

    def examine(name, gens):
        order, det_full, modp_order, nonscalar = lab.facts(gens)
        modp_full = modp_order == gl2_modp_order
        hypotheses = det_full and modp_full and nonscalar
        record = {"case": name, "order": order, "det_full": det_full,
                  "mod_p_full": modp_full,
                  "level1_nonscalar": nonscalar,
                  "hypotheses_met": hypotheses,
                  "is_full_group": order == full_order}
        if hypotheses and order != full_order:
            violations.append(record)
        return record

    g2 = _unit_generator(tab)
    # deg p = 1: a constant has the same index in A/p and in A/p^2
    g1 = _unit_generator(lab.tab1)
    pi = kernel.vindex(p.gen.coeffs, q)
    forced_sets = {
        "full_group": [(1, 1, 0, 1), (1, 0, 1, 1), (1, pi, 0, 1),
                       (1, 0, pi, 1), (g2, 0, 0, 1)],
        "teichmuller_lift": [(1, 1, 0, 1), (1, 0, 1, 1), (g1, 0, 0, 1)],
    }
    rng = random.Random(seed)
    violations = []
    forced_records = [examine(name, gens) for name, gens in forced_sets.items()]
    sample_records = [examine(f"sample_{i}", [
        _random_invertible(rng, tab) for _ in range(rng.choice((2, 2, 3)))])
        for i in range(samples)]
    filtered_out = sum(1 for r in forced_records + sample_records
                       if not r["hypotheses_met"])
    return {
        "op": "pink_rutsche_level2",
        "ring": poly_to_text(lab.ring2.modulus),
        "prime": poly_to_text(p.gen),
        "seed": seed,
        "samples": samples,
        "full_order": full_order,
        "filtered_out": filtered_out,
        "violations": violations,
        "forced_cases": forced_records,
        "sample_cases": sample_records,
    }
