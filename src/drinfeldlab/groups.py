"""Verification lab for the group-theoretic ingredients.

Subgroup closure in GL_2 of a residue ring, irreducibility of the line
action, SL_2 containment and the SL_2-criterion lemma suite run on explicit
element sets.  The level-two full-group suite never materialises a subgroup
H of GL_2(A/p^2): it closes the image of H in GL_2(A/p) and reads H's
intersection with the congruence kernel off Schreier generators.

Closures run on matrices encoded as 4-tuples of residue indices with dense
add/mul lookup tables; the public Mat2 type stays ResidueElement-based.
"""

from __future__ import annotations

import operator
import random

from .errors import CapExceeded, NotAField, NotInvertible, ParamsOutOfRange
from .polys import PrimeIdeal, poly_to_text
from .residues import ResidueRing, abelian_span

DEFAULT_CLOSURE_CAP = 400_000
SAMPLE_CAP = 10_000
_TABLE_RING_CAP = 256


def check_samples(samples: int) -> None:
    """Reject a sample count outside 0..SAMPLE_CAP."""
    if not 0 <= samples <= SAMPLE_CAP:
        raise ParamsOutOfRange(f"samples must be in 0..{SAMPLE_CAP}")


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

    def __mul__(self, other: "Mat2") -> "Mat2":
        (a, b), (c, d) = self.entries
        (e, f), (g, h) = other.entries
        return Mat2(self.ring, ((a * e + b * g, a * f + b * h),
                                (c * e + d * g, c * f + d * h)))

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
    """Dense index tables for one residue ring."""

    def __init__(self, ring: ResidueRing):
        n = ring.cardinality
        if n > _TABLE_RING_CAP:
            raise CapExceeded(f"ring of size {n} too large for dense tables")
        self.ring = ring
        self.n = n
        elems = ring.elements()
        self.elems = elems
        self.add = [[ring.index_of(x + y) for y in elems] for x in elems]
        self.mul = [[ring.index_of(x * y) for y in elems] for x in elems]
        self.neg = [ring.index_of(-x) for x in elems]
        self.units = {i for i, x in enumerate(elems) if x.is_unit()}
        one = ring.index_of(ring.one)
        self.inv = {i: self.mul[i].index(one) for i in self.units}

    def encode(self, m: Mat2):
        idx = self.ring.index_of
        (a, b), (c, d) = m.entries
        return (idx(a), idx(b), idx(c), idx(d))

    def decode(self, t) -> Mat2:
        e = self.elems
        return Mat2(self.ring, ((e[t[0]], e[t[1]]), (e[t[2]], e[t[3]])))

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
        one = self.ring.index_of(self.ring.one)
        zero = self.ring.index_of(self.ring.zero)
        ident = (one, zero, zero, one)
        seen = {ident}
        frontier = [ident]
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
    key = ring.modulus
    tab = _TABLE_CACHE.get(key)
    if tab is None:
        tab = _Tables(ring)
        _TABLE_CACHE[key] = tab
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
    n = tab.n
    one = tab.ring.index_of(tab.ring.one)
    zero = tab.ring.index_of(tab.ring.zero)
    lines = [(one, x) for x in range(n)] + [(zero, one)]
    MUL, ADD, NEG = tab.mul, tab.add, tab.neg
    for v0, v1 in lines:
        fixed = True
        for a, b, c, d in enc:
            w0 = ADD[MUL[a][v0]][MUL[b][v1]]
            w1 = ADD[MUL[c][v0]][MUL[d][v1]]
            # parallel iff v0*w1 - v1*w0 = 0
            if ADD[MUL[v0][w1]][NEG[MUL[v1][w0]]] != zero:
                fixed = False
                break
        if fixed:
            return False
    return True


def _sl2_generators(ring: ResidueRing):
    """Standard unipotents over an additive F_p-basis of the residue field.

    For a prime-field ring this is exactly the two matrices [[1,1],[0,1]]
    and [[1,0],[1,1]]; extension fields need the basis family x^i T^j, since
    the two integer unipotents only generate SL_2 of the prime subfield.
    """
    ctx = ring.ctx
    basis = []
    for i in range(ctx.m):
        # x^i encodes as p^i for i < m (the i-th coefficient basis vector)
        x_power = ring.element(ctx.from_encoded(ctx.p ** i))
        t_power = ring.one
        for _ in range(ring.degree):
            basis.append(x_power * t_power)
            t_power = t_power * ring.t
    gens = []
    for b in basis:
        gens.append(Mat2(ring, ((ring.one, b), (ring.zero, ring.one))))
        gens.append(Mat2(ring, ((ring.one, ring.zero), (b, ring.one))))
    return gens


def sl2_group(ring: ResidueRing) -> set:
    """SL_2 of the residue field as an explicit unipotent closure."""
    return closure(_sl2_generators(ring))


def contains_sl2(H) -> bool:
    """Whether H contains the closure of the two standard unipotents."""
    H = set(H)
    if not H:
        raise ValueError("empty matrix set")
    ring = next(iter(H)).ring
    if not ring.is_prime:
        raise NotAField("SL_2 containment check needs a field")
    return sl2_group(ring) <= H


def _find_unit_generator(ring: ResidueRing):
    """Element generating the unit group (cyclic for the rings used here):
    the first unit whose cyclic span is the whole unit group."""
    units = ring.units()
    order = len(units)
    for x in units:
        if len(abelian_span(ring.one, [x], operator.mul, order)) == order:
            return x
    raise ValueError("unit group has no single generator")


def _nonsplit_cartan(ring: ResidueRing) -> set:
    """The multiplicative group of the quadratic extension acting on itself:
    all xI + yM, (x, y) != 0, with M the companion matrix of a quadratic
    X^2 - rX - s irreducible over the residue field.  As xI + yM =
    y((x/y)I + M) for y != 0, the scalars gI (g generating the units) and
    the aI + M generate it."""
    from .residues import is_square_mod_prime

    companion = None
    for r in ring.elements():
        for s in ring.elements():
            disc = r * r + ring.element(4) * s
            if disc.is_zero() or is_square_mod_prime(disc):
                continue
            companion = Mat2(ring, ((ring.zero, s), (ring.one, r)))
            break
        if companion:
            break
    g = _find_unit_generator(ring)
    (_, s), (_, r) = companion.entries
    shifts = [Mat2(ring, ((a, s), (1, a + r))) for a in ring.elements()]
    return closure([Mat2(ring, ((g, 0), (0, g)))] + shifts)


def verify_lemma_A1(ring: ResidueRing, samples: int, seed: int) -> dict:
    """Sampled check of the SL_2 criterion: any subgroup with a subgroup of
    order #F acting irreducibly must contain SL_2(F).

    Forced taxonomy cases (Borel, split/non-split Cartan, SL_2, GL_2) run
    before the seeded random generator sets.  Expected violations: none.
    """
    check_samples(samples)
    if not ring.is_prime:
        raise NotAField("the lemma lab works over a field")
    N = ring.cardinality
    if N > 25:
        raise CapExceeded("closure budget limits the field to q^n <= 25")
    tab = _tables(ring)
    g = _find_unit_generator(ring)

    def enc_closure(mats):
        return tab.closure([tab.encode(m) for m in mats],
                           DEFAULT_CLOSURE_CAP)

    forced = {
        "borel": enc_closure([Mat2(ring, ((g, 0), (0, 1))),
                              Mat2(ring, ((1, 0), (0, g))),
                              Mat2(ring, ((1, 1), (0, 1)))]),
        "split_cartan": enc_closure([Mat2(ring, ((g, 0), (0, 1))),
                                     Mat2(ring, ((1, 0), (0, g)))]),
        "nonsplit_cartan": {tab.encode(m) for m in _nonsplit_cartan(ring)},
        "sl2": enc_closure(_sl2_generators(ring)),
        "gl2": enc_closure([Mat2(ring, ((1, 1), (0, 1))),
                            Mat2(ring, ((1, 0), (1, 1))),
                            Mat2(ring, ((g, 0), (0, 1)))]),
    }
    sl2 = forced["sl2"]
    rng = random.Random(seed)
    violations = []
    forced_records = []
    hypothesis_hits = 0

    def examine(name, H):
        nonlocal hypothesis_hits
        order = len(H)
        has_field_subgroup = (order % N == 0)
        irreducible = _acts_irreducibly_encoded(tab, H)
        hypotheses = has_field_subgroup and irreducible
        contains = sl2 <= H
        if hypotheses:
            hypothesis_hits += 1
            if not contains:
                violations.append({"case": name, "order": order})
        return {"case": name, "order": order,
                "has_subgroup_of_field_order": has_field_subgroup,
                "acts_irreducibly": irreducible,
                "hypotheses_met": hypotheses,
                "contains_sl2": contains}

    for name, H in forced.items():
        forced_records.append(examine(name, H))
    for i in range(samples):
        k = rng.choice((1, 2, 3))
        gens = [_random_invertible(rng, ring) for _ in range(k)]
        examine(f"sample_{i}", enc_closure(gens))
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


def _random_invertible(rng, ring: ResidueRing) -> Mat2:
    n = ring.cardinality
    while True:
        m = Mat2(ring, ((ring.from_index(rng.randrange(n)),
                         ring.from_index(rng.randrange(n))),
                        (ring.from_index(rng.randrange(n)),
                         ring.from_index(rng.randrange(n)))))
        if m.is_invertible():
            return m


def _fp_basis(vectors, p: int, dim: int) -> list:
    """Echelon basis of the F_p-span of length-dim vectors over 0..p-1,
    stopping as soon as it spans all of F_p^dim."""
    rows = {}
    for v in vectors:
        for i in range(dim):
            c = v[i]
            if not c:
                continue
            row = rows.get(i)
            if row is None:
                inv = pow(c, -1, p)
                rows[i] = [x * inv % p for x in v]
                break
            v = [(x - c * y) % p for x, y in zip(v, row)]
        if len(rows) == dim:
            break
    return list(rows.values())


class _Level2:
    """GL_2(A/p^2) at a degree-1 prime p, sized through the congruence
    kernel K = I + pM_2 ~ (M_2(A/p), +) without listing any subgroup.

    For H = <gens>, the exact sequence 1 -> H n K -> H -> Hbar -> 1 gives
    |H| = |Hbar| p^rank: Hbar is closed in GL_2(A/p) keeping one lift r_x
    per element, the Schreier generators r_x g r_{xg}^-1 generate H n K
    (Seress, Permutation Group Algorithms, ch. 4), and their pi-digit
    matrices span it over F_p.  det(H) is generated by the determinants of
    the generators.
    """

    def __init__(self, p: PrimeIdeal):
        ctx = p.ctx
        self.char, self.m, self.unit_count = ctx.p, ctx.m, ctx.q ** 2 - ctx.q
        self.ring2, self.ring1 = ResidueRing(p.gen ** 2), ResidueRing(p)
        self.tab = _tables(self.ring2)
        # the mod-p projection and the F_p digits of the pi-digit of each
        # residue (a field element encodes its F_p coordinates base p)
        index1 = self.ring1.index_of
        self.proj, self.digits = [], []
        for x in self.ring2.elements():
            low = self.ring1.element(x.rep)
            pi_digit = index1(self.ring1.element((x.rep - low.rep) // p.gen))
            self.proj.append(index1(low))
            self.digits.append(tuple(pi_digit // self.char ** j % self.char
                                     for j in range(self.m)))
        self.one = self.ring2.index_of(self.ring2.one)
        zero = self.ring2.index_of(self.ring2.zero)
        self.ident = (self.one, zero, zero, self.one)

    def facts(self, mats):
        """(|H|, det(H) full, |Hbar|, H n K not scalar) for H = <mats>."""
        tab, proj, digits, m = self.tab, self.proj, self.digits, self.m
        mat_mul, MUL = tab.mat_mul, tab.mul

        def bar(x):
            return (proj[x[0]], proj[x[1]], proj[x[2]], proj[x[3]])

        gens = [tab.encode(g) for g in mats]
        lifts = {bar(self.ident): self.ident}
        frontier = [self.ident]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = mat_mul(x, g)
                    key = bar(y)
                    if key not in lifts:
                        lifts[key] = y
                        nxt.append(y)
            frontier = nxt
        inv_lift = {key: tab.mat_inv(r) for key, r in lifts.items()}

        def schreier_digits():
            for r in lifts.values():
                for g in gens:
                    y = mat_mul(r, g)
                    s = mat_mul(y, inv_lift[bar(y)])
                    yield sum((digits[e] for e in s), ())

        basis = _fp_basis(schreier_digits(), self.char, 4 * m)
        dets = abelian_span(self.one, [tab.mat_det(g) for g in gens],
                            lambda x, y: MUL[x][y], self.unit_count)
        return (len(lifts) * self.char ** len(basis),
                len(dets) == self.unit_count, len(lifts),
                any(any(v[m:3 * m]) or v[:m] != v[3 * m:] for v in basis))


def pink_rutsche_level2(p: PrimeIdeal, samples: int, seed: int) -> dict:
    """Finite shadow of the full-group criterion in GL_2(A/p^2): any sampled
    subgroup with full determinant image, full mod-p image, and a non-scalar
    element congruent to the identity mod p must be all of GL_2(A/p^2).

    Each subgroup is sized through the congruence kernel (see _Level2), so
    only its image in GL_2(A/p) is materialised.
    """
    check_samples(samples)
    if p.degree != 1:
        raise ParamsOutOfRange("level-2 lab needs deg(p) = 1")
    q = p.ctx.q
    full_order = (q * q - 1) * (q * q - q) * q ** 4
    gl2_modp_order = (q * q - 1) * (q * q - q)
    if gl2_modp_order > DEFAULT_CLOSURE_CAP:
        raise CapExceeded(f"GL_2(A/p) order {gl2_modp_order} exceeds closure "
                          f"cap {DEFAULT_CLOSURE_CAP}")
    lab = _Level2(p)
    ring1, ring2 = lab.ring1, lab.ring2

    def examine(name, mats):
        order, det_full, modp_order, nonscalar = lab.facts(mats)
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

    g2 = _find_unit_generator(ring2)
    pi = ring2.element(p.gen)
    forced_sets = {
        "full_group": [Mat2(ring2, ((1, 1), (0, 1))),
                       Mat2(ring2, ((1, 0), (1, 1))),
                       Mat2(ring2, ((ring2.one, pi), (0, 1))),
                       Mat2(ring2, ((1, 0), (pi, ring2.one))),
                       Mat2(ring2, ((g2, 0), (0, 1)))],
        "teichmuller_lift": [Mat2(ring2, ((1, 1), (0, 1))),
                             Mat2(ring2, ((1, 0), (1, 1))),
                             Mat2(ring2, ((_find_unit_generator(ring1).rep, 0),
                                          (0, 1)))],
    }
    rng = random.Random(seed)
    violations = []
    forced_records = []
    sample_records = []
    for name, gens in forced_sets.items():
        forced_records.append(examine(name, gens))
    for i in range(samples):
        k = rng.choice((2, 2, 3))
        gens = [_random_invertible(rng, ring2) for _ in range(k)]
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
