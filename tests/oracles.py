"""Brute-force oracles shared by the test modules: slow, listing routes
that the product code decides by structure, and library helpers that no
command calls, kept as references for the paths that commands take."""


def polys_below(ctx, degree):
    """Every polynomial of degree < `degree`, zero included, in index order;
    a negative bound counts as 0 and yields only zero."""
    from drinfeldlab import kernel
    from drinfeldlab.polys import Poly

    return (Poly(ctx, v) for v in kernel.vectors_below(ctx.q, degree))


def monic_polys(ctx, degree):
    """Monic degree-d polynomials in lexicographic coefficient order
    (leading-side coefficients most significant)."""
    from drinfeldlab.polys import poly_from_index

    top = ctx.q ** degree
    return (poly_from_index(ctx, top + idx) for idx in range(top))


def abelian_span(one, gens, mul, order: int) -> set:
    """The subgroup of a finite abelian group of the given order generated
    by gens, grown one coset at a time: H<g> is the union of H g^i for i
    below the order of g modulo H, about |H<g>| - |H| products.
    Stops drawing generators once the whole group is reached."""
    H = [one]
    seen = {one}
    for g in gens:
        base = list(H)
        y = g
        while y not in seen:
            coset = [mul(h, y) for h in base]
            H.extend(coset)
            seen.update(coset)
            y = mul(y, g)
        if len(H) == order:
            break
    return seen


def cofactor_charpoly(ctx, rows):
    """det(X I - M) as a Poly for the square matrix M over F_q with the
    given rows, by cofactor expansion along the first row: n! terms, the
    route kernel.vcharpoly replaced."""
    from drinfeldlab.polys import Poly

    n = len(rows)
    return _det([[(Poly.T(ctx) if i == j else Poly.zero(ctx))
                  - Poly(ctx, (rows[i][j],)) for j in range(n)]
                 for i in range(n)])


def powmod_t_action(phi, lam):
    """The columns of the F_q-linear T-action on A/(lam) by the route the
    Euler-Poincare oracle replaced: phi_T reduced by kernel.vmod, and
    column j the vector sum_i c_i T^(j q^i) mod lam, one kernel.vpowmod
    per entry, padded to deg lam.  Raises NotGoodReduction when phi_T's
    leading coefficient vanishes mod lam."""
    from drinfeldlab import kernel
    from drinfeldlab.errors import NotGoodReduction

    ctx, m, gen = phi.ctx, lam.degree, lam.gen.coeffs
    vecs = [kernel.vmod(ctx, c, gen)
            for c in [(0, 1)] + [g.coeffs for g in phi.coeffs]]
    if not vecs[-1]:
        raise NotGoodReduction(f"bad reduction at {lam!r}")
    cols = []
    for j in range(m):
        img = []
        for i, c in enumerate(vecs):
            img = kernel.vadd(ctx, img, kernel.vmulmod(
                ctx, c, kernel.vpowmod(ctx, [0, 1], j * ctx.q ** i, gen),
                gen))
        cols.append(img + [0] * (m - len(img)))
    return cols


def vmulmod_horner_rows(frob, phi_t):
    """The F_p-words of each row of kernel.HornerMap(frob, phi_t), by the
    route its tau^0 block replaced: every block c_k (T^i)^(q^k), c_0's
    included, one kernel.vmulmod per basis element, (T^i)^(q^k) by k
    twists, and row i m + t the digits of x^t times those images, each
    block padded to n = m deg mod words."""
    from drinfeldlab import kernel

    ctx, mod = frob.ctx, frob.mod
    d, m, p = len(mod) - 1, ctx.m, ctx.p
    n = d * m
    rows = [[] for _ in range(n)]
    for i in range(d):
        power = [0] * i + [1]
        for k, c in enumerate(phi_t):
            if k:
                power = kernel.vfrobenius(frob, power)
            image = kernel.vmulmod(ctx, c, power, mod)
            for t in range(m):
                digits = kernel.fp_digits(ctx, kernel.vscale(
                    ctx, image, p ** t) if t else image)
                rows[i * m + t] += digits + [0] * (n - len(digits))
    return rows


def _det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = mat[0][0] - mat[0][0]
    for j, top in enumerate(mat[0]):
        if top.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = top * _det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def walk_sieve(ctx, n):
    """The indices of the monic irreducibles of degree n, ascending, by the
    route polys._sieve replaced: every product g*h of a monic prime g of
    degree d <= n/2 and a monic h of degree n - d is marked at its base-q
    index, the cofactors h walked depth first over their digits, a
    child's digits and index its parent's plus the row c*g*T^j for its
    digit c = h_j, and the q leaves of a parent summed column by column."""
    import operator

    q, p, add = ctx.q, ctx.p, ctx.add
    prime = ctx.m == 1
    composite = bytearray(q ** n)
    weights = [q ** i for i in range(n)]  # the leading 1 is implied

    def walk(j, idx):
        lo, w = digits[j:j + d + 1], weights[j:j + d + 1]
        base = idx - sum(map(operator.mul, lo, w))
        if not j:  # the leaves: their indices, column by column
            cols = [[(x + r) % p * wt for r in col] if prime
                    else [add(x, r) * wt for r in col]
                    for x, col, wt in zip(lo, cols_g, w)]
            for child in map(sum, zip(*cols)):
                composite[base + child] = 1
            return
        for row in rows:
            new = ([(x + r) % p for x, r in zip(lo, row)] if prime
                   else [add(x, r) for x, r in zip(lo, row)])
            digits[j:j + d + 1] = new
            walk(j - 1, base + sum(map(operator.mul, new, w)))
        digits[j:j + d + 1] = lo

    for d in range(1, n // 2 + 1):
        k = n - d
        for g_idx in walk_sieve(ctx, d):
            g = _digits(q ** d + g_idx, q)
            cols_g = [[ctx.mul(c, x) for c in range(q)] for x in g]
            rows = list(zip(*cols_g))  # rows[c] = c*g
            digits = [0] * k + g  # g*T^k, the root of the walk
            walk(k - 1, g_idx * q ** k)
    return [idx for idx, marked in enumerate(composite) if not marked]


def _digits(idx, q):
    out = []
    while idx:
        idx, c = divmod(idx, q)
        out.append(c)
    return out


def veval_lambda_scan(ctx, max_deg, mode):
    """The records of criteria.lambda_scan by the route its packed
    evaluation replaced: the primes from polys.irreducible_indices, then
    each prime's value at every x by one kernel.veval Horner, and the
    first (c, r1) in field order with l(c + r1^2/4) a non-square."""
    from drinfeldlab import kernel
    from drinfeldlab.polys import coeffs_to_text, irreducible_indices

    degrees = (range(1, max_deg + 1) if mode == "affirm"
               else range(max_deg, max_deg + 1))
    p = ctx.p
    quarter = ctx.inv(4 % p)
    quarter_squares = [r1 * r1 * quarter % p for r1 in range(p)]
    squares = {x * x % p for x in range(p)}
    records = []
    for deg in degrees:
        top = p ** deg
        for idx in irreducible_indices(ctx, deg):
            gen = kernel.vdigits(top + idx, p)
            nonsquare = [kernel.veval(ctx, gen, x) not in squares
                         for x in range(p)]
            found = next(((c, r1) for c in range(p)
                          for r1, shift in enumerate(quarter_squares)
                          if nonsquare[(c + shift) % p]), None)
            witness = None
            if found is not None:
                c, r1 = found
                witness = {"c": c, "r1": r1, "g1": coeffs_to_text(
                    ctx, (r1,) if r1 else (ctx.neg(c), 1))}
            records.append({"prime": coeffs_to_text(ctx, gen),
                            "degree": deg, "passes": witness is not None,
                            "witness": witness})
    return records


def poly_count_W(params, cap):
    """#W(X) in brute mode by the route census.count_W replaced: every pair
    (g1, g2) of Polys in the box, counted where g2 is nonzero, after the
    same cap refusal."""
    from drinfeldlab.errors import BruteCapExceeded

    q = params.ctx.q
    n1, n2 = params.d1 * params.X, params.d2 * params.X
    if q ** n1 * q ** n2 > cap:
        raise BruteCapExceeded(f"{q}^{n1 + n2} pairs exceed cap {cap}")
    return sum(1 for _ in polys_below(params.ctx, n1)
               for g2 in polys_below(params.ctx, n2) if not g2.is_zero())


def poly_count_S(params, all_classes=False, g2_deg_bound=None):
    """#S(X) in brute mode by the route census.count_S replaced: both boxes
    listed as Polys, and each class's g1 and g2 counts by Poly.__mod__
    against the class residues, per class."""
    from drinfeldlab.census import DEFAULT_BRUTE_CAP
    from drinfeldlab.errors import BruteCapExceeded, ParamsOutOfRange
    from drinfeldlab.polys import Poly

    ctx = params.ctx
    q = ctx.q
    n1 = params.d1 * params.X
    n2, rem = divmod(params.d2 * params.X, q - 1)
    if g2_deg_bound is None:
        n2 += 1 if rem else 0
    else:
        if g2_deg_bound < 0:
            raise ParamsOutOfRange("g2_deg_bound must be >= 0")
        n2 = g2_deg_bound
    if q ** n1 * q ** n2 > DEFAULT_BRUTE_CAP:
        raise BruteCapExceeded(
            f"{q}^{n1 + n2} pairs exceed cap {DEFAULT_BRUTE_CAP}")
    l1 = Poly.T(ctx) - Poly.constant(ctx, params.c1)
    l2 = Poly.T(ctx) - Poly.constant(ctx, params.c2)
    m1, m2 = l1 * l2, l1 * l2 * l2
    classes = ([(params.b1, params.b2)] if not all_classes
               else valid_congruence_classes(ctx, params.c1, params.c2))
    g1_pool = list(polys_below(ctx, n1))
    g2_pool = list(polys_below(ctx, n2))
    total = 0
    for b1, b2 in classes:
        r1, r2 = b1 % m1, b2 % m2
        total += (sum(1 for g1 in g1_pool if g1 % m1 == r1)
                  * sum(1 for g2 in g2_pool if g2 % m2 == r2))
    return total


class ReductionData:
    """Reduction kind and height of a module at one prime."""

    __slots__ = ("prime", "kind", "height")

    def __init__(self, prime, kind, height):
        self.prime = prime
        self.kind = kind
        self.height = height

    def __repr__(self):
        return f"ReductionData({self.prime!r}, {self.kind}, H={self.height})"


def reduction_type(phi, lam):
    """Classify the reduction at lam: good, stable of rank 1, or unstable.

    Good means the leading coefficient is a lam-unit.  The rank-2 stable
    detection implements the valuation-normalized twist: k = nu(g_1)/(q-1)
    must be a nonnegative integer leaving the twisted leading coefficient
    with positive valuation.  Anything else reports unstable.
    """
    from drinfeldlab.drinfeld import DrinfeldModule, reduction_height
    from drinfeldlab.polys import valuation

    if phi.rank == 1:
        if valuation(phi.g1, lam) == 0:
            return ReductionData(lam, "good", reduction_height(phi, lam))
        return ReductionData(lam, "unstable", None)
    q = phi.ctx.q
    nu_lead = valuation(phi.g2, lam)
    if nu_lead == 0:
        return ReductionData(lam, "good", reduction_height(phi, lam))
    if phi.g1.is_zero():
        return ReductionData(lam, "unstable", None)
    nu_g1 = valuation(phi.g1, lam)
    if nu_g1 % (q - 1) != 0:
        return ReductionData(lam, "unstable", None)
    k = nu_g1 // (q - 1)
    if nu_lead - k * (q * q - 1) <= 0:
        return ReductionData(lam, "unstable", None)
    g1_twisted = phi.g1 if k == 0 else phi.g1 // lam.gen ** (k * (q - 1))
    rank1 = DrinfeldModule(phi.ctx, [g1_twisted])
    return ReductionData(lam, "stable_rank_1", reduction_height(rank1, lam))


def power_lead(ctx, g2):
    """g2^(q-1) as a coefficient list, by square-and-multiply on dense
    products: the route drinfeld.carlitz_det_module's one exact division
    g2(T^q) / g2 replaced."""
    import functools

    from drinfeldlab import kernel

    return kernel.power(g2.coeffs, ctx.q - 1,
                        functools.partial(kernel.vmul, ctx), [1])


def carlitz_twist_witness(h):
    """g in A with g^(q-1) = h, or None when no such g exists."""
    from drinfeldlab.errors import ZeroPolynomial
    from drinfeldlab.polys import Poly, factor

    if h.is_zero():
        raise ZeroPolynomial("witness search needs a nonzero input")
    ctx = h.ctx
    q = ctx.q
    if not h.is_monic():
        return None
    deg_h = len(h.coeffs) - 1
    if deg_h % (q - 1) != 0:
        return None
    if deg_h == 0:
        return Poly.one(ctx)
    g = Poly.one(ctx)
    for prime, mult in factor(h):
        if mult % (q - 1) != 0:
            return None
        g = g * prime.gen ** (mult // (q - 1))
    if g ** (q - 1) != h:
        return None
    return g


def act(red, a, x):
    """Evaluate the linearized polynomial phi_a of the reduced module red
    (a drinfeld.ReducedModule) at a residue x."""
    acc = red.ring.zero
    for i, c in enumerate(red.of(a).coeffs):
        if not c.is_zero():
            acc = acc + c * x.frobenius(i)
    return acc


def det_level_check(phi, lam, a_mod):
    """Whether b = det-side Frobenius value is congruent to lam mod a_mod.

    For modules whose leading coefficient is minus a (q-1)-th power this is
    the finite-level determinant comparison with the Carlitz module, where it
    must always hold.
    """
    from drinfeldlab.errors import NotCoprime
    from drinfeldlab.frobenius import _require_rank2, frob_general
    from drinfeldlab.polys import gcd

    _require_rank2(phi)
    if not a_mod.is_monic() or len(a_mod.coeffs) - 1 < 1:
        raise NotCoprime("level must be a monic polynomial of degree >= 1")
    if not gcd(lam.gen, a_mod).is_one():
        raise NotCoprime(f"{lam!r} divides the level {a_mod!r}")
    cp = frob_general(phi, lam)
    return ((cp.b - lam.gen) % a_mod).is_zero()


def valid_congruence_classes(ctx, c1, c2):
    """All (b1, b2) pairs admitted by the proof, lexicographic order."""
    import itertools

    from drinfeldlab.census import class_vectors
    from drinfeldlab.polys import Poly

    return [(Poly(ctx, b1), Poly(ctx, b2)) for b1, b2 in
            itertools.product(*class_vectors(ctx, c1.val, c2.val))]


def density_closed_form(params):
    """q^-5 * q^(d2 X (1/(q-1) - 1)) / (1 - q^(-d2 X)) as an exact rational
    (a Fraction)."""
    from fractions import Fraction

    from drinfeldlab.errors import ParamsOutOfRange

    q = params.ctx.q
    d2x = params.d2 * params.X
    expo = Fraction(d2x, q - 1) - d2x
    if expo.denominator != 1:
        raise ParamsOutOfRange("closed form needs d2 X divisible by q-1")
    num = Fraction(q) ** int(expo)
    return Fraction(1, q ** 5) * num / (1 - Fraction(1, q ** d2x))


def ht_deg(f):
    """(ht_tau, deg_tau): lowest and highest nonzero tau indices."""
    from drinfeldlab.errors import ZeroPolynomial

    if f.is_zero():
        raise ZeroPolynomial("ht/deg undefined for the zero skew polynomial")
    ht = 0
    while f.coeffs[ht].is_zero():
        ht += 1
    return ht, len(f.coeffs) - 1


def as_linearized(f):
    """The additive polynomial sum c_i x^(q^i) as (exponent, coefficient)
    pairs with strictly increasing exponents."""
    q = f.ring.q
    return tuple((q ** i, c) for i, c in enumerate(f.coeffs)
                 if not c.is_zero())


def irreducible_count(q, n):
    """Necklace formula (1/n) * sum_{d|n} mu(d) q^(n/d)."""
    import math

    from drinfeldlab import kernel

    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            primes = kernel.prime_divisors(d)
            if math.prod(primes) == d:  # squarefree: mu(d) = (-1)^#primes
                total += (-1) ** len(primes) * q ** (n // d)
    return total // n
