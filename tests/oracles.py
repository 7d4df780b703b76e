"""Brute-force oracles shared by the test modules: slow, listing routes
that the product code decides by structure."""


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
