"""Dense polynomial arithmetic over F_q on lists of encoded field values.

A vector is a sequence of encoded coefficients, ascending degree; results
come back as lists with no trailing zeros.  Over a prime field the loops
reduce inline mod p (accumulating first where that is safe, since Python
ints do not overflow); over F_{p^m} they call the FieldCtx ops.  The choice
follows ctx.m alone.  Sums, products, division, gcd, inverses and powers
modulo a polynomial, resultants (`vresultant`, by Euclid: at a prime f
the norm of A/(f) down to F_q, behind every norm and square test),
evaluation (`veval`, and `point_values` at every point of F_p by one
packed sum), valuations (`vvaluation`) and the Rabin test all run here,
with the generic square-and-multiply `power` and the base-q index
`vindex` and its digits `vdigits`, so each arithmetic decision lives in
one place.  That covers every quotient of a
polynomial ring by a monic modulus: F_{p^m} itself (digits over `Zp(p)`
modulo the field's modulus) and the residue rings A/(f) of `residues`.
`vechelon` is the Gaussian elimination: F_q-linear solving in `skew` and
the F_p-rank of the level-2 group lab both run on it.  `vcharpoly`, the
kernel's second elimination, takes det(X I - M) by Hessenberg reduction
for the Euler-Poincare oracle.

The q-power Frobenius x -> x^q of A/(f) is F_q-linear, as c^q = c on F_q.
`FrobeniusMap` builds its matrix once (the rows T^(q*i) mod f of
Berlekamp's algorithm: one powmod for T^q, then one mulmod a row) as one
packed F_p-linear map on the F_p-digits of x, for every q, and
`vfrobenius` applies it by one packed sum (rows and digits are packed by
`struct.pack`, unpacked by `memoryview.cast`).  So every twist in A/(f), of
skew products and of `ResidueElement.frobenius`, costs one matrix-vector
product and no powmod.  The Rabin test runs on the same map, T^(q^i)
mod f being i twists of T, and takes nothing but the map, so a prime
keeps the map its test built for every later twist; the map is built
only where something is twisted.
The Horner step of `vhorner` (phi_a over A/(f)) is F_p-linear too, and
`HornerMap` packs it on the same digits, once per Drinfeld module: its
tau^0 block c_0 T^i steps from row to row by T (`_times_t`, a shift and
at most one scaled modulus), and only the blocks c_k (T^i)^(q^k), k > 0,
take a twist and a mulmod per basis element.  `vhorner` keeps its
accumulator as one flat list of those digits.
`fp_digits`, `from_fp_digits` and `_unpack_mod` read and write that
digit layout.

The prime-field loops read only ctx.p, ctx.q and ctx.m, so the kernel also
runs over the bare `Zp` context.
"""

from __future__ import annotations

import operator
import struct
import sys

from .errors import DivisionByZero


class Zp:
    """Z/p as the kernel sees it, for any prime p: the coefficient ring of
    every F_{p^m}, whose FieldCtx multiplies digit vectors over it.  FieldCtx
    refuses q < 5, but F_9 must still validate its modulus over Z/3."""

    __slots__ = ("p", "q", "m")

    def __init__(self, p: int):
        self.p = self.q = p
        self.m = 1


def _trim(v):
    while v and v[-1] == 0:
        v.pop()
    return v


def vadd(ctx, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    if ctx.m == 1:
        p = ctx.p
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
    else:
        add = ctx.add
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
    return _trim(out)


def vscale(ctx, a, c):
    """c * a for a scalar c."""
    if ctx.m == 1:
        p = ctx.p
        return _trim([x * c % p for x in a])
    mul = ctx.mul
    return _trim([mul(x, c) for x in a])


def vsub(ctx, a, b):
    # p - 1 encodes the constant -1 in every F_{p^m}
    return vadd(ctx, a, vscale(ctx, b, ctx.p - 1))


def _inv(ctx, c):
    return pow(c, ctx.p - 2, ctx.p) if ctx.m == 1 else ctx.inv(c)


def vmonic(ctx, a):
    """The monic associate of a (a itself when zero or already monic)."""
    if not a or a[-1] == 1:
        return a
    return vscale(ctx, a, _inv(ctx, a[-1]))


def _product(a, b):
    """Coefficients of a * b over Z, for a prime field to reduce once."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return out


def vmul(ctx, a, b):
    if not a or not b:
        return []
    if ctx.m == 1:
        p = ctx.p
        return _trim([c % p for c in _product(a, b)])
    out = [0] * (len(a) + len(b) - 1)
    add, mul = ctx.add, ctx.mul
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = add(out[i + j], mul(ai, bj))
    return _trim(out)


def vdivmod(ctx, a, b):
    """(quotient, remainder) of a by a nonzero b."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    db = len(b) - 1
    n = len(a) - db
    if n <= 0:
        return [], _trim(list(a))
    r = list(a)
    quo = [0] * n
    inv = _inv(ctx, b[-1])
    if ctx.m == 1:
        p = ctx.p
        for off in range(n - 1, -1, -1):
            c = r[off + db] * inv % p
            if c:
                quo[off] = c
                for k in range(db):
                    r[off + k] -= c * b[k]
        return quo, _trim([c % p for c in r[:db]])
    add, mul = ctx.add, ctx.mul
    for off in range(n - 1, -1, -1):
        c = mul(r[off + db], inv)
        if c:
            quo[off] = c
            neg_c = ctx.neg(c)
            for k in range(db):
                r[off + k] = add(r[off + k], mul(neg_c, b[k]))
    return quo, _trim(r[:db])


def vmod(ctx, a, b):
    return vdivmod(ctx, a, b)[1]


def vresultant(ctx, f, g) -> int:
    """Res(f, g), encoded, for a monic f of degree >= 1 and any g, which is
    first reduced mod f: for an irreducible f, the norm of g mod f down
    to F_q.  Euclid on remainders, by Res(a, b) = (-1)^(deg a deg b)
    lc(b)^(deg a - deg r) Res(b, r) for r = a mod b and Res(a, c) =
    c^(deg a) for a constant c (Cohen, A Course in Computational
    Algebraic Number Theory, 3.3).  No Frobenius map: a g of degree 1
    costs one division step."""
    p = ctx.p
    mul = ctx.mul if ctx.m > 1 else (lambda x, y: x * y % p)
    a, b, res = f, vmod(ctx, g, f), 1
    while len(b) > 1:
        r = vmod(ctx, a, b)
        if not r:
            return 0
        da, db = len(a) - 1, len(b) - 1
        res = mul(res, power(b[-1], da - len(r) + 1, mul, 1))
        if da * db % 2:
            res = mul(res, p - 1)  # -1 in every F_{p^m}
        a, b = b, r
    return mul(res, power(b[0], len(a) - 1, mul, 1)) if b else 0


def _reduce(p, res, mod):
    """res, integer coefficients, modulo a monic `mod` and then mod p: the
    remainder is formed over Z and reduced mod p only at the end."""
    dm = len(mod) - 1
    while len(res) > dm:
        lead = res.pop() % p
        if lead:
            off = len(res) - dm
            for k in range(dm):
                res[off + k] -= lead * mod[k]
    return _trim([c % p for c in res])


def vmulmod(ctx, a, b, mod):
    """a * b mod a monic `mod`.  Over a prime field the product is reduced
    in place and mod p only at the end: the powmod loop runs on this."""
    if ctx.m != 1:
        return vmod(ctx, vmul(ctx, a, b), mod)
    if not a or not b:
        return []
    return _reduce(ctx.p, _product(a, b), mod)


def vpowmod(ctx, a, e, mod):
    """a^e mod `mod`, left-to-right square-and-multiply: every multiply is
    by a mod `mod`, which costs one row when a is T (frobenius_rows' T^q).

    Reduces by the monic associate of `mod`, which has the same remainders.
    """
    if e < 0:
        raise ValueError("negative exponent in powmod")
    base = vmod(ctx, a, mod)
    if e == 0:
        return [1]
    mod = vmonic(ctx, mod)
    result = base
    for bit in bin(e)[3:]:
        result = vmulmod(ctx, result, result, mod)
        if bit == "1":
            result = vmulmod(ctx, result, base, mod)
    return result


def frobenius_rows(ctx, mod):
    """T^(q*i) mod a monic `mod` for i < deg mod, q = ctx.q: row i is the
    image of T^i under x -> x^q.  One powmod to the exponent q, then one
    mulmod per further row."""
    rows = [[1]]
    if len(mod) > 2:
        tq = vpowmod(ctx, [0, 1], ctx.q, mod)
        rows.append(tq)
        for _ in range(len(mod) - 3):
            rows.append(vmulmod(ctx, rows[-1], tq, mod))
    return rows


# struct formats by their native width in bytes, for struct.pack and
# memoryview.cast; the packed ints are little-endian, so these are taken
# only on such hosts
_SLOT_FORMATS = ({struct.calcsize(f): f for f in "HIQ"}
                 if sys.byteorder == "little" else {})


def _slot(bound):
    """The narrowest word of 2, 4, 8, ... bytes that holds `bound`."""
    slot = 2
    while bound >> (8 * slot):
        slot *= 2
    return slot


def _pack(words, slot):
    """The int whose j-th `slot`-byte word is words[j]: one struct.pack,
    or a to_bytes per word where the host has no such format."""
    fmt = _SLOT_FORMATS.get(slot)
    if fmt:
        return int.from_bytes(struct.pack(f"{len(words)}{fmt}", *words),
                              "little")
    return int.from_bytes(b"".join(w.to_bytes(slot, "little")
                                   for w in words), "little")


def _unpack_mod(value, count, slot, p):
    """The first `count` `slot`-byte words of a packed int, each mod p: one
    to_bytes and a cast, or a slice per word where the host has no such
    format."""
    buf = value.to_bytes(count * slot, "little")
    fmt = _SLOT_FORMATS.get(slot)
    if fmt:
        return [w % p for w in memoryview(buf).cast(fmt)]
    return [int.from_bytes(buf[i:i + slot], "little") % p
            for i in range(0, count * slot, slot)]


def fp_digits(ctx, v):
    """The F_p-digits of v over F_q, q = p^m: m per coefficient, constant
    digit first, so digit i m + t is the coordinate of x^t T^i, x^t the
    field element encoded p^t.  v itself over a prime field."""
    if ctx.m == 1:
        return v
    decode = ctx.decode
    return [e for c in v for e in decode(c)]


def from_fp_digits(ctx, digits):
    """The vector whose F_p-digits are the list `digits` (fp_digits
    inverted), with no trailing zero if `digits` has none."""
    m = ctx.m
    if m == 1:
        return digits
    return [ctx.encode(digits[i:i + m]) for i in range(0, len(digits), m)]


class FrobeniusMap:
    """x -> x^q on F_q[T]/(mod) for a monic `mod`, built once per ring, as
    an F_p-linear map on the n = m deg mod F_p-digits of x (`fp_digits`,
    q = p^m).  Row i m + t packs the digits of x^t T^(q i) mod f, as x^t
    lies in F_q and the twist fixes it, into one int whose j-th
    `slot`-byte word is the j-th digit (Kronecker substitution, von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 8).  A twist sums at
    most n products below p in each word, so words of 256^slot >
    n (p - 1)^2 keep every sum exact, with no carry into the next word.
    """

    __slots__ = ("ctx", "mod", "packed", "slot")

    def __init__(self, ctx, mod):
        self.ctx, self.mod = ctx, mod
        p = ctx.p
        self.slot = _slot((len(mod) - 1) * ctx.m * (p - 1) ** 2)
        self.packed = [
            _pack(fp_digits(ctx, vscale(ctx, row, p ** t) if t else row),
                  self.slot)
            for row in frobenius_rows(ctx, mod) for t in range(ctx.m)]


def vfrobenius(frob, v):
    """x^q for the coefficient vector v of x in F_q[T]/(frob.mod): the one
    twist of every A/(f), for every q.  The packed sum of the rows by the
    digits of v, unpacked by one to_bytes and a cast, each word reduced
    mod p."""
    ctx = frob.ctx
    total = sum(map(operator.mul, fp_digits(ctx, v), frob.packed))
    return from_fp_digits(ctx, _trim(_unpack_mod(total, len(frob.packed),
                                                 frob.slot, ctx.p)))


def _times_t(ctx, v, mod):
    """T v mod a monic `mod` of degree deg v + 1 or more: a shift, then at
    most one subtraction of the modulus scaled by the top coefficient."""
    if not v:
        return []
    v = [0] + v
    if len(v) < len(mod):
        return v
    return vsub(ctx, v, vscale(ctx, mod, v[-1]))


class HornerMap:
    """acc -> phi_T acc on tau-coefficient vectors over F_q[T]/(frob.mod),
    phi_T = c_0 + ... + c_r tau^r, as one F_p-linear map.  Row j packs the
    digits of c_k e_j^(q^k), k = 0..r, as r + 1 blocks of n `slot`-byte
    words, e_j = x^t T^i the F_p-basis (n = m deg mod, q = p^m).  A step's
    word sums at most (r + 1) n products below p^2 and one digit.  The
    tau^0 block c_0 T^i is the one before it times T (`_times_t`), with no
    product; block k > 0 is one mulmod of c_k by (T^i)^(q^k), k twists."""

    __slots__ = ("ctx", "n", "r", "rows", "slot")

    def __init__(self, frob, phi_t):
        ctx, mod = frob.ctx, frob.mod
        d, m, p = len(mod) - 1, ctx.m, ctx.p
        self.ctx, self.n, self.r = ctx, d * m, len(phi_t) - 1
        rows = [[] for _ in range(self.n)]
        first = vmod(ctx, phi_t[0], mod)  # c_0 T^i mod f
        for i in range(d):
            if i:
                first = _times_t(ctx, first, mod)
            power = [0] * i + [1]  # (T^i)^(q^k)
            for k, c in enumerate(phi_t):
                if k:
                    power = vfrobenius(frob, power)
                    image = vmulmod(ctx, c, power, mod)
                else:
                    image = first
                for t in range(m):
                    digits = fp_digits(ctx, vscale(ctx, image, p ** t)
                                       if t else image)
                    rows[i * m + t] += digits + [0] * (self.n - len(digits))
        self.slot = _slot((self.r + 1) * self.n * (p - 1) ** 2 + p)
        self.rows = [_pack(row, self.slot) for row in rows]


def vhorner(step, a, cap=None):
    """The tau-coefficient vectors of phi_a = sum a_i phi_T^i, trailing
    zeros dropped, a given by its coefficients over F_q: left Horner
    acc <- phi_T acc + a_i on the HornerMap `step`.  acc is one flat list
    of F_p-digits, n per tau-coefficient, as many as the packed sum's
    length holds, and is split and trimmed only at the end.  With a cap,
    only the coefficients of tau^0 .. tau^cap, exactly: the step's
    coefficient of tau^l reads only those of acc at tau^l and below."""
    ctx, n, rows, slot = step.ctx, step.n, step.rows, step.slot
    p, shift = ctx.p, 8 * slot * n
    mask = None if cap is None else (1 << (cap + 1) * shift) - 1
    acc = []
    for c in reversed(a):
        total = 0
        for i in range(len(acc) - n, -1, -n):
            total = (total << shift) + sum(map(operator.mul, acc[i:i + n],
                                               rows))
        if c:
            # over a prime field the packed constant is the int c itself
            total += c if ctx.m == 1 else _pack(fp_digits(ctx, [c]), slot)
        if mask is not None:
            total &= mask
        acc = _unpack_mod(total, -(-total.bit_length() // shift) * n, slot, p)
    blocks = [_trim(acc[i:i + n]) for i in range(0, len(acc), n)]
    while blocks and not blocks[-1]:
        blocks.pop()
    return [from_fp_digits(ctx, x) for x in blocks]


def vechelon(ctx, vectors, dim=None):
    """{i: monic row of degree i} spanning the same F_q-space as `vectors`,
    each vector reduced by the rows so far in input order; stops drawing
    vectors once `dim` rows exist (the whole space, for length-dim ones)."""
    rows = {}
    for v in vectors:
        v = _trim(list(v))
        while v and len(v) - 1 in rows:
            v = vsub(ctx, v, vscale(ctx, rows[len(v) - 1], v[-1]))
        if v:
            rows[len(v) - 1] = vmonic(ctx, v)
            if len(rows) == dim:
                break
    return rows


def vcharpoly(ctx, rows):
    """det(X I - M), monic, for the n x n matrix M over F_q given by its
    rows, n >= 1 (M and its transpose have the same one).  Reduces a copy
    of M to Hessenberg form by similarity, column by column: swap a row
    with a nonzero entry onto the subdiagonal (with the matching column
    swap), clear the entries below it by row operations, and undo each on
    the columns.  Then reads det(X I - H) off the recurrence on H's leading
    principal minors: O(n^3) operations over F_q (Cohen, A Course in
    Computational Algebraic Number Theory, 2.2.9)."""
    n, p = len(rows), ctx.p
    add = ctx.add if ctx.m > 1 else (lambda x, y: (x + y) % p)
    mul = ctx.mul if ctx.m > 1 else (lambda x, y: x * y % p)
    h = [list(row) for row in rows]
    for k in range(1, n - 1):
        piv = next((i for i in range(k, n) if h[i][k - 1]), None)
        if piv is None:
            continue
        if piv != k:
            h[piv], h[k] = h[k], h[piv]
            for row in h:
                row[piv], row[k] = row[k], row[piv]
        inv = _inv(ctx, h[k][k - 1])
        for i in range(k + 1, n):
            u = mul(h[i][k - 1], inv)
            if u:
                neg_u = mul(u, p - 1)  # p - 1 encodes -1 in every F_{p^m}
                h[i] = [add(x, mul(neg_u, y)) for x, y in zip(h[i], h[k])]
                for row in h:
                    row[k] = add(row[k], mul(u, row[i]))
    minors = [[1]]  # minors[j] = det(X I - H) on H's first j rows and columns
    for j in range(n):
        char = vmul(ctx, vsub(ctx, [0, 1], [h[j][j]]), minors[j])
        t = 1
        for i in range(1, j + 1):
            t = mul(t, h[j - i + 1][j - i])
            if not t:
                break
            char = vsub(ctx, char, vscale(ctx, minors[j - i],
                                          mul(t, h[j - i][j])))
        minors.append(char)
    return minors[n]


def vgcd(ctx, a, b):
    """Monic gcd; zero when both inputs are zero."""
    while b:
        a, b = b, vmod(ctx, a, b)
    return vmonic(ctx, a)


def vxgcd(ctx, a, b):
    """Monic g = gcd(a, b) and u with u * a = g mod b, by extended Euclid
    (b's cofactor is never needed, so it is not built).  g is zero when
    both inputs are zero."""
    r0, r1 = list(a), list(b)
    u0, u1 = [1], []
    while r1:
        quo, rem = vdivmod(ctx, r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, vsub(ctx, u0, vmul(ctx, quo, u1))
    if not r0:
        return r0, u0
    inv = _inv(ctx, r0[-1])
    return vscale(ctx, r0, inv), vscale(ctx, u0, inv)


def power(x, e: int, mul, one):
    """x^e for an integer e >= 0 by right-to-left square-and-multiply in
    any monoid given by `mul` and `one`; the last square is skipped."""
    if e < 0:
        raise ValueError("negative exponent")
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


def vindex(v, q: int) -> int:
    """The base-q number whose digits, least significant first, are v."""
    idx = 0
    for c in reversed(v):
        idx = idx * q + c
    return idx


def vdigits(idx: int, q: int) -> list:
    """The base-q digits of idx, least significant first: vindex inverted."""
    out = []
    while idx:
        idx, c = divmod(idx, q)
        out.append(c)
    return out


def vectors_below(q: int, degree: int):
    """Every vector of degree < `degree`, zero first, in index order; a
    negative bound counts as 0 and yields only zero."""
    return (vdigits(idx, q) for idx in range(q ** max(degree, 0)))


def veval(ctx, v, c: int) -> int:
    """v(c) for an encoded c, by Horner; the remainder of v mod T - c."""
    acc = 0
    if ctx.m == 1:
        p = ctx.p
        for coef in reversed(v):
            acc = (acc * c + coef) % p
        return acc
    add, mul = ctx.add, ctx.mul
    for coef in reversed(v):
        acc = add(mul(acc, c), coef)
    return acc


def point_values(p: int, deg: int):
    """v -> [v(0), .., v(p - 1)] over Z/p for v of degree <= deg: the table
    x^i mod p packed once (row i's x-th `slot`-byte word is x^i), then one
    packed sum of the rows by v's coefficients and one `_unpack_mod`."""
    slot = _slot((deg + 1) * (p - 1) ** 2)
    rows, power = [], [1] * p
    for _ in range(deg + 1):
        rows.append(_pack(power, slot))
        power = [x * y % p for x, y in enumerate(power)]
    return lambda v: _unpack_mod(sum(map(operator.mul, v, rows)), p, slot, p)


def vvaluation(ctx, a, b) -> int:
    """The largest k with b^k | a, for a nonzero a and b of degree >= 1:
    one vdivmod per factor of b taken out."""
    k = 0
    while True:
        quo, rem = vdivmod(ctx, a, b)
        if rem:
            return k
        k, a = k + 1, quo


def prime_divisors(n: int):
    """The distinct primes dividing n, ascending, by trial division by 2
    and then by odd d only; [] for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def rabin(frob) -> bool:
    """Rabin's irreducibility test for the monic modulus f = frob.mod of
    degree n >= 1 of a FrobeniusMap over F_q, q = frob.ctx.q:
    gcd(f, T^(q^(n/l)) - T) = 1 for every prime l dividing n, and
    T^(q^n) = T mod f.  Each T^(q^i) is one vfrobenius of T^(q^(i-1)), so
    the test takes n twists and no powmod (von zur Gathen and Gerhard,
    Modern Computer Algebra, ch. 14)."""
    ctx, f = frob.ctx, frob.mod
    n = len(f) - 1
    if n == 1:
        return True
    x = [0, 1]
    checked = {n // ell for ell in prime_divisors(n)}
    h = x
    for i in range(1, n + 1):
        h = vfrobenius(frob, h)
        if i in checked and len(vgcd(ctx, f, vsub(ctx, h, x))) > 1:
            return False
    return h == x
