"""Stdlib arithmetic in F_p[T], independent of the package under test.

Polynomials are lists of ints mod p, constant coefficient first, with no
trailing zeros.  The job generator and the output oracles use only this
module, so a defect in `drinfeldlab` can neither reshape the load nor pass
its own checks.
"""

from __future__ import annotations


def trim(v):
    while v and v[-1] == 0:
        v.pop()
    return v


def mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return trim(out)


def sub(a, b, p):
    n = max(len(a), len(b))
    return trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0))
                 % p for i in range(n)])


def rem(a, b, p):
    """a mod b for nonzero b."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    while len(a) - 1 >= db and a:
        c = a[-1] * inv % p
        off = len(a) - 1 - db
        if c:
            for k in range(db + 1):
                a[off + k] = (a[off + k] - c * b[k]) % p
        a.pop()
        trim(a)
    return a


def powmod(a, e, f, p):
    result, base = [1], rem(a, f, p)
    while e:
        if e & 1:
            result = rem(mul(result, base, p), f, p)
        e >>= 1
        if e:
            base = rem(mul(base, base, p), f, p)
    return rem(result, f, p)


def gcd(a, b, p):
    a, b = trim(list(a)), trim(list(b))
    while b:
        a, b = b, rem(a, b, p)
    return a


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(f, p):
    """Rabin's test for a monic f of degree >= 1 over F_p."""
    n = len(f) - 1
    if n == 1:
        return True
    x = [0, 1]

    def frob_iter(k):
        h = x
        for _ in range(k):
            h = powmod(h, p, f, p)
        return h

    if frob_iter(n) != x:
        return False
    return all(len(gcd(f, sub(frob_iter(n // r), x, p), p)) == 1
               for r in _prime_factors(n))


def evaluate(f, c, p):
    acc = 0
    for coef in reversed(f):
        acc = (acc * c + coef) % p
    return acc


def is_square_fp(v, p):
    """Legendre test in F_p; zero counts as a square."""
    return v % p == 0 or pow(v, (p - 1) // 2, p) == 1


def is_square_mod(a, f, p):
    """Euler criterion in F_p[T]/(f) for an irreducible f."""
    a = rem(a, f, p)
    if not a:
        return True
    return powmod(a, (p ** (len(f) - 1) - 1) // 2, f, p) == [1]


def moebius(n):
    mu = 1
    for r in _prime_factors(n):
        if (n // r) % r == 0:
            return 0
        mu = -mu
    return mu


def necklace(q, n):
    """Number of monic irreducibles of degree n over F_q."""
    return sum(moebius(d) * q ** (n // d)
               for d in range(1, n + 1) if n % d == 0) // n


def to_text(f):
    """Canonical CLI text: descending degree, plus-only, e.g. `T^2+4*T+3`."""
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append("T" if c == 1 else f"{c}*T")
        else:
            parts.append(f"T^{i}" if c == 1 else f"{c}*T^{i}")
    return "+".join(parts)


def from_text(text, p):
    """Parse canonical CLI text back into a coefficient list."""
    if text == "0":
        return []
    acc = {}
    for term in text.split("+"):
        coef, _, mono = term.rpartition("*")
        if "T" not in term:
            coef, mono = term, ""
        c = int(coef) if coef else 1
        if mono == "":
            k = 0
        elif mono == "T":
            k = 1
        else:
            k = int(mono[2:])
        acc[k] = (acc.get(k, 0) + c) % p
    return trim([acc.get(i, 0) for i in range(max(acc) + 1)])
