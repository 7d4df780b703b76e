import random

import pytest

import drinfeldlab
from drinfeldlab.errors import (
    ContextMismatch,
    DivisionByZero,
    FieldTooSmall,
    NotIrreducibleModulus,
    NotPrime,
)
from drinfeldlab.fields import (
    enumerate_elements,
    is_square,
    make_field,
)


def test_make_field_prime():
    f5 = make_field(5, 1)
    assert f5.q == 5 and f5.p == 5 and f5.m == 1
    assert f5.modulus is None


def test_make_field_f25_explicit_modulus():
    # brute oracle: x^2 + 2 has no root in F_5
    assert all((c * c + 2) % 5 != 0 for c in range(5))
    f25 = make_field(5, 2, modulus=(2, 0, 1))
    assert f25.q == 25
    assert f25.modulus == (2, 0, 1)


def test_make_field_rejects_small_and_even():
    with pytest.raises(FieldTooSmall):
        make_field(2, 1)
    with pytest.raises(FieldTooSmall):
        make_field(3, 1)  # q = 3 < 5
    with pytest.raises(FieldTooSmall):
        make_field(2, 4)  # p = 2 excluded outright


def test_make_field_rejects_nonprime():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(NotPrime):
        make_field(15, 1)


def test_make_field_rejects_reducible_modulus():
    with pytest.raises(NotIrreducibleModulus):
        make_field(5, 2, modulus=(4, 0, 1))  # x^2 + 4 = (x-1)(x+1)
    with pytest.raises(NotIrreducibleModulus):
        make_field(5, 2, modulus=(2, 0, 2))  # not monic


def test_default_modulus_is_deterministic():
    a = make_field(5, 2)
    b = make_field(5, 2)
    assert a.modulus == b.modulus == (2, 0, 1)  # x^2+2 is lex-first
    assert a == b


def test_arith_examples():
    f5 = make_field(5)
    two, three = f5.element(2), f5.element(3)
    assert two * three == f5.element(1)
    assert f5.element(1) / two == three
    assert two + three == f5.element(0)
    assert two - three == f5.element(4)
    f25 = make_field(5, 2, modulus=(2, 0, 1))
    x = f25.element([0, 1])
    assert x * x == f25.element(3)  # x^2 = -2 = 3


def test_arith_errors():
    f5 = make_field(5)
    f7 = make_field(7)
    with pytest.raises(DivisionByZero):
        f5.element(1) / f5.element(0)
    with pytest.raises(ContextMismatch):
        f5.element(1) + f7.element(1)


def test_is_square_f5():
    f5 = make_field(5)
    assert is_square(f5.element(1))
    assert not is_square(f5.element(2))
    assert is_square(f5.element(0))


def test_enumerate_elements_order():
    f5 = make_field(5)
    assert [e.val for e in enumerate_elements(f5)] == [0, 1, 2, 3, 4]
    f25 = make_field(5, 2)
    elems = enumerate_elements(f25)
    assert len(elems) == 25
    assert [e.coeffs for e in elems[:5]] == [
        (0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]


def _contexts():
    return [make_field(5), make_field(7), make_field(5, 2), make_field(11, 2)]


def test_field_axioms_random():
    rng = random.Random(101)
    for ctx in _contexts():
        elems = enumerate_elements(ctx)
        for _ in range(250):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == ctx.element(0)
            if not a.is_zero():
                assert a * a.inverse() == ctx.element(1)


def test_frobenius_additivity():
    rng = random.Random(202)
    for ctx in _contexts():
        elems = enumerate_elements(ctx)
        for _ in range(250):
            a, b = rng.choice(elems), rng.choice(elems)
            assert (a + b) ** ctx.p == a ** ctx.p + b ** ctx.p


@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (11, 1), (13, 1), (3, 2),
                                 (5, 2), (3, 3), (7, 2), (3, 4), (11, 2)])
def test_is_square_vs_brute(p, m):
    ctx = make_field(p, m)
    elems = enumerate_elements(ctx)
    squares = {(e * e).val for e in elems}
    for e in elems:
        assert is_square(e) == (e.val in squares)
    nonsquares = [e for e in elems if not is_square(e)]
    assert len(nonsquares) == (ctx.q - 1) // 2


def test_element_equality_across_equal_contexts():
    a = make_field(5, 2)
    b = make_field(5, 2)
    assert a.element([1, 2]) == b.element([1, 2])
    assert hash(a.element([1, 2])) == hash(b.element([1, 2]))


def test_coeffs_canonical():
    f25 = make_field(5, 2)
    e = f25.element([7, 3])  # reduced mod 5
    assert e.coeffs == (2, 3)
    assert f25.element(0).coeffs == (0, 0)


def test_char3_extension_allowed():
    f9 = make_field(3, 2)  # q = 9 >= 5 with p odd
    assert f9.q == 9
    elems = enumerate_elements(f9)
    assert len(elems) == 9
    nonsquares = [e for e in elems if not is_square(e)]
    assert len(nonsquares) == 4


def test_public_names_resolve():
    for name in drinfeldlab.__all__:
        assert getattr(drinfeldlab, name) is not None, name


def _oracle_mul(ctx, a, b):
    """F_{p^m} product without the kernel: convolve the digit vectors, then
    fold each digit of degree k >= m back in through x^k mod the modulus."""
    p, m = ctx.p, ctx.m
    red = [[(-c) % p for c in ctx.modulus[:-1]]]  # x^m, x^(m+1), ...
    for _ in range(m - 2):
        prev = red[-1]
        red.append([((prev[i - 1] if i else 0) + prev[-1] * red[0][i]) % p
                    for i in range(m)])
    da, db = ctx.decode(a), ctx.decode(b)
    conv = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            conv[i + j] += x * y
    out = conv[:m]
    for k in range(m, 2 * m - 1):
        for i in range(m):
            out[i] += conv[k] * red[k - m][i]
    return ctx.encode(out)


def _oracle_pow(ctx, a, e):
    result = 1
    for _ in range(e):
        result = _oracle_mul(ctx, result, a)
    return result


def _check_against_oracle(ctx, a, b, inv_a):
    """mul, add, neg, inv and pow (negative exponents too) against the
    digit-wise oracle; inv_a is the oracle's inverse of a (None for 0)."""
    p = ctx.p
    da, db = ctx.decode(a), ctx.decode(b)
    assert ctx.mul(a, b) == _oracle_mul(ctx, a, b)
    assert ctx.add(a, b) == ctx.encode([x + y for x, y in zip(da, db)])
    assert ctx.neg(a) == ctx.encode([-x for x in da])
    assert ctx.sub(a, b) == ctx.encode([x - y for x, y in zip(da, db)])
    e = b % (ctx.q + 2)
    assert ctx.pow(a, e) == _oracle_pow(ctx, a, e)
    if inv_a is None:
        with pytest.raises(DivisionByZero):
            ctx.inv(a)
        return
    assert ctx.inv(a) == inv_a
    assert ctx.pow(a, -e) == _oracle_pow(ctx, inv_a, e)


@pytest.mark.parametrize("p,m,modulus", [(3, 2, None), (5, 2, None),
                                         (5, 2, (2, 0, 1)), (5, 2, (2, 1, 1)),
                                         (3, 3, None)])
def test_extension_ops_match_oracle_on_every_pair(p, m, modulus):
    ctx = make_field(p, m, modulus)
    inverses = {a: b for a in range(1, ctx.q) for b in range(1, ctx.q)
                if _oracle_mul(ctx, a, b) == 1}
    assert len(inverses) == ctx.q - 1
    for a in range(ctx.q):
        for b in range(ctx.q):
            _check_against_oracle(ctx, a, b, inverses.get(a))


@pytest.mark.parametrize("p", [11, 5])
def test_extension_ops_match_oracle_seeded(p):
    ctx = make_field(p, 2 if p == 11 else 3)  # F_121, F_125
    rng = random.Random(p)
    for _ in range(400):
        a, b = rng.randrange(ctx.q), rng.randrange(ctx.q)
        inv_a = _oracle_pow(ctx, a, ctx.q - 2) if a else None
        if a:
            assert _oracle_mul(ctx, a, inv_a) == 1
        _check_against_oracle(ctx, a, b, inv_a)
