import random
from fractions import Fraction

import pytest

from drinfeldlab.census import (
    CensusParams,
    count_S,
    count_W,
    default_congruence_class,
    density_table,
)
from drinfeldlab.errors import BruteCapExceeded, ParamsOutOfRange
from drinfeldlab.fields import make_field
from drinfeldlab.polys import parse_poly
from oracles import (
    density_closed_form,
    poly_count_S,
    poly_count_W,
    valid_congruence_classes,
)

F5 = make_field(5)


def _params(d1, d2, X, with_class=True):
    if not with_class:
        return CensusParams(F5, d1, d2, X)
    c1, c2 = F5.element(0), F5.element(1)
    b1, b2 = default_congruence_class(F5, c1, c2)
    return CensusParams(F5, d1, d2, X, c1, c2, b1, b2)


def test_count_w_formula_example():
    p = _params(1, 1, 1, with_class=False)
    assert count_W(p, "formula") == 20  # 5 * (5 - 1)


def test_count_w_brute_matches():
    for d1, d2, X in ((1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (2, 2, 1)):
        p = _params(d1, d2, X, with_class=False)
        assert count_W(p, "formula") == count_W(p, "brute")


def test_count_w_rejects_x_zero():
    with pytest.raises(ParamsOutOfRange):
        CensusParams(F5, 1, 1, 0)


def test_count_w_brute_cap():
    p = _params(3, 3, 2, with_class=False)
    with pytest.raises(BruteCapExceeded):
        count_W(p, "brute", cap=1000)


def test_count_s_formula_instance():
    p = _params(3, 12, 1)
    assert count_S(p, "formula") == 5  # 5^(3 + 3 - 5)


def test_count_s_brute_matches():
    p = _params(3, 12, 1)
    assert count_S(p, "brute") == 5


def test_count_s_brute_all_classes():
    p = _params(3, 12, 1)
    classes = valid_congruence_classes(F5, F5.element(0), F5.element(1))
    assert len(classes) == 64  # (q-1) * (q-1)^2
    assert count_S(p, "formula", all_classes=True) == 5 * 64
    assert count_S(p, "brute", all_classes=True) == 5 * 64


def test_default_class_is_the_first_listed():
    # the first class is formed without listing the (q-1)^3 classes
    for q in (5, 7, 11):
        ctx = make_field(q)
        for c1, c2 in ((0, 1), (1, 0), (q - 1, 2)):
            c1, c2 = ctx.element(c1), ctx.element(c2)
            first = valid_congruence_classes(ctx, c1, c2)[0]
            assert default_congruence_class(ctx, c1, c2) == first
    with pytest.raises(ParamsOutOfRange):
        default_congruence_class(F5, F5.element(2), F5.element(2))


def test_count_s_params_out_of_range():
    with pytest.raises(ParamsOutOfRange):
        count_S(_params(1, 12, 1), "formula")  # d1 X = 1 < 3
    with pytest.raises(ParamsOutOfRange):
        count_S(_params(3, 5, 3), "formula")  # d2 X/(q-1) not an integer
    with pytest.raises(ParamsOutOfRange):
        count_S(_params(3, 12, 1, with_class=False), "formula")


def test_class_validation():
    c1, c2 = F5.element(0), F5.element(1)
    with pytest.raises(ParamsOutOfRange):
        CensusParams(F5, 3, 12, 1, c1, c1,
                     *default_congruence_class(F5, c1, c2))
    with pytest.raises(ParamsOutOfRange):
        CensusParams(F5, 3, 12, 1, c1, c2, parse_poly(F5, "1"),
                     parse_poly(F5, "T+4"))


def test_density_table_decreasing():
    p = _params(3, 12, 1)
    table = density_table(p, [1, 2, 3])
    ratios = [r for _, r in table]
    assert ratios[0] > ratios[1] > ratios[2]
    assert all(r > 0 for r in ratios)
    assert ratios[0] == Fraction(5, 5 ** 3 * (5 ** 12 - 1))


def test_density_closed_form_agreement():
    p = _params(3, 12, 1)
    for x in (1, 2, 3):
        px = p.with_X(x)
        want = Fraction(count_S(px, "formula"), count_W(px, "formula"))
        assert density_closed_form(px) == want


def test_count_s_brute_fractional_bound():
    # d2 X/(q-1) = 5/4: the g2 box is deg < 1.25, i.e. two coefficient slots;
    # only the degree-1 class representative itself can land in the box
    p = _params(3, 5, 1)
    assert count_S(p, "brute") == 5
    with pytest.raises(ParamsOutOfRange):
        count_S(p, "formula")


def test_count_s_slot_bound_override():
    p = _params(3, 12, 1)
    assert count_S(p, "brute", g2_deg_bound=3) == 5
    assert count_S(p, "brute", g2_deg_bound=4) == 25
    with pytest.raises(ParamsOutOfRange):
        count_S(p, "brute", g2_deg_bound=-1)


def test_density_bounded_by_q_minus_5():
    p = _params(3, 12, 1)
    for x, ratio in density_table(p, [1, 2, 3, 4]):
        assert ratio < Fraction(1, 5 ** 5)


@pytest.mark.parametrize("field", [(5, 1), (7, 1), (5, 2)], ids=str)
def test_brute_counts_match_the_poly_census(field):
    # tuples reduced by kernel.vmod against the Poly-level census, on
    # seeded weights, points and classes: one class and (at q = 5) all of
    # them, the rational and the slot reading of the g2 box, W against
    # two caps, and the same refusals
    ctx = make_field(*field)
    q = ctx.q
    rng = random.Random(28 * q)
    for _ in range(8):
        c1, c2 = map(ctx.from_encoded, rng.sample(range(q), 2))
        classes = valid_congruence_classes(ctx, c1, c2)
        b1, b2 = classes[rng.randrange(len(classes))]
        d1, d2 = rng.randint(1, 2), rng.randint(1, q + 1)
        params = CensusParams(ctx, d1, d2, rng.randint(1, 2), c1, c2, b1, b2)
        for kwargs in ({}, {"g2_deg_bound": rng.randint(0, 4)}):
            for all_classes in (False, True) if q == 5 else (False,):
                try:
                    want = poly_count_S(params, all_classes, **kwargs)
                except BruteCapExceeded:
                    with pytest.raises(BruteCapExceeded):
                        count_S(params, "brute", all_classes, **kwargs)
                    continue
                assert count_S(params, "brute", all_classes,
                               **kwargs) == want
        params = CensusParams(ctx, d1, rng.randint(1, 2), 1, c1, c2, b1, b2)
        for cap in (q ** 2, q ** 4):
            try:
                want = poly_count_W(params, cap)
            except BruteCapExceeded:
                with pytest.raises(BruteCapExceeded):
                    count_W(params, "brute", cap=cap)
                continue
            assert count_W(params, "brute", cap=cap) == want
