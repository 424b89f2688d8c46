"""Univariate Laurent polynomials, and the gcd fraction sums of the chi oracle."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kflag import PoleAtOneError, UniPoly
from kflag.errors import IntegrityError
from kflag.univariate import poly_divexact

from chi_oracle import UniRational, poly_gcd, sum_and_evaluate_at_one


def upoly(terms):
    return UniPoly(dict(terms))


def test_projective_line_euler_characteristic():
    # two fixed points of P^1: 1/(1-t^2) + 1/(1-t^-2) = 1
    terms = [
        (UniPoly.one(), UniPoly.one_minus_power(2)),
        (UniPoly.one(), UniPoly.one_minus_power(-2)),
    ]
    assert sum_and_evaluate_at_one(terms) == 1


def test_polynomial_over_unit():
    p = upoly({0: 2, 3: -5})
    assert sum_and_evaluate_at_one([(p, UniPoly.one())]) == p.eval_at_one()


def test_cancellation_to_zero():
    one_minus_t = UniPoly.one_minus_power(1)
    terms = [(UniPoly.one(), one_minus_t), (-UniPoly.one(), one_minus_t)]
    assert sum_and_evaluate_at_one(terms) == 0


def test_pole_at_one_detected():
    with pytest.raises(PoleAtOneError):
        sum_and_evaluate_at_one([(UniPoly.one(), UniPoly.one_minus_power(2))])


def test_non_laurent_sum_detected():
    # 1/(1+t) is regular at t=1 but not a Laurent polynomial
    with pytest.raises(IntegrityError):
        sum_and_evaluate_at_one([(UniPoly.one(), upoly({0: 1, 1: 1}))])


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        UniRational(UniPoly.one(), UniPoly.zero())


def test_fraction_reduction():
    # (1 - t^4) / (1 - t^2) reduces to 1 + t^2
    frac = UniRational(UniPoly.one_minus_power(4), UniPoly.one_minus_power(2))
    assert frac.is_laurent_polynomial()
    assert frac.num == upoly({0: 1, 2: 1})


def test_fraction_with_negative_exponents():
    # t^-3 / (t^-1) = t^-2
    frac = UniRational(upoly({-3: 1}), upoly({-1: 1}))
    assert frac.is_laurent_polynomial()
    assert frac.num == upoly({-2: 1})


def test_gcd_of_binomials():
    g = poly_gcd(UniPoly.one_minus_power(4), UniPoly.one_minus_power(6))
    # gcd is 1 - t^2 up to sign normalization (positive leading coefficient)
    assert g == upoly({0: -1, 2: 1}) or g == upoly({0: 1, 2: -1})


def test_divexact_and_failure():
    q = poly_divexact(UniPoly.one_minus_power(4), UniPoly.one_minus_power(2))
    assert q == upoly({0: 1, 2: 1})
    from kflag import NotDivisibleError

    with pytest.raises(NotDivisibleError):
        poly_divexact(UniPoly.one_minus_power(3), UniPoly.one_minus_power(2))


small_polys = st.dictionaries(
    st.integers(0, 6), st.integers(-6, 6), max_size=4
).map(upoly)
nonzero_small = small_polys.filter(lambda p: not p.is_zero())


@settings(max_examples=60, deadline=None)
@given(nonzero_small, nonzero_small)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    assert not g.is_zero()
    poly_divexact(a, g)
    poly_divexact(b, g)


laurent_polys = st.dictionaries(
    st.integers(-6, 6), st.integers(-6, 6), max_size=4
).map(upoly)


@settings(max_examples=60, deadline=None)
@given(laurent_polys, laurent_polys.filter(lambda p: not p.is_zero()))
def test_divexact_inverts_mul(a, b):
    assert poly_divexact(a * b, b) == a


@settings(max_examples=40, deadline=None)
@given(nonzero_small, nonzero_small, nonzero_small)
def test_fraction_sum_of_three_products(a, b, c):
    # a/c + b/c == (a+b)/c after reduction, evaluated anywhere it is polynomial
    lhs = UniRational(a, c) + UniRational(b, c)
    rhs = UniRational(a + b, c)
    assert lhs.num == rhs.num and lhs.den == rhs.den
