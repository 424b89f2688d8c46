"""Exact Laurent-polynomial arithmetic: ring axioms, division, symmetries."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kflag import LaurentPoly, NotDivisibleError, build_root_datum

RANK = 2

exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
polys = st.dictionaries(exponents, st.integers(-9, 9), max_size=5).map(
    lambda terms: LaurentPoly(RANK, terms)
)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def mono(*exps, c=1):
    return LaurentPoly.monomial(tuple(exps), c)


def one():
    return LaurentPoly.one(RANK)


def test_add_cancels():
    alpha = (2, -1)
    p = one() - mono(*alpha)
    assert p + mono(*alpha) == one()


def test_mul_difference_of_squares():
    alpha = (2, -1)
    p = one() - mono(*alpha)
    q = one() + mono(*alpha)
    assert p * q == one() - mono(4, -2)


def test_mul_by_zero():
    p = mono(1, 1, c=3) - mono(0, -2)
    assert (LaurentPoly.zero(RANK) * p).is_zero()
    assert (p * 0).is_zero()


def test_exact_div_telescope():
    alpha = (2, -1)
    num = one() - mono(4, -2)
    den = one() - mono(*alpha)
    assert num.exact_div(den) == one() + mono(*alpha)


def test_exact_div_self():
    p = mono(1, 0, c=3) - mono(-1, 2, c=7) + one()
    assert p.exact_div(p) == one()


def test_exact_div_failure_distinct_roots():
    alpha, beta = (2, -1), (-1, 2)
    with pytest.raises(NotDivisibleError):
        (one() - mono(*alpha)).exact_div(one() - mono(*beta))


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        one().exact_div(LaurentPoly.zero(RANK))


def test_exact_div_integer_content():
    with pytest.raises(NotDivisibleError):
        mono(0, 0, c=3).exact_div(mono(0, 0, c=2))
    assert mono(0, 0, c=6).exact_div(mono(0, 0, c=2)) == mono(0, 0, c=3)


def test_eval_at_one():
    alpha = (2, -1)
    assert (one() - mono(*alpha)).eval_at_one() == 0
    assert (mono(1, 1, c=3) - mono(0, -1)).eval_at_one() == 2


def test_specialize_cochar():
    assert mono(1, 0).specialize((1, 0)).terms == {1: 1}
    # rank-one convention: alpha = 2 omega
    p1 = LaurentPoly(1, {(0,): 1, (2,): -1})
    assert p1.specialize((1,)).terms == {0: 1, 2: -1}
    assert mono(0, 0, c=5).specialize((3, 7)).terms == {0: 5}


def test_weyl_action_via_map_exponents():
    d = build_root_datum("A", 2)
    omega1 = d.fundamental_weight(1)
    p = LaurentPoly.monomial(omega1)
    moved = p.map_exponents(lambda e: d.reflect(1, e))
    alpha1 = d.simple_root(1)
    assert moved == LaurentPoly.monomial(
        tuple(a - b for a, b in zip(omega1, alpha1))
    )


# -- randomized ring properties ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@settings(max_examples=40, deadline=None)
@given(polys, polys, polys)
def test_associativity_and_distributivity(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(polys, nonzero_polys)
def test_div_inverts_mul(p, q):
    assert (p * q).exact_div(q) == p


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_eval_at_one_is_ring_homomorphism(p, q):
    assert (p * q).eval_at_one() == p.eval_at_one() * q.eval_at_one()
    assert (p + q).eval_at_one() == p.eval_at_one() + q.eval_at_one()


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_specialize_is_ring_homomorphism(p, q):
    k = (2, 5)
    assert (p * q).specialize(k) == p.specialize(k) * q.specialize(k)
    assert (p + q).specialize(k) == p.specialize(k) + q.specialize(k)


@settings(max_examples=60, deadline=None)
@given(polys)
def test_eval_commutes_with_symmetries(p):
    d = build_root_datum("A", 2)
    act = lambda e: d.reflect(1, e)
    assert p.map_exponents(act).eval_at_one() == p.eval_at_one()


@settings(max_examples=40, deadline=None)
@given(polys)
def test_weyl_action_is_ring_automorphism(p):
    d = build_root_datum("A", 2)
    act = lambda e: d.reflect(2, e)
    q = LaurentPoly(RANK, {(1, -1): 2, (0, 1): 1})
    assert (p * q).map_exponents(act) == p.map_exponents(act) * q.map_exponents(act)
