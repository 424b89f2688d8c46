"""The Kronecker-packed Z[t, 1/t] against the dict-based reference, and its
exactness guard: a norm bound that reaches 2^63 raises IntegrityError."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kflag import IntegrityError, NotDivisibleError, UniPoly
from kflag.univariate import poly_divexact

from uni_reference import RefPoly, ref_divexact

term_dicts = st.dictionaries(st.integers(-10, 10), st.integers(-40, 40), max_size=8)
# few terms with wide coefficients reach digits far from zero in both directions
wide_dicts = st.dictionaries(st.integers(-10, 10), st.integers(-(2**28), 2**28), max_size=3)
polys = st.one_of(term_dicts, wide_dicts)
nonzero_polys = polys.filter(lambda d: any(d.values()))


def pair(terms):
    return UniPoly(terms), RefPoly(terms)


def same(p: UniPoly, r: RefPoly) -> bool:
    return dict(p.terms) == r.terms


@settings(max_examples=150, deadline=None)
@given(polys, polys, st.integers(-50, 50), st.integers(-12, 12))
def test_packed_ring_operations_match_the_reference(da, db, k, s):
    a, ra = pair(da)
    b, rb = pair(db)
    assert same(a, ra) and same(b, rb)
    assert same(a + b, ra + rb)
    assert same(a - b, ra - rb)
    assert same(-a, -ra)
    assert same(a * b, ra * rb)
    assert same(a * k, ra * k) and same(k * a, k * ra)
    assert same(a.shift(s), ra.shift(s))
    assert a.eval_at_one() == ra.eval_at_one()
    assert (a * b).eval_at_one() == (ra * rb).eval_at_one()
    assert a.is_zero() == ra.is_zero() and bool(a) == bool(ra)
    assert (a == b) == (ra == rb)
    if ra == rb:
        assert hash(a) == hash(b)


@settings(max_examples=100, deadline=None)
@given(st.lists(polys, min_size=1, max_size=5), st.randoms(use_true_random=False))
def test_sums_that_cancel_are_zero(parts, rnd):
    signed = [UniPoly(d) for d in parts] + [-UniPoly(d) for d in parts]
    rnd.shuffle(signed)
    acc = UniPoly.zero()
    for p in signed:
        acc = acc + p
    assert acc == UniPoly.zero() and acc.is_zero() and not acc.terms
    assert hash(acc) == hash(UniPoly.zero())
    assert acc.eval_at_one() == 0
    a = UniPoly(parts[0])
    assert a - a == UniPoly.zero()
    # a value rebuilt through a cancelling detour is the same value
    b = UniPoly(parts[-1])
    again = a + b - b
    assert again == a and hash(again) == hash(a)


@settings(max_examples=150, deadline=None)
@given(polys, nonzero_polys)
def test_exact_quotients_match_the_reference(da, db):
    a, ra = pair(da)
    b, rb = pair(db)
    q = poly_divexact(a * b, b)
    assert q == a and same(q, ref_divexact(ra * rb, rb))


@settings(max_examples=150, deadline=None)
@given(polys, nonzero_polys)
def test_division_fails_exactly_when_the_reference_fails(da, db):
    """An inexact pair never yields a value.  Its integer remainder is
    nonzero (NotDivisibleError) whenever the divisor's end coefficients are
    +-1, as for every divisor the engine uses; otherwise the remainder can
    vanish and the quotient then fails its certificate (IntegrityError)."""
    a, ra = pair(da)
    b, rb = pair(db)
    try:
        want = ref_divexact(ra, rb)
    except NotDivisibleError:
        ends = {abs(db[min(rb.terms)]), abs(db[max(rb.terms)])}
        expected = NotDivisibleError if ends == {1} else (NotDivisibleError, IntegrityError)
        with pytest.raises(expected):
            poly_divexact(a, b)
    else:
        assert same(poly_divexact(a, b), want)


@settings(max_examples=150, deadline=None)
@given(polys)
def test_coefficient_lists_round_trip_against_the_reference(d):
    p, r = pair(d)
    s, coeffs = p.coefficients()
    if not r:
        assert (s, coeffs) == (0, [])
        return
    lo, hi = min(r.terms), max(r.terms)
    assert s == lo and coeffs == [r.terms.get(e, 0) for e in range(lo, hi + 1)]
    q = UniPoly.from_coefficients(s, coeffs)
    assert q == p and hash(q) == hash(p) and same(q, r)
    assert q.eval_at_one() == r.eval_at_one()


@given(
    st.integers(-20, 20),
    st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=12).filter(
        lambda cs: cs[0] and cs[-1]
    ),
)
def test_from_coefficients_is_the_dense_reference(s, coeffs):
    r = RefPoly({s + i: c for i, c in enumerate(coeffs)})
    p = UniPoly.from_coefficients(s, coeffs)
    assert same(p, r) and p.coefficients() == (s, coeffs)


@pytest.mark.parametrize(
    "coeffs",
    [[], [0], [0, 1], [1, 0], [1, True], [True], [1.0], [1, 2.5, 1], [1, "2", 1], "1",
     (1,), None, [[1]]],
)
def test_from_coefficients_refuses_what_is_not_a_normal_coefficient_list(coeffs):
    with pytest.raises(ValueError):
        UniPoly.from_coefficients(0, coeffs)


def test_inexact_pair_with_zero_integer_remainder_is_refused():
    # (2 + t) / 2: 2 + 2^64 is an even integer, but its half 2^63 + 1 has
    # norm 2^63 in balanced digits, so it cannot be certified
    with pytest.raises(IntegrityError):
        poly_divexact(UniPoly({0: 2, 1: 1}), UniPoly({0: 2}))
    # (4 + t) / 4: the integer quotient 2^62 + 1 is one digit of norm below
    # 2^63, yet 4 (2^62 + 1) is no polynomial of norm below 2^63; only the
    # divisor's bound in the certificate catches it
    with pytest.raises(IntegrityError):
        poly_divexact(UniPoly({0: 4, 1: 1}), UniPoly({0: 4}))


@given(polys)
def test_division_by_zero_and_of_zero(da):
    a = UniPoly(da)
    with pytest.raises(ZeroDivisionError):
        poly_divexact(a, UniPoly.zero())
    if a:
        assert poly_divexact(UniPoly.zero(), a) == UniPoly.zero()


def test_terms_is_a_read_only_view():
    p = UniPoly({-1: 3, 2: -4})
    with pytest.raises(TypeError):
        p.terms[5] = 1
    assert dict(p.terms) == {-1: 3, 2: -4}
    assert UniPoly({0: 0, 3: 0}) == UniPoly.zero()
    # zero coefficients at the lowest exponents do not change the value
    assert UniPoly({-4: 0, -1: 3, 2: -4}) == p


# -- the exactness guard: operands near 2^62, no patching ------------------------------


BIG = 2**62


def test_largest_in_range_values_decode_exactly():
    top = UniPoly({0: 2**63 - 1})
    assert dict(top.terms) == {0: 2**63 - 1}
    assert dict((-top).terms) == {0: -(2**63 - 1)}
    assert (-top).eval_at_one() == -(2**63 - 1)
    p = UniPoly({0: BIG - 1, 3: -(BIG - 1)})
    assert dict((p * 1).terms) == {0: BIG - 1, 3: -(BIG - 1)}
    assert p.eval_at_one() == 0
    assert dict((UniPoly({0: BIG - 1}) * 2).terms) == {0: 2**63 - 2}


def test_constructor_rejects_a_bound_of_2_63():
    with pytest.raises(IntegrityError):
        UniPoly({0: 2**63})
    with pytest.raises(IntegrityError):
        UniPoly({0: BIG, 5: -BIG})


def test_from_coefficients_rejects_a_norm_of_2_63():
    top = UniPoly.from_coefficients(3, [-(2**63 - 1)])
    assert dict(top.terms) == {3: -(2**63 - 1)} and top.coefficients() == (3, [-(2**63 - 1)])
    edge = UniPoly.from_coefficients(0, [BIG, 0, -(BIG - 1)])
    assert edge == UniPoly({0: BIG, 2: -(BIG - 1)})
    with pytest.raises(IntegrityError):
        UniPoly.from_coefficients(0, [2**63])
    with pytest.raises(IntegrityError):
        UniPoly.from_coefficients(0, [-(2**63)])
    with pytest.raises(IntegrityError):
        UniPoly.from_coefficients(-1, [BIG, 0, -BIG])
    with pytest.raises(IntegrityError):
        UniPoly.from_coefficients(0, [2**64 + 1])


def test_product_bound_of_2_63_raises():
    with pytest.raises(IntegrityError):
        UniPoly({0: BIG}) * UniPoly({0: 2})
    with pytest.raises(IntegrityError):
        UniPoly({0: BIG, 1: 1}) * UniPoly.one_minus_power(1)
    with pytest.raises(IntegrityError):
        UniPoly({0: BIG}) * 2
    with pytest.raises(IntegrityError):
        -2 * UniPoly({3: BIG})


def test_sum_bound_of_2_63_raises():
    a = UniPoly({0: BIG})
    # the bound is what counts: a - a is zero, but its bound reaches 2^63
    with pytest.raises(IntegrityError):
        a + UniPoly({4: BIG})
    with pytest.raises(IntegrityError):
        a - a
    with pytest.raises(IntegrityError):
        a + (-a)


def test_quotient_that_cannot_be_certified_raises():
    # c (1 - t^8) / (1 - t) = c (1 + t + ... + t^7): its norm 8c times the
    # divisor's 2 reaches 2^63, so the quotient is refused, though it exists
    c = 2**60
    a = UniPoly.one_minus_power(8) * c
    with pytest.raises(IntegrityError):
        poly_divexact(a, UniPoly.one_minus_power(1))
    q = poly_divexact(a * 1, UniPoly.one_minus_power(8))
    assert dict(q.terms) == {0: c}
    # an inexact division is refused as such, whatever the bounds
    with pytest.raises(NotDivisibleError):
        poly_divexact(a + UniPoly.one(), UniPoly.one_minus_power(1))
