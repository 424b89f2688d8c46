"""The Kronecker-packed Z[t, 1/t], at the engine's 64-bit digits and at
the tests' 8-bit ones, against the dict-based reference, and its
exactness guard: a norm bound that reaches 2^(bits-1) raises
``IntegrityError`` with a message that names the width.  Values of two
widths never mix."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kflag import IntegrityError, NotDivisibleError, UniPoly
from kflag.univariate import _packed, poly_divexact

from uni_reference import RefPoly, ref_divexact

WIDTHS = [8, 64]
P8, div8 = _packed(8)

# by width: the coefficient range and term count of ``polys`` and the
# multiplier range, so that pairwise products and products by a multiplier
# stay in range (norms below 10 and 12 x 10 < 2^7 at 8 bits)
SIZES = {8: (2, 5, 12), 64: (40, 8, 50)}


def polys(bits: int):
    """Sparse polynomials whose pairwise products fit ``bits``-bit digits."""
    top, terms, _ = SIZES[bits]
    term_dicts = st.dictionaries(st.integers(-10, 10), st.integers(-top, top), max_size=terms)
    # few terms with wide coefficients reach digits far from zero in both directions
    wide = 2 ** (bits // 2 - 4)
    wide_dicts = st.dictionaries(st.integers(-10, 10), st.integers(-wide, wide), max_size=3)
    return st.one_of(term_dicts, wide_dicts)


def nonzero_polys(bits: int):
    return polys(bits).filter(lambda d: any(d.values()))


def same(p, r: RefPoly) -> bool:
    return dict(p.terms) == r.terms


def range_error(bits: int):
    """What the guard raises, with the message's range at this width."""
    return pytest.raises(IntegrityError, match=rf"out of the packed range 2\^{bits - 1}$")


@pytest.mark.parametrize("bits", WIDTHS)
@settings(max_examples=150, deadline=None)
@given(data=st.data(), s=st.integers(-12, 12))
def test_packed_ring_operations_match_the_reference(bits, data, s):
    poly, _ = _packed(bits)
    da, db = data.draw(polys(bits)), data.draw(polys(bits))
    k = data.draw(st.integers(-SIZES[bits][2], SIZES[bits][2]))
    a, ra = poly(da), RefPoly(da)
    b, rb = poly(db), RefPoly(db)
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


@pytest.mark.parametrize("bits", WIDTHS)
@settings(max_examples=100, deadline=None)
@given(data=st.data(), rnd=st.randoms(use_true_random=False))
def test_sums_that_cancel_are_zero(bits, data, rnd):
    poly, _ = _packed(bits)
    parts = data.draw(st.lists(polys(bits), min_size=1, max_size=5))
    signed = [poly(d) for d in parts] + [-poly(d) for d in parts]
    rnd.shuffle(signed)
    acc = poly.zero()
    for p in signed:
        acc = acc + p
    assert acc == poly.zero() and acc.is_zero() and not acc.terms
    assert hash(acc) == hash(poly.zero())
    assert acc.eval_at_one() == 0
    a = poly(parts[0])
    assert a - a == poly.zero()
    # a value rebuilt through a cancelling detour is the same value
    b = poly(parts[-1])
    again = a + b - b
    assert again == a and hash(again) == hash(a)


@pytest.mark.parametrize("bits", WIDTHS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_exact_quotients_match_the_reference(bits, data):
    poly, divexact = _packed(bits)
    da, db = data.draw(polys(bits)), data.draw(nonzero_polys(bits))
    a, b = poly(da), poly(db)
    ra, rb = RefPoly(da), RefPoly(db)
    q = divexact(a * b, b)
    assert q == a and same(q, ref_divexact(ra * rb, rb))


@pytest.mark.parametrize("bits", WIDTHS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_division_fails_exactly_when_the_reference_fails(bits, data):
    """An inexact pair never yields a value.  Its integer remainder is
    nonzero (NotDivisibleError) whenever the divisor's end coefficients are
    +-1, as for every divisor the engine uses; otherwise the remainder can
    vanish and the quotient then fails its certificate (IntegrityError).
    An exact pair yields its quotient unless the quotient's norm times the
    divisor's reaches 2^(bits-1), where it cannot be certified."""
    poly, divexact = _packed(bits)
    da, db = data.draw(polys(bits)), data.draw(nonzero_polys(bits))
    a, b = poly(da), poly(db)
    ra, rb = RefPoly(da), RefPoly(db)
    try:
        want = ref_divexact(ra, rb)
    except NotDivisibleError:
        ends = {abs(db[min(rb.terms)]), abs(db[max(rb.terms)])}
        expected = NotDivisibleError if ends == {1} else (NotDivisibleError, IntegrityError)
        with pytest.raises(expected):
            divexact(a, b)
    else:
        if sum(map(abs, want.terms.values())) * sum(map(abs, db.values())) >= 2 ** (bits - 1):
            with range_error(bits):
                divexact(a, b)
        else:
            assert same(divexact(a, b), want)


@pytest.mark.parametrize("bits", WIDTHS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_coefficient_lists_round_trip_against_the_reference(bits, data):
    poly, _ = _packed(bits)
    d = data.draw(polys(bits))
    p, r = poly(d), RefPoly(d)
    s, coeffs = p.coefficients()
    if not r:
        assert (s, coeffs) == (0, [])
        return
    lo, hi = min(r.terms), max(r.terms)
    assert s == lo and coeffs == [r.terms.get(e, 0) for e in range(lo, hi + 1)]
    q = poly.from_coefficients(s, coeffs)
    assert q == p and hash(q) == hash(p) and same(q, r)
    assert q.eval_at_one() == r.eval_at_one()


@pytest.mark.parametrize("bits", WIDTHS)
@given(data=st.data(), s=st.integers(-20, 20))
def test_from_coefficients_is_the_dense_reference(bits, data, s):
    poly, _ = _packed(bits)
    top = min(2 ** (bits * 5 // 8), (2 ** (bits - 1) - 1) // 12)  # 12 of them stay in range
    coeffs = data.draw(st.lists(st.integers(-top, top), min_size=1, max_size=12).filter(
        lambda cs: cs[0] and cs[-1]))
    r = RefPoly({s + i: c for i, c in enumerate(coeffs)})
    p = poly.from_coefficients(s, coeffs)
    assert same(p, r) and p.coefficients() == (s, coeffs)


@pytest.mark.parametrize("bits", WIDTHS)
@pytest.mark.parametrize(
    "coeffs",
    [[], [0], [0, 1], [1, 0], [1, True], [True], [1.0], [1, 2.5, 1], [1, "2", 1], "1",
     (1,), None, [[1]]],
)
def test_from_coefficients_refuses_what_is_not_a_normal_coefficient_list(bits, coeffs):
    with pytest.raises(ValueError):
        _packed(bits)[0].from_coefficients(0, coeffs)


@pytest.mark.parametrize("bits", WIDTHS)
def test_inexact_pair_with_zero_integer_remainder_is_refused(bits):
    poly, divexact = _packed(bits)
    # (2 + t) / 2: 2 + 2^bits is an even integer, but its half
    # 2^(bits-1) + 1 has norm 2^(bits-1) + 2 in balanced digits, so it
    # cannot be certified
    with range_error(bits):
        divexact(poly({0: 2, 1: 1}), poly({0: 2}))
    # (4 + t) / 4: the integer quotient 2^(bits-2) + 1 is one digit of norm
    # below 2^(bits-1), yet 4 (2^(bits-2) + 1) is no polynomial of norm
    # below 2^(bits-1); only the divisor's bound in the certificate catches it
    with range_error(bits):
        divexact(poly({0: 4, 1: 1}), poly({0: 4}))


@pytest.mark.parametrize("bits", WIDTHS)
@given(data=st.data())
def test_division_by_zero_and_of_zero(bits, data):
    poly, divexact = _packed(bits)
    a = poly(data.draw(polys(bits)))
    with pytest.raises(ZeroDivisionError):
        divexact(a, poly.zero())
    if a:
        assert divexact(poly.zero(), a) == poly.zero()


def test_terms_is_a_read_only_view():
    p = UniPoly({-1: 3, 2: -4})
    with pytest.raises(TypeError):
        p.terms[5] = 1
    assert dict(p.terms) == {-1: 3, 2: -4}
    assert UniPoly({0: 0, 3: 0}) == UniPoly.zero()
    # zero coefficients at the lowest exponents do not change the value
    assert UniPoly({-4: 0, -1: 3, 2: -4}) == p


# -- the exactness guard: operands near 2^(bits-2), no patching -------------------


@pytest.mark.parametrize("bits", WIDTHS)
def test_largest_in_range_values_decode_exactly(bits):
    poly, _ = _packed(bits)
    half, big = 2 ** (bits - 1), 2 ** (bits - 2)
    top = poly({0: half - 1})
    assert dict(top.terms) == {0: half - 1}
    assert dict((-top).terms) == {0: -(half - 1)}
    assert (-top).eval_at_one() == -(half - 1)
    p = poly({0: big - 1, 3: -(big - 1)})
    assert dict((p * 1).terms) == {0: big - 1, 3: -(big - 1)}
    assert p.eval_at_one() == 0
    assert dict((poly({0: big - 1}) * 2).terms) == {0: half - 2}


@pytest.mark.parametrize("bits", WIDTHS)
def test_constructor_rejects_a_bound_at_the_packed_range(bits):
    poly, _ = _packed(bits)
    half, big = 2 ** (bits - 1), 2 ** (bits - 2)
    with range_error(bits):
        poly({0: half})
    with range_error(bits):
        poly({0: big, 5: -big})


@pytest.mark.parametrize("bits", WIDTHS)
def test_from_coefficients_rejects_a_norm_at_the_packed_range(bits):
    poly, _ = _packed(bits)
    half, big = 2 ** (bits - 1), 2 ** (bits - 2)
    top = poly.from_coefficients(3, [-(half - 1)])
    assert dict(top.terms) == {3: -(half - 1)} and top.coefficients() == (3, [-(half - 1)])
    edge = poly.from_coefficients(0, [big, 0, -(big - 1)])
    assert edge == poly({0: big, 2: -(big - 1)})
    with range_error(bits):
        poly.from_coefficients(0, [half])
    with range_error(bits):
        poly.from_coefficients(0, [-half])
    with range_error(bits):
        poly.from_coefficients(-1, [big, 0, -big])
    with range_error(bits):
        poly.from_coefficients(0, [2 * half + 1])


@pytest.mark.parametrize("bits", WIDTHS)
def test_product_bound_at_the_packed_range_raises(bits):
    poly, _ = _packed(bits)
    big = 2 ** (bits - 2)
    with range_error(bits):
        poly({0: big}) * poly({0: 2})
    with range_error(bits):
        poly({0: big, 1: 1}) * poly.one_minus_power(1)
    with range_error(bits):
        poly({0: big}) * 2
    with range_error(bits):
        -2 * poly({3: big})


@pytest.mark.parametrize("bits", WIDTHS)
def test_sum_bound_at_the_packed_range_raises(bits):
    poly, _ = _packed(bits)
    a = poly({0: 2 ** (bits - 2)})
    # the bound is what counts: a - a is zero, but its bound reaches 2^(bits-1)
    with range_error(bits):
        a + poly({4: 2 ** (bits - 2)})
    with range_error(bits):
        a - a
    with range_error(bits):
        a + (-a)


@pytest.mark.parametrize("bits", WIDTHS)
def test_quotient_that_cannot_be_certified_raises(bits):
    poly, divexact = _packed(bits)
    # c (1 - t^8) / (1 - t) = c (1 + t + ... + t^7): its norm 8c times the
    # divisor's 2 reaches 2^(bits-1), so the quotient is refused, though it exists
    c = 2 ** (bits - 4)
    a = poly.one_minus_power(8) * c
    with range_error(bits):
        divexact(a, poly.one_minus_power(1))
    q = divexact(a * 1, poly.one_minus_power(8))
    assert dict(q.terms) == {0: c}
    # an inexact division is refused as such, whatever the bounds
    with pytest.raises(NotDivisibleError):
        divexact(a + poly.one(), poly.one_minus_power(1))


def test_guard_near_2_7_at_8_bits_only():
    """Bounds just below 2^7 pass at 8 bits and a bound of 2^7 is an
    IntegrityError; at 64 bits the same values pass."""
    top = 2**7 - 1
    a = P8({0: top})
    assert a.eval_at_one() == top and dict((-a).terms) == {0: -top}
    assert dict((P8({0: 2**6 - 1}) + P8({1: 2**6})).terms) == {0: 2**6 - 1, 1: 2**6}
    assert dict((P8({0: 2**3}) * P8({2: 2**3 - 1})).terms) == {2: 2**6 - 2**3}
    with pytest.raises(IntegrityError) as info:
        P8({0: 2**3}) * P8({0: 2**4})
    assert str(info.value) == "coefficient bound 2^7 is out of the packed range 2^7"
    with pytest.raises(IntegrityError):
        P8({0: 2**6}) - P8({3: 2**6})
    with pytest.raises(IntegrityError):
        P8.from_coefficients(0, [2**6, 2**6])
    wide = UniPoly({0: 2**3}) * UniPoly({0: 2**4})
    assert dict(wide.terms) == {0: 2**7}
    assert dict((UniPoly({0: 2**6}) - UniPoly({3: 2**6})).terms) == {0: 2**6, 3: -(2**6)}


def test_the_64_bit_guard_is_final_with_its_old_message():
    """At 64 bits the guard raises IntegrityError itself, no subclass of
    it: no wider width exists to redo the work at."""
    with pytest.raises(IntegrityError) as info:
        UniPoly({0: 2**62}) * UniPoly({0: 2})
    assert type(info.value) is IntegrityError
    assert str(info.value) == "coefficient bound 2^63 is out of the packed range 2^63"


# -- two widths ------------------------------------------------------------------


def test_operations_between_widths_raise_type_error():
    a, b = P8({0: 1, 2: -3}), UniPoly({0: 1, 2: -3})
    ops = (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y, div8, poly_divexact)
    for op in ops:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(TypeError, match="does not combine"):
                op(x, y)
    with pytest.raises(TypeError):
        a + 1
    assert a != b and a * 3 == P8({0: 3, 2: -9}) and 3 * b == UniPoly({0: 3, 2: -9})


# -- the balanced-digit decoder ---------------------------------------------------


def _reference_digits(x: int, bits: int) -> list[int]:
    """Balanced base-2^bits digits of x, lowest first, no zeros on top: one
    digit at a time, each in [-2^(bits-1), 2^(bits-1))."""
    base, half = 1 << bits, 1 << (bits - 1)
    out = []
    while x:
        d = x % base
        if d >= half:
            d -= base
        out.append(d)
        x = (x - d) >> bits
    return out


def _check_digits(bits: int, x: int) -> None:
    got = _packed(bits)[0].digits(x)
    want = _reference_digits(x, bits)
    # x.bit_length() // bits + 2 digits, which is enough; those past x's are zero
    assert len(got) == x.bit_length() // bits + 2 >= len(want)
    assert list(got) == want + [0] * (len(got) - len(want))
    assert sum(d << (bits * i) for i, d in enumerate(got)) == x


@pytest.mark.parametrize("bits", WIDTHS)
@settings(max_examples=300, deadline=None)
@given(x=st.integers(-(2 ** 1700), 2 ** 1700))
def test_digits_match_the_reference_decoder(bits, x):
    _check_digits(bits, x)


@pytest.mark.parametrize("bits", WIDTHS)
def test_digits_at_the_edges_match_the_reference_decoder(bits):
    """Digits at both ends of the balanced range, alone and in long runs,
    where adding the offset carries through every digit."""
    half, base = 1 << (bits - 1), 1 << bits
    low, high = -half, half - 1
    edges = [0, 1, -1, low, high, half, -half - 1, base - 1, -(base - 1), base, -base]
    for run in (1, 2, 25):
        for d in (low, high, -1, 1):
            x = sum(d << (bits * i) for i in range(run))
            edges += [x, -x, x + 1, x - 1, x << bits, (x << bits) + 1]
        # alternating ends: every digit flips sign
        edges.append(sum((low if i % 2 else high) << (bits * i) for i in range(run)))
    for x in edges:
        _check_digits(bits, x)
