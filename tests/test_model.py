"""Localization model: class constructors, Demazure operators, chi, expansion."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from kflag import (
    EquivClass,
    IntegrityError,
    KflagError,
    LaurentPoly,
    NotDivisibleError,
    PoleAtOneError,
    UniPoly,
    build_root_datum,
)
from kflag.model import _height_cocharacter

import chi_oracle
import pairing_oracle


def braid_order(cartan, i, j):
    return {0: 2, 1: 3, 2: 4, 3: 6}[cartan[i - 1][j - 1] * cartan[j - 1][i - 1]]


def unit_class(model) -> EquivClass:
    """The unit [O_X]: restriction 1 at every fixed point."""
    return EquivClass(model.rank, {v: LaurentPoly.one(model.rank) for v in model.group.elements})


def random_valid_class(model, rng, width=3):
    """A random R(T)-combination of Schubert classes (always a valid input)."""
    rank = model.rank
    acc = EquivClass(rank, {})
    for _ in range(width):
        w = rng.choice(model.group.elements)
        exp = tuple(rng.randint(-2, 2) for _ in range(rank))
        coeff = LaurentPoly(rank, {exp: rng.randint(-3, 3)})
        acc = acc + pairing_oracle.scale(model.schubert_class(w), coeff)
    return acc


# -- point class ------------------------------------------------------------------


def test_point_class_rank_one(engines):
    m = engines.model("A1")
    g = engines.group("A1")
    pt = m.schubert_class(g.identity)
    alpha = g.datum.simple_root(1)
    assert pt.restriction(g.identity) == LaurentPoly.one(1) - LaurentPoly.monomial(alpha)
    assert pt.restriction(g.w_o).is_zero()


def test_point_class_vanishes_at_w_o(engines):
    for label in ("A2", "B2", "G2"):
        m = engines.model(label)
        g = engines.group(label)
        assert m.schubert_class(g.identity).restriction(g.w_o).is_zero()


def test_point_class_a2_product_over_roots(engines):
    m = engines.model("A2")
    d = engines.datum("A2")
    g = engines.group("A2")
    expect = LaurentPoly.one(2)
    for alpha in d.positive_roots:
        expect = expect * (LaurentPoly.one(2) - LaurentPoly.monomial(alpha))
    assert m.schubert_class(g.identity).restriction(g.identity) == expect


# -- Demazure operators ------------------------------------------------------------


def test_demazure_point_class_rank_one(engines):
    m = engines.model("A1")
    g = engines.group("A1")
    out = m.demazure(1, m.schubert_class(g.identity))
    assert out.restriction(g.identity) == LaurentPoly.one(1)
    assert out.restriction(g.w_o) == LaurentPoly.one(1)


def test_demazure_idempotent_on_random_classes(engines):
    for label in ("A2", "B2"):
        m = engines.model(label)
        rng = random.Random(11)
        for _ in range(10):
            f = random_valid_class(m, rng)
            for i in range(1, m.rank + 1):
                df = m.demazure(i, f)
                assert m.demazure(i, df) == df


def test_demazure_braid_relations(engines):
    for label in ("A2", "B2", "G2"):
        m = engines.model(label)
        cartan = engines.datum(label).cartan
        rng = random.Random(13)
        order = braid_order(cartan, 1, 2)
        for _ in range(5):
            f = random_valid_class(m, rng)
            lhs, rhs = f, f
            for k in range(order):
                lhs = m.demazure(1 if k % 2 == 0 else 2, lhs)
                rhs = m.demazure(2 if k % 2 == 0 else 1, rhs)
            assert lhs == rhs


def test_demazure_rejects_invalid_class(engines):
    m = engines.model("A1")
    g = engines.group("A1")
    bad = EquivClass(1, {g.identity: LaurentPoly.one(1)})
    with pytest.raises(NotDivisibleError):
        m.demazure(1, bad)


# -- Schubert classes ----------------------------------------------------------------


def test_schubert_class_rank_one_is_unit(engines):
    m = engines.model("A1")
    g = engines.group("A1")
    assert m.schubert_class(g.w_o) == unit_class(m)


def test_top_schubert_class_is_unit_everywhere(engines):
    for label in ("A2", "A3", "B2", "G2"):
        m = engines.model(label)
        g = engines.group(label)
        assert m.schubert_class(g.w_o) == unit_class(m)


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_schubert_support_is_bruhat_interval(label, engines):
    m = engines.model(label)
    g = engines.group(label)
    for w in g.elements:
        psi = m.schubert_class(w)
        for v in g.elements:
            expected = g.bruhat_leq(v, w)
            assert (not psi.restriction(v).is_zero()) == expected


def test_schubert_word_independence(engines):
    for label in ("A2", "B2"):
        m = engines.model(label)
        g = engines.group(label)
        for w in g.elements:
            for word in _reduced_words(g, w):
                # prefixes of a reduced word are reduced, so the recursion
                # appends letters on the right: psi_{w s_i} = D_i psi_w
                cls = m.schubert_class(g.identity)
                for i in word:
                    cls = m.demazure(i, cls)
                assert cls == m.schubert_class(w)


def _reduced_words(g, w):
    if w.length == 0:
        return [()]
    out = []
    for i in range(1, g.datum.rank + 1):
        if g.has_left_descent(w, i):
            for rest in _reduced_words(g, g.left_mul(i, w)):
                out.append((i,) + rest)
    return out


# -- opposite classes ------------------------------------------------------------------


def test_opposite_identity_is_unit(engines):
    m = engines.model("A2")
    identity = engines.group("A2").identity
    assert pairing_oracle.opposite_schubert_class(m, identity) == unit_class(m)


def test_opposite_rank_one(engines):
    m = engines.model("A1")
    g = engines.group("A1")
    opp = pairing_oracle.opposite_schubert_class(m, g.w_o)
    assert opp.restriction(g.identity).is_zero()
    alpha = g.datum.simple_root(1)
    assert opp.restriction(g.w_o) == LaurentPoly.one(1) - LaurentPoly.monomial(
        tuple(-x for x in alpha)
    )


def test_opposite_support_is_upper_interval(engines):
    m = engines.model("A2")
    g = engines.group("A2")
    for w in g.elements:
        opp = pairing_oracle.opposite_schubert_class(m, w)
        for v in g.elements:
            assert (not opp.restriction(v).is_zero()) == g.bruhat_leq(w, v)


# -- line bundles -------------------------------------------------------------------


def test_line_bundle_zero_weight(engines):
    m = engines.model("A2")
    assert m.line_bundle_class((0, 0)) == unit_class(m)


def test_line_bundle_chi_rank_one(engines):
    m = engines.model("A1")
    for k in range(0, 5):
        assert m.euler_characteristic(m.line_bundle_class((k,))) == k + 1


def test_canonical_class_chi_sign(engines):
    for label in ("A1", "A2", "B2"):
        m = engines.model(label)
        omega = pairing_oracle.canonical_class(m)
        assert m.euler_characteristic(omega) == (-1) ** m.dimension


def test_weyl_act_on_polynomials(engines):
    weyl_act = pairing_oracle.weyl_act
    g = engines.group("A2")
    d = engines.datum("A2")
    p = LaurentPoly.monomial(d.rho, 2) - LaurentPoly.monomial((1, -1))
    assert weyl_act(g, g.identity, p) == p
    # w_o sends e^rho to e^-rho
    rho_mono = LaurentPoly.monomial(d.rho)
    assert weyl_act(g, g.w_o, rho_mono) == LaurentPoly.monomial(
        tuple(-x for x in d.rho)
    )
    # ring automorphism
    q = LaurentPoly.monomial((0, 1), -3)
    w = g.from_word([1, 2])
    assert weyl_act(g, w, p * q) == weyl_act(g, w, p) * weyl_act(g, w, q)


def test_kmul_kdual_basics(engines):
    m = engines.model("A2")
    rng = random.Random(3)
    f = random_valid_class(m, rng)
    assert unit_class(m) * f == f
    dual = pairing_oracle.dual
    assert dual(dual(f)) == f
    lam = (2, -1)
    assert dual(m.line_bundle_class(lam)) == m.line_bundle_class((-2, 1))


# -- Euler characteristic ----------------------------------------------------------------


def test_chi_of_schubert_classes_both_routes(engines):
    for label in ("A1", "A2", "B2", "G2"):
        m = engines.model(label)
        for w in engines.group(label).elements:
            psi = m.schubert_class(w)
            assert m.euler_characteristic(psi) == 1
            assert pairing_oracle.euler_characteristic_via_expansion(m, psi) == 1


def test_chi_point_class(engines):
    for label in ("A2", "G2"):
        m = engines.model(label)
        assert m.euler_characteristic(m.schubert_class(engines.group(label).identity)) == 1


def test_chi_pole_on_invalid_class(engines):
    m = engines.model("A1")
    g = engines.group("A1")
    bad = EquivClass(1, {g.identity: LaurentPoly.one(1)})
    with pytest.raises(PoleAtOneError):
        m.euler_characteristic(bad)


@pytest.mark.parametrize("k", range(6))
def test_chi_pole_classification(engines, k):
    """(1 - e^alpha)^k at the identity of A2 sums to (1 - t)^(k - 3) / (1 + t):
    a pole at t = 1 for k <= 2, regular there but not a polynomial for k >= 3."""
    m = engines.model("A2")
    alpha = m.datum.positive_roots[0]
    assert sum(x * c for x, c in zip(alpha, m.cocharacter)) == 1
    one = LaurentPoly.one(2)
    p = one
    for _ in range(k):
        p = p * (one - LaurentPoly.monomial(alpha))
    f = EquivClass(2, {engines.group("A2").identity: p})
    want = PoleAtOneError if k <= 2 else IntegrityError
    with pytest.raises(KflagError) as got:
        m.euler_characteristic(f)
    assert got.type is want
    with pytest.raises(KflagError) as got:
        chi_oracle.chi(m, f)
    assert got.type is want


def test_equiv_class_is_unhashable(engines):
    """EquivClass defines __eq__ over its restrictions and no __hash__, so
    Python makes it unhashable."""
    assert EquivClass.__hash__ is None
    with pytest.raises(TypeError):
        hash(EquivClass(2, {engines.group("A2").identity: LaurentPoly.one(2)}))


@pytest.mark.parametrize(
    "letter,rank",
    [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3),
     ("D", 4), ("F", 4), ("E", 6), ("G", 2)],
)
def test_cocharacter_pairs_roots_to_their_height(letter, rank):
    """<beta, k> = c * height(beta) with one c > 0 for every positive root,
    so the default cocharacter is regular, and <w_o lam, k> = -<lam, k>,
    which makes the w_o-translate t -> 1/t in one variable (root data
    only, no Weyl group).  The same solver with simple-root heights
    (1, ..., 1, 2) gives the normalization report's second cocharacter k2:
    integral, regular, and from rank 2 not proportional to k."""
    datum = build_root_datum(letter, rank)
    k = _height_cocharacter(datum, (1,) * rank)
    pair = lambda lam: sum(x * ki for x, ki in zip(lam, k))
    got = {
        Fraction(pair(beta), sum(coords))
        for beta, coords in zip(datum.positive_roots, datum.positive_root_coords)
    }
    assert len(got) == 1
    (c,) = got
    assert c > 0 and c.denominator == 1

    k2 = _height_cocharacter(datum, (1,) * (rank - 1) + (2,))
    assert all(type(x) is int for x in k2)
    for beta in datum.positive_roots:
        assert sum(x * ki for x, ki in zip(beta, k2)) > 0
    if rank >= 2:
        assert any(k[i] * k2[j] != k[j] * k2[i] for i in range(rank) for j in range(i))

    # a reduced word of w_o: lower rho by simple reflections until it is -rho
    lam, applied = datum.rho, []
    while any(x > 0 for x in lam):
        i = next(j for j, x in enumerate(lam, 1) if x > 0)
        lam = datum.reflect(i, lam)
        applied.append(i)
    assert lam == tuple(-x for x in datum.rho)
    assert len(applied) == len(datum.positive_roots)
    w_o = tuple(reversed(applied))
    for beta in datum.positive_roots:
        assert pair(datum.act(w_o, beta)) == -pair(beta)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"])
def test_fixed_point_denominator_is_a_unit_times_one_product(engines, label):
    """prod_{alpha>0} (1 - t^<v(alpha), k>) = (-1)^l(v) t^-<rho - v(rho), k> D
    at every fixed point v, with D = prod_{beta>0} (1 - t^<beta, k>): the
    identity that lets chi sum every fixed point over one denominator."""
    m = engines.model(label)
    pair = lambda lam: sum(x * ki for x, ki in zip(lam, m.cocharacter))
    d = UniPoly.one()
    for beta in m.datum.positive_roots:
        d = d * UniPoly.one_minus_power(pair(beta))
    for v in engines.group(label).elements:
        unit = UniPoly({pair(v.key) - pair(m.datum.rho): (-1) ** v.length})
        assert chi_oracle.fixed_point_denominator(m, v) == unit * d


def test_chi_agrees_with_generic_fraction_sum(engines):
    """The one-denominator fast path equals the generic reduced-fraction sum."""
    for label in ("A1", "A2", "A3", "B2", "B3", "G2"):
        m = engines.model(label)
        rng = random.Random(5)
        for _ in range(5):
            f = random_valid_class(m, rng)
            assert m.euler_characteristic(f) == chi_oracle.chi(m, f)


# -- expansion ---------------------------------------------------------------------------


def test_expand_basis_elements(engines):
    m = engines.model("A2")
    g = engines.group("A2")
    for w in g.elements:
        res = m.expand_in_schubert_basis(m.schubert_class(w))
        assert res.specialized == {w: 1}
        assert set(res.coeffs) == {w}


def test_expand_unit_class(engines):
    for label in ("A2", "B2"):
        m = engines.model(label)
        g = engines.group(label)
        res = m.expand_in_schubert_basis(unit_class(m))
        assert res.specialized == {g.w_o: 1}


def test_expand_line_bundle_rank_one(engines):
    m = engines.model("A1")
    g = engines.group("A1")
    for k in range(0, 4):
        res = m.expand_in_schubert_basis(m.line_bundle_class((k,)))
        want = {g.w_o: 1, g.identity: k} if k else {g.w_o: 1}
        assert res.specialized == want


def test_expand_reproduces_input(engines):
    for label in ("A2", "B2"):
        m = engines.model(label)
        rng = random.Random(17)
        for _ in range(5):
            f = random_valid_class(m, rng)
            res = m.expand_in_schubert_basis(f)
            acc = EquivClass(m.rank, {})
            for w, c in res.coeffs.items():
                acc = acc + pairing_oracle.scale(m.schubert_class(w), c)
            assert acc == f


def test_expand_rejects_class_outside_span(engines):
    m = engines.model("A1")
    g = engines.group("A1")
    bad = EquivClass(1, {g.identity: LaurentPoly.one(1)})
    with pytest.raises(NotDivisibleError):
        m.expand_in_schubert_basis(bad)


def test_product_support_triangularity(engines):
    m = engines.model("A2")
    g = engines.group("A2")
    for u in g.elements:
        for v in g.elements:
            res = m.expand_in_schubert_basis(m.schubert_class(u) * m.schubert_class(v))
            for w in res.specialized:
                assert g.bruhat_leq(w, u) and g.bruhat_leq(w, v)


def test_serre_duality_identity(engines):
    for label in ("A1", "A2", "B2"):
        m = engines.model(label)
        g = engines.group(label)
        omega = pairing_oracle.canonical_class(m)
        sign = (-1) ** m.dimension
        for w in g.elements:
            f = m.schubert_class(w)
            assert m.euler_characteristic(pairing_oracle.dual(f)) == sign * m.euler_characteristic(
                f * omega
            )
