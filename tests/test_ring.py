"""Ring operations: constants, bases, pairing, Richardson and line classes."""
from __future__ import annotations

import itertools
import random

import pytest

from kflag import ConfigError, IntegrityError, RootDatum, SchubertModel
from kflag.reports import _add, _demazure_line_table, _line_parts, _neg
from kflag.ring import (
    IDEAL_BASIS,
    O_BASIS,
    OMEGA_BASIS,
    OMEGA_BOUNDARY_BASIS,
    SchubertRing,
    _alpha_string,
    _columns,
    _line_row,
    _pair_product,
    _row_times,
    _rule_two,
    _sweep,
)

from grothendieck_oracle import (
    GrothendieckOracle,
    compose,
    line_class,
    longest_perm,
    p_mul,
    truncate,
)
from line_oracle import public_line_table
import pairing_oracle
from test_specialized import _all_pairs


def to_permutation(g, w, n):
    """One-line permutation of a type-A Weyl element; right multiplication
    by s_i swaps the entries in positions i, i+1."""
    out = list(range(1, n + 1))
    for i in w.word:
        out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def test_unit_of_the_ring(engines):
    r = engines.ring("A2")
    g = engines.group("A2")
    for v in g.elements:
        cs = r.structure_constants(g.w_o, v)
        assert cs == {v: 1}


def test_frozen_a2_example(engines):
    r = engines.ring("A2")
    g = engines.group("A2")
    cs = r.structure_constants(g.from_word([1, 2]), g.from_word([2, 1]))
    assert cs == {
        g.from_word([1]): 1,
        g.from_word([2]): 1,
        g.identity: -1,
    }


def test_vanishing_below_expected_codimension(engines):
    r = engines.ring("B2")
    g = engines.group("B2")
    for u in g.elements:
        for v in g.elements:
            for w, c in r.structure_constants(u, v).items():
                assert r.n_degree(u, v, w) >= 0 or c == 0


def test_commutativity_and_associativity(engines):
    r = engines.ring("A2")
    g = engines.group("A2")
    rng = random.Random(23)
    for u in g.elements:
        for v in g.elements:
            assert r.structure_constants(u, v) == r.structure_constants(v, u)
    for _ in range(5):
        u, v, x = (rng.choice(g.elements) for _ in range(3))
        lhs = r.o_basis_product(r.o_basis_product({u: 1}, {v: 1}), {x: 1})
        rhs = r.o_basis_product({u: 1}, r.o_basis_product({v: 1}, {x: 1}))
        assert lhs == rhs


# -- oracle agreement ---------------------------------------------------------------


def _oracle_table_dimension_labels(ring, group, n):
    """Full structure-constant table from the Grothendieck-polynomial oracle,
    translated from codimension labels to the engine's dimension labels by
    w -> w_o w."""
    oracle = GrothendieckOracle(n)
    w_o_perm = longest_perm(n)
    perm_of = {w: to_permutation(group, w, n) for w in group.elements}
    table = {}
    for u in group.elements:
        for v in group.elements:
            want = oracle.structure_constants(
                compose(w_o_perm, perm_of[u]), compose(w_o_perm, perm_of[v])
            )
            table[(u, v)] = {
                w: want.get(compose(w_o_perm, perm_of[w]), 0) for w in group.elements
            }
    return table


@pytest.mark.parametrize("label,n", [("A2", 3), ("A3", 4)])
def test_full_table_matches_grothendieck_oracle(label, n, engines):
    ring = engines.ring(label)
    group = engines.group(label)
    oracle_table = _oracle_table_dimension_labels(ring, group, n)
    for u in group.elements:
        for v in group.elements:
            got = ring.structure_constants(u, v)
            want = {w: c for w, c in oracle_table[(u, v)].items() if c}
            assert got == want, (u.word, v.word)


def test_the_oracle_line_class_is_pinned_on_the_projective_line():
    """chi(L(m omega_1)) = m + 1 on P^1, chi of an oracle class being the
    sum of its coordinates, as chi(O_{X_w}) = 1; the other sign gives 1 - m."""
    oracle = GrothendieckOracle(2)
    for sign, chi in ((1, lambda m: m + 1), (-1, lambda m: 1 - m)):
        power = {(0, 0): 1}
        for m in range(5):
            assert sum(oracle.expand(power).values()) == chi(m)
            power = truncate(p_mul(power, line_class(2, 1, sign)), 1)


def _oracle_line_mismatches(ring, n: int, flip: int):
    """(k, sign, v) whose row of the ring's L(sign omega_k) table differs
    from the oracle's [L(flip sign omega_k)] . G_{w_o v}, relabelled by
    w -> w_o w; every row is compared."""
    oracle = GrothendieckOracle(n)
    group = ring.group
    w_o_perm, top = longest_perm(n), n * (n - 1) // 2
    perm_of = {w: compose(w_o_perm, to_permutation(group, w, n)) for w in group.elements}
    label_of = {p: w for w, p in perm_of.items()}
    out = []
    for k in range(1, n):
        for sign in (1, -1):
            line = line_class(n, k, flip * sign)
            lam = tuple(sign if j == k else 0 for j in range(1, n))
            for v in group.elements:
                got = oracle.expand(truncate(p_mul(line, oracle.polys[perm_of[v]]), top))
                if ring.line_bundle_coeffs(v, lam) != {label_of[p]: c for p, c in got.items()}:
                    out.append((k, sign, v.word))
    return out


@pytest.mark.parametrize("label,n", [("A2", 3), ("A3", 4)])
def test_fundamental_line_tables_match_the_grothendieck_oracle(label, n, engines):
    """Every row of the +-omega_k tables equals the oracle's product of
    [L(+-omega_k)] with a Grothendieck polynomial; with the opposite sign
    the rows differ."""
    assert _oracle_line_mismatches(SchubertRing(engines.model(label)), n, 1) == []
    assert _oracle_line_mismatches(SchubertRing(engines.model(label)), n, -1)


# -- ideal sheaf classes -----------------------------------------------------------


def test_ideal_class_at_identity(engines):
    r = engines.ring("A2")
    g = engines.group("A2")
    assert r.ideal_sheaf_class(g.identity).coeffs == {g.identity: 1}


def test_ideal_class_rank_one(engines):
    r = engines.ring("A1")
    g = engines.group("A1")
    assert r.ideal_sheaf_class(g.w_o).coeffs == {g.w_o: 1, g.identity: -1}


def test_ideal_class_chi(engines):
    for label in ("A2", "B2"):
        r = engines.ring(label)
        g = engines.group(label)
        m = engines.model(label)
        for w in g.elements:
            chi = m.euler_characteristic(pairing_oracle.to_equiv(r, r.ideal_sheaf_class(w)))
            assert chi == (1 if w is g.identity else 0)


# -- omega classes -------------------------------------------------------------------


def test_omega_class_of_whole_space(engines):
    r = engines.ring("A2")
    g = engines.group("A2")
    m = engines.model("A2")
    got = r.omega_class(g.w_o)
    want = m.expand_in_schubert_basis(pairing_oracle.canonical_class(m)).specialized
    assert got.coeffs == want


def test_omega_class_of_point(engines):
    for label in ("A1", "A2", "B2"):
        r = engines.ring(label)
        g = engines.group(label)
        assert r.omega_class(g.identity).coeffs == {g.identity: 1}


def test_omega_class_rank_one(engines):
    r = engines.ring("A1")
    g = engines.group("A1")
    assert r.omega_class(g.w_o).coeffs == {g.w_o: 1, g.identity: -2}


def test_basis_matrices_unitriangular(engines):
    for label in ("A2", "B2"):
        r = engines.ring(label)
        g = engines.group(label)
        for basis in (IDEAL_BASIS, OMEGA_BASIS, OMEGA_BOUNDARY_BASIS):
            rows = r.basis_matrix(basis)
            for w in g.elements:
                assert rows[w][w] in (1, -1)
                for u in rows[w]:
                    assert g.bruhat_leq(u, w)


def test_basis_change_round_trip(engines):
    from kflag import KClass

    r = engines.ring("B2")
    g = engines.group("B2")
    rng = random.Random(31)
    for basis in (IDEAL_BASIS, OMEGA_BASIS, OMEGA_BOUNDARY_BASIS):
        vec = {w: rng.randint(-4, 4) for w in rng.sample(g.elements, 4)}
        cls = KClass(O_BASIS, {w: c for w, c in vec.items() if c})
        there = r.change_basis(cls, basis)
        back = r.change_basis(there, O_BASIS)
        assert back.coeffs == cls.coeffs


def test_back_solve_on_a_chain():
    from kflag.model import back_solve
    from kflag.reports import _int_exact_div

    rows = {"a": {"a": 1}, "b": {"b": -1, "a": 2}, "c": {"c": 2}}.__getitem__
    coords, residual = back_solve(["a", "b"], {"a": 5, "b": 3, "x": 0}, rows, _int_exact_div)
    assert coords == {"b": -3, "a": 11} and residual == {}
    _, residual = back_solve(["a"], {"a": 1, "b": 4}, rows, _int_exact_div)
    assert residual == {"b": 4}
    with pytest.raises(IntegrityError):
        back_solve(["c"], {"c": 3}, rows, _int_exact_div)


def test_duality_routes_agree(engines):
    """Model-level involution matches the basis-level dualizing formula:
    [O_{X_w}]^* = (-1)^codim [omega_{X_w}] . [L(2 rho)], with the right side
    computed purely from integer tables (omega matrix + structure constants)."""
    for label in ("A2", "B2"):
        r = engines.ring(label)
        g = engines.group(label)
        m = engines.model(label)
        two_rho = tuple(2 * x for x in g.datum.rho)
        l2rho = m.expand_in_schubert_basis(m.line_bundle_class(two_rho)).specialized
        for w in g.elements:
            model_route = m.expand_in_schubert_basis(
                pairing_oracle.dual(m.schubert_class(w))
            ).specialized
            omega_vec = r.omega_class(w).coeffs
            integer_route = r.o_basis_product(omega_vec, l2rho)
            if r.codim(w) % 2:
                integer_route = {u: -c for u, c in integer_route.items()}
            assert model_route == integer_route


# -- pairing and extraction -----------------------------------------------------------


def test_pairing_unit(engines):
    r = engines.ring("A2")
    g = engines.group("A2")
    m = engines.model("A2")
    unit = m.schubert_class(g.w_o)
    assert pairing_oracle.pairing(r, unit, unit) == 1
    rng = random.Random(5)
    for _ in range(3):
        w = rng.choice(g.elements)
        assert pairing_oracle.pairing(r, m.schubert_class(w), unit) == 1


def test_pairing_with_unit_is_chi(engines):
    from test_model import random_valid_class

    r = engines.ring("B2")
    g = engines.group("B2")
    m = engines.model("B2")
    unit = m.schubert_class(g.w_o)
    rng = random.Random(41)
    for _ in range(5):
        f = random_valid_class(m, rng)
        assert pairing_oracle.pairing(r, f, unit) == m.euler_characteristic(f)


def test_line_identity_suite_zero_weights(engines):
    # the additivity recursion degenerates to composition with the identity
    d = engines.datum("A2")
    zero = d.zero_weight()
    rep = engines.ring("A2").verify_line_identities(zero, zero)
    assert rep.ok
    table = engines.ring("A2").line_bundle_coeffs(engines.group("A2").w_o, zero)
    assert table == {engines.group("A2").w_o: 1}


def test_pairing_dual_bases(engines):
    for label in ("A2", "B2"):
        r = engines.ring(label)
        rep = pairing_oracle.verify_dual_bases(r)
        assert rep.ok


def test_extraction_routes_agree(engines):
    r = engines.ring("A2")
    g = engines.group("A2")
    m = engines.model("A2")
    for u in g.elements:
        for v in g.elements:
            f = m.schubert_class(u) * m.schubert_class(v)
            got = pairing_oracle.extract_coefficients_via_pairing(r, f)
            assert got == r.structure_constants(u, v)
    lam = g.datum.fundamental_weight(1)
    f = m.line_bundle_class(lam) * m.schubert_class(g.w_o)
    assert pairing_oracle.extract_coefficients_via_pairing(r, f) == r.line_bundle_coeffs(g.w_o, lam)


# -- Richardson classes ------------------------------------------------------------------


def test_richardson_whole_space_side(engines):
    r = engines.ring("A2")
    g = engines.group("A2")
    for w in g.elements:
        cls = r.richardson_class(g.identity, w)
        assert cls.coeffs == {w: 1}


def test_richardson_point(engines):
    r = engines.ring("A2")
    g = engines.group("A2")
    m = engines.model("A2")
    for w in g.elements:
        cls = r.richardson_class(w, w)
        chi = m.euler_characteristic(pairing_oracle.to_equiv(r, cls))
        assert chi == 1


def test_richardson_incomparable_vanishes(engines):
    r = engines.ring("A2")
    g = engines.group("A2")
    for v in g.elements:
        for w in g.elements:
            if not g.bruhat_leq(v, w):
                assert r.richardson_class(v, w).is_zero()


def test_richardson_sweeps(engines):
    for label in ("A2", "B2", "G2"):
        rep = engines.ring(label).verify_richardson_signs()
        assert rep.ok
        if label == "A2":
            assert rep.checked == 19


def test_richardson_report_solves_once_per_pair(engines, monkeypatch):
    """On A3 the 213 comparable pairs read 110 structure constants, since
    (v, w) and (w_o w, w_o v) share the product of w_o v and w: below
    WALK_PAIRS_PER_ELEMENT |W| = 288, each is solved once, and nothing is
    walked.  The L(-rho) table, which gives both omega-bases, is solved
    nowhere: it is the product of the recursion's L(-omega_i) tables.
    With the sign report, the 300 pairs are one walk and no pair is solved."""
    walks, solves = _spy(monkeypatch)
    ring = SchubertRing(engines.model("A3"))
    rep = ring.verify_richardson_signs()
    assert rep.ok and rep.checked == 213
    assert walks == [] and len(solves) == len(set(solves)) == 110
    # the line suite reads the same L(-rho) table at lambda = rho
    del solves[:]
    ring.line_bundle_coeffs(ring.group.w_o, tuple(-x for x in ring.datum.rho))
    assert solves == []

    signs, again = SchubertRing(engines.model("A3")).verify_sweeps("all")
    assert signs.ok and again.ok and again.checked == 213
    assert walks == [24] and solves == []


def test_richardson_report_checks_the_omega_rows(engines, monkeypatch):
    """The report reads no omega row, but one that is not unitriangular
    still fails it."""
    from kflag import KClass

    ring = SchubertRing(engines.model("A2"))
    monkeypatch.setattr(ring, "omega_class", lambda w: KClass(O_BASIS, {w: 2}))
    with pytest.raises(IntegrityError, match="not unitriangular"):
        ring.verify_richardson_signs()


def test_richardson_report_flags_a_nonzero_empty_intersection(engines):
    """A restriction at u not below w, put into the one-variable row of w,
    makes X^v intersect X_w look nonempty for every v <= u with v not below
    w.  The same row also gives [O_{X^{w_o w}}] a restriction at w_o u, so
    the pairs (w_o w, x) with w_o u <= x and w_o w not below x are flagged
    as well.  The row goes in after a first report has memoized the omega
    rows, which a wrong row would fail to solve; the constants come from
    the recursion, which reads no table row."""
    from kflag import SchubertModel

    g = engines.group("A3")
    model = SchubertModel(g)
    ring = SchubertRing(model)
    assert ring.verify_richardson_signs().ok
    w, u = g.from_word([1, 2]), g.from_word([3, 2])
    assert not g.bruhat_leq(u, w)
    row = model.specialized_schubert_class(w)
    model._rows[w.index] = {**{v.index: p for v, p in row.restrictions.items()},
                            u.index: model.poly.one()}
    rep = ring.verify_richardson_signs()
    leq = g.bruhat_leq
    w_o_w, w_o_u = g.mul(g.w_o, w), g.mul(g.w_o, u)
    want = [
        (v.word, x.word, "nonzero-empty-intersection")
        for x in g.elements
        for v in g.elements
        if not leq(v, x)
        and ((x is w and leq(v, u)) or (v is w_o_w and leq(w_o_u, x)))
    ]
    assert rep.checked == 213
    assert rep.violations == want
    assert {(v, x) for v, x, _ in want} >= {
        (v.word, w.word) for v in g.elements if leq(v, u) and not leq(v, w)
    }


# -- line bundle coefficients ----------------------------------------------------------


def test_line_coeffs_triangular_unital(engines):
    r = engines.ring("B2")
    g = engines.group("B2")
    lam = (1, -2)
    for v in g.elements:
        row = r.line_bundle_coeffs(v, lam)
        assert row.get(v, 0) == 1
        for w in row:
            assert g.bruhat_leq(w, v)


def test_line_coeffs_rank_one(engines):
    r = engines.ring("A1")
    g = engines.group("A1")
    for k in range(0, 4):
        row = r.line_bundle_coeffs(g.w_o, (k,))
        assert row.get(g.identity, 0) == k


def test_line_coeffs_sum_is_weyl_dimension(engines):
    from kflag import weyl_dimension

    r = engines.ring("A2")
    g = engines.group("A2")
    lam = g.datum.fundamental_weight(1)
    row = r.line_bundle_coeffs(g.w_o, lam)
    assert sum(row.values()) == 3 == weyl_dimension(g.datum, lam)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_composed_line_tables_match_the_direct_solve(label, engines):
    """Every weight with coordinates in [-2, 2]: the ring's table, composed
    from the recursion's tables of 0 and +-omega_i, equals the public-API
    solve of each row."""
    model = engines.model(label)
    ring = SchubertRing(model)
    for lam in itertools.product(range(-2, 3), repeat=model.rank):
        assert ring._line_table(lam) == public_line_table(model, lam), lam


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_composed_line_tables_match_the_direct_solve_at_random_weights(label, engines):
    model = engines.model(label)
    ring = SchubertRing(model)
    rng = random.Random(label)
    for _ in range(8):
        lam = tuple(rng.randint(-6, 6) for _ in range(model.rank))
        assert ring._line_table(lam) == public_line_table(model, lam), lam


def test_composed_line_table_matches_a_direct_solve_past_2_31(engines):
    """D4 at 100 omega_1: the public-API solve passes 2^31, and the
    composed table equals it."""
    model = engines.model("D4")
    lam = (100, 0, 0, 0)
    assert SchubertRing(model)._line_table(lam) == public_line_table(model, lam)


def _line_weights(datum) -> list:
    """0, +-omega_i, +-alpha_i and +-rho."""
    units = [f(i) for i in range(1, datum.rank + 1)
             for f in (datum.fundamental_weight, datum.simple_root)]
    return [datum.zero_weight(), *(w for u in (*units, datum.rho) for w in (u, _neg(u)))]


def _line_mismatches(ring) -> list:
    """(weight, v.word) for each row of the ring's tables of ``_line_weights``
    that differs from the public-API solve."""
    out = []
    for lam in _line_weights(ring.datum):
        got, want = ring._line_table(lam), public_line_table(ring.model, lam)
        out += [(lam, v.word) for v in ring.group.elements if got[v] != want[v]]
    return out


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4"])
def test_the_line_recursion_equals_the_public_solve_on_every_row(engines, label):
    """The recursion's tables and those composed from them equal the
    public-API solve, and each row of 0 and +-omega_i is held in
    descending element index, the order of a solve."""
    ring = SchubertRing(engines.model(label))
    assert _line_mismatches(ring) == []
    for lam in _line_weights(ring.datum):
        if not _line_parts(lam):
            for row in ring._line_table(lam).values():
                assert [w.index for w in row] == sorted((w.index for w in row), reverse=True)


@pytest.mark.parametrize("label", ["A2", "A3", "B3", "C3", "G2", "D4"])
def test_the_walk_makes_its_e_i_tables_directly(engines, label):
    """The walk's e_i tables, the line tables of -alpha_i made by one
    recursion each and keyed by element index, equal the ones the memo
    composes from the parts of -alpha_i."""
    ring = SchubertRing(engines.model(label))
    for i in range(1, ring.datum.rank + 1):
        lam = _neg(ring.datum.simple_root(i))
        assert _line_parts(lam)
        composed = ring._line_table(lam)
        assert _demazure_line_table(ring, lam) == [
            {w.index: c for w, c in composed[v].items()} for v in ring.group.elements]


def _string_from_one_below_zero(mu, alpha, n):
    """The alpha_i-string with its n < 0 sum taken over j = 1..-n."""
    sign, weights = _alpha_string(mu, alpha, n)
    return sign, [_add(w, alpha) for w in weights] if n < 0 else weights


_LINE_MUTATIONS = {
    "l_{+nu}-for-l_{-nu}": lambda patch: patch.setattr(
        "kflag.reports._demazure_line_table",
        lambda ring, lam: _demazure_line_table(ring, _neg(lam))),
    "n<0-sum-over-j=1..-n": lambda patch: patch.setattr(
        "kflag.ring._alpha_string", _string_from_one_below_zero),
    "alpha_i-string-dropped": lambda patch: patch.setattr(
        "kflag.ring._alpha_string", lambda mu, alpha, n: (1, [])),
}


@pytest.mark.parametrize("mutation", list(_LINE_MUTATIONS))
def test_the_line_equality_catches_a_broken_rule(engines, monkeypatch, mutation):
    _LINE_MUTATIONS[mutation](monkeypatch)
    assert _line_mismatches(SchubertRing(engines.model("A3")))


def test_a_weight_of_the_wrong_length_is_refused(engines):
    ring = SchubertRing(engines.model("A2"))
    for lam in ((1,), (1, 0, 0)):
        with pytest.raises(ConfigError, match="weight has wrong length"):
            ring.line_bundle_coeffs(ring.group.w_o, lam)


def test_no_line_table_is_solved(engines, monkeypatch):
    """The model's one-variable solve is never called while the tables of
    the default D4 line sweep are made, nor while the B4 tables of the
    -alpha_i are composed."""
    from kflag.cli import _default_line_sweep

    calls = []
    solve = SchubertModel.integer_coefficients
    monkeypatch.setattr(SchubertModel, "integer_coefficients",
                        lambda *args: calls.append(args) or solve(*args))
    ring = SchubertRing(engines.model("D4"))
    sweep = _default_line_sweep(ring.datum)
    for lam in sweep:
        for mu in sweep:
            for weight in (lam, _neg(lam), _add(lam, mu)):
                ring._line_table(weight)
    ring = SchubertRing(engines.model("B4"))
    for i in range(1, ring.datum.rank + 1):
        ring._line_table(_neg(ring.datum.simple_root(i)))
    assert calls == []


def test_line_sweep_solves_only_the_fundamental_tables(engines, monkeypatch):
    """The default D4 line sweep asks the recursion for 2r + 1 tables,
    those of 0 and +-omega_i, once each; every other table is composed."""
    from kflag.cli import _default_line_sweep

    asked = []
    monkeypatch.setattr("kflag.reports._demazure_line_table",
                        lambda ring, lam: asked.append(lam) or _demazure_line_table(ring, lam))
    ring = SchubertRing(engines.model("D4"))
    sweep = _default_line_sweep(ring.datum)
    for lam in sweep:
        for mu in sweep:
            assert ring.verify_line_identities(lam, mu).ok
    d = ring.datum
    units = [d.fundamental_weight(i) for i in range(1, d.rank + 1)]
    assert sorted(asked) == sorted([d.zero_weight(), *units, *(_neg(u) for u in units)])


def test_the_default_line_sweep_composes_each_table_once(engines, monkeypatch):
    """The default A3 line sweep makes 1,872 row products of line tables
    and basis rows: the tables it composes are kept, so none is composed
    twice.  The products by e_i D_i in the constants of the
    fundamental-weight lemma run in ``kflag.ring``, not here, and are not
    counted."""
    import kflag.reports
    from kflag.cli import _default_line_sweep

    products = []
    monkeypatch.setattr(kflag.reports, "_row_times",
                        lambda row, table: products.append(1) or _row_times(row, table))
    ring = SchubertRing(engines.model("A3"))
    sweep = _default_line_sweep(ring.datum)
    for lam in sweep:
        for mu in sweep:
            assert ring.verify_line_identities(lam, mu).ok
    assert len(products) == 1872


def test_a_large_weight_leaves_only_itself_and_the_model_tables(engines, monkeypatch):
    """B2 at (2^20 - 1) rho: each weight of its halving chain is composed
    once in the call, and afterwards the memo holds the weight asked for,
    the model's tables of +-omega_i and the chain's weights with
    coordinates in {-1, 0, 1}, none of the larger ones.  The table equals
    the one composed along (2^20 - 2) rho + rho, another chain."""
    import kflag.reports

    model = engines.model("B2")
    ring = SchubertRing(model)
    lam = (2**20 - 1, 2**20 - 1)
    chain, todo = {lam}, [lam]
    while todo:
        for p in _line_parts(todo.pop()):
            if _line_parts(p) and p not in chain:
                chain.add(p)
                todo.append(p)
    assert len(chain) > 20
    products = []
    monkeypatch.setattr(kflag.reports, "_row_times",
                        lambda row, table: products.append(1) or _row_times(row, table))
    table = ring._line_table(lam)
    assert len(products) == len(model.group) * sum(len(_line_parts(w)) - 1 for w in chain)
    units = [ring.datum.fundamental_weight(i) for i in (1, 2)]
    small = {w for w in chain if max(map(abs, w)) <= 1}
    assert small and set(ring._line_memo) == {lam, *units, *map(_neg, units), *small}
    monkeypatch.undo()
    other = SchubertRing(model)
    left = other._line_table((2**20 - 2, 2**20 - 2))
    right = other._line_table(ring.datum.rho)
    assert table == {v: _row_times(row, right) for v, row in left.items()}


def test_line_identity_suite(engines):
    # G2 and A3 exercise unequal root lengths and a nontrivial w_o-action
    for label in ("A2", "B2", "G2", "A3"):
        d = engines.datum(label)
        rep = engines.ring(label).verify_line_identities(
            d.fundamental_weight(1), d.fundamental_weight(2)
        )
        assert rep.ok, rep.violations[:3]


# -- parabolic constants --------------------------------------------------------------


def test_projective_plane_product(engines):
    r = engines.ring("A2")
    g = engines.group("A2")
    p = g.parabolic([2])
    s1 = g.from_word([1])
    assert r.parabolic_structure_constants(p, s1, s1) == {g.identity: 1}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_projective_space_calculus(n, engines):
    label = f"A{n}"
    r = engines.ring(label)
    g = engines.group(label)
    p = g.parabolic(list(range(2, n + 1)))
    reps = sorted(p.min_reps, key=lambda w: w.length)
    assert len(reps) == n + 1
    for a, u in enumerate(reps):
        for b in range(a, n + 1):
            v = reps[b]
            cs = r.parabolic_structure_constants(p, u, v)
            if a + b >= n:
                assert cs == {reps[a + b - n]: 1}
            else:
                assert cs == {}


def test_grassmannian_one_box_square(engines):
    """On Gr(2,4): square of the codimension-one class equals the sum of the
    two codimension-two classes minus the codimension-three class."""
    r = engines.ring("A3")
    g = engines.group("A3")
    p = g.parabolic([1, 3])
    reps = sorted(p.min_reps, key=lambda w: (w.length, w.key))
    by_len = {}
    for w in reps:
        by_len.setdefault(w.length, []).append(w)
    dim = r.parabolic_dimension(p)
    assert dim == 4
    box = by_len[3][0]  # codimension 1 <-> dimension 3
    cs = r.parabolic_structure_constants(p, box, box)
    want = {w: 1 for w in by_len[2]}
    want.update({w: -1 for w in by_len[1]})
    assert cs == want
    assert len(by_len[2]) == 2 and len(by_len[1]) == 1


def test_parabolic_requires_min_reps(engines):
    r = engines.ring("A2")
    g = engines.group("A2")
    p = g.parabolic([2])
    with pytest.raises(ConfigError):
        r.parabolic_structure_constants(p, g.from_word([2]), g.identity)


def test_parabolic_sign_sweep(engines):
    r = engines.ring("A3")
    g = engines.group("A3")
    rep = r.verify_alternating_signs(parabolic=g.parabolic([1, 3]))
    assert rep.ok
    assert rep.checked == 6**3


# -- sign sweeps --------------------------------------------------------------------------


def test_sign_sweep_rank_one_triple_count(engines):
    rep = engines.ring("A1").verify_alternating_signs()
    assert rep.ok
    assert rep.checked == 8


def _scrambled_sweep(monkeypatch, keys, seed) -> dict:
    """Make ``verify_sweeps`` read made-up constants: every pair of the
    rows it asks for, in a shuffled order, with random signs on 6 of
    ``keys``, listed in no particular order.  Returns the rows fed, by
    (a, b)."""
    rng, fed = random.Random(seed), {}

    def scrambled(ring, rows):
        pairs = [(a, b) for b in rows for a in rows[b]]
        rng.shuffle(pairs)
        for a, b in pairs:
            fed[a, b] = {x: rng.choice([-2, -1, 1, 3]) for x in rng.sample(keys, 6)}
            yield a, b, fed[a, b]

    monkeypatch.setattr("kflag.reports._sweep", scrambled)
    return fed


def _sign_violations(labels, lift, codim, fed) -> list:
    """The sign violations of the rows ``fed``, pair by pair in label
    order and each pair over every w in label order, as a check of every
    w would list them; ``lift`` maps a label to the index of its G/B pair."""
    want = []
    for i, u in enumerate(labels):
        for v in labels[i:]:
            cs = fed[tuple(sorted((lift[u], lift[v])))]
            for w in labels:
                c = cs.get(lift[w], 0)
                n = codim[w] - codim[u] - codim[v]
                if (n < 0 and c != 0) or (c and (c > 0) != (n % 2 == 0)):
                    want.append((u.word, v.word, w.word, c, n))
    return want


def test_sweeps_report_violations_in_label_order(engines, monkeypatch):
    """Only nonzero constants are checked, and rows come in any order; each
    report still lists every violation once, in the order of the group's
    elements: the sign report pair by pair, the Richardson report by
    (w, v) with a pair's O-basis failures before its omega-basis ones, each
    by descending u, and a row serving (v, w) and (w_o w, w_o v) is read
    for both."""
    ring = SchubertRing(engines.model("A3"))
    group = ring.group
    labels = list(group.elements)
    fed = _scrambled_sweep(monkeypatch, range(len(labels)), 5)
    signs, rich = ring.verify_sweeps("all")
    assert len(fed) == 300
    want = _sign_violations(labels, {w: w.index for w in labels},
                            {w: ring.codim(w) for w in labels}, fed)
    assert want and signs.violations == want

    want = []
    for w in labels:
        for v in labels:
            if not group.bruhat_leq(v, w):
                continue
            cs = fed[tuple(sorted((group.mul(group.w_o, v).index, w.index)))]
            dim_y = w.length - v.length
            coeffs = [(labels[x], cs[x]) for x in sorted(cs, reverse=True)]
            bad = [(u, c, (-1) ** (dim_y - u.length) * c) for u, c in coeffs
                   if (-1) ** (dim_y - u.length) * c < 0]
            want += [(v.word, w.word, u.word, c, dim_y - u.length) for u, c, _ in bad]
            want += [(v.word, w.word, u.word, omega, "omega-basis") for u, _, omega in bad]
    assert want and rich.checked == 213 and rich.violations == want


def test_a_parabolic_sweep_reports_violations_in_label_order(engines, monkeypatch):
    """The G/P sign report reads each pair of minimal representatives off
    the G/B row of the pair lifted by w_{o,P}, whichever of the two lifts
    has the lower index, and lists its violations in label order."""
    ring = SchubertRing(engines.model("D4"))
    group = ring.group
    pdata = group.parabolic([1, 3])
    labels = list(pdata.min_reps)
    lift = {u: group.mul(u, pdata.longest_in_parabolic).index for u in labels}
    assert any(lift[u] > lift[v] for i, u in enumerate(labels) for v in labels[i + 1:])
    fed = _scrambled_sweep(monkeypatch, sorted(lift.values()), 6)
    rep = ring.verify_alternating_signs(pdata)
    assert len(fed) == 48 * 49 // 2 and rep.checked == 48 ** 3
    dim = ring.parabolic_dimension(pdata)
    want = _sign_violations(labels, lift, {w: dim - w.length for w in labels}, fed)
    assert want and rep.violations == want


# -- the Demazure recursion against the solve ----------------------------------------------


_SOLVED = {}  # (group, u.index, v.index) -> the model's solve of (u, v), unpatched


def _solved(model, u, v) -> dict:
    """``model.structure_constants(u, v)``, solved once per group and pair
    for every test that compares with it; a test that patches a rule passes
    ``SchubertModel.structure_constants`` instead, so that it solves its own."""
    key = model.group, u.index, v.index
    got = _SOLVED.get(key)
    if got is None:
        got = _SOLVED[key] = model.structure_constants(u, v)
    return got


def _mismatches(ring, pairs, solve=_solved) -> list:
    """The pairs (u, v), in either order, whose column of the walk differs
    from the solve of (u, v), ``solve(model, u, v)``.  Both orders are held
    against one solve, so an empty list also shows that the columns commute."""
    wanted = {}
    for u, v in pairs:
        want = {w.index: c for w, c in solve(ring.model, u, v).items()}
        wanted.setdefault(v.index, []).append((u, v, want))
        wanted.setdefault(u.index, []).append((v, u, want))
    bad = []
    try:
        for index, column in _columns(ring, wanted):
            bad += [(a.word, b.word) for a, b, want in wanted[index] if column[a.index] != want]
    except IntegrityError as err:  # a wrong column of w_o, which no pair reads
        bad.append(str(err))
    return bad


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4"])
def test_the_walk_equals_the_solve_on_every_pair(engines, label):
    ring = SchubertRing(engines.model(label))
    assert _mismatches(ring, _all_pairs(ring.group)) == []


@pytest.mark.parametrize("label, seed", [("B4", 20261), ("C4", 20262)])
def test_the_walk_equals_the_solve_on_a_sample(engines, label, seed):
    elements = engines.group(label).elements
    rng = random.Random(seed)
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(300)]
    assert _mismatches(SchubertRing(engines.model(label)), pairs) == []


def recursion_mismatches(model, pairs, both_orders: bool = True, solve=_solved) -> list:
    """The pairs (u, v) whose constants by ``structure_constants`` of a
    fresh ring (the recursion down the shorter factor, key order
    included) or, with ``both_orders``, by ``_pair_product`` down the
    longer factor differ from the model's solve, ``solve(model, u, v)``,
    or whose solved constants do not sum to chi(psi_u psi_v) =
    [w_o u <= v].  A pair whose recursion fails its own sum check counts
    as a mismatch."""
    group, bad = model.group, []
    for u, v in pairs:
        want = solve(model, u, v)
        by_index = {w.index: c for w, c in want.items()}
        short, long = sorted((u.index, v.index))
        try:
            ok = (list(SchubertRing(model).structure_constants(u, v).items()) == list(want.items())
                  and (not both_orders or _pair_product(model, long, short) == by_index))
        except IntegrityError:
            ok = False
        if not ok or sum(want.values()) != group.bruhat_leq(group.mul(group.w_o, u), v):
            bad.append((u.word, v.word))
    return bad


def _fresh_model(engines, label):
    """A model of ``label`` with its table built and no e_i rows memoized,
    so that a patched rule reaches every row and no shared model keeps one."""
    model = SchubertModel(engines.group(label))
    model._rows  # the table is built on first read
    return model


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2"])
def test_the_recursion_equals_the_solve_on_every_pair(engines, label):
    model = _fresh_model(engines, label)
    assert recursion_mismatches(model, _all_pairs(model.group)) == []


def test_the_recursion_equals_the_solve_on_every_d4_pair(engines):
    model = _fresh_model(engines, "D4")
    assert recursion_mismatches(model, _all_pairs(model.group), both_orders=False) == []


def test_the_recursion_equals_the_solve_on_a_reducible_group():
    """A2 x A1 from a block Cartan matrix, as ``--cartan`` gives it: w_o is
    the product of the blocks' longest elements, and every pair holds."""
    from kflag import WeylGroup, root_datum_from_cartan

    model = SchubertModel(WeylGroup(root_datum_from_cartan([[2, -1, 0], [-1, 2, 0], [0, 0, 2]])))
    assert recursion_mismatches(model, _all_pairs(model.group)) == []


@pytest.mark.parametrize("label, seed", [("B4", 20263), ("C4", 20264)])
def test_the_recursion_equals_the_solve_on_a_sample(engines, label, seed):
    elements = engines.group(label).elements
    rng = random.Random(seed)
    pairs = [(rng.choice(elements), rng.choice(elements)) for _ in range(300)]
    assert recursion_mismatches(engines.model(label), pairs) == []


def _without_minus_high(low, high, *rest):
    """(R2) with its -psi_u' psi_v' term dropped."""
    out = dict(_rule_two(low, high, *rest))
    for y, c in high.items():
        out[y] = out.get(y, 0) + c
    return {y: c for y, c in out.items() if c}


_MUTATIONS = {
    "e_i-as-L(+alpha_i)": lambda patch: patch.setattr(
        RootDatum, "simple_root", lambda self, i, real=RootDatum.simple_root: _neg(real(self, i))),
    "R2-without-minus-psi_u'psi_v'": lambda patch: patch.setattr(
        "kflag.ring._rule_two", _without_minus_high),
    "D_i-lifts-descents": lambda patch: patch.setattr(
        "kflag.ring._demazure", lambda row, partner: {partner[y]: c for y, c in row.items()}),
    "e_iD_i-relabelled-by-min": lambda patch: patch.setattr(
        "kflag.ring._e_after_d", _e_after_d_by_min),
}


#: how each broken rule fails the walked A3 sweep: three move some sum of
#: constants off chi; lifting descents keeps every sum but not column w_o
_WALK_FAILURES = {
    "e_i-as-L(+alpha_i)": r"^constants of .* not chi$",
    "R2-without-minus-psi_u'psi_v'": r"^constants of .* not chi$",
    "D_i-lifts-descents": r"^the walk's column of w_o is not psi_u at u = \[[\d, ]*\]$",
    "e_iD_i-relabelled-by-min": r"^constants of .* not chi$",
}


@pytest.mark.parametrize("mutation", list(_MUTATIONS))
def test_a_broken_rule_fails_the_sum_rule_of_a_walked_sweep(engines, monkeypatch, mutation):
    """Each of the four broken rules makes the A3 sweep, which walks, raise
    an integrity error instead of reporting false violations."""
    model = _fresh_model(engines, "A3")
    _MUTATIONS[mutation](monkeypatch)
    with pytest.raises(IntegrityError, match=_WALK_FAILURES[mutation]):
        SchubertRing(model).verify_alternating_signs()


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "A4"])
def test_lifting_descents_fails_column_w_o_of_a_walked_sweep(engines, monkeypatch, label):
    """A D_i that lifts descents keeps every sum of constants, and without
    the check of column w_o the sign sweeps of A3, B3, D4 and A4 report
    116, 1,152, 51,898 and 10,808 false violations; the walk refuses the
    column instead, once, as its one-line integrity error."""
    walks, solves = _spy(monkeypatch)
    _MUTATIONS["D_i-lifts-descents"](monkeypatch)
    with pytest.raises(IntegrityError, match=_WALK_FAILURES["D_i-lifts-descents"]):
        SchubertRing(SchubertModel(engines.group(label))).verify_alternating_signs()
    assert walks == [len(engines.group(label))] and solves == []


def _e_after_d_by_min(model, i):
    """The table of e_i D_i with row y read at min(y, y s_i)."""
    alpha, memo = model.datum.simple_root(i + 1), {}
    return [_line_row(model, memo, alpha, min(y, x)) for y, x in enumerate(model.group._right[i])]


@pytest.mark.parametrize("mutation", list(_MUTATIONS))
def test_the_a3_equality_catches_a_broken_rule(engines, monkeypatch, mutation):
    model = _fresh_model(engines, "A3")
    _MUTATIONS[mutation](monkeypatch)
    assert _mismatches(SchubertRing(model), _all_pairs(model.group),
                       SchubertModel.structure_constants)


@pytest.mark.parametrize("mutation", list(_MUTATIONS))
def test_the_a3_recursion_equality_catches_a_broken_rule(engines, monkeypatch, mutation):
    model = _fresh_model(engines, "A3")
    _MUTATIONS[mutation](monkeypatch)
    assert recursion_mismatches(model, _all_pairs(model.group),
                                solve=SchubertModel.structure_constants)


def _plant_e_row(model, words=([1],)) -> None:
    """Add 1 to the coefficient of psi_e in the model's e_1 row at each
    element of ``words``; the one at s_1 is read by the recursion of
    [1] x [1, 2]."""
    alpha = model.datum.simple_root(1)
    for word in words:
        v = model.group.from_word(word).index
        row = _line_row(model, {}, alpha, v)
        model._e_rows[alpha, v] = {**row, 0: row.get(0, 0) + 1}


#: e_1 rows whose plant reaches the walk: with no sum check there, the
#: sign sweeps of A3, B3, D4 and D4 on P = {1} report 66, 263, 8,934 and
#: 1,880 violations, a false counterexample in place of an integrity error
WALKED_PLANTS = ([1], [2, 1], [1, 2, 1])


def test_a_planted_e_i_row_fails_the_sum_rule(engines):
    """A wrong e_1 row in the A2 model's memo moves the sum of the
    constants of [1] x [1, 2] off chi = 1: an integrity failure, in
    either order, on any ring over that model."""
    model = SchubertModel(engines.group("A2"))
    _plant_e_row(model)
    u, v = model.group.from_word([1]), model.group.from_word([1, 2])
    for a, b in ((u, v), (v, u)):
        with pytest.raises(IntegrityError, match="sum to 0"):
            SchubertRing(model).structure_constants(a, b)


@pytest.mark.parametrize("label, subset", [("A3", None), ("B3", None), ("D4", None), ("D4", [1])])
def test_planted_e_i_rows_fail_the_sum_rule_through_the_walk(engines, monkeypatch, label, subset):
    """Wrong e_1 rows reach a sweep's constants through the walk, which
    checks each against the sum rule as ``structure_constants`` does: the
    sweep raises an integrity error, with no pair computed alone, instead
    of reporting the wrong constants as sign violations."""
    model = SchubertModel(engines.group(label))
    _plant_e_row(model, WALKED_PLANTS)
    parabolic = subset and model.group.parabolic(subset)
    walks, solves = _spy(monkeypatch)
    with pytest.raises(IntegrityError, match=r"^constants of \[.*\] x \[.*\] sum to -?\d+, not chi$"):
        SchubertRing(model).verify_alternating_signs(parabolic)
    assert len(walks) == 1 and solves == []


def test_lifting_descents_in_the_shared_d_i_breaks_the_line_recursion(engines, monkeypatch):
    """The walk's D_i is the line recursion's: the mutation that breaks the
    A3 walk equality above also breaks every +-omega_i table."""
    ring = SchubertRing(_fresh_model(engines, "A3"))
    _MUTATIONS["D_i-lifts-descents"](monkeypatch)
    for i in range(1, ring.datum.rank + 1):
        omega = ring.datum.fundamental_weight(i)
        for lam in (omega, _neg(omega)):
            got, want = ring._line_table(lam), public_line_table(ring.model, lam)
            assert any(got[v] != want[v] for v in ring.group.elements), lam


def test_a_sweep_leaves_no_per_pair_state(engines):
    """After both A4 sweeps, 7,260 pairs, the ring holds nothing that grows
    with the number of pairs: each of its memos has at most |W| = 120
    entries.  The Richardson report reads comparability from the group's
    interval masks, so the group's Bruhat memo gains no entry."""
    group = engines.group("A4")
    ring = SchubertRing(SchubertModel(group))
    before = dict(group._bruhat_memo)
    signs, rich = ring.verify_sweeps("all")
    assert signs.ok and rich.ok and rich.checked > len(group)
    assert group._bruhat_memo == before
    sizes = {name: len(value) for name, value in vars(ring).items()
             if isinstance(value, (dict, list, tuple))}
    assert sizes and max(sizes.values()) <= len(group), sizes


def _spy(monkeypatch) -> tuple[list, list]:
    """(walks, solves): one entry per ``_columns`` walk, its wanted columns,
    and one per pair computed alone, by ``_pair_product``."""
    walks, solves = [], []
    monkeypatch.setattr("kflag.ring._columns",
                        lambda ring, wanted: walks.append(len(wanted)) or _columns(ring, wanted))
    monkeypatch.setattr("kflag.ring._pair_product",
                        lambda model, u, v: solves.append((u, v)) or _pair_product(model, u, v))
    return walks, solves


def test_a_sweep_walks_from_k_pairs_per_element_and_solves_below(engines, monkeypatch):
    """G2's 78 pairs are below WALK_PAIRS_PER_ELEMENT |W| = 144 and are
    computed one by one; A3's 300 reach 288 and come off one walk, which
    the Richardson report shares when both run."""
    walks, solves = _spy(monkeypatch)
    assert SchubertRing(engines.model("G2")).verify_alternating_signs().ok
    assert walks == [] and len(solves) == len(set(solves)) == 78
    del solves[:]
    ring = SchubertRing(engines.model("A3"))
    assert ring.verify_alternating_signs().ok
    assert walks == [24] and solves == []
    assert all(rep.ok for rep in ring.verify_sweeps("all"))
    assert walks == [24, 24] and solves == []


@pytest.mark.parametrize("threshold", [0, 10**9])
def test_a_swept_row_equals_the_solved_one(engines, monkeypatch, threshold):
    """Walked (threshold 0) or solved pair by pair, ``_sweep`` yields each
    pair it is asked for once, as the model's solve by element index, and
    ``structure_constants`` keeps the solve's key order."""
    monkeypatch.setattr("kflag.ring.WALK_PAIRS_PER_ELEMENT", threshold)
    ring = SchubertRing(engines.model("A3"))
    elements = ring.group.elements
    got = [(a, b, row) for a, b, row in _sweep(ring, {b: range(b + 1) for b in range(24)})]
    assert sorted((b, a) for a, b, _ in got) == [(b, a) for b in range(24) for a in range(b + 1)]
    for a, b, row in got:
        want = ring.model.structure_constants(elements[a], elements[b])
        assert row == {w.index: c for w, c in want.items()}
        assert list(ring.structure_constants(elements[b], elements[a]).items()) == list(want.items())


def _recorded_sweep(monkeypatch) -> dict:
    """Every row ``verify_sweeps`` reads, by (a, b), as ``_sweep`` made it."""
    import kflag.reports

    seen, sweep = {}, kflag.reports._sweep

    def record(ring, rows):
        for a, b, row in sweep(ring, rows):
            assert (a, b) not in seen
            seen[a, b] = row
            yield a, b, row

    monkeypatch.setattr(kflag.reports, "_sweep", record)
    return seen


_SWEEPS = {
    "A2-all": ("A2", None, "all"),
    "A3-all": ("A3", None, "all"),
    "A3-signs-P13": ("A3", [1, 3], "signs"),
    "A3-all-P13": ("A3", [1, 3], "all"),
    "A3-richardson": ("A3", None, "richardson"),
    "B3-all": ("B3", None, "all"),
    "D4-signs-P1": ("D4", [1], "signs"),
}


@pytest.mark.parametrize("sweep", list(_SWEEPS))
def test_sweeps_walked_equal_sweeps_solved(engines, monkeypatch, sweep):
    """Each sweep reports the same from constants walked as from per-pair
    solves, and reads the same rows, on fresh rings."""
    label, subset, which = _SWEEPS[sweep]
    seen = _recorded_sweep(monkeypatch)
    parabolic = subset and engines.group(label).parabolic(subset)
    reports, rows = {}, {}
    for threshold in (10**9, 0):
        monkeypatch.setattr("kflag.ring.WALK_PAIRS_PER_ELEMENT", threshold)
        reports[threshold] = [(rep.name, rep.ok, rep.checked, rep.violations) for rep in
                              SchubertRing(engines.model(label)).verify_sweeps(which, parabolic)]
        rows[threshold] = dict(seen)
        seen.clear()
    assert all(ok for _, ok, _, _ in reports[0]) and rows[0]
    assert reports[0] == reports[10**9] and rows[0] == rows[10**9]
