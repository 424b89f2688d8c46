"""The specialize-first integer path against the multivariate reference.

``SchubertModel.integer_coefficients`` solves in one variable t after
e^lam -> t^<lam, k>; ``expand_in_schubert_basis`` solves in the full
Laurent ring.  Specialization is a ring homomorphism that keeps every
pivot nonzero, so the integers must agree exactly on every class.
"""
from __future__ import annotations

import pytest

from kflag import EquivClass, LaurentPoly, NotDivisibleError, UniPoly
from kflag.cli import _default_line_sweep
from kflag.ring import _sweep
from kflag.univariate import poly_divexact

import pairing_oracle


def reference(model, f: EquivClass) -> dict:
    return model.expand_in_schubert_basis(f).specialized


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "G2"])
def test_every_product_matches_the_multivariate_route(label, engines):
    m, g, r = engines.model(label), engines.group(label), engines.ring(label)
    for u in g.elements:
        for v in g.elements:
            prod = m.schubert_class(u) * m.schubert_class(v)
            want = reference(m, prod)
            assert m.integer_coefficients(m.specialize(prod)) == want
            assert r.structure_constants(u, v) == want


def _stratified_pairs(group, count: int):
    """``count`` unordered pairs spread evenly over all pairs ordered by
    (l(u) + l(v), u, v), so every length stratum is represented."""
    els = group.elements
    pairs = sorted(
        ((u, v) for i, u in enumerate(els) for v in els[i:]),
        key=lambda p: (p[0].length + p[1].length, p[0].index, p[1].index),
    )
    step = (len(pairs) - 1) / (count - 1)
    return [pairs[round(k * step)] for k in range(count)]


@pytest.mark.parametrize("label", ["B3", "C3"])
def test_stratified_sample_matches_the_multivariate_route(label, engines):
    m, g, r = engines.model(label), engines.group(label), engines.ring(label)
    pairs = _stratified_pairs(g, 50)
    assert len(set(pairs)) == 50
    for u, v in pairs:
        want = reference(m, m.schubert_class(u) * m.schubert_class(v))
        assert r.structure_constants(u, v) == want


@pytest.mark.parametrize("label", ["A3", "G2"])
def test_richardson_classes_match_the_multivariate_route(label, engines):
    m, g, r = engines.model(label), engines.group(label), engines.ring(label)
    for w in g.elements:
        for v in g.elements:
            opposite = pairing_oracle.opposite_schubert_class(m, v)
            prod = opposite * m.schubert_class(w)
            assert r.richardson_class(v, w).coeffs == reference(m, prod)
            if not g.bruhat_leq(v, w):
                continue
            codim = v.length + r.codim(w)
            spec = m.specialize(opposite) * m.specialized_schubert_class(w)
            twisted = pairing_oracle.specialized_twist(r, spec, codim)
            assert twisted == m.specialize(pairing_oracle.dualizing_twist(r, prod, codim))
            assert m.integer_coefficients(twisted) == reference(
                m, pairing_oracle.dualizing_twist(r, prod, codim)
            )


@pytest.mark.parametrize("label", ["A3", "G2"])
def test_omega_classes_match_the_multivariate_route(label, engines):
    m, g, r = engines.model(label), engines.group(label), engines.ring(label)
    for w in g.elements:
        codim = r.codim(w)
        assert r.omega_class(w).coeffs == reference(
            m, pairing_oracle.dualizing_twist(r, m.schubert_class(w), codim)
        )
        assert r.omega_boundary_class(w).coeffs == reference(
            m, pairing_oracle.dualizing_twist(r, pairing_oracle.ideal_equiv(r, w), codim)
        )


@pytest.mark.parametrize("label", ["A3", "G2"])
def test_line_classes_of_the_default_sweep_match(label, engines):
    """Every weight the default line sweep reads: lambda, -lambda and
    lambda + mu over the sweep, which includes every -omega_i of the
    Chevalley check."""
    d, m, g, r = engines.datum(label), engines.model(label), engines.group(label), engines.ring(label)
    sweep = _default_line_sweep(d)
    weights = set(sweep)
    weights.update(tuple(-x for x in lam) for lam in sweep)
    weights.update(tuple(a + b for a, b in zip(lam, mu)) for lam in sweep for mu in sweep)
    for lam in sorted(weights):
        lclass = m.line_bundle_class(lam)
        assert m.integer_coefficients(m.specialize(lclass)) == reference(m, lclass)
        for v in g.elements:
            want = reference(m, lclass * m.schubert_class(v))
            assert r.line_bundle_coeffs(v, lam) == want


def test_class_outside_the_span_raises(engines):
    m = engines.model("A1")
    g = engines.group("A1")
    bad = EquivClass(1, {g.identity: LaurentPoly.one(1)})
    with pytest.raises(NotDivisibleError):
        m.integer_coefficients(m.specialize(bad))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4"])
def test_one_variable_table_is_the_specialized_table(label, engines):
    """The Demazure build in Z[t^+-1] gives specialize() of every row of the
    build in the weight lattice, restriction for restriction."""
    m, g = engines.model(label), engines.group(label)
    for w in g.elements:
        assert m.specialized_schubert_class(w) == m.specialize(m.schubert_class(w))


def test_laurent_table_is_lazy(engines):
    from kflag import SchubertModel

    g = engines.group("B2")
    m = SchubertModel(g)
    assert m._schubert is None
    m.integer_coefficients(m.specialized_schubert_class(g.w_o))
    assert m._schubert is None
    row = m.schubert_class(g.w_o)
    assert m._schubert is not None
    assert m.schubert_class(g.w_o) is row
    assert m.specialize(row) == m.specialized_schubert_class(g.w_o)


def test_integer_queries_never_build_the_laurent_table():
    """One call of each integer query the CLI exposes, on A3."""
    from kflag import SchubertModel, SchubertRing, WeylGroup, build_root_datum

    g = WeylGroup(build_root_datum("A", 3))
    model = SchubertModel(g)
    ring = SchubertRing(model)
    ring.structure_constants(g.from_word([1, 3, 2]), g.from_word([2, 3]))
    ring.line_bundle_coeffs(g.from_word([1, 2, 3]), (1, 1, 1))
    ring.line_bundle_coeffs(g.from_word([2, 1, 3]), (0, -1, 1))
    rep = g.from_word([1, 3, 2])
    ring.parabolic_structure_constants(g.parabolic([1, 3]), rep, rep)
    ring.richardson_class(g.from_word([2]), g.from_word([1, 2, 3, 2]))
    ring.richardson_class(g.from_word([1, 2]), g.from_word([2]))
    assert model._schubert is None


@pytest.mark.parametrize("via", ["--cache-dir", "KFLAG_CACHE_DIR"])
@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--u", "1,3,2", "--v", "2,3"],
        ["line-coeffs", "--v", "2,1,3", "--lambda=0,-1,1"],
        ["parabolic-constants", "--parabolic", "1,3", "--u", "1,3,2", "--v", "1,3,2"],
        ["richardson", "--u", "2", "--v", "1,2,3,2"],
        ["describe", "--parabolic", "1,3"],
        pytest.param(["verify", "--which", "signs"], id="verify-signs"),
        pytest.param(["verify", "--which", "line"], id="verify-line"),
        pytest.param(["verify", "--which", "richardson"], id="verify-richardson"),
        pytest.param(["verify", "--which", "all"], id="verify-all"),
    ],
    ids=lambda argv: argv[0],
)
def test_integer_commands_never_build_the_laurent_table(argv, via, monkeypatch, capsys, tmp_path):
    """No command builds the weight-lattice table, and only ``verify``
    reads the one-variable one.  With no cache only ``verify`` builds it.
    With a cache set by ``via``, a cold call of any command builds and
    writes the table, in the bytes ``verify`` writes.  Warm, ``verify``
    loads the file and rewrites a corrupt one with one warning; every
    other command calls no ``cache_load``, builds no table, writes nothing
    to stderr and leaves the file as it was, corrupt or not."""
    import kflag.cli
    from kflag import SchubertModel
    from kflag.cli import CACHE_ENV_VAR, main

    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    models, loads = [], []
    init, load = SchubertModel.__init__, kflag.cli.cache_load

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        models.append(self)

    def spy_load(*args):
        loads.append(load(*args))
        return loads[-1]

    monkeypatch.setattr(SchubertModel, "__init__", spy)
    monkeypatch.setattr(kflag.cli, "cache_load", spy_load)
    verify = argv[0] == "verify"
    group = ["--type", "A", "--rank", "3"]
    full = [argv[0], *group, *argv[1:]]

    def run(cache_dir=None) -> str:
        """One call, with ``cache_dir`` set through ``via``; its stderr."""
        extra = []
        if cache_dir is not None and via == "--cache-dir":
            extra = ["--cache-dir", str(cache_dir)]
        elif cache_dir is not None:
            monkeypatch.setenv(CACHE_ENV_VAR, str(cache_dir))
        assert main([*full, *extra]) == 0
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        return capsys.readouterr().err

    assert run() == ""
    assert ("_rows" in vars(models[-1])) == verify
    cold = tmp_path / "cold"
    assert run(cold) == ""
    assert [p.name for p in cold.iterdir()] == ["schubert-table-A3.json"]
    path = cold / "schubert-table-A3.json"
    table = path.read_bytes()
    assert main(["verify", *group, "--which", "signs", "--cache-dir", str(tmp_path / "ref")]) == 0
    assert (tmp_path / "ref" / "schubert-table-A3.json").read_bytes() == table
    capsys.readouterr()
    assert loads == [None] * (1 + verify)  # no file to load yet, then the reference's

    loads.clear()
    assert run(cold) == ""  # warm
    assert path.read_bytes() == table
    if verify:
        assert len(loads) == 1 and loads[0] is not None and "_rows" in vars(models[-1])
    else:
        assert loads == [] and "_rows" not in vars(models[-1])

    path.write_bytes(b"{not json")
    err = run(cold)
    if verify:
        assert err.startswith("warning: cache unreadable (") and len(err.splitlines()) == 1
        assert path.read_bytes() == table
    else:
        assert err == "" and path.read_bytes() == b"{not json"
        assert loads == [] and "_rows" not in vars(models[-1])
    assert all(m._schubert is None for m in models)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "G2"])
def test_specialized_opposite_classes_match(label, engines):
    m, g = engines.model(label), engines.group(label)
    for w in g.elements:
        got = pairing_oracle.specialized_opposite_schubert_class(m, w)
        assert got == m.specialize(pairing_oracle.opposite_schubert_class(m, w))


def test_laurent_divexact():
    # (t^-2 - t^3) / (1 - t^5) = t^-2, shifted operands on both sides
    a = UniPoly({-2: 1, 3: -1})
    assert poly_divexact(a, UniPoly.one_minus_power(5)) == UniPoly({-2: 1})
    assert poly_divexact(a, UniPoly({4: 1, 9: -1})) == UniPoly({-6: 1})
    assert poly_divexact(UniPoly.one(), UniPoly({1: 1})) == UniPoly({-1: 1})
    assert poly_divexact(UniPoly.zero(), UniPoly({-3: 2, 1: 5})) == UniPoly.zero()
    with pytest.raises(NotDivisibleError):
        poly_divexact(a, UniPoly.one_minus_power(2))
    with pytest.raises(NotDivisibleError):
        poly_divexact(UniPoly.one(), UniPoly.one_minus_power(1))
    with pytest.raises(ZeroDivisionError):
        poly_divexact(a, UniPoly.zero())


# -- one packed width, and the tests' 8-bit ring -----------------------------------


def _at_width(group, bits: int):
    """A fresh model of ``group`` that packs at ``bits`` bits: 64, the
    engine's width, or 8, the tests' ring set on this one instance.  Its
    table is built on first read."""
    from kflag import SchubertModel
    from kflag.univariate import _packed

    model = SchubertModel(group)
    if bits != 64:
        model.poly, model._divexact = _packed(bits)
    return model


def _model_at(label: str, bits: int):
    """``_at_width`` on a fresh group of ``label``."""
    from kflag import WeylGroup, build_root_datum

    return _at_width(WeylGroup(build_root_datum(label[0], int(label[1:]))), bits)


def _by_index(coeffs: dict) -> dict:
    """Coefficients keyed by element index, comparable across two groups."""
    return {w.index: c for w, c in coeffs.items()}


def _all_pairs(group):
    return [(u, v) for i, u in enumerate(group.elements) for v in group.elements[i:]]


def _packed_items(row: dict) -> list:
    """A row's (key, (shift, packed, bound)) items in its order: what
    ``UniPoly ==``, which leaves the bound out, compares, and the bound."""
    return [(v, (p._shift, p._packed, p._bound)) for v, p in row.items()]


def test_the_model_packs_at_64_bits(engines):
    """The table and specialize() hold 64-bit values, and a value of
    another width never mixes in: a product, a solve and chi of it raise
    ``TypeError``."""
    from kflag.univariate import _packed

    m, g = engines.model("A3"), engines.group("A3")
    assert m.poly is UniPoly and m._divexact is poly_divexact
    rows = [m.specialized_schubert_class(w).restrictions for w in g.elements]
    assert {type(p) for row in rows for p in row.values()} == {UniPoly}
    spec = m.specialize(m.schubert_class(g.w_o) * m.schubert_class(g.elements[3]))
    assert spec.restrictions and {type(p) for p in spec.restrictions.values()} == {UniPoly}
    narrow = EquivClass(m.rank, {g.w_o: _packed(8)[0].one()})
    for job in (m.specialized_schubert_class(g.w_o).__mul__, m.integer_coefficients,
                m.euler_characteristic):
        with pytest.raises(TypeError, match="does not combine"):
            job(narrow)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "G2", "D4"])
def test_schubert_chi_at_the_model_cocharacter_is_chi_of_each_row(label, engines):
    """The normalization report's one chi route, at the model's own
    cocharacter, equals chi of each row by the public API."""
    m = engines.model(label)
    want = [m.euler_characteristic(m.specialized_schubert_class(w)) for w in m.group.elements]
    assert m.schubert_chi((1,) * m.rank) == want


@pytest.mark.parametrize("label", ["A3", "G2"])
def test_a_job_past_the_range_fails_integrity_with_no_redo(label):
    """At 8-bit digits the A3 and G2 tables fit, but chi of the squared
    point class passes 2^7, and so does the solve of the constant of
    (e, w_o), though its product fits: each raises ``IntegrityError``, as
    no wider width is tried, where the 64-bit model answers.  B3's table
    itself passes 2^7, so reading it raises too."""
    from kflag import IntegrityError

    narrow, wide = _model_at(label, 8), _model_at(label, 64)

    def out_of_range():
        return pytest.raises(IntegrityError, match=r"packed range 2\^7$")

    g, h = narrow.group, wide.group
    point = narrow.schubert_class(g.identity)
    with out_of_range():
        narrow.euler_characteristic(point * point)
    point = wide.schubert_class(h.identity)
    assert wide.euler_characteristic(point * point) == 0  # [O_pt]^2 = 0
    psi = narrow.specialized_schubert_class
    product = psi(g.identity) * psi(g.w_o)
    with out_of_range():
        narrow.integer_coefficients(product)
    assert _by_index(wide.structure_constants(h.identity, h.w_o)) == {0: 1}
    b3 = _model_at("B3", 8)
    with out_of_range():
        b3.specialized_schubert_class(b3.group.identity)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_euler_characteristic_reads_rows_of_either_width(label, engines):
    """chi of every Schubert row is 1, on the 64-bit model and on a model
    at the tests' 8 bits: these groups' rows, and the numerators and
    quotients of their chi, all fit 2^7."""
    for model in (engines.model(label), _model_at(label, 8)):
        chi = [model.euler_characteristic(model.specialized_schubert_class(w))
               for w in model.group.elements]
        assert chi == [1] * len(chi)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_constants_at_8_bits_are_the_64_bit_ones_or_fail_integrity(label):
    """Over every pair (u, v), the 8-bit model's constants equal the 64-bit
    model's, or its product or solve passes 2^7 and raises
    ``IntegrityError``: a range error never yields a wrong constant.  A2
    fits 8 bits everywhere; B2, G2 and A3 do not.  The ring's constants and
    line tables come from recursions in plain ints, so they are the same
    on either model."""
    from kflag import IntegrityError, SchubertRing

    narrow, wide = _model_at(label, 8), _model_at(label, 64)
    small, big = SchubertRing(narrow), SchubertRing(wide)
    fits = range_errors = 0
    for (u, v), (x, y) in zip(_all_pairs(narrow.group), _all_pairs(wide.group)):
        want = _by_index(wide.structure_constants(x, y))
        assert _by_index(small.structure_constants(u, v)) == want
        try:
            got = narrow.structure_constants(u, v)
        except IntegrityError as err:
            assert str(err).endswith("out of the packed range 2^7")
            range_errors += 1
            continue
        assert _by_index(got) == want
        fits += 1
    assert fits > 0 and (range_errors > 0) == (label != "A2")
    for lam in _default_line_sweep(narrow.datum):
        got = {v.index: _by_index(row) for v, row in small._line_table(lam).items()}
        want = {v.index: _by_index(row) for v, row in big._line_table(lam).items()}
        assert got == want, lam


@pytest.mark.parametrize("bits", [8, 64])
@pytest.mark.parametrize("label", ["A2", "A3", "B2", "G2"])
def test_the_class_product_is_the_pointwise_reference_product(label, bits):
    """On every ordered pair of rows (u, v), psi_u . psi_v holds the common
    fixed points in element order, each with the product of the dict-based
    reference, or it raises ``IntegrityError`` where a norm bound reaches
    the width's range: at 8 bits on some pair of every group here but A2,
    at 64 bits on none."""
    from kflag import IntegrityError
    from uni_reference import RefPoly

    model = _model_at(label, bits)
    rows = [model.specialized_schubert_class(w) for w in model.group.elements]
    range_errors = 0
    for f in rows:
        for h in rows:
            a, b = f.restrictions, h.restrictions
            try:
                got = (f * h).restrictions
            except IntegrityError:
                range_errors += 1
                continue
            assert list(got) == [x for x in a if x in b]
            for x, p in got.items():
                want = RefPoly(dict(a[x].terms)) * RefPoly(dict(b[x].terms))
                assert dict(p.terms) == want.terms, (x, a[x], b[x])
    assert (range_errors > 0) == (bits == 8 and label != "A2")


@pytest.mark.parametrize("label", ["A3", "G2"])
def test_line_classes_at_8_bits_match_or_fail_integrity(label, engines):
    """[L(lam)] over the default line sweep: the 8-bit model's integer
    coefficients equal the multivariate route's, or its solve passes 2^7
    and raises ``IntegrityError``, as it does on one weight of each group."""
    from kflag import IntegrityError

    m, narrow = engines.model(label), _model_at(label, 8)
    range_errors = 0
    for lam in _default_line_sweep(narrow.datum):
        want = _by_index(reference(m, m.line_bundle_class(lam)))
        try:
            got = narrow.integer_coefficients(narrow.specialize(narrow.line_bundle_class(lam)))
        except IntegrityError:
            range_errors += 1
            continue
        assert _by_index(got) == want, lam
    assert range_errors == 1


# -- the packed build against the generic Demazure route ----------------------------


def _build_outcome(build):
    """The rows ``build()`` returns, each as its ``_packed_items`` so that
    their order and bounds count, or the error's type and message."""
    from kflag import KflagError

    try:
        return [_packed_items(row) for row in build()]
    except KflagError as exc:
        return type(exc), str(exc)


def _index_row(f):
    """The restrictions of a one-variable class as a row by element index,
    in their order."""
    return {u.index: p for u, p in f.restrictions.items()}


def _both_builds(model, k):
    """(packed build, generic route) outcomes of the table at cocharacter k
    and the model's width: ``_specialized_table``, and ``demazure`` run
    with ``_monomial_t`` and that width's ``poly_divexact``, its rows keyed
    by index in the order ``demazure`` gives them."""
    from kflag.tables import _monomial_t

    def generic():
        table = model._build_schubert_table(_monomial_t(k, model.poly), model._divexact)
        return [_index_row(f) for f in table]

    return _build_outcome(lambda: model._specialized_table(k)), _build_outcome(generic)


@pytest.mark.parametrize(
    "label", ["A1", "A2", "A3", "B2", "B3", "C3", "G2", "A4", "B4", "D4"])
def test_the_packed_build_is_the_generic_demazure_route(label, engines):
    """At 64 bits, at the model's cocharacter and at the second one of
    ``verify_normalization``, every row equals the generic route's:
    the same fixed points in the same order, the same packed integers and
    the same norm bounds, the pivot (the entry at w) among them.  The
    build divides once per coset of w's right descents and shares that
    value with the rest, so this checks that every shared value is the
    quotient the generic route divides out there."""
    from kflag.model import _height_cocharacter

    model = _at_width(engines.group(label), 64)
    second = _height_cocharacter(model.datum, (1,) * (model.rank - 1) + (2,))
    for k in (model.cocharacter, second):
        got, want = _both_builds(model, k)
        assert type(got) is list and got == want
        for w, entries in zip(model.group.elements, got):
            assert w.index in dict(entries)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4"])
def test_the_packed_build_fails_where_the_generic_route_does(label, engines):
    """At 8 bits the build either equals the generic route or raises its
    error with its message.  Groups with up to six positive roots fit;
    with more, the point class's product bound 2^N reaches 2^7 first.
    (The build guards only the points it divides at, so in general a
    generic route that raises need not mean a build that does; on these
    groups it does.)"""
    model = _at_width(engines.group(label), 8)
    got, want = _both_builds(model, model.cocharacter)
    assert got == want
    assert (type(got) is tuple) == (len(model.datum.positive_roots) > 6)


def _both_steps(model, i, f):
    """(packed step, ``model.demazure``) outcomes of D_i f at the model's
    width and cocharacter, each as a list of (u.index, (shift, packed,
    bound)); the step shares values over the pairs {v, v s_i} only."""
    from kflag.tables import _degree, _monomial_t

    g, poly, k = model.group, model.poly, model.cocharacter
    degrees = [_degree(v.key, k) for v in g.elements]
    partner = [g.right_mul(v, i).index for v in g.elements]
    reps = [min(v, x) for v, x in enumerate(partner)]

    def generic():
        return _index_row(model.demazure(i, f, _monomial_t(k, poly), model._divexact))

    return (_row_outcome(lambda: poly.demazure_step(_index_row(f), degrees, partner, reps)),
            _row_outcome(generic))


def _row_outcome(make):
    """The row ``make()`` returns as its ``_packed_items``, or the error's
    type and message."""
    got = _build_outcome(lambda: [make()])
    return got[0] if type(got) is list else got


@pytest.mark.parametrize("bits", [8, 64])
@pytest.mark.parametrize("label", ["A3", "G2"])
def test_the_packed_step_raises_where_demazure_does(label, bits):
    """D_i of every product psi_u . psi_v that fits the width: the packed
    step gives ``demazure``'s row, or raises its error with its message.
    At 8 bits many steps pass the range, at 64 none does.  As
    (D_i f)(v s_i) = (D_i f)(v), a row holds v and v s_i both or neither,
    with the same (shift, packed, bound)."""
    from kflag import IntegrityError

    model = _model_at(label, bits)
    assert model.poly.DIGIT_BITS == bits
    g, psi = model.group, model.specialized_schubert_class
    steps = range_errors = 0
    for u, v in _all_pairs(g):
        try:
            f = psi(u) * psi(v)
        except IntegrityError:
            continue
        for i in range(1, model.rank + 1):
            got, want = _both_steps(model, i, f)
            assert got == want
            steps += 1
            if type(got) is list:
                row = dict(got)
                assert all(row.get(g._right[i - 1][x]) == e for x, e in row.items())
            range_errors += type(want) is tuple and want[0] is IntegrityError
    assert steps > len(_all_pairs(g))
    assert (range_errors > 0) == (bits == 8)


def _step_with(model, w, descents):
    """Row w by one ``demazure_step`` from the built row w s_i, i the last
    letter of w's word, sharing values over the cosets of the s_j with
    descents[j - 1] true (``_coset_minima``)."""
    from kflag.tables import _coset_minima, _degree

    g, i = model.group, w.word[-1]
    partner = g._right[i - 1]
    degrees = [_degree(v.key, model.cocharacter) for v in g.elements]
    reps = _coset_minima(g._right, descents)
    return _packed_items(model.poly.demazure_step(
        model._rows[partner[w.index]], degrees, partner, reps))


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_only_right_descents_may_be_shared(label, engines):
    """A Schubert row is right invariant under its right descents: the
    step given their coset minima makes the built row.  Given the minima
    of a set with a reflection that is no right descent, it gives another
    row for some w, and so does a left descent in place of the right ones."""
    model = engines.model(label)
    g = model.group
    wrong_right = wrong_left = 0
    for w in g.elements[1:]:
        x, i = w.index, w.word[-1]
        row = _packed_items(model._rows[x])
        assert _step_with(model, w, [p[x] < x for p in g._right]) == row
        others = [j for j, p in enumerate(g._right) if p[x] > x]
        wrong_right += any(_step_with(model, w, [k in (i - 1, j) for k in range(model.rank)])
                           != row for j in others)
        left = [k == i - 1 or p[x] < x for k, p in enumerate(g._left)]
        wrong_left += _step_with(model, w, left) != row
    assert wrong_right > 0 and wrong_left > 0


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "D4"])
def test_every_coset_of_the_right_descents_shares_one_value(label, engines):
    """In a built row w every point v holds the very value of the least
    point of v W_J, J the right descents of w, so the row holds one value
    object per coset it meets, and the quotient count of the build is the
    number of distinct value objects."""
    from kflag.tables import _coset_minima

    model = engines.model(label)
    g = model.group
    for w in g.elements[1:]:
        x = w.index
        reps = _coset_minima(g._right, [p[x] < x for p in g._right])
        row = model._rows[x]
        assert all(e is row[reps[v]] for v, e in row.items())
        assert len({id(e) for e in row.values()}) == len({reps[v] for v in row})


@pytest.mark.parametrize("label, quotients", [("D4", 1837), ("B4", 7883)])
def test_the_build_divides_once_per_coset(label, quotients, engines):
    """Rows past e hold one value object per coset v W_J in [e, w], J the
    right descents of w: as many as the quotients the build divides out,
    counted here as the points v <= w with every v s_j, j in J, above v."""
    model = engines.model(label)
    g, rows = model.group, model._rows
    assert sum(len({id(e) for e in rows[w.index].values()}) for w in g.elements[1:]) == quotients
    minimal = 0
    for w in g.elements[1:]:
        descents = [p for p in g._right if p[w.index] < w.index]
        minimal += sum(g.bruhat_leq(v, w) and all(p[v.index] > v.index for p in descents)
                       for v in g.elements)
    assert minimal == quotients


@pytest.mark.parametrize("case", ["sum", "certificate", "inexact", "cancel"])
def test_each_guard_of_the_packed_step_fires_where_demazure_does(case, engines):
    """D_1 on A1 at 8 bits, on classes made to stop at one guard each: the
    sum bound 64 + 64 of f(e) - t^h f(s); the certificate of
    32 (1 - t^2h) / (1 - t^h), whose quotient has norm 64 against the
    divisor's 2; an inexact division; and f(e) = t^h f(s), where both
    differences cancel and leave their fixed points out."""
    from kflag import IntegrityError
    from kflag.tables import _degree

    model = _at_width(engines.group("A1"), 8)
    e, s = model.group.elements
    poly, h = model.poly, _degree(model.datum.simple_root(1), model.cocharacter)
    f = {
        "sum": {e: poly({0: 64}), s: poly({3: -64})},
        "certificate": {e: poly.one_minus_power(2 * h) * 32},
        "inexact": {e: poly.one()},
        "cancel": {e: poly({h: 20, h + 1: 20}), s: poly({0: 20, 1: 20})},
    }[case]
    got, want = _both_steps(model, 1, EquivClass(1, f))
    assert got == want
    if case == "cancel":
        assert got == []
    else:
        assert want[0] is (NotDivisibleError if case == "inexact" else IntegrityError)


def _element_ordered(rows: list) -> bool:
    """Whether each row and its class list their fixed points in
    element order, the same fixed points in both."""
    return all(
        list(row) == sorted(row) and [u.index for u in cls.restrictions] == list(row)
        for row, cls in rows)


@pytest.mark.parametrize("label", ["A3", "G2", "B3"])
def test_every_row_is_in_element_order(label, engines):
    """Built, and injected with ``table=`` in reverse order, every row
    lists its fixed points in element order; the injected rows equal the
    built ones, bounds included."""
    from kflag import SchubertModel

    g = engines.group(label)
    built = SchubertModel(g)
    shuffled = [dict(reversed(built.specialized_schubert_class(w).restrictions.items()))
                for w in g.elements]
    injected = SchubertModel(g, table=shuffled)
    for model in (built, injected):
        pairs = [(model._rows[w.index], model.specialized_schubert_class(w))
                 for w in g.elements]
        assert _element_ordered(pairs)
    assert ([_packed_items(injected._rows[w.index]) for w in g.elements]
            == list(map(_packed_items, built._rows)))


def test_a_table_row_without_its_pivot_fails_integrity(engines):
    """An injected row without its pivot is refused when it is first read,
    through the rows or ``specialized_schubert_class``, as an integrity
    error; the other rows still read."""
    from kflag import IntegrityError, SchubertModel

    g = engines.group("A2")
    table = [dict(engines.model("A2").specialized_schubert_class(w).restrictions)
             for w in g.elements]
    w = g.elements[3]
    del table[3][w]
    model = SchubertModel(g, table=table)
    assert 2 in model._rows[2]
    word = ", ".join(map(str, w.word))
    with pytest.raises(IntegrityError, match=rf"row \[{word}\] has no pivot"):
        model.specialized_schubert_class(w)
    with pytest.raises(IntegrityError, match=rf"row \[{word}\] has no pivot"):
        model._rows[3]


def test_the_walk_on_a_narrow_model_equals_the_wide_solve(monkeypatch):
    """With 8-bit digits the walk on A3 still builds no one-variable table,
    as its e_i tables come from the line recursion and read no packed
    value; every row it yields equals the 64-bit solve."""
    from kflag import SchubertRing

    monkeypatch.setattr("kflag.ring.WALK_PAIRS_PER_ELEMENT", 0)
    narrow = _model_at("A3", 8)
    wide = _model_at("A3", 64)
    n = len(narrow.group.elements)
    walked = {(a, b): row for a, b, row in _sweep(SchubertRing(narrow),
                                                  {b: range(b + 1) for b in range(n)})}
    assert "_rows" not in vars(narrow)
    serial = SchubertRing(wide)
    assert walked == {(u.index, v.index): _by_index(serial.structure_constants(u, v))
                      for u, v in _all_pairs(wide.group)}


# -- the one triangular solve, at 8 and 64 bits ------------------------------------


def _solve_inputs(model):
    """(n, psi_a . psi_b) for every a <= b, then (n, row product) for the
    line tables of omega_1, rho and -rho, at the model's width, n counting
    the inputs in that order; a product that passes the width's range is
    no input and is left out."""
    from kflag import IntegrityError
    from kflag.tables import _monomial_t

    g, psi = model.group, model.specialized_schubert_class
    factors = [(psi(u), psi(v)) for u, v in _all_pairs(g)]
    rho = model.datum.rho
    for lam in (model.datum.fundamental_weight(1), rho, tuple(-x for x in rho)):
        lclass = model.line_bundle_class(lam, _monomial_t(model.cocharacter, model.poly))
        factors += [(lclass, psi(v)) for v in g.elements]
    for n, (a, b) in enumerate(factors):
        try:
            yield n, a * b
        except IntegrityError:
            pass


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "G2"])
def test_the_8_bit_solve_is_the_64_bit_one_or_fails_integrity(label, engines):
    """On every product and line row that fits 8 bits, the 8-bit model's
    ``integer_coefficients`` gives the 64-bit model's values in its key
    order, or a bound passes 2^7 and raises ``IntegrityError``: a range
    error never yields a wrong value.  A2 fits 8 bits everywhere; A3, B2
    and G2 do not (487 solves over the four groups, 202 of them range
    errors)."""
    from kflag import IntegrityError

    narrow, wide = _model_at(label, 8), engines.model(label)
    size = len(wide.group.elements)
    wanted = dict(_solve_inputs(wide))
    assert len(wanted) == size * (size + 7) // 2  # every input fits 64 bits
    solves = range_errors = 0
    for n, prod in _solve_inputs(narrow):
        want = _by_index(wide.integer_coefficients(wanted[n]))
        solves += 1
        try:
            got = narrow.integer_coefficients(prod)
        except IntegrityError as err:
            assert str(err).endswith("out of the packed range 2^7")
            range_errors += 1
            continue
        assert list(_by_index(got).items()) == list(want.items())
    assert solves > size ** 2 // 2
    assert (range_errors > 0) == (label != "A2")


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "G2"])
def test_the_64_bit_solve_of_each_line_row_is_the_multivariate_one(label, engines):
    """The line rows of ``_solve_inputs`` at 64 bits: L(lam) . psi_v for
    lam = omega_1, rho and -rho solves to the multivariate route's values,
    keyed in descending element index."""
    from kflag.tables import _monomial_t

    m, g = engines.model(label), engines.group(label)
    rho = m.datum.rho
    for lam in (m.datum.fundamental_weight(1), rho, tuple(-x for x in rho)):
        lclass = m.line_bundle_class(lam, _monomial_t(m.cocharacter, m.poly))
        assert lclass == m.specialize(m.line_bundle_class(lam))
        for v in g.elements:
            got = m.integer_coefficients(lclass * m.specialized_schubert_class(v))
            assert got == reference(m, m.line_bundle_class(lam) * m.schubert_class(v))
            keys = [w.index for w in got]
            assert keys == sorted(keys, reverse=True)


def test_the_solve_on_a_d4_sample_is_the_ring_recursion(engines):
    """500 D4 pairs (u, v), drawn with a fixed seed: the solve of
    psi_u . psi_v gives ``SchubertRing``'s recursion's constants in its
    key order."""
    import random

    m, g, r = engines.model("D4"), engines.group("D4"), engines.ring("D4")
    rng = random.Random(4)
    psi = m.specialized_schubert_class
    for _ in range(500):
        u, v = rng.choice(g.elements), rng.choice(g.elements)
        got = m.integer_coefficients(psi(u) * psi(v))
        assert list(got.items()) == list(r.structure_constants(u, v).items())


def test_the_solve_raises_on_a_class_outside_the_span(engines):
    """An inexact pivot, a vector the rows do not span and a value of the
    other width each raise from ``integer_coefficients``."""
    from kflag import NonzeroResidualError
    from kflag.model import back_solve
    from kflag.univariate import _packed

    m, g = engines.model("A2"), engines.group("A2")
    # 1 at e: its pivot is the point class's restriction, a product of binomials
    with pytest.raises(NotDivisibleError, match="univariate division is not exact"):
        m.integer_coefficients(EquivClass(m.rank, {g.identity: m.poly.one()}))
    # the rows of every element but e do not span the point class: the
    # solve leaves it whole, and a point past A2's six is never solved
    point = {v.index: p for v, p in m.specialized_schubert_class(g.identity).restrictions.items()}
    coords, residual = back_solve(range(1, len(g.elements)), point,
                                  m._rows.__getitem__, m._divexact)
    assert coords == {} and residual == point
    far = engines.group("A3").w_o
    with pytest.raises(NonzeroResidualError, match="expansion left a nonzero residual"):
        m.integer_coefficients(EquivClass(m.rank, {far: m.poly.one()}))
    with pytest.raises(TypeError, match="a 64-bit UniPoly does not combine with a 8-bit UniPoly"):
        m.integer_coefficients(EquivClass(m.rank, {g.w_o: _packed(8)[0].one()}))


@pytest.mark.parametrize("vec, rows, guard", [
    # 2 x 100 at a, where nothing is left to subtract from: the product guard
    ({"b": 2}, {"a": {"a": 1}, "b": {"b": 1, "a": 100}}, "__mul__"),
    # 2 x 50 fits, but 50 - 100 at a does not: the difference guard
    ({"b": 2, "a": 50}, {"a": {"a": 1}, "b": {"b": 1, "a": 50}}, "__sub__"),
    # 60 (1 + t) over 1 + t: the quotient fits, but the pivot's own
    # difference, whose value is 0, has the bound 120 + 120
    ({"b": {0: 60, 1: 60}}, {"a": {"a": 1}, "b": {"b": {0: 1, 1: 1}}}, "__sub__"),
])
def test_each_guard_of_the_solve_fires_at_8_bits(vec, rows, guard):
    """Two-element systems solved by ``back_solve`` in the 8-bit ring, each
    past the range 2^7 at one guard the corpus inputs seldom reach first."""
    from kflag import IntegrityError
    from kflag.model import back_solve
    from kflag.univariate import _packed

    poly, divide = _packed(8)

    def packed(c):
        return poly(c if isinstance(c, dict) else {0: c})

    vec = {w: packed(c) for w, c in vec.items()}
    rows = {w: {u: packed(c) for u, c in row.items()} for w, row in rows.items()}
    message = r"^coefficient bound 2\^7 is out of the packed range 2\^7$"
    with pytest.raises(IntegrityError, match=message) as info:
        back_solve(["a", "b"], vec, rows.__getitem__, divide)
    assert info.traceback[-1].name == guard


def test_the_integer_path_builds_no_polynomial_product(monkeypatch):
    """The ring's structure constants and line tables build no
    ``EquivClass`` or ``UniPoly`` product: the recursion holds plain ints.
    A class product still counts."""
    from kflag import SchubertRing

    model = _model_at("A3", 64)
    model._rows  # the table's build multiplies; it runs before the count
    g = model.group
    products = []
    for cls in (EquivClass, UniPoly):
        for name in ("__mul__", "__rmul__"):
            if name in vars(cls):
                orig = getattr(cls, name)
                monkeypatch.setattr(cls, name, lambda *args, _orig=orig: (
                    products.append(type(args[0]).__name__) or _orig(*args)))
    ring = SchubertRing(model)
    for u, v in _all_pairs(g):
        ring.structure_constants(u, v)
    for lam in _default_line_sweep(model.datum):
        ring._line_table(lam)
    assert products == []
    psi = model.specialized_schubert_class
    psi(g.identity) * psi(g.identity)
    assert products[0] == "EquivClass" and "UniPoly" in products
