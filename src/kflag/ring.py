"""The Grothendieck ring of G/P: its records and the structure constants.

Structure constants come from the Demazure rules R1 and R2, run on one pair
(``_pair_product``) or, for a sweep, on whole columns (``_columns``), in
plain integers with no class table.  That engine is all a ``constants`` call
runs.  The four bases, Richardson and line classes, G/P constants and the
verifiers are methods defined in ``kflag.reports`` and put on
``SchubertRing`` by ``records.Deferred``; the basis labels resolve from
there through this module's ``__getattr__``.
"""
from __future__ import annotations

from functools import cached_property

from .errors import IntegrityError
from .model import SchubertModel, _LazyRows
from .records import Deferred, FrozenRecord, Record
from .roots import ParabolicData, Weight, WeylElement

#: the public names of ``kflag.reports`` that this module has held
_REPORTS = ("O_BASIS", "IDEAL_BASIS", "OMEGA_BASIS", "OMEGA_BOUNDARY_BASIS", "BASES")


def __getattr__(name: str):
    """The names of ``_REPORTS``, imported on first use."""
    if name not in _REPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import reports

    return getattr(reports, name)


class KClass(FrozenRecord):
    """An integer expansion vector over a chosen basis of K(G/P)."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: str, coeffs: dict[WeylElement, int]):
        FrozenRecord.__init__(self, basis, coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs


class SignReport(Record):
    """Outcome of a sign sweep; empty violations means the theorem holds."""

    __slots__ = ("group", "name", "parabolic", "checked", "violations", "elapsed_ms")

    def __init__(self, group: str, name: str, parabolic: tuple[int, ...] | None, checked: int,
                 violations: list[tuple], elapsed_ms: int):
        self.group = group
        self.name = name
        self.parabolic = parabolic
        self.checked = checked
        self.violations = violations
        self.elapsed_ms = elapsed_ms

    @property
    def ok(self) -> bool:
        return not self.violations


class LineReport(Record):
    """Outcome of the line-bundle identity suite for one (lambda, mu) pair."""

    __slots__ = ("group", "lam", "mu", "checks", "violations", "elapsed_ms")

    def __init__(self, group: str, lam: Weight, mu: Weight,
                 checks: list[tuple[str, int]] | None = None,
                 violations: list[tuple] | None = None, elapsed_ms: int = 0):
        self.group = group
        self.lam = lam
        self.mu = mu
        self.checks = [] if checks is None else checks
        self.violations = [] if violations is None else violations
        self.elapsed_ms = elapsed_ms

    @property
    def ok(self) -> bool:
        return not self.violations


class SchubertRing:
    """Ring operations and theorem verifiers over one localization model."""

    def __init__(self, model: SchubertModel):
        self.model = model
        self.group = model.group
        self.datum = model.datum
        self.dimension = model.dimension
        self._line_memo: dict[Weight, dict[WeylElement, dict[WeylElement, int]]] = {}
        self._basis_matrix_memo: dict[str, dict[WeylElement, dict[WeylElement, int]]] = {}
        self._line_check_memo: dict[tuple, tuple[int, list[tuple]]] = {}

    # -- grading -----------------------------------------------------------

    def codim(self, w: WeylElement) -> int:
        return self.dimension - w.length

    def n_degree(self, u: WeylElement, v: WeylElement, w: WeylElement) -> int:
        """N(u, v; w) = codim X_w - codim X_u - codim X_v on the full flag variety."""
        return self.codim(w) - self.codim(u) - self.codim(v)

    @cached_property
    def _w_o_times(self) -> tuple[WeylElement, ...]:
        """w_o x for every x, by x.index; built on first use."""
        return tuple(self.group.mul(self.group.w_o, x) for x in self.group.elements)

    # -- products and expansions --------------------------------------------

    def structure_constants(self, u: WeylElement, v: WeylElement) -> dict[WeylElement, int]:
        """Integer constants of [O_{X_u}] . [O_{X_v}] over the Schubert basis,
        by ``_pair_product``, in descending element index.  They sum to
        chi(psi_u psi_v), the Euler characteristic of a Richardson variety:
        1 if w_o u <= v, else 0 (Brion 2002); any other sum is refused."""
        group = self.group
        row = _pair_product(self.model, *sorted((u.index, v.index)))
        if sum(row.values()) != group.bruhat_leq(group.mul(group.w_o, u), v):
            raise _sum_error(u, v, row)
        return {group.elements[w]: c for w, c in sorted(row.items(), reverse=True)}

    # -- parabolic calculus ------------------------------------------------------

    def parabolic_dimension(self, pdata: ParabolicData) -> int:
        return self.dimension - pdata.longest_in_parabolic.length

    # the bases, Richardson and line classes, G/P constants and the
    # verifiers: ``kflag.reports``
    o_basis_product = Deferred("kflag.reports")
    ideal_sheaf_class = Deferred("kflag.reports")
    omega_class = Deferred("kflag.reports")
    omega_boundary_class = Deferred("kflag.reports")
    basis_matrix = Deferred("kflag.reports")
    coords_in_basis = Deferred("kflag.reports")
    change_basis = Deferred("kflag.reports")
    richardson_class = Deferred("kflag.reports")
    line_bundle_coeffs = Deferred("kflag.reports")
    _line_table = Deferred("kflag.reports")
    parabolic_structure_constants = Deferred("kflag.reports")
    verify_normalization = Deferred("kflag.reports")
    verify_sweeps = Deferred("kflag.reports")
    verify_alternating_signs = Deferred("kflag.reports")
    verify_richardson_signs = Deferred("kflag.reports")
    verify_line_identities = Deferred("kflag.reports")


def _row_times(row: dict, table) -> dict:
    """sum_x row[x] * table[x], zero entries dropped."""
    out: dict[WeylElement, int] = {}
    get = out.get
    for x, c in row.items():
        for w, m in table[x].items():
            out[w] = get(w, 0) + c * m
    return {w: c for w, c in out.items() if c}


# A sweep reading fewer pairs than this many per element of W reads each
# from ``_pair_product``; from there one walk of the column tree is
# faster on a full sweep.  On one CPU, e_i rows included, the walk took
# 3.7 / 18.3 / 244 ms where the pairs took 4.7 / 30.3 / 418 ms (A3, B3, D4
# at 12.5 / 24.5 / 96.5 |W|); the long lifted pairs of D4 on P = {1}, at
# 24 |W|, took 199 ms against the walk's 266 ms (README).
WALK_PAIRS_PER_ELEMENT = 12


def _sum_error(u: WeylElement, v: WeylElement, row: dict) -> IntegrityError:
    """The refusal of constants of u x v that do not sum to chi."""
    return IntegrityError(f"constants of {list(u.word)} x {list(v.word)} "
                          f"sum to {sum(row.values())}, not chi")


def _sweep(ring: SchubertRing, rows):
    """(a, b, psi_a psi_b as {w.index: c}) for each b in ``rows`` and each
    a <= b in rows[b], made as it is read and refused, as by
    ``structure_constants``, if it breaks its sum rule.  A full sweep
    passes rows[b] = range(b + 1); nothing here grows with the pairs read.
    With fewer than ``WALK_PAIRS_PER_ELEMENT`` |W| pairs each comes from
    ``_pair_product``, in the order of ``rows``; else they come off
    ``_columns``, in the order of its walk."""
    group = ring.group
    elements, w_o_times = group.elements, ring._w_o_times
    if sum(map(len, rows.values())) < WALK_PAIRS_PER_ELEMENT * len(elements):
        chi = lambda a, b: group.bruhat_leq(w_o_times[a], elements[b])  # no |W|^2 bits: E6
        columns = ((b, None) for b in rows)
    else:
        below = group._lower_masks  # [w_o a <= b] is bit (w_o a).index of [e, b]
        chi = lambda a, b: (below[b] >> w_o_times[a].index) & 1
        columns = _columns(ring, rows)
    for b, column in columns:
        for a in rows[b]:
            row = _pair_product(ring.model, a, b) if column is None else column[a]
            if sum(row.values()) != chi(a, b):
                raise _sum_error(elements[a], elements[b], row)
            yield a, b, row


def _columns(ring: SchubertRing, wanted):
    """(v, column v) for each v.index in ``wanted``: column v lists
    psi_u psi_v for every u, by u.index, as {w.index: c} with no zero c.

    For i a right descent of v, v' = v s_i and u' = u s_i (Demazure 1974,
    Kostant-Kumar 1990; derived in the README):
      (R1) psi_u psi_v = D_i(psi_u psi_v') if u' < u;
      (R2) psi_u psi_v = e_i [D_i(psi_u psi_v') - psi_u' psi_v]
           + psi_u psi_v' - psi_u' psi_v' + psi_u' psi_v otherwise.
    D_i is ``_demazure``, e_i D_i the table of ``_e_after_d``
    and psi_u psi_e = [u = w_o] psi_e.  So column v follows from column v',
    i the first right descent of v: a tree, walked depth first with at
    most depth + 1 columns alive.  No rule reads column w_o, which must be
    psi_u psi_{w_o} = psi_u; a walk that makes any other is refused."""
    partners, first = ring.model._right_steps
    n = len(partners[0])
    ed_rows = [_e_after_d(ring.model, i) for i in range(len(partners))]
    children = [[] for _ in range(n)]
    for v in range(1, n):
        children[partners[first[v]][v]].append((v, first[v]))

    def walk(v, prev):
        if v == n - 1:
            u = next((u for u, row in enumerate(prev) if row != {u: 1}), None)
            if u is not None:
                word = list(ring.group.elements[u].word)
                raise IntegrityError(f"the walk's column of w_o is not psi_u at u = {word}")
        if v in wanted:
            yield v, prev
        for child, i in children[v]:
            column = [None] * n
            for u, x in enumerate(partners[i]):
                if x > u:  # u' = x > u, as index order refines length: (R1), (R2)
                    column[x] = r1 = _demazure(prev[x], partners[i])
                    column[u] = _rule_two(prev[u], prev[x], r1, ed_rows[i])
            yield from walk(child, column)

    yield from walk(0, [{}] * (n - 1) + [{0: 1}])


def _pair_product(model: SchubertModel, u: int, v: int) -> dict[int, int]:
    """psi_u psi_v as {w.index: c} with no zero c, for u.index <= v.index:
    the rules R1 and R2 of ``_columns``, run as a recursion on the pair.

    It recurses down u, the shorter factor, by its first right descent
    i, to psi_e psi_y = [y = w_o] psi_e, and stops early where
    psi_u psi_y is psi_u (y = w_o) or 0 (l(u) + l(y) < l(w_o), below the
    dimension of a Richardson variety); the pairs it meets are memoized
    for this call.  Each step reads the rows of e_i D_i it needs, lazily,
    from ``_e_after_d``."""
    partners, first = model._right_steps
    elements = model.group.elements
    top = len(elements) - 1
    depth = elements[top].length
    memo: dict[tuple[int, int], dict[int, int]] = {}  # for this pair only

    def product(u, y):
        got = memo.get((u, y))
        if got is None:
            if y == top:
                got = {u: 1}
            elif elements[u].length + elements[y].length < depth:
                got = {}
            else:
                i = first[u]
                partner = partners[i]
                u1, x = partner[u], partner[y]
                if x < y:  # (R1)
                    got = _demazure(product(u1, y), partner)
                else:  # (R2), with psi_{y'} psi_u by (R1)
                    got = _rule_two(product(u1, y), product(u1, x), product(u, x),
                                    _e_after_d(model, i))
            memo[u, y] = got
        return got

    got = product(u, v)
    del product  # it refers to itself: so the memo goes now, not at the next collection
    return got


def _demazure(row: dict, partner: list) -> dict:
    """D_i of an integer vector {y.index: c}, ``partner[y]`` the index of
    y s_i: the relabelling psi_y -> psi_{max(y, y s_i)}, zero sums dropped."""
    out: dict[int, int] = {}
    for y, c in row.items():
        y = max(y, partner[y])
        out[y] = out.get(y, 0) + c
    return {y: c for y, c in out.items() if c}


def _e_after_d(model: SchubertModel, i: int) -> _LazyRows:
    """The table of e_i D_i, e_i = [L(-alpha_{i+1})], each row made on first
    read: row y is e_i's row at max(y, y s_i), the ``_line_row`` of
    alpha_{i+1}.  Table and rows are held by the model, in ``_ed_tables``
    and ``_e_rows``, for every ring over it."""
    got = model._ed_tables[i]
    if got is None:
        partner, alpha, memo = model.group._right[i], model.datum.simple_root(i + 1), model._e_rows
        got = model._ed_tables[i] = _LazyRows(
            lambda y: _line_row(model, memo, alpha, max(y, partner[y])))
    return got


def _rule_two(low: dict, high: dict, r1: dict, ed_rows) -> dict:
    """(R2) from low = psi_u psi_v', high = psi_u' psi_v' and r1 = psi_u' psi_v
    = D_i(high), with ``ed_rows`` the table of e_i D_i:
    e_i D_i(low - high) + low - high + r1."""
    diff = dict(low)
    for y, c in high.items():
        diff[y] = diff.get(y, 0) - c
    out = _row_times(diff, ed_rows)
    for vec in (diff, r1):
        for y, c in vec.items():
            out[y] = out.get(y, 0) + c
    return {y: c for y, c in out.items() if c}


def _line_row(model: SchubertModel, memo: dict, nu: Weight, v: int) -> dict:
    """l_nu psi_v by w.index, l_nu = L(-nu), with the rows it makes kept in
    ``memo`` by (nu, v).  With i the first right descent of v, v' = v s_i and
    mu = s_i nu (derived in the README): l_nu psi_v = D_i(l_mu psi_v') +
    sign * sum of l_mu' psi_v' over the ``_alpha_string`` of mu, with the
    walk's D_i, ``_demazure``, and l_nu psi_e = psi_e."""
    got = memo.get((nu, v))
    if got is None and v:
        partners, first = model._right_steps
        i = first[v]
        partner, datum = partners[i], model.datum
        mu = datum.reflect(i + 1, nu)
        got = _demazure(_line_row(model, memo, mu, partner[v]), partner)
        sign, string = _alpha_string(mu, datum.simple_root(i + 1), mu[i])
        for weight in string:
            for y, c in _line_row(model, memo, weight, partner[v]).items():
                got[y] = got.get(y, 0) + sign * c
        got = memo[nu, v] = {y: c for y, c in got.items() if c}
    return {0: 1} if got is None else got


def _alpha_string(mu: Weight, alpha: Weight, n: int) -> tuple[int, list[Weight]]:
    """(sign, weights), n = mu_i: (l_{s_i mu} - l_mu) / (1 - e_i) = sign * sum l_weight."""
    js = range(1, n + 1) if n >= 0 else range(0, n, -1)
    return 1 if n >= 0 else -1, [tuple(c - j * a for c, a in zip(mu, alpha)) for j in js]
