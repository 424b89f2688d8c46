"""The four bases, Richardson and line classes, G/P constants and the verifiers.

These are the methods of ``SchubertRing`` that no structure-constant call
runs.  Each is defined here as a function of the method's name and put on
the class by ``records.Deferred``, so this module is compiled only when one
of them is first read: by ``verify``, ``richardson``, ``line-coeffs`` and
``parabolic-constants``, or a library caller.  They read constants from
the engine in ``kflag.ring``: one pair through ``structure_constants``, a
sweep's pairs off one ``_sweep``.  The sign/positivity sweeps report
violations as data rather than raising.
"""
from __future__ import annotations

import time
from operator import attrgetter

from .errors import ConfigError, IntegrityError
from .ring import KClass, LineReport, SignReport, _line_row, _row_times, _sweep
from .roots import ParabolicData, Weight, WeylElement

O_BASIS = "O"
IDEAL_BASIS = "IDEAL"
OMEGA_BASIS = "OMEGA"
OMEGA_BOUNDARY_BASIS = "OMEGA_BOUNDARY"
BASES = (O_BASIS, IDEAL_BASIS, OMEGA_BASIS, OMEGA_BOUNDARY_BASIS)


# -- products ------------------------------------------------------------


def o_basis_product(self, a: dict[WeylElement, int], b: dict[WeylElement, int]):
    """Product of two O-basis vectors using only integer structure constants."""
    out: dict[WeylElement, int] = {}
    for u, cu in a.items():
        for v, cv in b.items():
            for w, c in self.structure_constants(u, v).items():
                n = out.get(w, 0) + cu * cv * c
                if n:
                    out[w] = n
                else:
                    del out[w]
    return out


# -- the four bases ------------------------------------------------------


def ideal_sheaf_class(self, w: WeylElement) -> KClass:
    """[O_{X_w}(-boundary)] = sum_{v <= w} (-1)^{l(w)-l(v)} [O_{X_v}].

    The alternating sum over the Bruhat interval is a design choice,
    not a quoted formula; the dual-basis identity pairing with the
    opposite ideal classes validates it loudly.
    """
    out = {}
    for v in self.group.elements:
        if (self.group._lower_masks[w.index] >> v.index) & 1:
            out[v] = 1 if (w.length - v.length) % 2 == 0 else -1
    return KClass(O_BASIS, out)


def omega_class(self, w: WeylElement) -> KClass:
    """[omega_{X_w}] = [L(-rho)] . [O_{X_w}(-boundary)] over the O-basis.

    The O-basis coordinates of the ideal sheaf, read as
    OMEGA_BOUNDARY coordinates, are those of [omega_{X_w}].
    """
    ideal = self.ideal_sheaf_class(w).coeffs
    return self.change_basis(KClass(OMEGA_BOUNDARY_BASIS, ideal), O_BASIS)


def omega_boundary_class(self, w: WeylElement) -> KClass:
    """[omega_{X_w}(boundary)] = [L(-rho)] . [O_{X_w}] over the O-basis.

    omega_{X_w} = O_{X_w}(-boundary) (x) L(-rho) (Ramanathan 1985), read
    off the line table of -rho.
    """
    return KClass(O_BASIS, self.line_bundle_coeffs(w, _neg(self.datum.rho)))


def basis_matrix(self, basis: str) -> dict[WeylElement, dict[WeylElement, int]]:
    """O-basis expansions of the chosen basis, keyed by the basis label w."""
    if basis not in BASES:
        raise ConfigError(f"unknown basis {basis!r}")
    got = self._basis_matrix_memo.get(basis)
    if got is not None:
        return got
    rows: dict[WeylElement, dict[WeylElement, int]] = {}
    for w in self.group.elements:
        if basis == O_BASIS:
            rows[w] = {w: 1}
        elif basis == IDEAL_BASIS:
            rows[w] = dict(self.ideal_sheaf_class(w).coeffs)
        elif basis == OMEGA_BASIS:
            rows[w] = dict(self.omega_class(w).coeffs)
        else:
            rows[w] = dict(self.omega_boundary_class(w).coeffs)
    for w, row in rows.items():
        if row.get(w, 0) not in (1, -1):
            raise IntegrityError(f"basis {basis} is not unitriangular at {w!r}")
        for u in row:
            if not (self.group._lower_masks[w.index] >> u.index) & 1:
                raise IntegrityError(f"basis {basis} is not Bruhat-triangular")
    self._basis_matrix_memo[basis] = rows
    return rows


def coords_in_basis(self, o_vector: dict[WeylElement, int], basis: str):
    """Coordinates of an O-basis vector in another basis (exact back-solve)."""
    # imported here, so richardson, line-coeffs and parabolic-constants never load it
    from .tables import back_solve

    rows = self.basis_matrix(basis)
    out, residual = back_solve(
        self.group.elements, o_vector, rows.__getitem__, _int_exact_div
    )
    if residual:
        raise IntegrityError("basis change left a residual")
    return out


def change_basis(self, kclass: KClass, target: str) -> KClass:
    if kclass.basis == target:
        return kclass
    o_vec = _row_times(kclass.coeffs, self.basis_matrix(kclass.basis))
    if target == O_BASIS:
        return KClass(O_BASIS, o_vec)
    return KClass(target, self.coords_in_basis(o_vec, target))


# -- geometric classes ---------------------------------------------------


def richardson_class(self, v: WeylElement, w: WeylElement) -> KClass:
    """[O_{X^v intersect X_w}]; the zero class when v is not below w.

    X^v is a translate of X_{w_o v} and G is connected, so in K(G/B)
    the class is [O_{X_{w_o v}}] . [O_{X_w}].
    """
    return KClass(O_BASIS, dict(self.structure_constants(self._w_o_times[v.index], w)))


def line_bundle_coeffs(self, v: WeylElement, lam) -> dict[WeylElement, int]:
    """Coefficients of [L_{X_v}(lam)] over the Schubert basis."""
    table = self._line_table(tuple(lam))
    return dict(table[v])


def _line_table(self, lam: Weight):
    """The coefficients of [L(lam)] . [O_{X_v}] for every v, memoized.

    ``_demazure_line_table`` makes only 0 and +-omega_i, keyed here by element; by [L(lam + mu)]
    = [L(lam)] . [L(mu)] any other table is the product of the tables of
    ``_line_parts(lam)``, each distinct part made once.  The memo keeps the
    weights asked for and every weight with coordinates in {-1, 0, 1},
    the recursion's among them; the larger weights of the chain are
    dropped on return, so a large weight holds a few tables at a time.
    """
    if len(lam) != self.datum.rank:
        raise ConfigError("weight has wrong length")
    memo, elements = self._line_memo, self.group.elements

    def table(mu):
        got = memo.get(mu)
        if got is not None:
            return got
        parts = _line_parts(mu)
        if parts:
            tables = {p: table(p) for p in dict.fromkeys(parts)}
            got, *others = map(tables.get, parts)
            for other in others:
                got = {v: _row_times(row, other) for v, row in got.items()}
        else:  # each row in descending index, as a solve returns it
            got = {v: {elements[w]: c for w, c in sorted(row.items(), reverse=True)}
                   for v, row in zip(elements, _demazure_line_table(self, mu))}
        if mu == lam or max(map(abs, mu)) <= 1:
            memo[mu] = got
        return got

    return table(lam)


# -- parabolic calculus -----------------------------------------------------


def parabolic_structure_constants(
    self, pdata: ParabolicData, u: WeylElement, v: WeylElement
) -> dict[WeylElement, int]:
    """Constants of K(G/P) through the w_{o,P}-shift embedding into K(G/B).

    [O_{X_{uP}}] pulls back to [O_{X_{u w_{o,P}}}]; the product expansion
    must be supported on the embedded basis, and any stray coefficient is
    an integrity failure of the embedding.
    """
    reps = set(pdata.min_reps)
    if u not in reps or v not in reps:
        raise ConfigError("u and v must be minimal coset representatives")
    wop = pdata.longest_in_parabolic
    shifted = self.structure_constants(
        self.group.mul(u, wop), self.group.mul(v, wop)
    )
    wop_inv = self.group.inverse(wop)
    out = {}
    for x, c in shifted.items():
        w = self.group.mul(x, wop_inv)
        if w not in reps or x.length != w.length + wop.length:
            raise IntegrityError("coefficient outside parabolic image")
        out[w] = c
    return out


# -- verifiers ----------------------------------------------------------------


def verify_normalization(self) -> SignReport:
    """chi([O_{X_w}]) = 1 at two cocharacters, both by ``model.schubert_chi``.

    At the model's cocharacter k it reads the model's one-variable rows,
    which may come from a cache.  At k2, the
    cocharacter of simple-root heights (1, ..., 1, 2), it runs over a
    table built there and dropped: it checks the recursion at a
    specialization not proportional to k (from rank 2).
    """
    t0 = time.monotonic()
    ones = (1,) * self.datum.rank
    second = self.model.schubert_chi(ones[1:] + (2,))
    violations = [(w.word, at_k, at_k2) for w, at_k, at_k2 in zip(
        self.group.elements, self.model.schubert_chi(ones), second) if (at_k, at_k2) != (1, 1)]
    return SignReport(
        group=self.datum.label,
        name="normalization",
        parabolic=None,
        checked=len(self.group.elements),
        violations=violations,
        elapsed_ms=_ms(t0),
    )


def verify_alternating_signs(self, parabolic: ParabolicData | None = None) -> SignReport:
    """(-1)^N(u,v;w) c_{u,v}^w >= 0 and c = 0 when N < 0, over all triples."""
    return self.verify_sweeps("signs", parabolic)[0]


def verify_richardson_signs(self) -> SignReport:
    """Sign alternation and omega-basis nonnegativity for X^v intersect X_w."""
    return self.verify_sweeps("richardson")[0]


def verify_sweeps(self, which: str, parabolic: ParabolicData | None = None) -> list[SignReport]:
    """The sign report ("signs"), the Richardson report ("richardson") or
    both ("all") from one ``_sweep``, and none for any other ``which``.
    Each row is checked as it comes and dropped; the violations are sorted
    at the end into label order.

    Signs: (-1)^N(u,v;w) c_{u,v}^w >= 0, and c = 0 when N < 0, for each
    pair of labels of G/B or of ``parabolic``, a G/P constant read off the
    G/B one of the pair lifted by w_{o,P}.  Only nonzero c are checked: a
    zero c satisfies both rules.

    Richardson, on G/B: the O-basis coefficients c_u of [O_Y], Y = X^v
    intersect X_w, are c_{w_o v, w}^u, so the row {a, b} with w_o a <= b
    serves (w_o a, b) and (w_o b, a).  By duality (Brion 2002) the
    omega-basis coordinates are (-1)^{dim Y - l(u)} c_u, so the two forms
    of the theorem fail at the same u and each failure is listed in both;
    the omega rows are checked once, for unitriangularity.  An incomparable
    pair must give the zero class: the support of psi_w and that of
    psi_{w_o v} moved by w_o, the one-variable rows' supports, which are
    Bruhat intervals (README), must be disjoint.  This set-up is the
    Richardson report's ``elapsed_ms`` in a shared sweep, the rest the
    sign report's."""
    t0 = time.monotonic()
    group = self.group
    elements, n = group.elements, len(group.elements)
    signs, rich = which in ("signs", "all"), which in ("richardson", "all")
    wo = [x.index for x in self._w_o_times]
    rows, bad_signs, bad_rich, checked = {}, [], {}, 0
    if signs:
        if parabolic is None:
            labels, dim, wop = elements, self.dimension, group.identity
        else:
            labels, dim = parabolic.min_reps, self.parabolic_dimension(parabolic)
            wop = parabolic.longest_in_parabolic
        codim = {w: dim - w.length for w in labels}
        down = {group.mul(u, wop).index: u for u in labels}  # lifted index -> label
        lifted = range(n) if parabolic is None else sorted(down)
        rows = {b: lifted[:i + 1] for i, b in enumerate(lifted)}
    if rich:
        below = group._lower_masks
        self.basis_matrix(OMEGA_BASIS)
        support = [self.model.schubert_support(x) for x in elements]
        for w in range(n):
            for v in range(n):  # [O_{X^v}] is nonzero at w_o u where psi_{w_o v} is at u
                if not (below[w] >> v) & 1 and not support[wo[v]].isdisjoint(
                        wo[u] for u in support[w]):
                    words = elements[v].word, elements[w].word
                    bad_rich[w, v] = [(*words, "nonzero-empty-intersection")]
        for b in range(n) if not signs or parabolic else ():
            comparable = (a for a in range(b + 1) if (below[b] >> wo[a]) & 1)
            rows[b] = sorted({*rows.get(b, ()), *comparable})
        rich_ms = _ms(t0)
    for a, b, row in _sweep(self, rows):
        if signs and a in down and b in down:
            u, v = sorted((down[a], down[b]), key=attrgetter("index"))
            for x, c in row.items():
                w = down.get(x)
                if w is None:
                    raise IntegrityError("coefficient outside parabolic image")
                n_deg = codim[w] - codim[u] - codim[v]
                if n_deg < 0 or (c > 0) != (n_deg % 2 == 0):
                    bad_signs.append(((u.index, v.index, w.index),
                                      (u.word, v.word, w.word, c, n_deg)))
        if rich and (below[b] >> wo[a]) & 1:
            checked += 1 + (a != b)
            coeffs = {elements[x]: c for x, c in sorted(row.items(), reverse=True)}
            dim_y = elements[a].length + elements[b].length - self.dimension
            omega = _omega_coords(coeffs, dim_y)
            bad = [u for u, c in omega.items() if c < 0]
            for w, v in {(b, wo[a]), (a, wo[b])} if bad else ():
                words = elements[v].word, elements[w].word
                bad_rich[w, v] = ([(*words, u.word, coeffs[u], dim_y - u.length) for u in bad]
                                  + [(*words, u.word, omega[u], "omega-basis") for u in bad])
    reports = []
    if signs:
        reports.append(SignReport(self.datum.label, "signs", parabolic and parabolic.subset,
                                  len(labels) ** 3, [x for _, x in sorted(bad_signs)],
                                  _ms(t0) - rich_ms if rich else _ms(t0)))
    if rich:
        reports.append(SignReport(self.datum.label, "richardson", None, checked,
                                  [x for key in sorted(bad_rich) for x in bad_rich[key]],
                                  rich_ms if signs else _ms(t0)))
    return reports


def verify_line_identities(self, lam, mu) -> LineReport:
    """The line-bundle coefficient identity suite for one (lambda, mu) pair.

    Only additivity reads both weights.  Each other check runs once per
    ring for what it reads, and its count and violations are memoized:
    triangularity and duality per lambda, dominant nonnegativity per
    weight, the fundamental-weight lemma and Chevalley once.  A report
    still carries every count and every violation, in the same order.
    """
    t0 = time.monotonic()
    lam = tuple(lam)
    mu = tuple(mu)
    report = LineReport(group=self.datum.label, lam=lam, mu=mu)
    dominant = [_line_check(self, _dominant_nonnegativity, weight)
                for weight in (lam, mu, _add(lam, mu))]
    checks = (
        ("triangularity", _line_check(self, _triangularity, lam)),
        ("duality", _line_check(self, _duality, lam)),
        ("additivity", _additivity(self, lam, mu)),
        ("fundamental-weight-lemma", _line_check(self, _fundamental_weight_lemma)),
        ("dominant-nonnegativity",
         (sum(n for n, _ in dominant), [x for _, bad in dominant for x in bad])),
        ("chevalley", _line_check(self, _chevalley)),
    )
    for name, (count, violations) in checks:
        report.checks.append((name, count))
        report.violations.extend(violations)
    report.elapsed_ms = _ms(t0)
    return report


def _line_check(ring, check, *weights):
    """check(ring, *weights) as (count, violations), run once per ring."""
    key = (check.__name__, *weights)
    got = ring._line_check_memo.get(key)
    if got is None:
        got = ring._line_check_memo[key] = check(ring, *weights)
    return got


def _triangularity(ring, lam: Weight):
    """c_v^v(lam) = 1, and c_v^w(lam) = 0 unless w <= v."""
    group = ring.group
    t_lam = ring._line_table(lam)
    count = 0
    violations = []
    for v in group.elements:
        row = t_lam[v]
        if row.get(v, 0) != 1:
            violations.append(("diagonal", v.word, lam, row.get(v, 0)))
        for w, c in row.items():
            count += 1
            if c and not group.bruhat_leq(w, v):
                violations.append(("triangular", v.word, w.word, lam, c))
    return count, violations


def _duality(ring, lam: Weight):
    """c_v^w(-lam) = (-1)^{l(v)-l(w)} c_{w_o w}^{w_o v}(lam).

    Serre duality on the intersection variety forces the sign factor;
    exhaustive exact computation confirms this signed form and refutes
    the sign-free w_o-twisted variant.
    """
    group = ring.group
    t_lam = ring._line_table(lam)
    t_nl = ring._line_table(_neg(lam))
    wo = ring._w_o_times
    violations = []
    for v in group.elements:
        for w in group.elements:
            lhs = t_nl[v].get(w, 0)
            sign = 1 if (v.length - w.length) % 2 == 0 else -1
            rhs = sign * t_lam[wo[w.index]].get(wo[v.index], 0)
            if lhs != rhs:
                violations.append(("duality", v.word, w.word, lhs, rhs))
    return len(group.elements) ** 2, violations


def _additivity(ring, lam: Weight, mu: Weight):
    """c_v^w(lam + mu) = sum_x c_v^x(lam) c_x^w(mu), over all (v, w).

    Each row is a sparse product compared whole; only a row that
    differs is walked over w in element order for its violations.
    """
    elements = ring.group.elements
    t_lam = ring._line_table(lam)
    t_mu = ring._line_table(mu)
    t_sum = ring._line_table(_add(lam, mu))
    violations = []
    for v in elements:
        got = _row_times(t_lam[v], t_mu)
        want = t_sum[v]
        if got == want:
            continue
        for w in elements:
            if got.get(w, 0) != want.get(w, 0):
                violations.append(("additivity", v.word, w.word, got.get(w, 0), want.get(w, 0)))
    return len(elements) ** 2, violations


def _fundamental_weight_lemma(ring):
    """c_v^w(-omega_i) = -c_{w_o s_i, v}^w for v != w, and its dual form
    c_v^w(omega_i) = (-1)^{l(v)-l(w)-1} c_{w_o s_i, w_o w}^{w_o v},
    obtained by composing the minus form with the signed duality."""
    group = ring.group
    datum = ring.datum
    wo = ring._w_o_times
    count = 0
    violations = []
    for i in range(1, datum.rank + 1):
        omega_i = datum.fundamental_weight(i)
        t_nw = ring._line_table(_neg(omega_i))
        t_pw = ring._line_table(omega_i)
        wosi = group.right_mul(group.w_o, i)
        sc = [ring.structure_constants(wosi, x) for x in group.elements]
        for v in group.elements:
            sc_neg = sc[v.index]
            for w in group.elements:
                if w is v:
                    continue
                count += 2
                if t_nw[v].get(w, 0) != -sc_neg.get(w, 0):
                    violations.append(
                        ("lemma-minus", i, v.word, w.word,
                         t_nw[v].get(w, 0), sc_neg.get(w, 0))
                    )
                sign = -1 if (v.length - w.length) % 2 == 0 else 1
                rhs = sign * sc[wo[w.index].index].get(wo[v.index], 0)
                if t_pw[v].get(w, 0) != rhs:
                    violations.append(
                        ("lemma-plus", i, v.word, w.word, t_pw[v].get(w, 0), rhs)
                    )
    return count, violations


def _dominant_nonnegativity(ring, weight: Weight):
    """c_v^w(weight) >= 0 when weight is dominant; nothing to check else."""
    if not ring.datum.is_dominant(weight):
        return 0, []
    table = ring._line_table(weight)
    count = 0
    violations = []
    for v in ring.group.elements:
        for w, c in table[v].items():
            count += 1
            if c < 0:
                violations.append(("dominant", weight, v.word, w.word, c))
    return count, violations


def _chevalley(ring):
    """[L(-omega_i)] . psi_{w_o} = [L(-omega_i)], since psi_{w_o} = 1."""
    group = ring.group
    w_o = group.w_o
    violations = []
    for i in range(1, ring.datum.rank + 1):
        got = ring._line_table(_neg(ring.datum.fundamental_weight(i)))[w_o]
        want = {w_o: 1, group.right_mul(w_o, i): -1}
        if got != want:
            violations.append(
                ("chevalley", i, sorted((w.word, c) for w, c in got.items()))
            )
    return ring.datum.rank, violations


def _neg(weight: Weight) -> Weight:
    return tuple(-c for c in weight)


def _add(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def _line_parts(lam: Weight) -> list[Weight]:
    """The weights whose line tables multiply to lam's: h, h and lam - 2h,
    h_i = lam_i / 2 rounded away from 0 where |lam_i| > 1, else 0, or for
    h = 0 the lam_i omega_i; none for 0 and +-omega_i, which the recursion makes."""
    half = tuple(-(-c // 2) if c > 1 else c // 2 if c < -1 else 0 for c in lam)
    if any(half):
        parts = [half, half, tuple(c - 2 * h for c, h in zip(lam, half))]
    else:
        parts = [tuple(c if j == i else 0 for j in range(len(lam))) for i, c in enumerate(lam)]
    parts = [p for p in parts if any(p)]
    return parts if len(parts) > 1 else []


def _ms(t0: float) -> int:
    return int((time.monotonic() - t0) * 1000)


def _omega_coords(coeffs: dict[WeylElement, int], dim_y: int) -> dict[WeylElement, int]:
    """omega-basis coordinates of [omega_Y] from the O-basis coefficients
    c_u of [O_Y]: (-1)^{dim Y - l(u)} c_u, in the order of ``coeffs``."""
    return {u: c if (dim_y - u.length) % 2 == 0 else -c for u, c in coeffs.items()}


def _int_exact_div(c: int, d: int) -> int:
    q, r = divmod(c, d)
    if r:
        raise IntegrityError("basis change produced a non-integer coordinate")
    return q


def _demazure_line_table(ring: SchubertRing, lam: Weight) -> list:
    """The line table of any weight lam, reading no Schubert table: row
    v.index is the ``_line_row`` of -lam at v, memoized for this table only."""
    memo: dict = {}
    return [_line_row(ring.model, memo, _neg(lam), v) for v in range(len(ring.group.elements))]
