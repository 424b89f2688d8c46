"""Line-suite oracle: every identity of the line-bundle suite, per pair,
and line tables from the public API.

The engine runs each check of ``SchubertRing.verify_line_identities`` once
per ring for the weights it reads and memoizes the outcome.  This oracle
runs the whole suite afresh for one (lambda, mu) pair, reading the ring's
line tables and structure constants directly, with additivity summed entry
by entry; a report equal to it in counts and violations shows the memo
neither loses nor moves a violation.

``public_line_table`` is the reference for the ring's line tables: it
solves each row by the model's public calls and shares no code with the
ring's line recursion.
"""
from __future__ import annotations

from kflag import LineReport


_SOLVED = {}  # (group, lam, v.index) -> row v of the solve of lam


def public_line_table(model, lam) -> dict:
    """[L(lam)] . [O_{X_v}] over the Schubert basis for every v: the
    specialized line class times row v of the one-variable table, solved
    by ``integer_coefficients``, once per group, weight and row for every
    test that compares with it.  The solve reads only the model's table,
    and no test that plants a table calls it, so every model of a group
    gives the same rows."""
    lam, group, line = tuple(lam), model.group, None
    out = {}
    for v in group.elements:
        got = _SOLVED.get((group, lam, v.index))
        if got is None:
            if line is None:
                line = model.specialize(model.line_bundle_class(lam))
            got = model.integer_coefficients(line * model.specialized_schubert_class(v))
            _SOLVED[group, lam, v.index] = got
        out[v] = got
    return out


def line_report(ring, lam, mu) -> LineReport:
    """The line-bundle identity suite for one (lambda, mu) pair, computed
    without memoized checks; elapsed_ms is left at 0."""
    lam = tuple(lam)
    mu = tuple(mu)
    group = ring.group
    datum = ring.datum
    w_o = group.w_o
    report = LineReport(group=datum.label, lam=lam, mu=mu)
    neg = lambda x: tuple(-c for c in x)
    add = lambda x, y: tuple(a + b for a, b in zip(x, y))

    t_lam = ring._line_table(lam)
    t_mu = ring._line_table(mu)
    t_sum = ring._line_table(add(lam, mu))

    count = 0
    for v in group.elements:
        row = t_lam[v]
        if row.get(v, 0) != 1:
            report.violations.append(("diagonal", v.word, lam, row.get(v, 0)))
        for w, c in row.items():
            count += 1
            if c and not group.bruhat_leq(w, v):
                report.violations.append(("triangular", v.word, w.word, lam, c))
    report.checks.append(("triangularity", count))

    # duality: c_v^w(-lam) = (-1)^{l(v)-l(w)} c_{w_o w}^{w_o v}(lam)
    t_nl = ring._line_table(neg(lam))
    wo = [group.mul(w_o, x) for x in group.elements]  # w_o x, by x.index
    count = 0
    for v in group.elements:
        for w in group.elements:
            count += 1
            lhs = t_nl[v].get(w, 0)
            sign = 1 if (v.length - w.length) % 2 == 0 else -1
            rhs = sign * t_lam[wo[w.index]].get(wo[v.index], 0)
            if lhs != rhs:
                report.violations.append(("duality", v.word, w.word, lhs, rhs))
    report.checks.append(("duality", count))

    count = 0
    for v in group.elements:
        for w in group.elements:
            count += 1
            want = t_sum[v].get(w, 0)
            got = sum(c_x * t_mu[x].get(w, 0) for x, c_x in t_lam[v].items())
            if got != want:
                report.violations.append(("additivity", v.word, w.word, got, want))
    report.checks.append(("additivity", count))

    # c_v^w(-omega_i) = -c_{w_o s_i, v}^w for v != w, and its dual form
    # c_v^w(omega_i) = (-1)^{l(v)-l(w)-1} c_{w_o s_i, w_o w}^{w_o v}
    count = 0
    for i in range(1, datum.rank + 1):
        omega_i = datum.fundamental_weight(i)
        t_nw = ring._line_table(neg(omega_i))
        t_pw = ring._line_table(omega_i)
        wosi = group.right_mul(w_o, i)
        for v in group.elements:
            sc_neg = ring.structure_constants(wosi, v)
            for w in group.elements:
                if w is v:
                    continue
                count += 2
                if t_nw[v].get(w, 0) != -sc_neg.get(w, 0):
                    report.violations.append(
                        ("lemma-minus", i, v.word, w.word, t_nw[v].get(w, 0), sc_neg.get(w, 0))
                    )
                sign = -1 if (v.length - w.length) % 2 == 0 else 1
                rhs = sign * ring.structure_constants(wosi, wo[w.index]).get(wo[v.index], 0)
                if t_pw[v].get(w, 0) != rhs:
                    report.violations.append(
                        ("lemma-plus", i, v.word, w.word, t_pw[v].get(w, 0), rhs)
                    )
    report.checks.append(("fundamental-weight-lemma", count))

    count = 0
    for weight, table in ((lam, t_lam), (mu, t_mu), (add(lam, mu), t_sum)):
        if not datum.is_dominant(weight):
            continue
        for v in group.elements:
            for w, c in table[v].items():
                count += 1
                if c < 0:
                    report.violations.append(("dominant", weight, v.word, w.word, c))
    report.checks.append(("dominant-nonnegativity", count))

    # [L(-omega_i)] . psi_{w_o} = [L(-omega_i)], since psi_{w_o} = 1
    count = 0
    for i in range(1, datum.rank + 1):
        got = ring._line_table(neg(datum.fundamental_weight(i)))[w_o]
        want = {w_o: 1, group.right_mul(w_o, i): -1}
        count += 1
        if got != want:
            report.violations.append(
                ("chevalley", i, sorted((w.word, c) for w, c in got.items()))
            )
    report.checks.append(("chevalley", count))
    return report
