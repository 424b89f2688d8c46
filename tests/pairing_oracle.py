"""Pairing oracle: Schubert coefficients and chi through the dual basis.

The engine reads integer coefficients off a triangular back-solve in one
variable.  This oracle takes the other route: the opposite ideal-sheaf
classes xi_w = [O_{X^w}(-boundary X^w)] are dual to the Schubert classes
under chi(a . b), so the coefficient of [O_{X_w}] in f is chi(f . xi_w).
Every class here lives in the weight lattice, and chi is the fixed-point
sum; a second chi route sums the multivariate expansion's coefficients.
"""
from __future__ import annotations

import time

from kflag import EquivClass, IntegrityError, SignReport


def opposite_ideal_class(model, w) -> EquivClass:
    """[O_{X^w}(-boundary X^w)] = sum_{v >= w} (-1)^{l(v)-l(w)} [O_{X^v}]."""
    group = model.group
    acc = EquivClass(model.rank, {})
    for v in group.elements:
        if v.length < w.length or not group.bruhat_leq(w, v):
            continue
        term = model.opposite_schubert_class(v)
        acc = acc + (term if (v.length - w.length) % 2 == 0 else -term)
    return acc


def euler_characteristic_via_expansion(model, f: EquivClass) -> int:
    """chi as the sum of specialized Schubert-basis coefficients."""
    return sum(model.expand_in_schubert_basis(f).specialized.values())


def extract_coefficients_via_pairing(ring, f: EquivClass) -> dict:
    """Schubert coefficients through chi(f . xi_w); cross-checked against
    the triangular expansion, raising on any mismatch."""
    model = ring.model
    out = {}
    for w in ring.group.elements:
        c = model.euler_characteristic(f * opposite_ideal_class(model, w))
        if c:
            out[w] = c
    expanded = model.expand_in_schubert_basis(f).specialized
    if out != expanded:
        raise IntegrityError("pairing and expansion routes disagree")
    return out


def verify_dual_bases(ring) -> SignReport:
    """pairing([O_{X_u}], xi_w) = delta_{u,w} over all pairs."""
    t0 = time.monotonic()
    model = ring.model
    elements = ring.group.elements
    xi = [opposite_ideal_class(model, w) for w in elements]
    violations = []
    for u in elements:
        psi = model.schubert_class(u)
        for w in elements:
            got = model.euler_characteristic(psi * xi[w.index])
            want = 1 if u is w else 0
            if got != want:
                violations.append((u.word, w.word, got, want))
    n = len(elements)
    return SignReport(
        group=ring.datum.label,
        name="dual-bases",
        parabolic=None,
        checked=n * n,
        violations=violations,
        elapsed_ms=int((time.monotonic() - t0) * 1000),
    )
