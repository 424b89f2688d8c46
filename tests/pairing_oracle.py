"""Pairing oracle: Schubert coefficients and chi through the dual basis.

The engine reads integer coefficients off a triangular back-solve in one
variable.  This oracle takes the other route: the opposite ideal-sheaf
classes xi_w = [O_{X^w}(-boundary X^w)] are dual to the Schubert classes
under chi(a . b), so the coefficient of [O_{X_w}] in f is chi(f . xi_w).
Every class here lives in the weight lattice, and chi is the fixed-point
sum; a second chi route sums the multivariate expansion's coefficients.

It also keeps the helpers the engine no longer needs: the w_o-translated
opposite classes, in the weight lattice and in one variable, the pairing,
O-basis vectors as model classes, the duality involution, the canonical
class, the dualizing twist in both rings, and the twist routes to the
omega-classes of Schubert varieties and to the omega-basis coordinates of
a Richardson variety.
"""
from __future__ import annotations

import time

from kflag import EquivClass, IntegrityError, KClass, LaurentPoly, SignReport
from kflag.ring import O_BASIS, OMEGA_BASIS


def involute(p):
    """e^lam -> e^(-lam); in one variable, its image t -> 1/t."""
    if not isinstance(p, LaurentPoly):  # a UniPoly of either width
        return type(p)({-e: c for e, c in p.terms.items()})
    return LaurentPoly(p.rank, {tuple(-x for x in e): c for e, c in p.terms.items()})


def dual(f: EquivClass) -> EquivClass:
    """The duality involution, pointwise, in either ring."""
    return EquivClass(f.rank, {v: involute(p) for v, p in f.restrictions.items()})


def scale(f: EquivClass, c) -> EquivClass:
    """Every restriction of f times an integer or a global character."""
    return EquivClass(f.rank, {v: p * c for v, p in f.restrictions.items()})


def canonical_class(model) -> EquivClass:
    """[omega_X] = [L(-2 rho)]."""
    return model.line_bundle_class(tuple(-2 * x for x in model.datum.rho))


def weyl_act(group, w, p):
    """Relabel exponents by w: e^lam -> e^{w(lam)} (a ring automorphism)."""
    return p.map_exponents(lambda e: group.apply(w, e))


def opposite_schubert_class(model, w) -> EquivClass:
    """[O_{X^w}] = the w_o-translate of [O_{X_{w_o w}}]; support {v >= w}."""
    group = model.group
    w_o = group.w_o
    src = model.schubert_class(group.mul(w_o, w))
    return EquivClass(
        model.rank,
        {group.mul(w_o, v): weyl_act(group, w_o, p) for v, p in src.restrictions.items()},
    )


def specialized_opposite_schubert_class(model, w) -> EquivClass:
    """specialize([O_{X^w}]) from the one-variable row of w_o w.

    The w_o-translate relabels e^lam by e^{w_o lam}, and w_o lam pairs
    with the height cocharacter to -<lam, k>, so in one variable the
    translate is t -> 1/t.
    """
    group = model.group
    w_o = group.w_o
    src = model.specialized_schubert_class(group.mul(w_o, w))
    return EquivClass(
        model.rank, {group.mul(w_o, v): involute(p) for v, p in src.restrictions.items()}
    )


def to_equiv(ring, kclass: KClass) -> EquivClass:
    """A K-class in any basis as a model class in the weight lattice."""
    if kclass.basis != O_BASIS:
        kclass = ring.change_basis(kclass, O_BASIS)
    acc = EquivClass(ring.model.rank, {})
    for w, c in kclass.coeffs.items():
        if c:
            acc = acc + scale(ring.model.schubert_class(w), c)
    return acc


def ideal_equiv(ring, w) -> EquivClass:
    """[O_{X_w}(-boundary)] in the weight lattice."""
    return to_equiv(ring, ring.ideal_sheaf_class(w))


def dualizing_twist(ring, f: EquivClass, codimension: int) -> EquivClass:
    """(-1)^codim . dual(f) . [omega_X]: the duality route to omega-classes."""
    out = dual(f) * canonical_class(ring.model)
    return out if codimension % 2 == 0 else -out


def specialized_twist(ring, spec: EquivClass, codimension: int) -> EquivClass:
    """The dualizing twist of a specialized class, where the dual is t -> 1/t."""
    m = ring.model
    out = dual(spec) * m.specialize(canonical_class(m))
    return out if codimension % 2 == 0 else -out


def omega_rows_by_twist(ring, w) -> tuple[dict, dict]:
    """O-basis coefficients of [omega_{X_w}] and [omega_{X_w}(boundary)]
    by the twist route: (-1)^codim . dual . [omega_X] applied to the
    one-variable rows of [O_{X_w}] and [O_{X_w}(-boundary)]."""
    m = ring.model
    codim = ring.codim(w)
    ideal = EquivClass(m.rank, {})
    for v, c in ring.ideal_sheaf_class(w).coeffs.items():
        ideal = ideal + scale(m.specialized_schubert_class(v), c)
    omega = specialized_twist(ring, m.specialized_schubert_class(w), codim)
    boundary = specialized_twist(ring, ideal, codim)
    return m.integer_coefficients(omega), m.integer_coefficients(boundary)


def pairing(ring, a, b) -> int:
    """chi(a . b); accepts model classes or K-classes."""
    fa = a if isinstance(a, EquivClass) else to_equiv(ring, a)
    fb = b if isinstance(b, EquivClass) else to_equiv(ring, b)
    return ring.model.euler_characteristic(fa * fb)


def richardson_omega_coords(ring, v, w) -> dict:
    """omega-basis coordinates of [omega_Y], Y = X^v intersect X_w, for
    v <= w: twist the one-variable product, expand it over the Schubert
    basis, and back-solve against the omega rows."""
    m = ring.model
    prod = specialized_opposite_schubert_class(m, v) * m.specialized_schubert_class(w)
    omega_y = specialized_twist(ring, prod, v.length + ring.codim(w))
    return ring.coords_in_basis(m.integer_coefficients(omega_y), OMEGA_BASIS)


def opposite_ideal_class(model, w) -> EquivClass:
    """[O_{X^w}(-boundary X^w)] = sum_{v >= w} (-1)^{l(v)-l(w)} [O_{X^v}]."""
    group = model.group
    acc = EquivClass(model.rank, {})
    for v in group.elements:
        if v.length < w.length or not group.bruhat_leq(w, v):
            continue
        term = opposite_schubert_class(model, v)
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
