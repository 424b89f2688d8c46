"""Independent chi oracle: the fixed-point sum through reduced fractions.

The engine writes every fixed point's denominator as a unit times one
product D of binomials 1 - t^h, sums the numerators over D and divides
the binomials out one at a time.  This oracle takes the other route and
uses neither fact: every fixed point contributes its own denominator
prod_{alpha>0} (1 - t^<v(alpha), k>), expanded, as a fraction num/den; each
partial sum is reduced by a gcd over Z[t] (primitive pseudo-remainder
sequence, so no rational arithmetic), and the reduced total must be a
Laurent polynomial whose value at t = 1 is chi.
"""
from __future__ import annotations

from math import gcd

from kflag import IntegrityError, PoleAtOneError, UniPoly
from kflag.univariate import poly_divexact


def fixed_point_denominator(model, v) -> UniPoly:
    """prod_{alpha>0} (1 - t^<v(alpha), k>) expanded; k is the model's cocharacter."""
    k = model.cocharacter
    out = UniPoly.one()
    for alpha in model.datum.positive_roots:
        beta = model.datum.act(v.word, alpha)
        out = out * UniPoly.one_minus_power(sum(x * ki for x, ki in zip(beta, k)))
    return out


def to_dense(p: UniPoly) -> list[int]:
    """Coefficient list, constant term first; requires nonnegative degrees."""
    terms = p.terms
    if not terms:
        return []
    if min(terms) < 0:
        raise ValueError("negative exponents present")
    out = [0] * (max(terms) + 1)
    for e, c in terms.items():
        out[e] = c
    return out


def from_dense(coeffs: list[int]) -> UniPoly:
    return UniPoly({e: c for e, c in enumerate(coeffs) if c != 0})


def _strip(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _content(coeffs) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    return g


def _primitive(coeffs: list[int]) -> list[int]:
    g = _content(coeffs)
    if g in (0, 1):
        return coeffs
    return [c // g for c in coeffs]


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Primitive pseudo-remainder sequence step (dense, low-first lists)."""
    da, db = len(a) - 1, len(b) - 1
    lc = b[-1]
    r = [c * (lc ** (da - db + 1)) for c in a]
    for k in range(da - db, -1, -1):
        top = r[db + k]
        if top % lc:
            raise AssertionError("pseudo-division invariant broken")
        q = top // lc
        if q:
            for j in range(db + 1):
                r[j + k] -= q * b[j]
    return _strip(r)


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """gcd over Z[t] of two genuine polynomials, primitive with positive lead."""
    da = _strip(to_dense(a))
    db = _strip(to_dense(b))
    if not da:
        out = db
    elif not db:
        out = da
    else:
        ca, cb = _content(da), _content(db)
        cg = gcd(ca, cb)
        da = _primitive(da)
        db = _primitive(db)
        if len(da) < len(db):
            da, db = db, da
        while db:
            r = _primitive(_prem(da, db))
            da, db = db, r
        out = [c * cg for c in da]
    if out and out[-1] < 0:
        out = [-c for c in out]
    return from_dense(out)


class UniRational:
    """A reduced fraction of univariate Laurent polynomials.

    Normal form: the denominator is a genuine polynomial with nonzero
    constant term, positive leading coefficient and content coprime to the
    numerator's; the numerator may keep negative exponents.  Under this
    normal form the fraction is a Laurent polynomial iff den == 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = UniPoly.zero()
            self.den = UniPoly.one()
            return
        k = min(den.terms)
        if k:
            den = den.shift(-k)
            num = num.shift(-k)
        shift = min(min(num.terms), 0)
        num_poly = num.shift(-shift)
        g = poly_gcd(num_poly, den)
        if max(g.terms) > 0 or _content(g.terms.values()) != 1:
            num_poly = poly_divexact(num_poly, g)
            den = poly_divexact(den, g)
        lead = den.terms[max(den.terms)]
        if lead < 0:
            num_poly = -num_poly
            den = -den
        self.num = num_poly.shift(shift)
        self.den = den

    @classmethod
    def zero(cls) -> "UniRational":
        return cls(UniPoly.zero(), UniPoly.one())

    def __add__(self, other: "UniRational") -> "UniRational":
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        g = poly_gcd(self.den, other.den)
        d1 = poly_divexact(self.den, g)
        d2 = poly_divexact(other.den, g)
        num = self.num * d2 + other.num * d1
        den = self.den * d2
        return UniRational(num, den)

    def is_laurent_polynomial(self) -> bool:
        return self.den == UniPoly.one()

    def __repr__(self) -> str:
        return f"({self.num!r}) / ({self.den!r})"


def sum_and_evaluate_at_one(terms) -> int:
    """Exact sum of (numerator, denominator) pairs, evaluated at t = 1.

    The reduced sum must be a Laurent polynomial; a reduced denominator
    vanishing at t = 1 raises PoleAtOneError, any other non-unit
    denominator raises IntegrityError.
    """
    acc = UniRational.zero()
    for num, den in terms:
        if num.is_zero():
            if den.is_zero():
                raise ZeroDivisionError("zero denominator")
            continue
        acc = acc + UniRational(num, den)
    if acc.is_laurent_polynomial():
        return acc.num.eval_at_one()
    if acc.den.eval_at_one() == 0:
        raise PoleAtOneError("localization sum has a pole at t = 1")
    raise IntegrityError("localization sum is not a Laurent polynomial")


def chi(model, f) -> int:
    """chi(f) by the reduced-fraction fixed-point sum."""
    terms = [
        (p.specialize(model.cocharacter), fixed_point_denominator(model, v))
        for v, p in f.restrictions.items()
    ]
    return sum_and_evaluate_at_one(terms)
