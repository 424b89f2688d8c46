"""Univariate Laurent polynomials over the integers with exact division.

This is the carrier of the fixed-point pushforward: each fixed point
contributes numerator/denominator in one variable t, the exact sum of the
fractions must collapse to a Laurent polynomial, and its value at t = 1
is the integer the geometry asks for.  The sum is put over one product of
binomials 1 - t^h and divided out exactly by ``poly_divexact``, the one
exact division in Z[t, 1/t], so no gcd reduction is needed.
"""
from __future__ import annotations

from .errors import NotDivisibleError


class UniPoly:
    """Sparse univariate Laurent polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def one(cls) -> "UniPoly":
        return cls({0: 1})

    @classmethod
    def one_minus_power(cls, n: int) -> "UniPoly":
        """1 - t^n (for n = 0 this is the zero polynomial)."""
        if n == 0:
            return cls()
        return cls({0: 1, n: -1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*t^{e}" for e, c in sorted(self.terms.items()))

    def __add__(self, other: "UniPoly") -> "UniPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            n = out.get(e, 0) + c
            if n:
                out[e] = n
            else:
                del out[e]
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            n = out.get(e, 0) - c
            if n:
                out[e] = n
            else:
                del out[e]
        return UniPoly(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return UniPoly({e: c * other for e, c in self.terms.items()})
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                out[e] = get(e, 0) + ca * cb
        return UniPoly(out)  # drops the terms that cancelled

    __rmul__ = __mul__

    def shift(self, k: int) -> "UniPoly":
        """Multiply by t^k."""
        return UniPoly({e + k: c for e, c in self.terms.items()})

    def involute(self) -> "UniPoly":
        """t -> 1/t, the image of the duality involution e^lam -> e^(-lam)."""
        return UniPoly({-e: c for e, c in self.terms.items()})

    def min_degree(self) -> int:
        return min(self.terms)

    def degree(self) -> int:
        return max(self.terms)

    def eval_at_one(self) -> int:
        return sum(self.terms.values())


def poly_divexact(a: UniPoly, b: UniPoly) -> UniPoly:
    """Exact quotient a / b in Z[t, 1/t]; raises NotDivisibleError if there is none.

    Monomials are units, so with each operand's lowest degree as its offset
    this is long division into a dense remainder by a divisor with nonzero
    constant term, whose terms are walked sparsely.
    """
    if not b.terms:
        raise ZeroDivisionError("division by zero polynomial")
    if not a.terms:
        return UniPoly()
    lo_a, lo_b = min(a.terms), min(b.terms)
    top = max(b.terms)
    span, lead = top - lo_b, b.terms[top]
    rest = [(e - lo_b, c) for e, c in b.terms.items() if e != top]
    r = [0] * (max(a.terms) - lo_a + 1)
    for e, c in a.terms.items():
        r[e - lo_a] = c
    out = {}
    for k in range(len(r) - 1 - span, -1, -1):
        q, residue = divmod(r[k + span], lead)
        if residue:
            raise NotDivisibleError("univariate division is not exact")
        if q:
            out[k + lo_a - lo_b] = q
            for j, c in rest:
                r[j + k] -= q * c
    if any(r[:span]):
        raise NotDivisibleError("univariate division is not exact")
    return UniPoly(out)
