"""Dict-based reference for the packed ``kflag.univariate`` arithmetic.

This is the sparse representation ``UniPoly`` used before it was packed
into one integer: a polynomial is a dict exponent -> nonzero coefficient,
and every operation walks the terms.  It shares no code with the packed
ring, so ``test_univariate_packed.py`` can check each packed operation
against it.
"""
from __future__ import annotations

from kflag.errors import NotDivisibleError


class RefPoly:
    """Sparse univariate Laurent polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "RefPoly":
        return cls()

    @classmethod
    def one(cls) -> "RefPoly":
        return cls({0: 1})

    @classmethod
    def one_minus_power(cls, n: int) -> "RefPoly":
        """1 - t^n (for n = 0 this is the zero polynomial)."""
        if n == 0:
            return cls()
        return cls({0: 1, n: -1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, RefPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*t^{e}" for e, c in sorted(self.terms.items()))

    def __add__(self, other: "RefPoly") -> "RefPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            n = out.get(e, 0) + c
            if n:
                out[e] = n
            else:
                del out[e]
        return RefPoly(out)

    def __neg__(self) -> "RefPoly":
        return RefPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "RefPoly") -> "RefPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            n = out.get(e, 0) - c
            if n:
                out[e] = n
            else:
                del out[e]
        return RefPoly(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return RefPoly({e: c * other for e, c in self.terms.items()})
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, int] = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                out[e] = get(e, 0) + ca * cb
        return RefPoly(out)  # drops the terms that cancelled

    __rmul__ = __mul__

    def shift(self, k: int) -> "RefPoly":
        """Multiply by t^k."""
        return RefPoly({e + k: c for e, c in self.terms.items()})

    def eval_at_one(self) -> int:
        return sum(self.terms.values())


def ref_divexact(a: RefPoly, b: RefPoly) -> RefPoly:
    """Exact quotient a / b in Z[t, 1/t]; raises NotDivisibleError if there is none.

    Monomials are units, so with each operand's lowest degree as its offset
    this is long division into a dense remainder by a divisor with nonzero
    constant term, whose terms are walked sparsely.
    """
    if not b.terms:
        raise ZeroDivisionError("division by zero polynomial")
    if not a.terms:
        return RefPoly()
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
    return RefPoly(out)
