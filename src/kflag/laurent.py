"""Exact multivariate Laurent polynomials over arbitrary-precision integers.

Exponent vectors live in the weight lattice (fundamental-weight
coordinates); a term ``exps: coeff`` is the monomial ``coeff * e^lam``
with ``lam = exps``.  Zero coefficients are never stored, so the zero
polynomial has an empty term map and equality is plain dict equality.
"""
from __future__ import annotations

import heapq

from .errors import NotDivisibleError
from .univariate import UniPoly


def _grlex(e: tuple[int, ...]):
    return (sum(e), e)


def _heap_key(e: tuple[int, ...]):
    """Min-heap key whose minimum is the graded-lex maximum."""
    return (-sum(e), tuple(-x for x in e))


class LaurentPoly:
    """Immutable-by-convention sparse Laurent polynomial."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict[tuple[int, ...], int] | None = None):
        self.rank = rank
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "LaurentPoly":
        return cls(rank)

    @classmethod
    def one(cls, rank: int) -> "LaurentPoly":
        return cls(rank, {(0,) * rank: 1})

    @classmethod
    def monomial(cls, exponent, coeff: int = 1) -> "LaurentPoly":
        e = tuple(exponent)
        return cls(len(e), {e: coeff})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), key=lambda t: _grlex(t[0])):
            bits.append(f"{c}*e{list(e)}")
        return " + ".join(bits)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            n = out.get(e, 0) + c
            if n:
                out[e] = n
            else:
                out.pop(e, None)
        return LaurentPoly(self.rank, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            n = out.get(e, 0) - c
            if n:
                out[e] = n
            else:
                out.pop(e, None)
        return LaurentPoly(self.rank, out)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly(self.rank)
            return LaurentPoly(self.rank, {e: c * other for e, c in self.terms.items()})
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple[int, ...], int] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                n = out.get(e, 0) + ca * cb
                if n:
                    out[e] = n
                else:
                    del out[e]
        return LaurentPoly(self.rank, out)

    __rmul__ = __mul__

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / other; raises NotDivisibleError otherwise.

        Both operands are shifted to genuine polynomials with componentwise
        minimal exponent zero; divisibility is unchanged by the shift since
        monomials are units.  Division then eliminates leading terms under
        the graded-lexicographic order.
        """
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly(self.rank)
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        ma = self._min_exponent()
        mb = other._min_exponent()
        shift = tuple(x - y for x, y in zip(ma, mb))
        rem = {tuple(x - y for x, y in zip(e, ma)): c for e, c in self.terms.items()}
        div = {tuple(x - y for x, y in zip(e, mb)): c for e, c in other.terms.items()}
        lead_b = max(div, key=_grlex)
        lc_b = div[lead_b]
        quot: dict[tuple[int, ...], int] = {}
        # lazy-deletion heap tracking the graded-lex maximum of the remainder
        heap = [(_heap_key(e), e) for e in rem]
        heapq.heapify(heap)
        while rem:
            lead_r = heapq.heappop(heap)[1]
            if lead_r not in rem:
                continue
            qe = tuple(x - y for x, y in zip(lead_r, lead_b))
            if any(x < 0 for x in qe):
                raise NotDivisibleError("no exact Laurent quotient exists")
            qc, residue = divmod(rem[lead_r], lc_b)
            if residue:
                raise NotDivisibleError("leading coefficient does not divide")
            quot[qe] = qc
            for eb, cb in div.items():
                e = tuple(x + y for x, y in zip(qe, eb))
                old = rem.get(e)
                n = (old or 0) - qc * cb
                if n:
                    rem[e] = n
                    if old is None:
                        heapq.heappush(heap, (_heap_key(e), e))
                else:
                    rem.pop(e, None)
        return LaurentPoly(
            self.rank, {tuple(x + s for x, s in zip(e, shift)): c for e, c in quot.items()}
        )

    def _min_exponent(self) -> tuple[int, ...]:
        its = iter(self.terms)
        first = next(its)
        mins = list(first)
        for e in its:
            for k, x in enumerate(e):
                if x < mins[k]:
                    mins[k] = x
        return tuple(mins)

    # -- lattice symmetries -------------------------------------------------

    def map_exponents(self, fn) -> "LaurentPoly":
        """Relabel exponents by a lattice map (e.g. a Weyl group element)."""
        out: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            e2 = fn(e)
            out[e2] = out.get(e2, 0) + c
        return LaurentPoly(self.rank, out)

    # -- specializations ---------------------------------------------------

    def eval_at_one(self) -> int:
        """Specialize every e^lam to 1 (sum of coefficients)."""
        return sum(self.terms.values())

    def specialize(self, cochar: tuple[int, ...], poly=UniPoly) -> UniPoly:
        """e^lam -> t^<lam, cochar> with <lam, k> = sum_i lam_i k_i, packed
        by ``poly``, a UniPoly class of any width (64 bits by default)."""
        out: dict[int, int] = {}
        for e, c in self.terms.items():
            d = sum(x * k for x, k in zip(e, cochar))
            n = out.get(d, 0) + c
            if n:
                out[d] = n
            else:
                del out[d]
        return poly(out)
