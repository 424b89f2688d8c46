"""Univariate Laurent polynomials over the integers with exact division.

This is the carrier of the fixed-point pushforward: each fixed point
contributes numerator/denominator in one variable t, the exact sum of the
fractions must collapse to a Laurent polynomial, and its value at t = 1
is the integer the geometry asks for.  The sum is put over one product of
binomials 1 - t^h and divided out exactly by ``poly_divexact``, the one
exact division in Z[t, 1/t], so no gcd reduction is needed.

A polynomial t^s X(t) with X(0) != 0 is stored Kronecker-packed as the
shift s, the integer X(2^64) and an upper bound on its L1 norm, so that
every ring operation is one or two bigint operations.  Packing is a ring
homomorphism, so the integers are always exact; reading coefficients back
is unique while each lies in (-2^63, 2^63).  Every value therefore carries
a norm bound (sum and product bounds, the exact norm of a certified
quotient), and a bound that reaches 2^63 raises ``IntegrityError``.
"""
from __future__ import annotations

import struct
from functools import cache
from types import MappingProxyType

from .errors import IntegrityError, NotDivisibleError

DIGIT_BITS = 64  # one coefficient per 8-byte word ("Q" in ``struct``)
_HALF = 1 << (DIGIT_BITS - 1)  # coefficients and norm bounds stay below this
_MASK = (1 << DIGIT_BITS) - 1  # the lowest digit; also 2^64 = 1 mod it


def _out_of_range(bound: int) -> IntegrityError:
    return IntegrityError(
        f"coefficient bound 2^{bound.bit_length() - 1} is out of the packed range 2^63"
    )


@cache
def _offset(n: int) -> int:
    """The integer whose n base-2^64 digits are all 2^63."""
    return int.from_bytes(_HALF.to_bytes(8, "little") * n, "little")


def _width(x: int) -> int:
    """Enough base-2^64 digits for the balanced expansion of x, plus spare zeros."""
    return x.bit_length() // DIGIT_BITS + 2


def _digits(x: int) -> list[int]:
    """Balanced base-2^64 digits of x, in [-2^63, 2^63), lowest first, with
    zero digits on top: adding the offset makes every digit nonnegative, so
    one ``to_bytes`` reads them all."""
    n = _width(x)
    raw = (x + _offset(n)).to_bytes(8 * n, "little")
    return [u - _HALF for u in struct.unpack(f"<{n}Q", raw)]


def _make(shift: int, x: int, bound: int) -> "UniPoly":
    p = object.__new__(UniPoly)
    p._shift, p._packed, p._bound = shift, x, bound
    return p


def _strip(shift: int, x: int) -> tuple[int, int]:
    """t^shift x with the trailing zero digits of x (nonzero) moved into the shift."""
    zeros = ((x & -x).bit_length() - 1) // DIGIT_BITS
    return shift + zeros, x >> (zeros * DIGIT_BITS)


def _normal(shift: int, x: int, bound: int) -> "UniPoly":
    """The polynomial t^shift x, in normal form."""
    if not x:
        return _ZERO
    if not x & _MASK:
        shift, x = _strip(shift, x)
    return _make(shift, x, bound)


class UniPoly:
    """Univariate Laurent polynomial with integer coefficients, Kronecker-packed.

    ``terms`` decodes a read-only exponent -> coefficient view; the
    arithmetic never reads it.
    """

    __slots__ = ("_shift", "_packed", "_bound")

    def __init__(self, terms: dict[int, int] | None = None):
        shift = x = bound = 0
        if terms:
            shift = min(terms)
            bound = sum(map(abs, terms.values()))
            if bound >= _HALF:
                raise _out_of_range(bound)
            for e, c in terms.items():
                x += c << (DIGIT_BITS * (e - shift))
        if not x:
            shift = bound = 0
        elif not x & _MASK:  # zero coefficients were given at the lowest exponents
            shift, x = _strip(shift, x)
        self._shift, self._packed, self._bound = shift, x, bound

    @classmethod
    def zero(cls) -> "UniPoly":
        return _ZERO

    @classmethod
    def one(cls) -> "UniPoly":
        return _ONE

    @classmethod
    def one_minus_power(cls, n: int) -> "UniPoly":
        """1 - t^n (for n = 0 this is the zero polynomial)."""
        if n > 0:
            return _make(0, 1 - (1 << (DIGIT_BITS * n)), 2)
        if n < 0:
            return _make(n, (1 << (DIGIT_BITS * -n)) - 1, 2)
        return _ZERO

    @classmethod
    def from_coefficients(cls, shift: int, coeffs: list[int]) -> "UniPoly":
        """t^shift (c_0 + c_1 t + ... + c_k t^k), the inverse of ``coefficients``.

        Raises ValueError unless coeffs is a non-empty list of plain ints
        (booleans are refused) with c_0 and c_k nonzero, and IntegrityError
        if its L1 norm reaches 2^63.
        """
        if not (type(coeffs) is list and coeffs and coeffs[0] and coeffs[-1]):
            raise ValueError("coefficients must be a non-empty list with nonzero ends")
        if set(map(type, coeffs)) != {int}:
            raise ValueError("coefficients must be integers")
        bound = sum(map(abs, coeffs))
        if bound >= _HALF:
            raise _out_of_range(bound)
        # each c_i fits a signed word; flipping its top bit adds 2^63, which
        # the offset takes back from every digit at once
        n = len(coeffs)
        u = int.from_bytes(struct.pack(f"<{n}q", *coeffs), "little")
        off = _offset(n)
        return _make(shift, (u ^ off) - off, bound)

    def coefficients(self) -> tuple[int, list[int]]:
        """(s, [c_0, ..., c_k]) with self = t^s (c_0 + ... + c_k t^k), c_0 and
        c_k nonzero; the zero polynomial gives (0, [])."""
        digits = _digits(self._packed)
        while digits and not digits[-1]:
            digits.pop()
        return self._shift, digits

    @property
    def terms(self) -> MappingProxyType:
        s = self._shift
        return MappingProxyType({s + i: c for i, c in enumerate(_digits(self._packed)) if c})

    def is_zero(self) -> bool:
        return not self._packed

    def __bool__(self) -> bool:
        return bool(self._packed)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and self._packed == other._packed
            and self._shift == other._shift
        )

    def __hash__(self):
        return hash((self._shift, self._packed))

    def __repr__(self) -> str:
        if not self._packed:
            return "0"
        return " + ".join(f"{c}*t^{e}" for e, c in sorted(self.terms.items()))

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if not other._packed:
            return self
        if not self._packed:
            return other
        bound = self._bound + other._bound
        if bound >= _HALF:
            raise _out_of_range(bound)
        d = other._shift - self._shift
        if d >= 0:
            return _normal(self._shift, self._packed + (other._packed << (DIGIT_BITS * d)), bound)
        return _normal(other._shift, (self._packed << (DIGIT_BITS * -d)) + other._packed, bound)

    def __neg__(self) -> "UniPoly":
        return _make(self._shift, -self._packed, self._bound)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        if not other._packed:
            return self
        if not self._packed:
            return -other
        bound = self._bound + other._bound
        if bound >= _HALF:
            raise _out_of_range(bound)
        d = other._shift - self._shift
        if d >= 0:
            return _normal(self._shift, self._packed - (other._packed << (DIGIT_BITS * d)), bound)
        return _normal(other._shift, (self._packed << (DIGIT_BITS * -d)) - other._packed, bound)

    def __mul__(self, other):
        # the lowest digit of a product is the product of the lowest digits,
        # nonzero while the bound is in range, so nothing needs stripping
        if isinstance(other, int):
            if not other or not self._packed:
                return _ZERO
            bound = self._bound * abs(other)
            if bound >= _HALF:
                raise _out_of_range(bound)
            return _make(self._shift, self._packed * other, bound)
        if not self._packed or not other._packed:
            return _ZERO
        bound = self._bound * other._bound
        if bound >= _HALF:
            raise _out_of_range(bound)
        return _make(self._shift + other._shift, self._packed * other._packed, bound)

    __rmul__ = __mul__

    def shift(self, k: int) -> "UniPoly":
        """Multiply by t^k."""
        if not self._packed:
            return self
        return _make(self._shift + k, self._packed, self._bound)

    def eval_at_one(self) -> int:
        """X(1), the balanced residue of X(2^64) mod 2^64 - 1: |X(1)| <= bound < 2^63."""
        r = self._packed % _MASK
        return r - _MASK if r > _MASK >> 1 else r


_ZERO = _make(0, 0, 0)
_ONE = _make(0, 1, 1)


def poly_divexact(a: UniPoly, b: UniPoly) -> UniPoly:
    """Exact quotient a / b in Z[t, 1/t]; raises NotDivisibleError if there is none.

    With a = t^s X and b = t^r Y (X(0), Y(0) != 0), a / b is a Laurent
    polynomial iff X / Y is a polynomial Q, and then X(2^64) = Q(2^64)
    Y(2^64); so a nonzero integer remainder means no quotient.  A zero one
    gives an integer q whose balanced digits D satisfy D(2^64) Y(2^64) =
    X(2^64); if |D|_1 times the bound of b is below 2^63, both D Y and X
    decode uniquely, so D Y = X and D is the quotient, with its exact norm.
    Otherwise IntegrityError: then no quotient can be certified, whether or
    not one exists.  By 1 - t^h an inexact division always leaves a nonzero
    remainder: mod 2^(64h) - 1, X(2^64) is X folded to degree below h, still
    of norm below 2^63, so it vanishes iff the fold does, that is iff 1 - t^h
    divides X.
    """
    if not b._packed:
        raise ZeroDivisionError("division by zero polynomial")
    if not a._packed:
        return _ZERO
    q, r = divmod(a._packed, b._packed)
    if r:
        raise NotDivisibleError("univariate division is not exact")
    norm = sum(map(abs, _digits(q)))
    if norm * b._bound >= _HALF:
        raise _out_of_range(norm * b._bound)
    return _make(a._shift - b._shift, q, norm)
