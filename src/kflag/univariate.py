"""Univariate Laurent polynomials over the integers with exact division.

This is the carrier of the fixed-point pushforward: each fixed point
contributes numerator/denominator in one variable t, the exact sum of the
fractions must collapse to a Laurent polynomial, and its value at t = 1
is the integer the geometry asks for.  The sum is put over one product of
binomials 1 - t^h and divided out exactly by ``poly_divexact``, the one
exact division in Z[t, 1/t], so no gcd reduction is needed.

A polynomial t^s X(t) with X(0) != 0 is stored Kronecker-packed as the
shift s, the integer X(2^b) for a digit width of b bits and an upper bound
on its L1 norm, so that every ring operation is one or two bigint
operations.  Packing is a ring homomorphism, so the integers are always
exact; reading coefficients back is unique while each lies in
(-2^(b-1), 2^(b-1)).  Every value therefore carries a norm bound (sum and
product bounds, the exact norm of a certified quotient), and a bound that
reaches 2^(b-1) raises ``IntegrityError``.

``UniPoly`` and ``poly_divexact`` are the ring at ``DIGIT_BITS`` = 64, the
one width the engine packs at.  ``_packed(bits)`` builds it from the one
implementation below; the tests also build an 8-bit ring, whose range
small groups reach, to drive every guard.  Values of two widths never mix:
an operation between them raises ``TypeError``.

A model holds its Schubert table as rows of ``UniPoly`` values keyed by
element index, and only this module reads their packed layout.  One loop
builds them, ``demazure_step``, one divided difference of the build, with
the bounds and guards of the method path it fuses; the triangular solve
is ``model.back_solve`` over the rows as they are.  ``digits`` is the one
balanced-digit decoder, used by the loop, ``coefficients``, ``terms`` and
``poly_divexact``.
"""
from __future__ import annotations

import struct
from functools import cache
from types import MappingProxyType

from .errors import IntegrityError, NotDivisibleError

DIGIT_BITS = 64  # the width of ``UniPoly``

# the ``struct`` code of one signed digit, by width; 8 bits is for tests
# that need a narrow range small groups overflow
_STRUCT_CODES = {8: "b", 64: "q"}


@cache
def _packed(bits: int):
    """(UniPoly, poly_divexact) for digits of ``bits`` bits: 8 or 64."""
    signed = _STRUCT_CODES[bits]
    size = bits // 8  # bytes per digit
    half = 1 << (bits - 1)  # coefficients and norm bounds stay below this
    mask = (1 << bits) - 1  # the lowest digit; also 2^bits = 1 mod it
    new = object.__new__

    def out_of_range(bound: int) -> IntegrityError:
        return IntegrityError(
            f"coefficient bound 2^{bound.bit_length() - 1} is out of the packed range 2^{bits - 1}"
        )

    def mixed(other) -> TypeError:
        width = getattr(other, "DIGIT_BITS", None)
        what = f"a {width}-bit UniPoly" if width else type(other).__name__
        return TypeError(f"a {bits}-bit UniPoly does not combine with {what}")

    layouts = {}  # digit count n -> (offset, unpack, pack, bytes) for n digits

    def layout(n: int) -> tuple:
        """For n digits: the integer whose digits are all 2^(bits-1), and the
        signed ``struct`` reader and writer of n digits."""
        got = layouts.get(n)
        if got is None:
            rw = struct.Struct(f"<{n}{signed}")
            off = int.from_bytes(half.to_bytes(size, "little") * n, "little")
            got = layouts[n] = (off, rw.unpack, rw.pack, size * n)
        return got

    def digits(x: int) -> tuple[int, ...]:
        """Balanced base-2^bits digits of x, in [-2^(bits-1), 2^(bits-1)),
        lowest first, padded with zeros to x.bit_length() // bits + 2
        digits: adding the offset makes every digit d + 2^(bits-1)
        nonnegative, and flipping each top bit back leaves d in two's
        complement, so one signed read gives them all."""
        n = x.bit_length() // bits + 2
        try:
            off, unpack, _, nbytes = layouts[n]
        except KeyError:
            off, unpack, _, nbytes = layout(n)
        return unpack(((x + off) ^ off).to_bytes(nbytes, "little"))

    def make(shift: int, x: int, bound: int) -> "UniPoly":
        p = new(UniPoly)
        p._shift, p._packed, p._bound = shift, x, bound
        return p

    def pack(shift: int, coeffs: list[int], bound: int) -> "UniPoly":
        """t^shift (c_0 + ... + c_k t^k) with the given norm bound."""
        if bound >= half:
            raise out_of_range(bound)
        # each c_i fits a signed digit; flipping its top bit adds
        # 2^(bits-1), which the offset takes back from every digit at once
        off, _, pack_digits, _ = layout(len(coeffs))
        u = int.from_bytes(pack_digits(*coeffs), "little")
        return make(shift, (u ^ off) - off, bound)

    def strip(shift: int, x: int) -> tuple[int, int]:
        """t^shift x with the trailing zero digits of x (nonzero) moved into the shift."""
        zeros = ((x & -x).bit_length() - 1) // bits
        return shift + zeros, x >> (zeros * bits)

    def normal(shift: int, x: int, bound: int) -> "UniPoly":
        """The polynomial t^shift x, in normal form."""
        if not x:
            return zero
        if not x & mask:
            shift, x = strip(shift, x)
        return make(shift, x, bound)

    class UniPoly:
        """Univariate Laurent polynomial with integer coefficients, Kronecker-packed.

        ``terms`` decodes a read-only exponent -> coefficient view; the
        arithmetic never reads it.
        """

        __slots__ = ("_shift", "_packed", "_bound")
        DIGIT_BITS = bits

        def __init__(self, terms: dict[int, int] | None = None):
            shift = x = bound = 0
            if terms:
                shift = min(terms)
                bound = sum(map(abs, terms.values()))
                if bound >= half:
                    raise out_of_range(bound)
                for e, c in terms.items():
                    x += c << (bits * (e - shift))
            if not x:
                shift = bound = 0
            elif not x & mask:  # zero coefficients were given at the lowest exponents
                shift, x = strip(shift, x)
            self._shift, self._packed, self._bound = shift, x, bound

        @classmethod
        def zero(cls) -> "UniPoly":
            return zero

        @classmethod
        def one(cls) -> "UniPoly":
            return one

        @classmethod
        def one_minus_power(cls, n: int) -> "UniPoly":
            """1 - t^n (for n = 0 this is the zero polynomial)."""
            if n > 0:
                return make(0, 1 - (1 << (bits * n)), 2)
            if n < 0:
                return make(n, (1 << (bits * -n)) - 1, 2)
            return zero

        @classmethod
        def from_coefficients(cls, shift: int, coeffs: list[int]) -> "UniPoly":
            """t^shift (c_0 + c_1 t + ... + c_k t^k), the inverse of ``coefficients``.

            Raises ValueError unless coeffs is a non-empty list of plain ints
            (booleans are refused) with c_0 and c_k nonzero, and
            ``IntegrityError`` if its L1 norm reaches 2^(bits-1).
            """
            if not (type(coeffs) is list and coeffs and coeffs[0] and coeffs[-1]):
                raise ValueError("coefficients must be a non-empty list with nonzero ends")
            if set(map(type, coeffs)) != {int}:
                raise ValueError("coefficients must be integers")
            return pack(shift, coeffs, sum(map(abs, coeffs)))

        def coefficients(self) -> tuple[int, list[int]]:
            """(s, [c_0, ..., c_k]) with self = t^s (c_0 + ... + c_k t^k), c_0 and
            c_k nonzero; the zero polynomial gives (0, [])."""
            ds = digits(self._packed)
            k = len(ds)
            while k and not ds[k - 1]:
                k -= 1
            return self._shift, list(ds[:k])

        @property
        def terms(self) -> MappingProxyType:
            s = self._shift
            return MappingProxyType({s + i: c for i, c in enumerate(digits(self._packed)) if c})

        def is_zero(self) -> bool:
            return not self._packed

        def __bool__(self) -> bool:
            return bool(self._packed)

        def __eq__(self, other) -> bool:
            return (
                type(other) is UniPoly
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
            if type(other) is not UniPoly:
                raise mixed(other)
            if not other._packed:
                return self
            if not self._packed:
                return other
            bound = self._bound + other._bound
            if bound >= half:
                raise out_of_range(bound)
            d = other._shift - self._shift
            if d >= 0:
                return normal(self._shift, self._packed + (other._packed << (bits * d)), bound)
            return normal(other._shift, (self._packed << (bits * -d)) + other._packed, bound)

        def __neg__(self) -> "UniPoly":
            return make(self._shift, -self._packed, self._bound)

        def __sub__(self, other: "UniPoly") -> "UniPoly":
            if type(other) is not UniPoly:
                raise mixed(other)
            if not other._packed:
                return self
            if not self._packed:
                return -other
            bound = self._bound + other._bound
            if bound >= half:
                raise out_of_range(bound)
            d = other._shift - self._shift
            if d >= 0:
                return normal(self._shift, self._packed - (other._packed << (bits * d)), bound)
            return normal(other._shift, (self._packed << (bits * -d)) - other._packed, bound)

        def __mul__(self, other):
            # the lowest digit of a product is the product of the lowest digits,
            # nonzero while the bound is in range, so nothing needs stripping
            if type(other) is UniPoly:
                if not self._packed or not other._packed:
                    return zero
                bound = self._bound * other._bound
                if bound >= half:
                    raise out_of_range(bound)
                return make(self._shift + other._shift, self._packed * other._packed, bound)
            if not isinstance(other, int):
                raise mixed(other)
            if not other or not self._packed:
                return zero
            bound = self._bound * abs(other)
            if bound >= half:
                raise out_of_range(bound)
            return make(self._shift, self._packed * other, bound)

        __rmul__ = __mul__

        def shift(self, k: int) -> "UniPoly":
            """Multiply by t^k."""
            if not self._packed:
                return self
            return make(self._shift + k, self._packed, self._bound)

        def eval_at_one(self) -> int:
            """X(1), the balanced residue of X(2^bits) mod 2^bits - 1:
            |X(1)| <= bound < 2^(bits-1)."""
            r = self._packed % mask
            return r - mask if r > mask >> 1 else r

    UniPoly.__qualname__ = "UniPoly"  # so pickle finds the 64-bit class as kflag.UniPoly
    zero = make(0, 0, 0)
    one = make(0, 1, 1)

    def poly_divexact(a: UniPoly, b: UniPoly) -> UniPoly:
        """Exact quotient a / b in Z[t, 1/t]; raises NotDivisibleError if there is none.

        Write B = 2^bits.  With a = t^s X and b = t^r Y (X(0), Y(0) != 0),
        a / b is a Laurent polynomial iff X / Y is a polynomial Q, and then
        X(B) = Q(B) Y(B); so a nonzero integer remainder means no quotient.
        A zero one gives an integer q whose balanced digits D satisfy
        D(B) Y(B) = X(B); if |D|_1 times the bound of b is below B / 2,
        both D Y and X decode uniquely, so D Y = X and D is the quotient,
        with its exact norm.  Otherwise ``IntegrityError``: then no quotient
        can be certified at this width, whether or not one exists.  By
        1 - t^h an inexact division always leaves a nonzero remainder:
        mod B^h - 1, X(B) is X folded to degree below h, still of norm
        below B / 2, so it vanishes iff the fold does, that is iff 1 - t^h
        divides X.
        """
        if type(a) is not UniPoly or type(b) is not UniPoly:
            raise mixed(b if type(a) is UniPoly else a)
        if not b._packed:
            raise ZeroDivisionError("division by zero polynomial")
        if not a._packed:
            return zero
        q, r = divmod(a._packed, b._packed)
        if r:
            raise NotDivisibleError("univariate division is not exact")
        norm = sum(map(abs, digits(q)))
        if norm * b._bound >= half:
            raise out_of_range(norm * b._bound)
        return make(a._shift - b._shift, q, norm)

    divisors = {}  # h -> (shift, packed) of 1 - t^h

    def divisor(h: int) -> tuple[int, int]:
        d = UniPoly.one_minus_power(h)
        if not d:
            raise ZeroDivisionError("division by zero polynomial")
        return divisors.setdefault(h, (d._shift, d._packed))

    def demazure_step(f: dict, degrees, partner, reps) -> dict:
        """D_i of one row by element index, a dict v -> ``UniPoly``:
        ``model.demazure`` with the weight t^h(v), h(v) = <v(alpha_i), k> =
        degrees[v] - degrees[v s_i] for degrees[v] = <v(rho), k>, and
        ``poly_divexact``, fused on packed integers; ``partner[v]`` is the
        index of v s_i.  The result is a row in increasing index order, and
        each value is the one the method path computes, bound included:
        f(v) - t^h f(v s_i), its sum bound checked when both terms are
        there, divided by 1 - t^h with the quotient's exact norm certified
        against the divisor's bound 2.

        ``reps[v]`` is the least index of v's orbit under right
        multiplications known to fix the result: {v, v s_i} at least, as
        h(v s_i) = -h(v); v W_J for psi_w, J the right descents of w.  Only
        an orbit's least point divides, in index order (which refines
        length), and the others hold its very value (or are left out with
        it).  So every value is a quotient certified at this width, equal to
        the method path's wherever that fits, but a sum guard the method
        path would trip at a shared point does not trip here.
        """
        get = f.get
        out = {}
        for v in sorted({*f, *map(partner.__getitem__, f)}):
            u = reps[v]
            if u != v:  # v's minimal point is done: share its value
                got = out.get(u)
                if got is not None:
                    out[v] = got
                continue
            u = partner[v]
            a, c, h = get(v), get(u), degrees[v] - degrees[u]
            if c is None:
                s, x = a._shift, a._packed
            else:
                s, x = c._shift + h, c._packed
                if a is None:
                    x = -x
                else:
                    b = a._bound + c._bound
                    if b >= half:
                        raise out_of_range(b)
                    d = s - a._shift
                    if d >= 0:
                        s, x = a._shift, a._packed - (x << (bits * d))
                    else:
                        x = (a._packed << (bits * -d)) - x
                    if not x:
                        continue
                    if not x & mask:
                        s, x = strip(s, x)
            ds, dx = divisors.get(h) or divisor(h)
            q, r = divmod(x, dx)
            if r:
                raise NotDivisibleError("univariate division is not exact")
            norm = sum(map(abs, digits(q)))
            if norm * 2 >= half:
                raise out_of_range(norm * 2)
            out[v] = make(s - ds, q, norm)
        return out

    for fn in (digits, demazure_step):
        setattr(UniPoly, fn.__name__, staticmethod(fn))
    return UniPoly, poly_divexact


UniPoly, poly_divexact = _packed(DIGIT_BITS)

