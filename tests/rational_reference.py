"""``Fraction`` reference for the exact integer elimination in kflag.

These are the rational versions of ``roots._validate_cartan``,
``roots._symmetrizer``, ``roots.weyl_dimension`` and
``model._height_cocharacter`` that kflag used before it dropped
``fractions`` from its import path.  They share no arithmetic with the
integer code, so ``test_rational_reference.py`` can check that every result
and every error message is unchanged.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from kflag.errors import ConfigError, IntegrityError
from kflag.roots import _close_positive_roots


def validate_cartan(a: tuple[tuple[int, ...], ...]) -> None:
    r = len(a)
    if r == 0 or any(len(row) != r for row in a):
        raise ConfigError("Cartan matrix must be square and nonempty")
    for i in range(r):
        for j in range(r):
            if isinstance(a[i][j], bool) or not isinstance(a[i][j], int):
                raise ConfigError("Cartan entries must be integers")
            if i == j and a[i][j] != 2:
                raise ConfigError("Cartan diagonal entries must equal 2")
            if i != j and a[i][j] > 0:
                raise ConfigError("off-diagonal Cartan entries must be <= 0")
            if i != j and (a[i][j] == 0) != (a[j][i] == 0):
                raise ConfigError("Cartan zero pattern must be symmetric")
    # without row swaps the k-th pivot is the ratio of the k-th and
    # (k-1)-th leading minors
    m = [[Fraction(x) for x in row] for row in a]
    for k in range(r):
        pivot = m[k][k]
        if pivot <= 0:
            raise ConfigError("Cartan matrix is not of finite type")
        for t in range(k + 1, r):
            f = m[t][k] / pivot
            for j in range(k, r):
                m[t][j] -= f * m[k][j]


def symmetrizer(a: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    r = len(a)
    d: list[Fraction | None] = [None] * r
    for start in range(r):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(r):
                if i == j or a[i][j] == 0:
                    continue
                dj = d[i] * Fraction(a[i][j], a[j][i])
                if d[j] is None:
                    d[j] = dj
                    stack.append(j)
                elif d[j] != dj:
                    raise ConfigError("Cartan matrix is not symmetrizable")
    scale = lcm(*(x.denominator for x in d))
    out = tuple(int(x * scale) for x in d)
    g = gcd(*out)
    return tuple(x // g for x in out)


def checked_symmetrizer(a) -> tuple[int, ...]:
    """The checks of ``root_datum_from_cartan`` in their order, then the
    symmetrizer: what an explicit Cartan matrix raises, or its d."""
    if not isinstance(a, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in a):
        raise ConfigError("Cartan matrix must be a list of integer rows")
    a = tuple(tuple(row) for row in a)
    validate_cartan(a)
    _close_positive_roots(a)
    return symmetrizer(a)


def weyl_dimension(datum, lam) -> int:
    if len(lam) != datum.rank:
        raise ConfigError("weight has wrong length")
    d = datum.symmetrizer
    total = Fraction(1)
    for m in datum.positive_root_coords:
        num = sum(mj * dj * (lj + 1) for mj, dj, lj in zip(m, d, lam))
        den = sum(mj * dj for mj, dj in zip(m, d))
        total *= Fraction(num, den)
    if total.denominator != 1:
        raise IntegrityError(f"Weyl dimension is not integral for {lam}")
    return int(total)


def height_cocharacter(datum, heights: tuple[int, ...]) -> tuple[int, ...]:
    """k with A^T k = c * heights, solved over the rationals and scaled by
    the least common denominator."""
    r = datum.rank
    m = [[Fraction(datum.cartan[j][i]) for j in range(r)] for i in range(r)]
    rhs = [Fraction(h) for h in heights]
    for col in range(r):
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        rhs[col] = rhs[col] * inv
        for row in range(r):
            if row != col and m[row][col] != 0:
                f = m[row][col]
                m[row] = [a - f * b for a, b in zip(m[row], m[col])]
                rhs[row] = rhs[row] - f * rhs[col]
    scale = lcm(*(x.denominator for x in rhs))
    return tuple(int(x * scale) for x in rhs)
