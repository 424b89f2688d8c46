"""Fixed-point localization model of equivariant K-theory of G/B.

A class is a map from Weyl-group fixed points to exact Laurent polynomials
(its restrictions), in the weight lattice or, once specialized, in one
variable t.  Schubert structure-sheaf classes are produced by the
divided-difference recursion from the point class; products and sums act
pointwise; the pushforward to a point is the fixed-point sum, made
computable in one variable by a generic cocharacter.

This module holds a model's state: its group, cocharacter and the stores
of the integer recursion of ``kflag.ring``, which is all the structure
constants of the CLI read.  The class tables, the classes and chi are in
``kflag.tables``, compiled on first use: the methods through
``records.Deferred``, and ``EquivClass``, ``ExpansionResult`` and
``back_solve`` through this module's ``__getattr__``.  The one-variable
ring, ``kflag.univariate``, is imported where a model's ``poly`` or
``_divexact`` is first read, so of the CLI commands only ``verify`` and a
cache store load it.
"""
from __future__ import annotations

from functools import cached_property
from math import gcd, lcm

from .errors import IntegrityError
from .records import Deferred
from .roots import RootDatum, WeylGroup, _eliminate

#: the one-variable ring a model reads, by its name in ``kflag.univariate``
_RING = {"poly": "UniPoly", "_divexact": "poly_divexact"}

#: the public names of ``kflag.tables`` that this module has held
_TABLES = ("EquivClass", "ExpansionResult", "back_solve")


def __getattr__(name: str):
    """``UniPoly`` and ``poly_divexact``, and the names of ``_TABLES``,
    imported on first use."""
    if name in _RING.values():
        from . import univariate as module
    elif name in _TABLES:
        from . import tables as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


class SchubertModel:
    """The localization model for one Weyl group, with all class tables.

    The one-variable Schubert table, the specialization of every Schubert
    class, is built on first read (or injected from a cache) and never
    changed afterwards; ``verify``, the cache and the public row readers
    read it, and no other integer command does.  Row w is held once, as
    {v.index: UniPoly} with one value object per coset of w's right
    descents, and every reader takes the values as they are.  An injected
    table is sorted into element order and keyed by index row by row on
    first read.  The table in the weight lattice is built on the first
    ``schubert_class`` call and assigned whole.  So a model can be shared
    across threads: at worst two threads make the same value, and either
    is kept.

    Every one-variable value is packed at 64 bits: ``poly`` and
    ``_divexact`` are ``UniPoly`` and ``poly_divexact``, read from this
    module on first use, and a norm bound that reaches their range is an
    ``IntegrityError``.  A test that needs a narrower ring's guards sets
    both on one instance before its table is built.
    """

    def __init__(self, group: WeylGroup, table: list[dict] | None = None):
        self.group = group
        self.datum: RootDatum = group.datum
        self.rank = self.datum.rank
        self.dimension = len(self.datum.positive_roots)
        self.cocharacter = _height_cocharacter(self.datum, (1,) * self.rank)
        if table is not None:
            if len(table) != len(group.elements):
                raise IntegrityError("restriction table has wrong size")
            self._rows = _LazyRows(lambda i: self._injected_row(group.elements[i], table[i]))
        self._schubert: list[EquivClass] | None = None
        # for the e_i of ``ring._columns`` and ``ring._pair_product``: the
        # integer line rows l_nu psi_v by (nu, v.index), nu a root or 0, and
        # the tables of e_i D_i by i - 1, each made on first use
        self._e_rows: dict[tuple[tuple[int, ...], int], dict[int, int]] = {}
        self._ed_tables: list = [None] * self.rank

    def __getattr__(self, name: str):
        """The one-variable ring ``poly`` and ``_divexact`` and its table
        ``_rows``, each set on first read unless the instance holds it."""
        if name == "_rows":
            value = self._specialized_table(self.cocharacter)
        elif name in _RING:
            # the module's name, imported on first use, or a wrapper set there
            value = globals().get(_RING[name]) or __getattr__(_RING[name])
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    @cached_property
    def _right_steps(self) -> tuple[list[list[int]], list[int | None]]:
        """(partners, first): partners[i][y] the index of y s_{i+1}, first[v]
        the least i with partners[i][v] < v, v's first right descent (None for e)."""
        partners = self.group._right
        return partners, [next((i for i, p in enumerate(partners) if p[v] < v), None)
                          for v in range(len(self.group.elements))]

    # building and reading the class tables, and chi: ``kflag.tables``
    _injected_row = Deferred("kflag.tables")
    demazure = Deferred("kflag.tables")
    _build_schubert_table = Deferred("kflag.tables")
    _specialized_table = Deferred("kflag.tables")
    schubert_class = Deferred("kflag.tables")
    line_bundle_class = Deferred("kflag.tables")
    specialize = Deferred("kflag.tables")
    specialized_schubert_class = Deferred("kflag.tables")
    schubert_support = Deferred("kflag.tables")
    integer_coefficients = Deferred("kflag.tables")
    structure_constants = Deferred("kflag.tables")
    schubert_chi = Deferred("kflag.tables")
    euler_characteristic = Deferred("kflag.tables")
    expand_in_schubert_basis = Deferred("kflag.tables")


class _LazyRows(dict):
    """Rows of a table by element index (a one-variable table, or the
    ring's e_i D_i), each made by ``make(index)`` on its first read and kept."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, index: int):
        got = self[index] = self.make(index)
        return got


def _height_cocharacter(datum: RootDatum, heights: tuple[int, ...]) -> tuple[int, ...]:
    """The cocharacter k pairing every root beta to c * height(beta), c > 0,
    where the simple root alpha_i has height ``heights[i - 1]``.

    k solves A^T k = c * heights: by fraction-free elimination, which gives
    y = det(A) * (A^T)^-1 heights in integers, then scaled by the least
    common denominator of y / det(A).  Positive heights make every positive
    root pair positively, so k is regular; with all heights 1, specialized
    degrees stay at root-height scale.  No row swap is needed: the leading
    minors of A^T are those of A, which ``roots._validate_cartan`` has
    checked are positive.
    """
    r = datum.rank
    m = [[datum.cartan[j][i] for j in range(r)] + [h] for i, h in enumerate(heights)]
    det = 1
    for k in range(r):
        _eliminate(m, k, det)
        det = m[k][k]
    y = [0] * r
    for i in reversed(range(r)):  # exact: y is integral by Cramer's rule
        y[i] = (det * m[i][r] - sum(m[i][j] * y[j] for j in range(i + 1, r))) // m[i][i]
    scale = lcm(*(det // gcd(x, det) for x in y))
    return tuple(x * scale // det for x in y)
