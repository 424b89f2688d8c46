"""The class tables of the localization model, and its pushforward.

``SchubertModel`` (``kflag.model``) holds a model's state; its methods that
build or read class tables are defined here and put on the class by
``records.Deferred``, so this module is compiled only when one of them is
first read: by ``verify``, a cache store or load, or a library caller.
The structure constants of the CLI run on the integer recursion of
``kflag.ring`` and read none of them.

Here are the weight-lattice classes (``EquivClass``, ``ExpansionResult``,
``schubert_class``, ``demazure``, ``line_bundle_class``, the expansion),
their specialization to one variable, the one-variable Schubert table
(``_specialized_table``) and its readers, chi by the fixed-point sum, and
``back_solve``, the one triangular solve.

``kflag.laurent`` is imported (``_laurent``) only where a weight-lattice
route runs, so no CLI command loads it, and ``kflag.univariate`` only
where a model's one-variable ring is first read (``SchubertModel.poly``
and ``_divexact``), so of the CLI commands only ``verify`` and a cache
store load it.
"""
from __future__ import annotations

from functools import cache
from operator import attrgetter, mul

from .errors import (
    ConfigError,
    IntegrityError,
    NonzeroResidualError,
    NotDivisibleError,
    PoleAtOneError,
)
from .model import _height_cocharacter
from .roots import WeylElement


def _laurent():
    """``LaurentPoly``, imported on first use: no integer command needs it."""
    from .laurent import LaurentPoly

    return LaurentPoly


class EquivClass:
    """A localized equivariant K-class: fixed point -> restriction, a
    ``LaurentPoly`` or, after ``SchubertModel.specialize``, a ``UniPoly``;
    the ring operations use only what both types provide."""

    __slots__ = ("rank", "restrictions")

    def __init__(self, rank: int, restrictions: dict[WeylElement, LaurentPoly | UniPoly]):
        self.rank = rank
        self.restrictions = {v: p for v, p in restrictions.items() if not p.is_zero()}

    def restriction(self, v: WeylElement) -> LaurentPoly:
        """The restriction at v of a class in the weight lattice."""
        got = self.restrictions.get(v)
        return got if got is not None else _laurent().zero(self.rank)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EquivClass)
            and self.rank == other.rank
            and self.restrictions == other.restrictions
        )

    def __add__(self, other: "EquivClass") -> "EquivClass":
        out = dict(self.restrictions)
        for v, p in other.restrictions.items():
            q = out.get(v)
            out[v] = p if q is None else q + p
        return EquivClass(self.rank, out)

    def __sub__(self, other: "EquivClass") -> "EquivClass":
        return self + (-other)

    def __neg__(self) -> "EquivClass":
        return EquivClass(self.rank, {v: -p for v, p in self.restrictions.items()})

    def __mul__(self, other: "EquivClass") -> "EquivClass":
        """Pointwise product at the common fixed points.  No restriction is
        zero and both coefficient rings are integral domains, so no product
        is: the result skips the constructor's filter."""
        a, b = self.restrictions, other.restrictions
        if len(a) > len(b):
            a, b = b, a
        out = object.__new__(EquivClass)
        out.rank = self.rank
        out.restrictions = {v: p * q for v, p in a.items() if (q := b.get(v)) is not None}
        return out

    def __repr__(self) -> str:
        body = ", ".join(f"{v!r}: {p!r}" for v, p in sorted(
            self.restrictions.items(), key=lambda t: t[0].index))
        return f"EquivClass({{{body}}})"


class ExpansionResult:
    """Expansion over the Schubert basis.

    ``coeffs`` are the equivariant coefficients (Laurent polynomials),
    ``specialized`` their integer values at 1; zero entries are omitted
    from both maps.
    """

    __slots__ = ("coeffs", "specialized")

    def __init__(self, coeffs: dict[WeylElement, LaurentPoly]):
        self.coeffs = coeffs
        self.specialized = _values_at_one(coeffs)


def _values_at_one(coeffs: dict) -> dict[WeylElement, int]:
    """The integer value at 1 of each coefficient, zero values omitted."""
    out = {}
    for w, c in coeffs.items():
        n = c.eval_at_one()
        if n:
            out[w] = n
    return out


def back_solve(elements, vec: dict, rows, divide) -> tuple[dict, dict]:
    """Unitriangular back-substitution from the top of the Bruhat order.

    ``elements`` lists the Weyl group in an order refining Bruhat order,
    ``rows(w)`` maps each u to the entry of basis vector w at u (pivot
    included) and ``divide(c, d)`` is the exact quotient, raising when there
    is none.  Returns the coordinates of ``vec`` and the residual left over.
    The one triangular solve: the integer basis change, the weight-lattice
    expansion and ``SchubertModel.integer_coefficients`` all run here.
    """
    residual = {w: c for w, c in vec.items() if c}
    coords = {}
    for w in reversed(elements):
        c = residual.get(w)
        if c is None:
            continue
        row = rows(w)
        q = divide(c, row[w])
        coords[w] = q
        for u, m in row.items():
            old = residual.get(u)
            n = -(q * m) if old is None else old - q * m
            if n:
                residual[u] = n
            else:
                residual.pop(u, None)
    return coords, residual


# -- SchubertModel methods, put on the class by ``Deferred`` ------------------


def _injected_row(self, w: WeylElement, polys: dict) -> dict:
    """Row w of an injected table by element index, in element order; a
    row without its pivot is no row of a unitriangular table."""
    if w not in polys:
        raise IntegrityError(f"restriction table row {list(w.word)} has no pivot")
    return dict(sorted((v.index, p) for v, p in polys.items()))


# -- class constructors -----------------------------------------------------


def _point_class(model, monomial) -> EquivClass:
    """[O_{X_e}]: prod_{alpha>0}(1 - e^alpha) at e, zero elsewhere, in the
    ring whose e^lam is ``monomial(lam)``."""
    one = monomial(model.datum.zero_weight())
    p = one
    for alpha in model.datum.positive_roots:
        p = p * (one - monomial(alpha))
    return EquivClass(model.rank, {model.group.identity: p})


def demazure(self, i: int, f: EquivClass, monomial=None, divide=None) -> EquivClass:
    """Divided difference D_i in the localization model.

    (D_i f)(v) = (f(v) - e^{v(alpha_i)} f(v s_i)) / (1 - e^{v(alpha_i)}),
    in the ring whose e^lam is ``monomial(lam)``, with ``divide`` its
    exact division (raising when there is none); both default to the
    weight lattice's, ``LaurentPoly.monomial`` and ``exact_div``.  The other
    self-consistent convention twists the argument by s_i v with weight
    e^{alpha_i}; this one is pinned by the support, diagonal, chi = 1
    and dual-basis tests.
    """
    if monomial is None or divide is None:
        laurent = _laurent()
        monomial = monomial or laurent.monomial
        divide = divide or laurent.exact_div
    group = self.group
    one = monomial(self.datum.zero_weight())
    zero = one - one
    get = f.restrictions.get
    todo = set(f.restrictions)
    todo.update(group.right_mul(v, i) for v in f.restrictions)
    out = {}
    for v in sorted(todo, key=attrgetter("index")):
        weight = monomial(group.root_image(v, i))
        num = get(v, zero) - weight * get(group.right_mul(v, i), zero)
        if num.is_zero():
            continue
        out[v] = divide(num, one - weight)
    return EquivClass(self.rank, out)


def _build_schubert_table(self, monomial, divide) -> list[EquivClass]:
    """Every Schubert class by the divided-difference recursion from the
    point class, in the ring given by ``monomial`` and ``divide``.

    This is the weight lattice's build; the one-variable table is built
    by ``_specialized_table``, which the tests check against this route
    with ``_monomial_t``.
    """
    group = self.group
    table: list[EquivClass | None] = [None] * len(group.elements)
    table[0] = _point_class(self, monomial)
    for w in group.elements[1:]:
        # elements are sorted by length, so the shorter factor is ready
        i = w.word[-1]
        prev = group.right_mul(w, i)
        table[w.index] = self.demazure(i, table[prev.index], monomial, divide)
    return table


def _specialized_table(self, k) -> list[dict]:
    """Every Schubert class under e^lam -> t^<lam, k>, for a regular k,
    packed by ``poly``, as rows {v.index: value} by w.index.

    Specialization is a ring homomorphism that sends each divisor
    1 - e^{v(alpha_i)} to 1 - t^h with h != 0, so it commutes with D_i:
    the recursion of ``_build_schubert_table`` run in one variable gives
    the specialized classes exactly.  It runs here on packed integers,
    one ``poly.demazure_step`` per element, with the degrees
    <v(rho), k> tabulated once: they give h(v, i) = <v(alpha_i), k>.

    psi_w = D_j psi_{w s_j} for every right descent j of w, as the
    Demazure operators satisfy the braid relations (Demazure 1974,
    Kostant-Kumar 1990), and the image of D_j is right s_j-invariant.
    So psi_w is right invariant under W_J, J the right descents of w:
    the step divides once per coset v W_J in [e, w], at its minimal
    point (``_coset_minima``, made once per J), and shares that value.
    Guards run there only: where the generic route fits the width, this
    table equals it, integer for integer and bound for bound, and where
    this build raises, the generic route raises too.  The converse can
    fail: a sum guard at a shared point can stop the generic route
    where this build goes on.
    """
    group, poly = self.group, self.poly
    elements, partners = group.elements, group._right
    degrees = [_degree(v.key, k) for v in elements]
    point = _point_class(self, _monomial_t(k, poly)).restrictions[group.identity]
    minima = cache(lambda descents: _coset_minima(partners, descents))  # for this build
    rows = [{0: point}]
    for w in elements[1:]:
        # elements are sorted by length, so the shorter factor is ready
        x, partner = w.index, partners[w.word[-1] - 1]
        reps = minima(tuple([p[x] < x for p in partners]))
        rows.append(poly.demazure_step(rows[partner[x]], degrees, partner, reps))
    return rows


def schubert_class(self, w: WeylElement) -> EquivClass:
    """[O_{X_w}] in the weight lattice; the first call builds the table."""
    if self._schubert is None:
        laurent = _laurent()
        self._schubert = self._build_schubert_table(laurent.monomial, laurent.exact_div)
    return self._schubert[w.index]


def line_bundle_class(self, lam, monomial=None) -> EquivClass:
    """[L(lam)]: restriction e^{-v(lam)} at the fixed point v, in the ring
    whose e^mu is ``monomial(mu)``, by default ``LaurentPoly.monomial``.

    The sign is pinned by chi(L(m omega)) = m + 1 on the rank-one flag
    variety, i.e. dominant weights are the globally generated ones.
    """
    lam = tuple(lam)
    if len(lam) != self.rank:
        raise ConfigError("weight has wrong length")
    monomial = monomial or _laurent().monomial
    out = {}
    for v in self.group.elements:
        out[v] = monomial(tuple(-x for x in self.group.apply(v, lam)))
    return EquivClass(self.rank, out)


# -- specialization ---------------------------------------------------------


def specialize(self, f: EquivClass) -> EquivClass:
    """f under e^lam -> t^<lam, k>, restrictions in one variable.

    For the regular cocharacter k this is a ring homomorphism that sends
    every pivot prod_{beta}(1 - e^beta) to a nonzero polynomial.
    """
    k, poly = self.cocharacter, self.poly
    return EquivClass(self.rank, {v: p.specialize(k, poly) for v, p in f.restrictions.items()})


def specialized_schubert_class(self, w: WeylElement) -> EquivClass:
    """specialize([O_{X_w}]), row w of the one-variable table, made per call."""
    return _row_class(self, self._rows[w.index])


def schubert_support(self, w: WeylElement):
    """The indices of the fixed points where [O_{X_w}] is nonzero."""
    return self._rows[w.index].keys()


def _row_class(model, row: dict) -> EquivClass:
    """The ``EquivClass`` of a row of the table; its entries are nonzero."""
    elements = model.group.elements
    out = object.__new__(EquivClass)
    out.rank = model.rank
    out.restrictions = {elements[v]: p for v, p in row.items()}
    return out


def integer_coefficients(self, f: EquivClass) -> dict[WeylElement, int]:
    """Integer Schubert-basis coefficients of f = ``specialize(g)``,
    solved in Z[t, 1/t] by ``back_solve`` against this model's rows,
    keyed in descending element index, zero values omitted.

    Specialization commutes with the triangular solve, so the values at
    t = 1 equal ``expand_in_schubert_basis(g).specialized``.  A failed
    division or a nonzero residual raises, but one variable catches
    fewer classes outside the span than the multivariate route.
    """
    elements = self.group.elements
    coords, residual = back_solve(range(len(elements)),
                                  {v.index: p for v, p in f.restrictions.items()},
                                  self._rows.__getitem__, self._divexact)
    if residual:
        raise NonzeroResidualError("expansion left a nonzero residual")
    return {elements[w]: c for w, c in _values_at_one(coords).items()}


def structure_constants(self, u: WeylElement, v: WeylElement) -> dict[WeylElement, int]:
    """Integer constants of [O_{X_u}] . [O_{X_v}]: the product of rows u
    and v, solved.  The tests' reference for ``SchubertRing``'s recursion."""
    psi = self.specialized_schubert_class
    return self.integer_coefficients(psi(u) * psi(v))


def schubert_chi(self, heights) -> list[int]:
    """chi of every Schubert class, by w.index, at the cocharacter of
    simple-root heights ``heights``: over the model's rows (cached or
    built) at its own cocharacter, else over a table built here."""
    k, n = _height_cocharacter(self.datum, heights), len(self.group.elements)
    rows = (map(self._rows.__getitem__, range(n)) if k == self.cocharacter
            else self._specialized_table(k))
    return [_euler_characteristic(self, _row_class(self, row), k) for row in rows]


# -- pushforward and expansion ----------------------------------------------


def euler_characteristic(self, f: EquivClass) -> int:
    """chi via the fixed-point (Lefschetz) sum in the specialized
    variable; f may be a model class or a specialized one."""
    return _euler_characteristic(self, f, self.cocharacter)


def _euler_characteristic(model, f: EquivClass, k) -> int:
    """chi of f under e^lam -> t^<lam, k> for a regular cocharacter k;
    one-variable restrictions of f must be specialized at this k.

    v sends the positive roots to one of +-beta for each beta > 0,
    l(v) of them negative; as 1 - t^-h = -t^-h (1 - t^h), the
    denominator at v is the unit (-1)^l(v) t^-<rho - v(rho), k> times
    D = prod_{beta>0} (1 - t^<beta, k>).  The numerators are summed over
    D and its binomials divided out exactly.
    """
    poly, divexact = model.poly, model._divexact
    rho_k = _degree(model.datum.rho, k)
    num = poly.zero()
    for v, p in f.restrictions.items():
        pv = p if hasattr(p, "DIGIT_BITS") else p.specialize(k, poly)
        term = pv.shift(rho_k - _degree(v.key, k))
        num = num + (-term if v.length % 2 else term)
    factors = sorted(_degree(beta, k) for beta in model.datum.positive_roots)
    for idx, h in enumerate(factors):
        try:
            num = divexact(num, poly.one_minus_power(h))
        except NotDivisibleError:
            _classify_pole(model, num, factors[idx:])
    return num.eval_at_one()


def _classify_pole(model, num: UniPoly, remaining: list[int]):
    """Raise for num / prod_h (1 - t^h), which is not a polynomial.  Each
    factor vanishes to order 1 at t = 1, so there is a pole iff num
    vanishes there to lower order than len(remaining)."""
    one_minus_t = model.poly.one_minus_power(1)
    for _ in remaining:
        try:
            num = model._divexact(num, one_minus_t)
        except NotDivisibleError:
            raise PoleAtOneError("localization sum has a pole at t = 1") from None
    raise IntegrityError("localization sum is not a Laurent polynomial")


def expand_in_schubert_basis(self, f: EquivClass) -> ExpansionResult:
    """Triangular back-substitution from the top of the Bruhat order.

    Every exact division must succeed and the residual must vanish;
    both failures mean the class is outside the span (or a convention
    bug) and raise.
    """
    coeffs, residual = back_solve(self.group.elements, f.restrictions,
                                  lambda w: self.schubert_class(w).restrictions,
                                  _laurent().exact_div)
    if residual:
        raise NonzeroResidualError("expansion left a nonzero residual")
    return ExpansionResult(coeffs)


def _coset_minima(partners, descents) -> list[int]:
    """By index v, the least index in v W_J, J (not empty) the s_j with
    descents[j - 1] true and partners[j - 1][v] the index of v s_j: v, or
    that of a lower v s_j (index order refines length)."""
    lists = [p for p, d in zip(partners, descents) if d]
    reps: list[int] = []
    for v in range(len(partners[0])):
        for p in lists:
            if p[v] < v:
                reps.append(reps[p[v]])
                break
        else:
            reps.append(v)
    return reps


def _degree(lam, k) -> int:
    """<lam, k>: e^lam specializes to t to this power."""
    return sum(map(mul, lam, k))


def _monomial_t(k, poly):
    """lam -> t^<lam, k>, the specialization of e^lam at k, packed by ``poly``."""
    one = poly.one()
    return lambda lam: one.shift(_degree(lam, k))
