"""Independent structure-constant oracle via Grothendieck polynomials.

Everything here is deliberately separate from the engine: permutations in
one-line notation, ordinary polynomials as dicts keyed by exponent tuples,
isobaric divided differences pi_i(f) = d_i((1 - x_{i+1}) f) descending from
the staircase monomial, and products reduced in the quotient ring
Z[x_1..x_n]/(e_1, ..., e_n) whose lex Groebner basis is the set of complete
homogeneous polynomials h_k(x_k, ..., x_n).

The constants this script produces are indexed in the codimension
convention (the label's length is the codimension of the corresponding
variety); translating to the dimension convention relabels by w -> w_o w.
"""
from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cache
from itertools import permutations

Poly = dict  # exponent tuple -> int coefficient


# -- permutations -------------------------------------------------------------


def inversions(perm: tuple[int, ...]) -> int:
    return sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )


def swap_positions(perm: tuple[int, ...], i: int) -> tuple[int, ...]:
    """perm * s_i: exchange the entries in positions i, i+1 (1-based i)."""
    out = list(perm)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def longest_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n, 0, -1))


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a b)(i) = a(b(i))."""
    return tuple(a[b[i] - 1] for i in range(len(a)))


# -- polynomial helpers ---------------------------------------------------------


def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        n = out.get(e, 0) + c
        if n:
            out[e] = n
        else:
            del out[e]
    return out


def p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            n = out.get(e, 0) + ca * cb
            if n:
                out[e] = n
            else:
                del out[e]
    return out


def p_scale(a: Poly, c: int) -> Poly:
    return {e: c * x for e, x in a.items()} if c else {}


def p_swap_vars(a: Poly, i: int) -> Poly:
    """Exchange variables x_i, x_{i+1} (1-based)."""
    out: Poly = {}
    for e, c in a.items():
        e2 = list(e)
        e2[i - 1], e2[i] = e2[i], e2[i - 1]
        out[tuple(e2)] = c
    return out


def monomial(n: int, **powers) -> Poly:
    e = [0] * n
    for name, p in powers.items():
        e[int(name[1:]) - 1] = p
    return {tuple(e): 1}


def x_var(n: int, i: int) -> Poly:
    e = [0] * n
    e[i - 1] = 1
    return {tuple(e): 1}


def divided_difference(f: Poly, i: int, n: int) -> Poly:
    """d_i f = (f - s_i f) / (x_i - x_{i+1}), computed termwise exactly."""
    num = p_add(f, p_scale(p_swap_vars(f, i), -1))
    out: Poly = {}
    # subtract multiples of (x_i - x_{i+1}) greedily; num is antisymmetric
    # in x_i, x_{i+1} so this terminates with zero remainder
    while num:
        e = max(num)
        c = num[e]
        if e[i - 1] == 0:
            raise AssertionError("divided difference: remainder not divisible")
        q = list(e)
        q[i - 1] -= 1
        qe = tuple(q)
        out[qe] = out.get(qe, 0) + c
        lo = list(qe)
        lo[i] += 1
        num = p_add(num, {e: -c, tuple(lo): c})
    return out


def isobaric(f: Poly, i: int, n: int) -> Poly:
    """pi_i(f) = d_i((1 - x_{i+1}) f)."""
    one = {(0,) * n: 1}
    factor = p_add(one, p_scale(x_var(n, i + 1), -1))
    return divided_difference(p_mul(factor, f), i, n)


# -- Grothendieck polynomials ------------------------------------------------------


def grothendieck_polynomials(n: int) -> dict[tuple[int, ...], Poly]:
    """All G_w for w in S_n, descending from G_{w_o} = x1^{n-1} x2^{n-2} ...

    Every descent route is computed and cross-checked for consistency.
    """
    top = longest_perm(n)
    seed = {tuple(range(n - 1, -1, -1)): 1}
    out: dict[tuple[int, ...], Poly] = {top: seed}
    frontier = [top]
    while frontier:
        fresh = []
        for w in frontier:
            for i in range(1, n):
                ws = swap_positions(w, i)
                if inversions(ws) >= inversions(w):
                    continue
                g = isobaric(out[w], i, n)
                if ws in out:
                    if out[ws] != g:
                        raise AssertionError("inconsistent recursion routes")
                else:
                    out[ws] = g
                    fresh.append(ws)
        frontier = fresh
    assert len(out) == _factorial(n)
    return out


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


# -- quotient ring Z[x]/(e_1..e_n) ----------------------------------------------


def _complete_homogeneous(n: int, k: int, first_var: int) -> Poly:
    """h_k(x_first, ..., x_n) as a polynomial in n variables (1-based first)."""
    out: Poly = {}
    vars_ = list(range(first_var - 1, n))

    def rec(idx: int, remaining: int, expo: list[int]):
        if remaining == 0:
            out[tuple(expo)] = out.get(tuple(expo), 0) + 1
            return
        if idx == len(vars_):
            return
        # choose the power of vars_[idx]
        for p in range(remaining + 1):
            e2 = list(expo)
            e2[vars_[idx]] += p
            rec(idx + 1, remaining - p, e2)

    rec(0, k, [0] * n)
    return out


@cache
def _reducers(n: int) -> tuple:
    """(k, x_k^k, the other terms of h_k(x_k, ..., x_n)) for k = 1..n."""
    out = []
    for k in range(1, n + 1):
        lead = (0,) * (k - 1) + (k,) + (0,) * (n - k)
        rest = _complete_homogeneous(n, k, k)
        assert rest.pop(lead) == 1
        out.append((k, lead, tuple(rest.items())))
    return tuple(out)


def reduce_mod_ideal(f: Poly, n: int) -> Poly:
    """Normal form modulo (e_1, ..., e_n) using the lex Groebner basis
    {h_k(x_k, ..., x_n)}; leading term of the k-th generator is x_k^k.

    Terms are taken in descending lex order, each once: one divisible by
    some x_k^k is replaced by its multiple of x_k^k - h_k, whose terms are
    all lex-smaller.  Over a Groebner basis the normal form does not
    depend on the order of the reductions."""
    reducers = _reducers(n)
    out = {e: c for e, c in f.items() if c}
    heap = [tuple(-a for a in e) for e in out]
    heapq.heapify(heap)
    queued = set(out)
    while heap:
        e = tuple(-a for a in heapq.heappop(heap))
        queued.discard(e)
        c = out.get(e)
        hit = c and next(((lead, rest) for k, lead, rest in reducers if e[k - 1] >= k), None)
        if not hit:
            continue
        lead, rest = hit
        del out[e]
        shift = [a - b for a, b in zip(e, lead)]
        for t, g in rest:
            term = tuple(a + b for a, b in zip(shift, t))
            m = out.get(term, 0) - c * g
            if m:
                out[term] = m
            else:
                out.pop(term, None)
            if term not in queued:
                queued.add(term)
                heapq.heappush(heap, tuple(-a for a in term))
    return out


class GrothendieckOracle:
    """Structure constants of K(Fl_n) in the codimension-label convention."""

    def __init__(self, n: int):
        self.n = n
        self.polys = grothendieck_polynomials(n)
        self.perms = sorted(self.polys, key=inversions)
        self.reduced = {w: reduce_mod_ideal(p, n) for w, p in self.polys.items()}
        self._monomials = sorted({e for p in self.reduced.values() for e in p})
        self._position = {e: r for r, e in enumerate(self._monomials)}
        if len(self._monomials) < len(self.perms):
            raise AssertionError("reduced basis spans too few monomials")
        self._inverse = self._invert_basis()

    def _invert_basis(self):
        """Express each staircase monomial over the reduced G_w basis."""
        perms = self.perms
        monos = self._monomials
        rows = len(monos)
        cols = len(perms)
        mat = [[Fraction(self.reduced[w].get(e, 0)) for w in perms] for e in monos]
        rhs = [
            [Fraction(1) if i == j else Fraction(0) for j in range(rows)]
            for i in range(rows)
        ]
        # Gaussian elimination solving mat * x = I columns; mat has full
        # column rank cols and rows >= cols
        pivots = []
        row = 0
        for col in range(cols):
            p = next(r for r in range(row, rows) if mat[r][col] != 0)
            mat[row], mat[p] = mat[p], mat[row]
            rhs[row], rhs[p] = rhs[p], rhs[row]
            inv = 1 / mat[row][col]
            mat[row] = [x * inv for x in mat[row]]
            rhs[row] = [x * inv for x in rhs[row]]
            for r in range(rows):
                if r != row and mat[r][col] != 0:
                    f = mat[r][col]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[row])]
                    rhs[r] = [a - f * b for a, b in zip(rhs[r], rhs[row])]
            pivots.append(col)
            row += 1
        # consistency rows beyond the rank must solve exactly when applied,
        # checked per-expansion in expand()
        self._mat = mat
        self._rhs = rhs
        return None

    def expand(self, f: Poly) -> dict[tuple[int, ...], int]:
        """Coordinates of a reduced polynomial over the reduced G_w basis."""
        red = reduce_mod_ideal(f, self.n)
        # only the terms of red on the basis monomials; any other fails the check below
        vec = [(self._position[e], c) for e, c in red.items() if e in self._position]
        coords = [sum((self._rhs[col][r] * c for r, c in vec), Fraction(0))
                  for col in range(len(self.perms))]
        # verify exactly: sum coords * reduced basis == red
        acc: Poly = {}
        out = {}
        for w, c in zip(self.perms, coords):
            if c.denominator != 1:
                raise AssertionError("non-integer expansion coefficient")
            ci = int(c)
            if ci:
                out[w] = ci
                acc = p_add(acc, p_scale(self.reduced[w], ci))
        if acc != red:
            raise AssertionError("oracle expansion failed to reproduce input")
        return out

    def structure_constants(self, u, v) -> dict[tuple[int, ...], int]:
        return self.expand(p_mul(self.polys[u], self.polys[v]))


def truncate(f: Poly, top: int) -> Poly:
    """f without its terms of degree above ``top``; from n(n-1)/2 up they
    vanish in the quotient ring."""
    return {e: c for e, c in f.items() if sum(e) <= top}


def line_class(n: int, k: int, sign: int) -> Poly:
    """[L(sign omega_k)] = prod_{j <= k} y_j^-sign with y_j = 1 - x_j, where
    y_j^-1 is the geometric series in x_j cut at degree n(n-1)/2.  The sign
    is pinned by chi(L(m omega_1)) = m + 1 on P^1."""
    top = n * (n - 1) // 2
    one = {(0,) * n: 1}
    out = one
    for j in range(1, k + 1):
        if sign < 0:
            factor = p_add(one, p_scale(x_var(n, j), -1))
        else:
            factor = power = one
            for _ in range(top):
                power = truncate(p_mul(power, x_var(n, j)), top)
                factor = p_add(factor, power)
        out = truncate(p_mul(out, factor), top)
    return out


def full_table(n: int) -> dict:
    """The complete table c[u][v][w] over S_n, codimension labels."""
    oracle = GrothendieckOracle(n)
    table = {}
    for u in oracle.perms:
        table[u] = {}
        for v in oracle.perms:
            table[u][v] = oracle.structure_constants(u, v)
    return table
