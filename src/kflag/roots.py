"""Root data, Weyl groups, Bruhat order, and parabolic coset combinatorics.

Weights are integer vectors in the fundamental-weight basis, so the simple
root alpha_j is column j of the Cartan matrix and every reflection is an
integer-linear map; no irrational arithmetic occurs anywhere.

Simple reflections are indexed 1..rank throughout the public surface
(words, parabolic subsets), matching the usual s_1, ..., s_r labelling.
"""
from __future__ import annotations

from functools import cached_property
from math import gcd

from .errors import BoundExceededError, ConfigError, IntegrityError
from .records import FrozenRecord

Weight = tuple[int, ...]
MAX_CARTAN_RANK = 200  # the root cap r^2 + 56 was checked up to this rank


def _chain_cartan(rank: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    return a


def cartan_matrix(type_letter: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Standard Cartan matrix for a simple type, A[i][j] = <alpha_j, alpha_i^vee>."""
    t = type_letter.upper()
    valid = {
        "A": rank >= 1,
        "B": rank >= 2,
        "C": rank >= 2,
        "D": rank >= 3,
        "E": rank in (6, 7, 8),
        "F": rank == 4,
        "G": rank == 2,
    }
    if t not in valid or not valid[t]:
        raise ConfigError(f"invalid type/rank pair ({type_letter!r}, {rank})")
    if t in ("A", "B", "C", "F"):
        a = _chain_cartan(rank)
        if t == "B":
            a[rank - 1][rank - 2] = -2
        elif t == "C":
            a[rank - 2][rank - 1] = -2
        elif t == "F":
            a[2][1] = -2
    elif t == "D":
        a = _chain_cartan(rank - 1)
        for row in a:
            row.append(0)
        a.append([0] * rank)
        a[rank - 1][rank - 1] = 2
        a[rank - 3][rank - 1] = -1
        a[rank - 1][rank - 3] = -1
    elif t == "E":
        # chain 1-3-4-5-...-rank with node 2 attached to node 4
        a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        chain = [1, 3, 4, 5, 6, 7, 8][: rank - 1]
        for x, y in zip(chain, chain[1:]):
            a[x - 1][y - 1] = a[y - 1][x - 1] = -1
        a[1][3] = a[3][1] = -1
    else:  # G
        a = [[2, -1], [-3, 2]]
    return tuple(tuple(row) for row in a)


def _validate_cartan(a: tuple[tuple[int, ...], ...]) -> None:
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
    # finite type <=> all leading principal minors positive (Sylvester's
    # criterion on the symmetrized D A, whose leading minors are those of A
    # times positive factors).  Fraction-free elimination without row swaps
    # makes the k-th pivot the k-th leading minor itself.
    m = [list(row) for row in a]
    prev = 1
    for k in range(r):
        pivot = m[k][k]
        if pivot <= 0:
            raise ConfigError("Cartan matrix is not of finite type")
        _eliminate(m, k, prev)
        prev = pivot


def _eliminate(m: list[list[int]], k: int, prev: int) -> None:
    """One step of Bareiss's fraction-free elimination below row k, in
    place: every division by ``prev``, the previous pivot, is exact."""
    pivot, top = m[k][k], m[k]
    for row in m[k + 1:]:
        f = row[k]
        row[k] = 0
        for j in range(k + 1, len(row)):
            row[j] = (row[j] * pivot - f * top[j]) // prev


def _symmetrizer(a: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Smallest positive integers d with d_i * A[i][j] symmetric.

    Each connected component is solved from d = 1 at its first index, as
    integers n over one denominator shared by every component: d_i = n_i /
    den.  When an entry would not be an integer, every n and den are scaled.
    """
    r = len(a)
    n: list[int | None] = [None] * r
    den = 1
    for start in range(r):
        if n[start] is not None:
            continue
        n[start] = den
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(r):
                if i == j or a[i][j] == 0:
                    continue
                if n[j] is not None:
                    if n[j] * a[j][i] != n[i] * a[i][j]:
                        raise ConfigError("Cartan matrix is not symmetrizable")
                    continue
                num = n[i] * a[i][j]
                scale = abs(a[j][i]) // gcd(num, a[j][i])
                if scale != 1:  # n_j = num / a[j][i] is not an integer yet
                    n = [x if x is None else x * scale for x in n]
                    den *= scale
                    num *= scale
                n[j] = num // a[j][i]
                stack.append(j)
    g = gcd(*n)
    return tuple(x // g for x in n)


def _close_positive_roots(a: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
    """All positive roots in simple-root coordinates, by reflection closure.

    ``_validate_cartan`` has proved finite type, so the cap only guards the
    loop: a root system of rank r has at most r^2 + 56 positive roots.  B_r
    and C_r have r^2, E8 has 8^2 + 56, and a sum of components stays within
    the bound of its total rank.
    """
    r = len(a)
    cap = r * r + 56
    simples = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        fresh = []
        for c in frontier:
            for i in range(r):
                pairing = sum(a[i][j] * c[j] for j in range(r))
                c2 = list(c)
                c2[i] -= pairing
                c2t = tuple(c2)
                if min(c2t) >= 0 and c2t not in seen:
                    seen.add(c2t)
                    fresh.append(c2t)
        if len(seen) > cap:
            raise BoundExceededError("positive-root closure exceeded cap; not finite type?")
        frontier = fresh
    return sorted(seen, key=lambda c: (sum(c), c))


class RootDatum(FrozenRecord):
    """A finite root system with its weight-lattice combinatorics.

    ``positive_roots`` holds fundamental-weight coordinates while
    ``positive_root_coords`` holds the same roots in simple-root
    coordinates (used for heights and coroot pairings); both are sorted
    by increasing height.
    """

    __slots__ = ("rank", "cartan", "positive_roots", "positive_root_coords", "rho",
                 "symmetrizer", "label")

    def __init__(
        self,
        rank: int,
        cartan: tuple[tuple[int, ...], ...],
        positive_roots: tuple[Weight, ...],
        positive_root_coords: tuple[tuple[int, ...], ...],
        rho: Weight,
        symmetrizer: tuple[int, ...],
        label: str,
    ):
        FrozenRecord.__init__(self, rank, cartan, positive_roots, positive_root_coords, rho,
                              symmetrizer, label)

    def simple_root(self, i: int) -> Weight:
        """Simple root alpha_i in fundamental-weight coordinates (i is 1-based)."""
        return tuple(self.cartan[k][i - 1] for k in range(self.rank))

    def reflect(self, i: int, lam: Weight) -> Weight:
        """s_i(lam) = lam - lam_i * alpha_i."""
        c = lam[i - 1]
        if c == 0:
            return lam
        col = i - 1
        return tuple([lam[k] - c * row[col] for k, row in enumerate(self.cartan)])

    def act(self, word: tuple[int, ...], lam: Weight) -> Weight:
        """Apply s_{i1} s_{i2} ... s_{ik} to lam (rightmost letter acts first)."""
        for i in reversed(word):
            lam = self.reflect(i, lam)
        return lam

    def is_dominant(self, lam: Weight) -> bool:
        return all(c >= 0 for c in lam)

    def fundamental_weight(self, i: int) -> Weight:
        return tuple(1 if k == i - 1 else 0 for k in range(self.rank))

    def zero_weight(self) -> Weight:
        return (0,) * self.rank


def build_root_datum(type_letter: str, rank: int) -> RootDatum:
    """Root datum of a simple group from its (type, rank) pair."""
    a = cartan_matrix(type_letter, rank)
    return root_datum_from_cartan(a, label=f"{type_letter.upper()}{rank}")


def root_datum_from_cartan(a, label: str = "custom") -> RootDatum:
    """Root datum from an explicit Cartan matrix (finite type, int entries)."""
    if not isinstance(a, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in a):
        raise ConfigError("Cartan matrix must be a list of integer rows")
    if len(a) > MAX_CARTAN_RANK:  # before the O(r^3) validation
        raise ConfigError(f"Cartan matrix rank {len(a)} exceeds {MAX_CARTAN_RANK}")
    a = tuple(tuple(row) for row in a)
    _validate_cartan(a)
    r = len(a)
    coords = _close_positive_roots(a)
    fund = tuple(
        tuple(sum(a[k][j] * c[j] for j in range(r)) for k in range(r)) for c in coords
    )
    return RootDatum(
        rank=r,
        cartan=a,
        positive_roots=fund,
        positive_root_coords=tuple(coords),
        rho=(1,) * r,
        symmetrizer=_symmetrizer(a),
        label=label,
    )


def weyl_dimension(datum: RootDatum, lam: Weight) -> int:
    """Irreducible-representation dimension for dominant lam.

    prod over positive roots alpha of <lam+rho, alpha^vee> / <rho, alpha^vee>,
    written with the symmetrizer so that only integer data enters:
    <mu, alpha^vee> is proportional to sum_j m_j d_j mu_j for
    alpha = sum_j m_j alpha_j.
    """
    if len(lam) != datum.rank:
        raise ConfigError("weight has wrong length")
    d = datum.symmetrizer
    num = den = 1
    for m in datum.positive_root_coords:
        num *= sum(mj * dj * (lj + 1) for mj, dj, lj in zip(m, d, lam))
        den *= sum(mj * dj for mj, dj in zip(m, d))
    total, rest = divmod(num, den)
    if rest:
        raise IntegrityError(f"Weyl dimension is not integral for {lam}")
    return total


def _enumerate(start: int, steps, mask: int, n: int, max_size: int):
    """Every w(rho) as a packed integer, sorted by (length, key), and its
    length, by breadth-first search from ``start``.

    Coordinate k of w(rho) is <rho, w^{-1}(alpha_k^vee)>, a coroot's height
    up to sign, and a positive coroot of height h tops a chain of h positive
    coroots, so every coordinate lies in [-n, n] for n positive roots.  A key
    packs each coordinate plus n as one digit under ``mask``, coordinate 1
    most significant, so integer order is the order of the key tuples.  With
    ``steps`` the (shift, packed alpha_i) pairs, s_i subtracts digit i, less
    n, times alpha_i.  s_i w is one longer than w exactly when that
    coordinate is positive, so each level of the search is one length and
    meets no element of another.
    """
    level, length = [start], 0
    keys, lengths = [], []
    while level:
        keys += level
        lengths += [length] * len(level)
        fresh = set()
        for u in level:
            for shift, alpha in steps:
                d = (u >> shift) & mask
                if d > n:
                    fresh.add(u - (d - n) * alpha)
            if len(keys) + len(fresh) > max_size:
                raise BoundExceededError(f"Weyl group exceeds the configured bound ({max_size})")
        level, length = sorted(fresh), length + 1
    return keys, lengths


class WeylElement(FrozenRecord):
    """An element of one ``WeylGroup``, which builds each element once.

    Elements compare and hash by identity, so two groups built from the same
    datum share no element; match elements across groups by ``index`` or
    ``word``.  ``word`` is the lexicographically-minimal reduced word
    (letters are 1-based simple-reflection indices); ``key`` = w(rho)
    determines the element because rho is regular.
    """

    __slots__ = ("index", "word", "length", "key")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, index: int, word: tuple[int, ...], length: int, key: Weight):
        FrozenRecord.__init__(self, index, word, length, key)

    def __repr__(self) -> str:
        name = "*".join(f"s{i}" for i in self.word) if self.word else "e"
        return f"<{name}>"


class WeylGroup:
    """A finite Weyl group, fully enumerated with multiplication tables.

    Elements are sorted by (length, key); ``elements[0]`` is the identity
    and ``elements[-1]`` is the longest element.  Each element is built once,
    here, and every method returns one of ``elements``.  All tables are built in
    the constructor; afterwards every query is read-only and safe to use
    concurrently (the Bruhat memo only ever inserts idempotent values).
    """

    def __init__(self, datum: RootDatum, max_size: int = 10000):
        self.datum = datum
        r = datum.rank
        n = len(datum.positive_roots)
        bits = (2 * n).bit_length()  # 2^bits > 2n; see _enumerate
        mask = (1 << bits) - 1
        shifts = [bits * (r - 1 - k) for k in range(r)]
        steps = [(shifts[i], sum(datum.cartan[k][i] << shifts[k] for k in range(r)))
                 for i in range(r)]  # (shift, packed alpha_i) of each s_i
        start = sum((c + n) << shift for c, shift in zip(datum.rho, shifts))
        keys, lengths = _enumerate(start, steps, mask, n, max_size)
        index = {u: idx for idx, u in enumerate(keys)}
        # left[i-1][w]: index of s_i * w, via key(s_i w) = s_i(key(w))
        self._left = left = [
            [index[u - (((u >> shift) & mask) - n) * alpha] for u in keys]
            for shift, alpha in steps
        ]
        words, inv = self._words_and_inverses(len(keys))
        # right[i-1][w]: index of w * s_i = (s_i * w^{-1})^{-1}
        self._right = [[inv[row[x]] for x in inv] for row in left]
        coords = [[((u >> shift) & mask) - n for u in keys] for shift in shifts]
        self.elements: tuple[WeylElement, ...] = WeylElement.from_columns(
            len(keys), range(len(keys)), words, lengths, zip(*coords)
        )
        self.identity = self.elements[0]
        self.w_o = self.elements[-1]
        if self.w_o.length != n:
            raise IntegrityError("longest element length != number of positive roots")
        if self.w_o.key != tuple(-x for x in datum.rho):
            raise IntegrityError("w_o(rho) != -rho")
        self._bruhat_memo: dict[tuple[int, int], bool] = {}

    def _words_and_inverses(self, size: int):
        """Lexicographically-minimal reduced words via greedy left descents,
        and the index of each element's inverse.

        s_i w is shorter than w exactly when its index is smaller.  For w =
        s_i1 ... s_ik, w^{-1} = s_ik p^{-1} with p = s_i1 ... s_i(k-1), which
        is the walk of the word through ``_left`` from the identity.  It is
        memoized: w = s_i1 w' gives p = s_i1 p' and the same last letter
        as w', and p is shorter than w, so its inverse is already known.
        """
        left = self._left
        words: list[tuple[int, ...]] = [()]
        pre, last, inv = [0] * size, [0] * size, [0] * size
        for idx in range(1, size):
            for i, row in enumerate(left):
                down = row[idx]
                if down < idx:
                    break
            words.append((i + 1,) + words[down])
            if down:
                last[idx], pre[idx] = last[down], row[pre[down]]
            else:
                last[idx] = i
            inv[idx] = left[last[idx]][inv[pre[idx]]]
        return words, inv

    # -- element access ------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def simple(self, i: int) -> WeylElement:
        if not 1 <= i <= self.datum.rank:
            raise ConfigError(f"simple reflection index {i} out of range")
        return self.elements[self._right[i - 1][0]]

    def from_word(self, word) -> WeylElement:
        """Element with the given (not necessarily reduced) word."""
        idx = 0
        for i in word:
            if not 1 <= i <= self.datum.rank:
                raise ConfigError(f"letter {i} out of range in word {list(word)}")
            idx = self._right[i - 1][idx]
        return self.elements[idx]

    # -- group operations ----------------------------------------------

    def mul(self, u: WeylElement, v: WeylElement) -> WeylElement:
        idx = u.index
        for i in v.word:
            idx = self._right[i - 1][idx]
        return self.elements[idx]

    def inverse(self, w: WeylElement) -> WeylElement:
        idx = 0
        for i in reversed(w.word):
            idx = self._right[i - 1][idx]
        return self.elements[idx]

    def right_mul(self, w: WeylElement, i: int) -> WeylElement:
        return self.elements[self._right[i - 1][w.index]]

    def left_mul(self, i: int, w: WeylElement) -> WeylElement:
        return self.elements[self._left[i - 1][w.index]]

    def root_image(self, w: WeylElement, i: int) -> Weight:
        """w(alpha_i) in fundamental-weight coordinates: w(rho) - w s_i(rho),
        as s_i(rho) = rho - alpha_i."""
        ws = self.elements[self._right[i - 1][w.index]]
        return tuple([a - b for a, b in zip(w.key, ws.key)])

    def has_right_descent(self, w: WeylElement, i: int) -> bool:
        """l(w s_i) < l(w), i.e. w(alpha_i) is a negative root; index order
        refines length."""
        return self._right[i - 1][w.index] < w.index

    def has_left_descent(self, w: WeylElement, i: int) -> bool:
        return self._left[i - 1][w.index] < w.index

    def apply(self, w: WeylElement, lam: Weight) -> Weight:
        return self.datum.act(w.word, lam)

    def inversion_count(self, w: WeylElement) -> int:
        """Number of positive roots sent to negative roots (equals length)."""
        pos = frozenset(self.datum.positive_roots)
        return sum(
            1
            for beta in self.datum.positive_roots
            if self.apply(w, beta) not in pos
        )

    # -- Bruhat order ----------------------------------------------------

    def bruhat_leq(self, u: WeylElement, w: WeylElement) -> bool:
        """u <= w in Bruhat order, by the left-descent recursion."""
        return self._bruhat(u.index, w.index)

    def _bruhat(self, u_idx: int, w_idx: int) -> bool:
        if u_idx == w_idx or u_idx == 0:
            return True
        u = self.elements[u_idx]
        w = self.elements[w_idx]
        if u.length >= w.length:
            return False
        memo = self._bruhat_memo
        got = memo.get((u_idx, w_idx))
        if got is not None:
            return got
        # the canonical word starts with the least left descent
        left = self._left[w.word[0] - 1]
        sw = left[w_idx]
        su = left[u_idx]
        if su < u_idx:
            out = self._bruhat(su, sw)
        else:
            out = self._bruhat(u_idx, sw)
        memo[(u_idx, w_idx)] = out
        return out

    @cached_property
    def _lower_masks(self) -> list[int]:
        """By w.index, the interval [e, w] as an int whose bit u.index is set
        for each u <= w, built on first use.  For s_i a right descent of w
        and w' = w s_i, [e, w] is [e, w'] and its right translate by s_i
        (the lifting property).  Unlike the ``_bruhat`` memo, they hold
        |W|^2 bits whatever is asked: what a whole sweep reads."""
        right = self._right
        masks = [1]
        for w in range(1, len(self.elements)):
            partner = next(p for p in right if p[w] < w)
            low = moved = masks[partner[w]]
            rest = low
            while rest:
                bit = rest & -rest
                moved |= 1 << partner[bit.bit_length() - 1]
                rest ^= bit
            masks.append(moved)
        return masks

    # -- parabolic combinatorics ------------------------------------------

    def parabolic(self, subset) -> "ParabolicData":
        """Minimal coset representatives and data for the parabolic W_I."""
        idxs = sorted(set(int(i) for i in subset))
        for i in idxs:
            if not 1 <= i <= self.datum.rank:
                raise ConfigError(f"parabolic index {i} out of range")
        sub_idx = {0}
        frontier = [0]
        while frontier:
            fresh = []
            for idx in frontier:
                for i in idxs:
                    nxt = self._right[i - 1][idx]
                    if nxt not in sub_idx:
                        sub_idx.add(nxt)
                        fresh.append(nxt)
            frontier = fresh
        subgroup = tuple(self.elements[i] for i in sorted(sub_idx))
        longest = max(subgroup, key=lambda w: w.length)
        if sum(1 for w in subgroup if w.length == longest.length) != 1:
            raise IntegrityError("parabolic subgroup has no unique longest element")
        rows = [self._right[i - 1] for i in idxs]
        reps = tuple(
            w for w in self.elements if all(row[w.index] > w.index for row in rows)
        )
        if len(reps) * len(subgroup) != len(self.elements):
            raise IntegrityError("coset representative count mismatch")
        return ParabolicData(
            subset=tuple(idxs),
            min_reps=reps,
            longest_in_parabolic=longest,
            subgroup=subgroup,
        )


class ParabolicData(FrozenRecord):
    """Combinatorics of a standard parabolic subgroup W_I."""

    __slots__ = ("subset", "min_reps", "longest_in_parabolic", "subgroup")

    def __init__(
        self,
        subset: tuple[int, ...],
        min_reps: tuple[WeylElement, ...],
        longest_in_parabolic: WeylElement,
        subgroup: tuple[WeylElement, ...],
    ):
        FrozenRecord.__init__(self, subset, min_reps, longest_in_parabolic, subgroup)
