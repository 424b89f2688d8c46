"""The integer elimination of ``kflag.roots`` and ``kflag.model`` against
its ``Fraction`` reference: equal results and the same error messages."""
from __future__ import annotations

import itertools
import random

import pytest

import rational_reference as ref
from kflag import build_root_datum, root_datum_from_cartan, weyl_dimension
from kflag.errors import KflagError
from kflag.model import _height_cocharacter
from kflag.roots import _symmetrizer, cartan_matrix

FINITE_TYPES = (
    [("A", r) for r in range(1, 9)]
    + [(t, r) for t in "BC" for r in range(2, 9)]
    + [("D", r) for r in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def _block(*blocks):
    """The Cartan matrix of a sum of simple types."""
    mats = [cartan_matrix(letter, rank) for letter, rank in blocks]
    size = sum(len(m) for m in mats)
    out, at = [], 0
    for m in mats:
        for row in m:
            out.append([0] * at + list(row) + [0] * (size - at - len(m)))
        at += len(m)
    return out


# components are scaled relative to each other: each one's first entry is 1
# in rational terms before the common denominator is cleared
SUMS = [[("G", 2), ("A", 1)], [("A", 1), ("G", 2)], [("B", 2), ("G", 2)],
        [("C", 3), ("B", 2), ("A", 1)], [("F", 4), ("G", 2)]]


@pytest.mark.parametrize("letter,rank", FINITE_TYPES, ids=lambda x: str(x))
def test_integer_elimination_equals_the_rational_one(letter, rank):
    datum = build_root_datum(letter, rank)
    ones = (1,) * rank
    for heights in (ones, ones[:-1] + (2,)):
        assert _height_cocharacter(datum, heights) == ref.height_cocharacter(datum, heights)
    assert _symmetrizer(datum.cartan) == ref.symmetrizer(datum.cartan)
    rng = random.Random(f"{letter}{rank}")
    weights = [(0,) * rank, datum.rho] + [datum.fundamental_weight(i) for i in range(1, rank + 1)]
    weights += [tuple(rng.randrange(6) for _ in range(rank)) for _ in range(8)]
    for lam in weights:
        assert weyl_dimension(datum, lam) == ref.weyl_dimension(datum, lam), lam


@pytest.mark.parametrize("blocks", SUMS, ids=lambda b: "+".join(f"{t}{r}" for t, r in b))
def test_sums_of_types_keep_the_rational_scaling(blocks):
    datum = root_datum_from_cartan(_block(*blocks))
    assert datum.symmetrizer == ref.symmetrizer(datum.cartan)
    ones = (1,) * datum.rank
    for heights in (ones, ones[:-1] + (2,), tuple(range(1, datum.rank + 1))):
        assert _height_cocharacter(datum, heights) == ref.height_cocharacter(datum, heights)


def _outcome(fn, a):
    try:
        return fn(a)
    except KflagError as exc:
        return type(exc), str(exc)


def _integer_route(a):
    return root_datum_from_cartan(a).symmetrizer


# every invalid matrix tests/test_roots.py and tests/test_cli.py pass
INVALID = [
    [[2, -2], [-2, 2]],
    [[2, -2, 0], [-2, 2, -1], [0, -1, 2]],
    [[2, 1], [1, 2]],
    [[2, -1], [0, 2]],
    [[1, 0], [0, 1]],
    [[2, "x"], [-1, 2]],
    "abc",
    [[2, -1.5], [-1, 2]],
    [[2.0, -1], [-1, 2]],
    [[2, False], [False, 2]],
    [[2, -1], [-1]],
    [2, -1],
    {"a": 1},
    [],
]


@pytest.mark.parametrize("matrix", INVALID, ids=repr)
def test_invalid_matrices_raise_the_rational_error(matrix):
    want = _outcome(ref.checked_symmetrizer, matrix)
    assert isinstance(want, tuple) and want == _outcome(_integer_route, matrix)


@pytest.mark.parametrize("size", [2, 3])
def test_every_small_matrix_meets_the_same_outcome(size):
    """Every matrix with diagonal 2 and off-diagonal entries in -3..1 gives
    the same symmetrizer or the same error on both routes."""
    cells = [(i, j) for i in range(size) for j in range(size) if i != j]
    seen = set()
    for entries in itertools.product(range(-3, 2), repeat=len(cells)):
        a = [[2] * size for _ in range(size)]
        for (i, j), x in zip(cells, entries):
            a[i][j] = x
        got = _outcome(_integer_route, a)
        assert got == _outcome(ref.checked_symmetrizer, a), a
        seen.add(got[1] if isinstance(got[0], type) else "valid")
    assert "valid" in seen and "Cartan matrix is not of finite type" in seen
