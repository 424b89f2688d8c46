"""The record classes keep the constructor, equality, hashing and
immutability they had as dataclasses."""
from __future__ import annotations

import pickle

import pytest

from kflag import (
    KClass,
    LineReport,
    ParabolicData,
    RootDatum,
    SignReport,
    WeylElement,
    WeylGroup,
    build_root_datum,
)

DATUM_FIELDS = ("rank", "cartan", "positive_roots", "positive_root_coords", "rho",
                "symmetrizer", "label")


def _refuses_assignment(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_root_datum_is_a_frozen_value():
    d = build_root_datum("B", 2)
    values = [getattr(d, name) for name in DATUM_FIELDS]
    positional = RootDatum(*values)
    keyword = RootDatum(**dict(zip(DATUM_FIELDS, values)))
    assert positional == keyword == d and positional is not d
    assert hash(positional) == hash(d)
    assert RootDatum(*values[:-1], "other") != d
    assert d != tuple(values)
    for name in DATUM_FIELDS:
        _refuses_assignment(d, name)
    assert pickle.loads(pickle.dumps(d)) == d
    assert repr(d).startswith("RootDatum(rank=2, cartan=((2, -1), (-2, 2)), ")
    with pytest.raises(TypeError):
        RootDatum(*values[:-1])
    with pytest.raises(TypeError):
        RootDatum(*values, label="x")


def test_from_columns_builds_what_the_constructor_builds():
    """Records built a column at a time equal, and are as frozen as, those
    of the constructor; a missing column is refused."""
    d = build_root_datum("B", 2)
    values = [getattr(d, name) for name in DATUM_FIELDS]
    built = RootDatum.from_columns(2, *([v, v] for v in values))
    assert built == (d, d) and built[0] is not built[1]
    assert hash(built[0]) == hash(d)
    for name in DATUM_FIELDS:
        _refuses_assignment(built[0], name)
    with pytest.raises(ValueError):
        RootDatum.from_columns(1, *([v] for v in values[:-1]))


def test_weyl_elements_compare_by_identity():
    g = WeylGroup(build_root_datum("A", 2))
    w = g.elements[3]
    twin = WeylElement(w.index, w.word, w.length, w.key)
    same = WeylElement(index=w.index, word=w.word, length=w.length, key=w.key)
    assert twin != w and twin != same and w == w
    assert hash(w) == object.__hash__(w)
    assert len({w, twin, same}) == 3
    assert repr(w) == "<" + "*".join(f"s{i}" for i in w.word) + ">"
    assert repr(g.identity) == "<e>"
    for name in ("index", "word", "length", "key"):
        _refuses_assignment(w, name)


def test_parabolic_data_is_a_frozen_value():
    g = WeylGroup(build_root_datum("A", 3))
    p, q = g.parabolic([1]), g.parabolic([1])
    assert p == q and p is not q and hash(p) == hash(q)
    assert p != g.parabolic([2])
    assert ParabolicData(p.subset, p.min_reps, p.longest_in_parabolic, p.subgroup) == p
    assert ParabolicData(subset=p.subset, min_reps=p.min_reps,
                         longest_in_parabolic=p.longest_in_parabolic, subgroup=p.subgroup) == p
    _refuses_assignment(p, "subset")


def test_kclass_is_frozen_with_value_equality():
    g = WeylGroup(build_root_datum("A", 2))
    a = KClass("O", {g.identity: 1})
    assert a == KClass(basis="O", coeffs={g.identity: 1})
    assert a != KClass("IDEAL", {g.identity: 1})
    assert not a.is_zero() and KClass("O", {}).is_zero()
    _refuses_assignment(a, "coeffs")
    with pytest.raises(TypeError):  # its coeffs are a dict, as before
        hash(a)


def test_reports_are_mutable_unhashable_values():
    s = SignReport("A2", "signs", None, 216, [], 3)
    assert s == SignReport(group="A2", name="signs", parabolic=None, checked=216,
                           violations=[], elapsed_ms=3)
    assert s.ok
    s.violations.append((1,))
    s.elapsed_ms = 4
    assert not s.ok and s != SignReport("A2", "signs", None, 216, [], 4)
    with pytest.raises(TypeError):
        hash(s)
    first, second = LineReport("A2", (1, 0), (0, 1)), LineReport("A2", (1, 0), (0, 1))
    assert (first.checks, first.violations, first.elapsed_ms) == ([], [], 0)
    first.checks.append(("duality", 36))
    assert second.checks == [] and first != second
    first.elapsed_ms = 7
    assert first == LineReport("A2", (1, 0), (0, 1), [("duality", 36)], [], 7)
    assert pickle.loads(pickle.dumps(first)) == first
    with pytest.raises(TypeError):
        hash(first)
