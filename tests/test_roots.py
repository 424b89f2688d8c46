"""Root data, Weyl group enumeration, Bruhat order, parabolic combinatorics."""
from __future__ import annotations

import itertools
import random

import pytest

from kflag import (
    BoundExceededError,
    ConfigError,
    WeylElement,
    WeylGroup,
    build_root_datum,
    root_datum_from_cartan,
    weyl_dimension,
)
from kflag.roots import _close_positive_roots, cartan_matrix

from weyl_reference import reference_tables

POSITIVE_ROOT_COUNTS = {
    ("A", 1): 1,
    ("A", 2): 3,
    ("A", 3): 6,
    ("A", 4): 10,
    ("B", 2): 4,
    ("B", 3): 9,
    ("C", 3): 9,
    ("D", 4): 12,
    ("F", 4): 24,
    ("G", 2): 6,
}

WEYL_ORDERS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 3): 24,
    ("B", 2): 8,
    ("B", 3): 48,
    ("C", 3): 48,
    ("D", 4): 192,
    ("G", 2): 12,
}


def test_rank_one_forced():
    d = build_root_datum("A", 1)
    assert d.cartan == ((2,),)
    assert d.positive_roots == ((2,),)


def test_a2_positive_root_closure():
    d = build_root_datum("A", 2)
    # alpha1, alpha2, alpha1+alpha2 in simple-root coordinates
    assert set(d.positive_root_coords) == {(1, 0), (0, 1), (1, 1)}


def _block_cartan(*blocks):
    """The Cartan matrix of a sum of simple types, as a tuple of rows."""
    mats = [cartan_matrix(letter, rank) for letter, rank in blocks]
    size = sum(len(m) for m in mats)
    out, at = [], 0
    for m in mats:
        for row in m:
            out.append((0,) * at + row + (0,) * (size - at - len(m)))
        at += len(m)
    return tuple(out)


@pytest.mark.parametrize(
    "blocks,count",
    [([("A", 64)], 2080), ([("E", 8), ("A", 1)], 121), ([("E", 8), ("B", 3)], 129)],
    ids=["A64", "E8+A1", "E8+B3"],
)
def test_root_closure_cap_admits_every_finite_type(blocks, count):
    """A64 has 2,080 positive roots; a sum with an E8 component has more
    than both r^2 and 120 at rank 9 to 11."""
    a = _block_cartan(*blocks)
    assert len(_close_positive_roots(a)) == count


def test_a_cartan_matrix_past_the_rank_bound_is_refused_before_validation(monkeypatch):
    """Rank 201 is refused with one line before the O(r^3) validation runs;
    rank 200 reaches it, and A64 still builds."""
    from kflag.roots import MAX_CARTAN_RANK

    a64 = root_datum_from_cartan(cartan_matrix("A", 64))
    assert len(a64.positive_roots) == 2080

    def validated(a):
        raise RuntimeError(f"validated rank {len(a)}")

    monkeypatch.setattr("kflag.roots._validate_cartan", validated)
    assert MAX_CARTAN_RANK == 200
    with pytest.raises(ConfigError, match="^Cartan matrix rank 201 exceeds 200$"):
        root_datum_from_cartan(cartan_matrix("A", 201))
    with pytest.raises(RuntimeError, match="validated rank 200"):
        root_datum_from_cartan(cartan_matrix("A", 200))


@pytest.mark.parametrize("letter,rank", sorted(POSITIVE_ROOT_COUNTS))
def test_positive_root_counts(letter, rank):
    d = build_root_datum(letter, rank)
    assert len(d.positive_roots) == POSITIVE_ROOT_COUNTS[(letter, rank)]


def test_invalid_type_rank_pairs():
    for letter, rank in [("A", 0), ("B", 1), ("E", 5), ("F", 3), ("G", 3), ("X", 2)]:
        with pytest.raises(ConfigError):
            build_root_datum(letter, rank)


def test_explicit_cartan_matrix_accepted():
    d = root_datum_from_cartan([[2, -1], [-1, 2]])
    assert len(d.positive_roots) == 3


def test_affine_cartan_rejected():
    # affine A1: determinant zero
    with pytest.raises(ConfigError):
        root_datum_from_cartan([[2, -2], [-2, 2]])
    # the leading 2x2 minor is zero with a nonzero entry below it
    with pytest.raises(ConfigError):
        root_datum_from_cartan([[2, -2, 0], [-2, 2, -1], [0, -1, 2]])


def test_cartan_axioms_enforced():
    with pytest.raises(ConfigError):
        root_datum_from_cartan([[2, 1], [1, 2]])
    with pytest.raises(ConfigError):
        root_datum_from_cartan([[2, -1], [0, 2]])
    with pytest.raises(ConfigError):
        root_datum_from_cartan([[1, 0], [0, 1]])


def test_simple_reflection_is_involution():
    d = build_root_datum("B", 2)
    lam = (3, -2)
    for i in (1, 2):
        assert d.reflect(i, d.reflect(i, lam)) == lam


@pytest.mark.parametrize("letter,rank", sorted(WEYL_ORDERS))
def test_weyl_enumeration(letter, rank, engines):
    g = engines.group(f"{letter}{rank}") if rank < 4 and letter != "D" else WeylGroup(
        build_root_datum(letter, rank)
    )
    assert len(g) == WEYL_ORDERS[(letter, rank)]
    assert g.w_o.length == len(g.datum.positive_roots)
    # sorted by (length, key)
    keys = [(w.length, w.key) for w in g.elements]
    assert keys == sorted(keys)


# SHA-256 of repr((_left, _right, root images, [(index, word, length, key)])),
# as the group was enumerated when ``_left`` reflected every key a second time;
# the root images are [(w(alpha_1), ..., w(alpha_r)) for each w], which the
# group once stored and now computes on demand
WEYL_TABLE_DIGESTS = {
    "A3": "57f681c08c3c9d9804f93b4fa9ce0bd7be9247e8be7fe91f93b2080c35a7eaec",
    "D4": "111bc5562a276d4d8f9edc284110fa33b279256ee151a809497aabf1b7e84b0e",
    "B4": "a4f83a2c8ecae71fc0d32439987b1efa1a8ddee320e189126eee972f7f1a99c5",
    "F4": "19ff81139981a952934ea74c364506d927326c2f6720d62cb4642ff1d47ca226",
    "E6": "ca35868c63584724a43215c78dc4d697331d6e4d33a282b5f9c68f61aad5a254",
}


@pytest.mark.parametrize("label", sorted(WEYL_TABLE_DIGESTS))
def test_weyl_tables_are_unchanged(label):
    """The multiplication tables, root images and elements are those of
    the digest, and ``_left`` is key(s_i w) = s_i(key(w)) on every element."""
    import hashlib

    d = build_root_datum(label[0], int(label[1:]))
    g = WeylGroup(d, max_size=51840)
    images = [tuple(g.root_image(w, i) for i in range(1, d.rank + 1)) for w in g.elements]
    tables = (g._left, g._right, images,
              [(w.index, w.word, w.length, w.key) for w in g.elements])
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == WEYL_TABLE_DIGESTS[label]
    by_key = {w.key: w.index for w in g.elements}
    for i in range(1, d.rank + 1):
        assert g._left[i - 1] == [by_key[d.reflect(i, w.key)] for w in g.elements]


# every (type, rank) with |W| <= 10,000
SMALL_WEYL_TYPES = (
    [("A", n) for n in range(1, 7)] + [("B", n) for n in range(2, 6)]
    + [("C", n) for n in range(2, 6)] + [("D", n) for n in range(3, 6)]
    + [("F", 4), ("G", 2)]
)


@pytest.mark.parametrize(
    "datum",
    [pytest.param(build_root_datum(letter, rank), id=f"{letter}{rank}")
     for letter, rank in SMALL_WEYL_TYPES]
    + [pytest.param(root_datum_from_cartan(_block_cartan(("A", 1), ("B", 2), ("G", 2))),
                    id="A1+B2+G2")],
)
def test_packed_enumeration_matches_the_tuple_route(datum):
    """Keys, lengths, words and both multiplication tables equal those of
    a breadth-first search on weight tuples, whose right table comes from
    root images rather than inverses."""
    g = WeylGroup(datum)
    keys, lengths, words, left, right = reference_tables(datum)
    assert [w.key for w in g.elements] == keys
    assert [w.length for w in g.elements] == lengths
    assert [w.word for w in g.elements] == words
    assert g._left == left
    assert g._right == right


@pytest.mark.parametrize("label", ["A3", "B3", "G2", "D4"])
def test_right_descents_are_the_negative_root_images(label):
    """has_right_descent(w, i) holds exactly when w(alpha_i), applied
    through the word, is a negative root, and root_image is that root."""
    d = build_root_datum(label[0], int(label[1:]))
    g = WeylGroup(d)
    positive = set(d.positive_roots)
    negative = {tuple(-x for x in beta) for beta in d.positive_roots}
    for w in g.elements:
        for i in range(1, d.rank + 1):
            image = d.act(w.word, d.simple_root(i))
            assert g.root_image(w, i) == image
            assert image in positive | negative
            assert g.has_right_descent(w, i) == (image in negative)


@pytest.mark.parametrize("label,order", [("G2", 12), ("D4", 192)])
def test_weyl_bound_is_exact(label, order):
    """max_size = |W| builds the group; one less raises."""
    d = build_root_datum(label[0], int(label[1:]))
    assert len(WeylGroup(d, max_size=order)) == order
    message = rf"^Weyl group exceeds the configured bound \({order - 1}\)$"
    with pytest.raises(BoundExceededError, match=message):
        WeylGroup(d, max_size=order - 1)


def test_a1_enumeration(engines):
    g = engines.group("A1")
    assert [w.length for w in g.elements] == [0, 1]


def test_a2_lengths(engines):
    g = engines.group("A2")
    assert [w.length for w in g.elements] == [0, 1, 1, 2, 2, 3]


def test_b2_longest_element(engines):
    g = engines.group("B2")
    assert len(g) == 8
    assert g.w_o.length == 4


def test_weyl_bound_enforced():
    d = build_root_datum("A", 3)
    with pytest.raises(BoundExceededError):
        WeylGroup(d, max_size=5)


def test_length_equals_inversion_count(engines):
    for label in ("A2", "B2", "G2"):
        g = engines.group(label)
        for w in g.elements:
            assert w.length == g.inversion_count(w)


def test_words_are_reduced_and_canonical(engines):
    for label in ("A2", "B2"):
        g = engines.group(label)
        for w in g.elements:
            assert len(w.word) == w.length
            assert g.from_word(w.word) is w
            # lexicographically minimal among all reduced words
            assert w.word == min(_all_reduced_words(g, w))


def _all_reduced_words(g, w):
    if w.length == 0:
        return [()]
    out = []
    for i in range(1, g.datum.rank + 1):
        if g.has_left_descent(w, i):
            for rest in _all_reduced_words(g, g.left_mul(i, w)):
                out.append((i,) + rest)
    return out


def test_apply_identity_and_reflection(engines):
    d = engines.datum("A2")
    g = engines.group("A2")
    lam = (2, 5)
    assert g.apply(g.identity, lam) == lam
    omega1 = d.fundamental_weight(1)
    alpha1 = d.simple_root(1)
    assert g.apply(g.simple(1), omega1) == tuple(
        a - b for a, b in zip(omega1, alpha1)
    )


def test_w_o_sends_rho_to_minus_rho(engines):
    for label in ("A1", "A2", "A3", "B2", "G2"):
        g = engines.group(label)
        assert g.apply(g.w_o, g.datum.rho) == tuple(-x for x in g.datum.rho)


def test_word_independence_of_action(engines):
    for label in ("A2", "B2"):
        g = engines.group(label)
        lam = (1, -3)
        for w in g.elements:
            images = {
                g.datum.act(word, lam) for word in _all_reduced_words(g, w)
            }
            assert len(images) == 1


def test_length_subadditive_and_w_o_complement(engines):
    g = engines.group("B2")
    for u in g.elements:
        for v in g.elements:
            assert g.mul(u, v).length <= u.length + v.length
        assert g.mul(g.w_o, u).length == g.w_o.length - u.length


def test_poincare_symmetry(engines):
    for label in ("A2", "A3", "B2", "G2"):
        g = engines.group(label)
        by_len = {}
        for w in g.elements:
            by_len[w.length] = by_len.get(w.length, 0) + 1
        top = g.w_o.length
        for k, n in by_len.items():
            assert by_len[top - k] == n


def test_group_axioms(engines):
    g = engines.group("B2")
    rng = random.Random(7)
    for _ in range(50):
        u, v, w = (rng.choice(g.elements) for _ in range(3))
        assert g.mul(g.mul(u, v), w) is g.mul(u, g.mul(v, w))
        assert g.mul(u, g.inverse(u)) is g.identity
        assert g.mul(g.inverse(u), u) is g.identity


# -- Bruhat order --------------------------------------------------------------


def test_bruhat_basics(engines):
    g = engines.group("A2")
    for w in g.elements:
        assert g.bruhat_leq(g.identity, w)
        assert g.bruhat_leq(w, w)
    s1, s2 = g.simple(1), g.simple(2)
    assert not g.bruhat_leq(s1, s2)
    assert not g.bruhat_leq(s2, s1)


def _bruhat_by_reflections(g):
    """Independent construction: covers are length-one reflection steps."""
    reflections = {
        g.mul(g.mul(w, g.simple(i)), g.inverse(w))
        for w in g.elements
        for i in range(1, g.datum.rank + 1)
    }
    leq = {(w.index, w.index) for w in g.elements}
    covers = {}
    for w in g.elements:
        for t in reflections:
            z = g.mul(t, w)
            if z.length == w.length + 1:
                covers.setdefault(w.index, []).append(z.index)
    # transitive closure upward from each element
    for w in g.elements:
        stack = [w.index]
        seen = {w.index}
        while stack:
            cur = stack.pop()
            for nxt in covers.get(cur, []):
                leq.add((w.index, nxt))
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return leq


@pytest.mark.parametrize("label", ["A2", "B2", "A3"])
def test_bruhat_matches_reflection_closure(label, engines):
    g = engines.group(label)
    oracle = _bruhat_by_reflections(g)
    for u in g.elements:
        for w in g.elements:
            assert g.bruhat_leq(u, w) == ((u.index, w.index) in oracle)


@pytest.mark.parametrize("label", ["A3", "B3", "D4"])
def test_lower_interval_masks_are_the_bruhat_order(label, engines):
    """Bit u.index of ``_lower_masks[w.index]`` is set exactly when u <= w
    by the left-descent recursion, on every pair."""
    g = engines.group(label)
    masks = g._lower_masks
    assert len(masks) == len(g.elements)
    for w in g.elements:
        assert masks[w.index] >> len(g.elements) == 0
        for u in g.elements:
            assert (masks[w.index] >> u.index) & 1 == g._bruhat(u.index, w.index)


def test_bruhat_is_partial_order(engines):
    g = engines.group("B2")
    for u in g.elements:
        for v in g.elements:
            if g.bruhat_leq(u, v) and g.bruhat_leq(v, u):
                assert u is v
            for w in g.elements:
                if g.bruhat_leq(u, v) and g.bruhat_leq(v, w):
                    assert g.bruhat_leq(u, w)


# -- element identity ------------------------------------------------------------


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"])
def test_every_returned_element_is_the_groups_own(label, engines):
    """Elements compare by identity, so every method must return the object
    stored in ``elements``, never an equal copy."""
    g = engines.group(label)
    rank = g.datum.rank
    own = lambda x: x is g.elements[x.index]
    assert [x.index for x in g.elements] == list(range(len(g)))
    assert own(g.identity) and own(g.w_o)
    assert all(own(g.simple(i)) for i in range(1, rank + 1))
    for w in g.elements:
        assert g.from_word(w.word) is w
        assert g.from_word(w.word + (1, 1)) is w
        assert own(g.inverse(w))
        for i in range(1, rank + 1):
            assert own(g.right_mul(w, i)) and own(g.left_mul(i, w))
        assert all(own(g.mul(w, v)) for v in g.elements)
    for size in range(rank + 1):
        for subset in itertools.combinations(range(1, rank + 1), size):
            p = g.parabolic(subset)
            assert own(p.longest_in_parabolic)
            assert all(map(own, p.min_reps)) and all(map(own, p.subgroup))


def test_groups_built_from_one_datum_share_no_element():
    """Elements of two groups are never equal, even when built from one
    datum; they are matched by index or word."""
    assert WeylElement.__eq__ is object.__eq__
    assert WeylElement.__hash__ is object.__hash__
    datum = build_root_datum("A", 2)
    g1, g2 = WeylGroup(datum), WeylGroup(datum)
    for x, y in zip(g1.elements, g2.elements):
        assert (x.index, x.word, x.length, x.key) == (y.index, y.word, y.length, y.key)
        assert x is not y and x != y
        assert g2.elements[x.index] is y and g2.from_word(x.word) is y
    assert not set(g1.elements) & set(g2.elements)


# -- parabolic data ---------------------------------------------------------------


def test_empty_parabolic_gives_whole_group(engines):
    g = engines.group("A2")
    p = g.parabolic([])
    assert len(p.min_reps) == len(g)
    assert p.longest_in_parabolic is g.identity


def test_projective_plane_coset_count(engines):
    g = engines.group("A2")
    p = g.parabolic([2])
    assert len(p.min_reps) == 3


def test_grassmannian_coset_count(engines):
    g = engines.group("A3")
    p = g.parabolic([1, 3])
    assert len(p.min_reps) == 6


def test_parabolic_order_reversing_involution(engines):
    g = engines.group("A3")
    p = g.parabolic([1, 3])
    reps = set(p.min_reps)
    phi = {
        w: g.mul(g.mul(g.w_o, w), p.longest_in_parabolic) for w in p.min_reps
    }
    for w, fw in phi.items():
        assert fw in reps
        assert phi[fw] is w
    for u in p.min_reps:
        for w in p.min_reps:
            if g.bruhat_leq(u, w):
                assert g.bruhat_leq(phi[w], phi[u])


# -- Weyl dimension oracle ---------------------------------------------------------


def test_weyl_dimension_small_cases():
    a2 = build_root_datum("A", 2)
    assert weyl_dimension(a2, (1, 0)) == 3
    assert weyl_dimension(a2, (0, 1)) == 3
    assert weyl_dimension(a2, (1, 1)) == 8
    assert weyl_dimension(a2, (2, 2)) == 27
    b2 = build_root_datum("B", 2)
    assert {weyl_dimension(b2, (1, 0)), weyl_dimension(b2, (0, 1))} == {4, 5}
    g2 = build_root_datum("G", 2)
    assert {weyl_dimension(g2, (1, 0)), weyl_dimension(g2, (0, 1))} == {7, 14}


def test_weyl_dimension_rho_power_of_two():
    for letter, rank in (("A", 2), ("B", 2), ("G", 2), ("A", 3)):
        d = build_root_datum(letter, rank)
        assert weyl_dimension(d, d.rho) == 2 ** len(d.positive_roots)
