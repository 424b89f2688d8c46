"""Reference Weyl-group enumeration on weight tuples, for the packed one.

A breadth-first search by left multiplication on the keys w(rho), with
tuple reflections, as the group was enumerated before its keys were
packed integers.  ``_right`` comes from the root images w(alpha_i),
applied to alpha_i through the word, since key(w s_i) = key(w) - w(alpha_i);
the engine builds it from inverses instead.
"""
from __future__ import annotations


def reference_tables(datum):
    """(keys, lengths, words, left, right), elements sorted by (length, key)."""
    r = datum.rank
    length = {datum.rho: 0}
    frontier = [datum.rho]
    while frontier:
        fresh = []
        for key in frontier:
            for i in range(1, r + 1):
                key2 = datum.reflect(i, key)
                if key2 not in length:
                    length[key2] = length[key] + 1
                    fresh.append(key2)
        frontier = fresh
    keys = sorted(length, key=lambda k: (length[k], k))
    index = {k: n for n, k in enumerate(keys)}
    left = [[index[datum.reflect(i, k)] for k in keys] for i in range(1, r + 1)]
    words = [()]
    for n, key in enumerate(keys[1:], 1):
        i = next(i for i in range(1, r + 1) if length[datum.reflect(i, key)] < length[key])
        words.append((i,) + words[left[i - 1][n]])
    right = [[index[tuple(a - b for a, b in zip(key, datum.act(word, datum.simple_root(i))))]
              for key, word in zip(keys, words)] for i in range(1, r + 1)]
    return keys, [length[k] for k in keys], words, left, right
