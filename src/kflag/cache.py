"""The table cache: the file format of the one-variable Schubert table, its
store and its load.

A file is ``schubert-table-<label>.json`` in the cache directory
(``cli._cache_path``): a JSON object whose first member is the SHA-256 of
the bytes after it, then the schema version, the group, its element words,
a pool of distinct values and one row of references per element.  The CLI
imports this module through ``cli.cache_store`` and ``cli.cache_load`` on
first use, so a call that neither stores nor loads a table never compiles it.
"""
from __future__ import annotations

import contextlib
import json
import os
import sys

from .cli import _cache_path, _sha256
from .model import SchubertModel
from .roots import RootDatum, WeylGroup

CACHE_SCHEMA_VERSION = 5

_DIGEST_HEAD_SIZE = len(b'{"digest": "", ') + 64  # the hex SHA-256 has 64 digits


def _digest_head(members: bytes) -> bytes:
    """The digest member that opens a cache file: the SHA-256 of the bytes after it."""
    return f'{{"digest": "{_sha256(members)}", '.encode()


def _table_to_payload(datum: RootDatum, group: WeylGroup, model: SchubertModel) -> dict:
    """The one-variable Schubert table as a pool of its distinct values and
    one row of references per element.  ``values[i] = [s, [c_0, ..., c_k]]``
    is t^s (c_0 + ... + c_k t^k), each value once, in the order of first use
    along the rows; ``rows[w] = [v_0, i_0, v_1, i_1, ...]``, by v.index as the
    model keeps it, says class w restricts at fixed point v_j to values[i_j].
    Only the pool is decoded: one value stands for every entry equal to it."""
    refs: dict = {}  # UniPoly -> its index in the pool, in order of first use
    # the same index by id: the entries of a coset share one value object,
    # which is hashed once (the table keeps every value alive meanwhile)
    by_id: dict[int, int] = {}
    rows = []
    for w in range(len(group.elements)):
        row = []
        for v, p in model._rows[w].items():
            i = by_id.get(id(p))
            if i is None:
                i = by_id[id(p)] = refs.setdefault(p, len(refs))
            row += (v, i)
        rows.append(row)
    return {
        "schema_version": CACHE_SCHEMA_VERSION,
        "group": {
            "label": datum.label,
            "rank": datum.rank,
            "cartan": [list(r) for r in datum.cartan],
        },
        "elements": [list(w.word) for w in group.elements],
        "values": [list(p.coefficients()) for p in refs],
        "rows": rows,
    }


def store(cache_dir: str, datum: RootDatum, group: WeylGroup, model: SchubertModel) -> str | None:
    """Write the Schubert restriction table through a unique temp file, so
    concurrent writers never interleave; failures warn and return None.
    Only a store needs ``tempfile``, so it is imported here."""
    import tempfile

    path = _cache_path(cache_dir, datum)
    name = os.path.basename(path)
    try:
        os.makedirs(cache_dir, exist_ok=True)
        # the sorted dump, the digest first; json.dumps runs the C encoder
        # where json.dump streams through the pure-Python one
        payload = _table_to_payload(datum, group, model)
        members = json.dumps(payload, sort_keys=True)[1:].encode()
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_digest_head(members) + members)
            os.chmod(tmp, 0o644)  # mkstemp creates 0600
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return path
    except OSError as exc:
        print(f"warning: cache store failed: {exc}", file=sys.stderr)
        return None


def load(cache_dir: str, datum: RootDatum, group: WeylGroup) -> list[dict] | None:
    """Load a cached one-variable table; any mismatch recomputes (returns
    None) with one warning line.  Each pool value is packed once, and every
    entry that refers to it holds that one ``UniPoly``; a value that does
    not fit its 64-bit digits fails integrity (exit 3).  Only a load needs
    ``kflag.univariate``, so it is imported here."""
    from .univariate import UniPoly

    path = _cache_path(cache_dir, datum)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        payload = json.loads(data.decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, too deep
        print(f"warning: cache unreadable ({exc}); recomputing", file=sys.stderr)
        return None
    if not isinstance(payload, dict):
        print("warning: cache malformed (not a JSON object); recomputing", file=sys.stderr)
        return None
    if payload.get("schema_version") != CACHE_SCHEMA_VERSION:
        print("warning: cache schema version mismatch; recomputing", file=sys.stderr)
        return None
    if data[:_DIGEST_HEAD_SIZE] != _digest_head(data[_DIGEST_HEAD_SIZE:]):
        print("warning: cache digest mismatch; recomputing", file=sys.stderr)
        return None
    grp = payload.get("group")
    if not isinstance(grp, dict):
        print("warning: cache malformed (group is not an object); recomputing", file=sys.stderr)
        return None
    if grp.get("cartan") != [list(r) for r in datum.cartan]:
        print("warning: cache is for a different group; recomputing", file=sys.stderr)
        return None
    if payload.get("elements") != [list(w.word) for w in group.elements]:
        print("warning: cache element list mismatch; recomputing", file=sys.stderr)
        return None
    values, rows = payload.get("values"), payload.get("rows")
    elements = group.elements

    polys = []
    try:
        if type(values) is not list:
            raise ValueError
        for value in values:
            # [s, coefficients]; JSON true/false load as bool, a subclass of int
            if type(value) is not list or len(value) != 2 or type(value[0]) is not int:
                raise ValueError
            polys.append(UniPoly.from_coefficients(*value))
    except ValueError:
        print("warning: cache malformed (values are not [s, coefficients] pairs); recomputing",
              file=sys.stderr)
        return None
    if not (type(rows) is list and len(rows) == len(elements)
            and all(_is_ref_row(row, len(elements), len(polys)) for row in rows)):
        print("warning: cache malformed (rows are not [v, i, ...] references); recomputing",
              file=sys.stderr)
        return None
    at, value = elements.__getitem__, polys.__getitem__
    return [dict(zip(map(at, row[::2]), map(value, row[1::2]))) for row in rows]


def _is_ref_row(row, points: int, values: int) -> bool:
    """Whether row is [v_0, i_0, v_1, i_1, ...] of plain ints (no bools),
    each v below ``points`` and each i below ``values``, none negative."""
    if type(row) is not list or len(row) % 2:
        return False
    if not row:
        return True
    if set(map(type, row)) != {int}:
        return False
    vs, refs = row[::2], row[1::2]
    return min(vs) >= 0 and max(vs) < points and min(refs) >= 0 and max(refs) < values
