"""Property test of the CLI: generated argv, Cartan files, cache files and
--out paths never give a traceback, and every exit code is one of the
documented four.

Every call runs ``kflag.cli.main`` in this process with ``--jobs`` <= 1, so
no process is started.  Groups stay small through ``--max-weyl`` (at most
200, and less for the commands that sweep every fixed point), so an
example takes from milliseconds to about a second (a D4 table build).
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from kflag.cli import CACHE_ENV_VAR, main
from kflag.roots import cartan_matrix

from test_cli import _strip_timings

EXIT_CODES = {0, 1, 2, 3}

#: the largest --max-weyl per command; verify sweeps every triple, and
#: line-coeffs solves one class per fixed point
MAX_WEYL = {
    "describe": 200,
    "constants": 200,
    "parabolic-constants": 200,
    "richardson": 200,
    "line-coeffs": 48,
    "verify": 8,
}

#: (type, rank) -> Weyl group order
GROUPS = {("A", 1): 2, ("A", 2): 6, ("B", 2): 8, ("G", 2): 12, ("A", 3): 24,
          ("C", 3): 48, ("A", 4): 120, ("D", 4): 192}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=12,
)
small_matrices = st.integers(0, 3).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
)
cartan_files = st.one_of(
    small_matrices.map(json.dumps),
    json_values.map(json.dumps),
    st.text(alphabet="[]{},:-0123456789 \"ax", max_size=12),
).map(str.encode) | st.binary(max_size=12)
junk = st.text(alphabet="0123456789,-e x", max_size=8)


def int_list(xs) -> str:
    return ",".join(map(str, xs)) or "e"


@st.composite
def invocations(draw):
    """(argv, Cartan file bytes or None, cache, --out) for one call.

    The cache is None (no --cache-dir), "empty" or the bytes of the group's
    cache file; --out is absent, a directory or a path under a regular file.

    Each input is only rarely invalid, so that most calls get past the
    argument checks and the success paths run too.
    """
    command = draw(st.sampled_from([*MAX_WEYL] * 4 + ["no-such-command"]))
    cap = MAX_WEYL.get(command, 8)
    argv = [command]
    cartan = None
    letter, rank = draw(st.sampled_from([g for g, order in GROUPS.items() if order <= cap]))
    group = draw(st.sampled_from(["type"] * 6 + ["cartan"] * 2 + ["other type", "other cartan", "none"]))
    if group == "type":
        argv += ["--type", letter, "--rank", str(rank)]
    elif group == "cartan":
        cartan = json.dumps([list(row) for row in cartan_matrix(letter, rank)]).encode()
    elif group == "other type":
        argv += ["--type", draw(st.sampled_from("ABCDEFGXa")), "--rank", str(draw(st.integers(-1, 8)))]
    elif group == "other cartan":
        cartan = draw(cartan_files)
    words = st.lists(st.integers(1, rank), max_size=2 * rank + 2).map(int_list)
    weights = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank).map(int_list)
    values = {"--parabolic": st.lists(st.integers(1, rank), max_size=rank).map(int_list),
              "--u": words, "--v": words, "--lambda": weights, "--mu": weights}
    bad = junk | st.lists(st.integers(-1, rank + 1), max_size=rank + 2).map(int_list)
    for flag, good in values.items():
        if draw(st.integers(0, 4)):
            value = draw(bad if draw(st.integers(0, 15)) == 0 else good)
            argv.append(f"{flag}={value}")
    if draw(st.booleans()):
        argv += ["--which", draw(st.sampled_from(["signs", "richardson", "line", "all"] * 3 + ["x"]))]
    if draw(st.booleans()):
        argv += ["--jobs", draw(st.sampled_from(["1"] * 6 + ["0", "-1"]))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv"] * 3 + ["xml"]))]
    argv += ["--max-weyl", str(draw(st.sampled_from([cap] * 6) | st.integers(-1, cap)))]
    cache = draw(st.sampled_from([None, "empty"]) | st.binary(min_size=1, max_size=12))
    out = draw(st.sampled_from([None] * 4 + ["directory", "under a file"]))
    return argv, cartan, cache, out, f"{letter}{rank}"


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_cli_exits_with_a_documented_code(invocation):
    argv, cartan, cache, out_path, label = invocation
    with tempfile.TemporaryDirectory() as tmp:
        if cartan is not None:
            path = os.path.join(tmp, "cartan.json")
            with open(path, "wb") as fh:
                fh.write(cartan)
            argv = [*argv, "--cartan", path]
        if cache is not None:
            cache_dir = os.path.join(tmp, "cache")
            os.mkdir(cache_dir)
            if cache != "empty":
                with open(os.path.join(cache_dir, f"schubert-table-{label}.json"), "wb") as fh:
                    fh.write(cache)
            argv = [*argv, "--cache-dir", cache_dir]
        if out_path == "directory":
            argv = [*argv, "--out", tmp]
        elif out_path == "under a file":
            blocker = os.path.join(tmp, "file")
            open(blocker, "w").close()
            argv = [*argv, "--out", os.path.join(blocker, "x.json")]
        out, err = io.StringIO(), io.StringIO()
        saved = os.environ.pop(CACHE_ENV_VAR, None)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects the command line
                    code = exc.code
        finally:
            if saved is not None:
                os.environ[CACHE_ENV_VAR] = saved
    assert code in EXIT_CODES, (argv, cartan, cache, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue(), argv


# -- one malformed field or entry of a pool cache ---------------------------------

#: ``verify``, the one command that loads a cache file
A2_SIGNS = ["verify", "--type", "A", "--rank", "2", "--which", "signs"]
non_ints = json_values.filter(lambda x: type(x) is not int)  # bools included
non_lists = json_values.filter(lambda x: type(x) is not list)


def _a2_pool_payload() -> dict:
    """The schema-5 payload of A2's one-variable table."""
    from kflag import SchubertModel, WeylGroup, build_root_datum
    from kflag.cache import _table_to_payload

    datum = build_root_datum("A", 2)
    group = WeylGroup(datum)
    return _table_to_payload(datum, group, SchubertModel(group))


@st.composite
def pool_cache_mutations(draw):
    """(payload, outcome): the A2 payload with one field or entry set to
    something no well-formed schema-5 file of A2 holds there, and the
    outcome it must have, "warning" or, for a coefficient past the 64-bit
    packed range, "integrity".  A well-typed entry in range changes the
    table, not its form, and is the self-checks' to catch."""
    payload = _a2_pool_payload()
    values, rows = payload["values"], payload["rows"]
    where = draw(st.sampled_from(["field", "value", "shift", "coefficients", "coefficient",
                                  "row", "entry", "rows"]))
    outcome = "warning"
    if where == "field":
        field = draw(st.sampled_from(["schema_version", "group", "elements", "values", "rows"]))
        new = draw(json_values)
        assume(new != payload[field])
        payload[field] = new
    elif where in ("value", "row"):
        pool = values if where == "value" else rows
        i = draw(st.integers(0, len(pool) - 1))
        if draw(st.booleans()):
            pool[i] = draw(non_lists)
        elif where == "value":
            # a pair with an item more or less
            pool[i] = draw(st.sampled_from([pool[i][:1], [*pool[i], draw(json_values)]]))
        else:
            pool[i].append(draw(st.integers(0, 5)))  # odd length
    elif where == "shift":
        draw(st.sampled_from(values))[0] = draw(non_ints)
    elif where == "coefficients":
        draw(st.sampled_from(values))[1] = draw(non_lists | st.just([]))
    elif where == "coefficient":
        coeffs = draw(st.sampled_from(values))[1]
        j = draw(st.sampled_from(sorted({0, len(coeffs) - 1})))
        kind = draw(st.sampled_from(["type", "zero", "range"]))
        if kind == "range":
            outcome = "integrity"
            coeffs[j] = draw(st.sampled_from([1, -1])) * draw(st.integers(2**63, 2**80))
        else:
            coeffs[j] = draw(non_ints) if kind == "type" else 0
    elif where == "entry":
        row = draw(st.sampled_from(rows))
        j = draw(st.integers(0, len(row) - 1))
        top = len(payload["elements"]) if j % 2 == 0 else len(values)  # v or a pool index
        row[j] = draw(non_ints | st.integers(max_value=-1) | st.integers(min_value=top))
    else:
        if draw(st.booleans()):
            rows.pop(draw(st.integers(0, len(rows) - 1)))
        else:
            rows.append(list(draw(st.sampled_from(rows))))
    return payload, outcome


@settings(max_examples=60, deadline=None)
@given(pool_cache_mutations())
def test_a_malformed_pool_cache_warns_once_or_fails_integrity(mutation):
    """A digest-valid A2 pool cache with one malformed field or entry, read
    by ``verify``: exit 0 with one cache warning and the output of a run
    with no cache (``elapsed_ms`` aside), or, for a coefficient past the
    packed range, exit 3 with one integrity line; never exit 1 or a
    traceback."""
    import hashlib

    payload, outcome = mutation
    members = json.dumps(payload, sort_keys=True)[1:].encode()
    digest = hashlib.sha256(members).hexdigest()
    saved = os.environ.pop(CACHE_ENV_VAR, None)
    try:
        want = io.StringIO()
        with contextlib.redirect_stdout(want):
            assert main(A2_SIGNS) == 0
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "schubert-table-A2.json"), "wb") as fh:
                fh.write(f'{{"digest": "{digest}", '.encode() + members)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*A2_SIGNS, "--cache-dir", tmp])
    finally:
        if saved is not None:
            os.environ[CACHE_ENV_VAR] = saved
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    assert len(lines) == 1, (payload, lines)
    if outcome == "warning":
        assert code == 0 and lines[0].startswith("warning: cache "), (payload, code, lines)
        assert (_strip_timings(json.loads(out.getvalue()))
                == _strip_timings(json.loads(want.getvalue())))
    else:
        assert code == 3 and lines[0].startswith("integrity failure"), (payload, code, lines)
