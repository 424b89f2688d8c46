"""CLI commands, serialization determinism, caching, exit codes."""
from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from kflag.cli import CACHE_ENV_VAR, main

from line_oracle import public_line_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def test_describe_a2(capsys):
    code, obj, _ = run_json(capsys, "describe", "--type", "A", "--rank", "2")
    assert code == 0
    assert obj["weyl_order"] == 6
    assert obj["dimension"] == 3
    assert obj["positive_roots"] == 3


def test_describe_a1(capsys):
    code, obj, _ = run_json(capsys, "describe", "--type", "A", "--rank", "1")
    assert code == 0
    assert obj["weyl_order"] == 2
    assert obj["dimension"] == 1


def test_describe_grassmannian(capsys):
    code, obj, _ = run_json(
        capsys, "describe", "--type", "A", "--rank", "3", "--parabolic", "1,3"
    )
    assert code == 0
    assert obj["min_reps"] == 6
    assert obj["parabolic_dimension"] == 4


def test_describe_requires_group(capsys):
    code, _, err = run_cli(capsys, "describe")
    assert code == 2
    assert "group is required" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["constants", "--v", "1"], "--u is required for this command"),
        (["constants", "--u", "1"], "--v is required for this command"),
        (["parabolic-constants", "--u", "1", "--v", "2"], "--parabolic is required"),
        (["parabolic-constants", "--parabolic", "1", "--v", "2"], "--u is required for this command"),
        (["line-coeffs", "--v", "1"], "--lambda is required"),
        (["line-coeffs", "--lambda", "1,0,0,0"], "--v is required for this command"),
        (["richardson", "--lambda=e"], "--u is required for this command"),
        (["richardson", "--u", "1"], "--v is required for this command"),
        (["verify", "--which", "line", "--mu", "0,1"], "--mu needs --lambda"),
    ],
    ids=[
        "constants", "constants-v", "parabolic-constants", "parabolic-constants-u",
        "line-coeffs", "line-coeffs-v", "richardson", "richardson-v", "verify-mu",
    ],
)
def test_missing_argument_exits_before_the_table_build(capsys, monkeypatch, argv, message):
    from kflag import SchubertModel

    def refuse(*args, **kwargs):
        raise AssertionError("the table was built before the arguments were checked")

    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    monkeypatch.setattr(SchubertModel, "__init__", refuse)
    code, out, err = run_cli(capsys, *argv, "--type", "D", "--rank", "4")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_constants_frozen_example(capsys):
    code, obj, _ = run_json(
        capsys, "constants", "--type", "A", "--rank", "2", "--u", "1,2", "--v", "2,1"
    )
    assert code == 0
    rows = {tuple(r["w"]): (r["c"], r["N"]) for r in obj["constants"]}
    assert rows == {(1,): (1, 0), (2,): (1, 0), (): (-1, 1)}


def test_constants_word_canonicalized(capsys):
    # non-reduced words are accepted and canonicalized
    code, obj, _ = run_json(
        capsys,
        "constants", "--type", "A", "--rank", "2",
        "--u", "1,1,1", "--v", "1,1,1,2,1",
    )
    assert code == 0
    assert obj["u"] == [1]
    assert obj["v"] == [1, 2, 1]
    assert obj["constants"] == [{"w": [1], "c": 1, "N": 0}]


def test_constants_point_times_curve_vanishes(capsys):
    # N(u,v;w) < 0 for every w, so the whole product is zero
    code, obj, _ = run_json(
        capsys, "constants", "--type", "A", "--rank", "2", "--u", "1", "--v", "e"
    )
    assert code == 0
    assert obj["constants"] == []


def test_constants_bad_word(capsys):
    code, _, err = run_cli(
        capsys, "constants", "--type", "A", "--rank", "2", "--u", "3", "--v", "e"
    )
    assert code == 2


def test_constants_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "constants", "--type", "A", "--rank", "2",
        "--u", "1,2", "--v", "2,1", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w,c,N"
    assert len(lines) == 4


def test_json_output_deterministic(capsys):
    args = ("constants", "--type", "B", "--rank", "2", "--u", "1,2", "--v", "2,1")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_all_a2(capsys):
    code, obj, _ = run_json(capsys, "verify", "--type", "A", "--rank", "2", "--which", "all")
    assert code == 0
    assert obj["ok"] is True
    names = {r["name"] for r in obj["reports"]}
    assert {"normalization", "signs", "richardson"} <= names
    assert obj["line_reports"]
    assert all(r["ok"] for r in obj["line_reports"])


def test_verify_signs_a1(capsys):
    code, obj, _ = run_json(capsys, "verify", "--type", "A", "--rank", "1", "--which", "signs")
    assert code == 0
    signs = next(r for r in obj["reports"] if r["name"] == "signs")
    assert signs["checked"] == 8


def test_verify_signs_with_jobs(capsys):
    """--jobs is accepted and changes nothing: every sweep runs in process."""
    argv = ("verify", "--type", "A", "--rank", "3", "--which", "all")
    _, serial, _ = run_json(capsys, *argv, "--jobs", "1")
    code, obj, _ = run_json(capsys, *argv, "--jobs", "2")
    assert code == 0 and obj["ok"] is True
    assert _strip_timings(obj) == _strip_timings(serial)


def test_integer_commands_build_no_laurent_poly(capsys, monkeypatch):
    """Every command runs on the one-variable table alone: with the
    weight-lattice polynomial made unbuildable, each gives the same JSON."""
    from kflag import LaurentPoly

    group = ("--type", "A", "--rank", "2")
    commands = [
        ("constants", "--u", "1", "--v", "2,1"),
        ("parabolic-constants", "--parabolic", "2", "--u", "1", "--v", "2,1"),
        ("line-coeffs", "--v", "1,2", "--lambda", "1,-1"),
        ("richardson", "--u", "1", "--v", "1,2"),
        ("verify", "--which", "all"),
    ]
    before = [_strip_timings(run_json(capsys, *cmd, *group)[1]) for cmd in commands]

    def unbuildable(self, *args, **kwargs):
        raise AssertionError("LaurentPoly built on the integer path")

    monkeypatch.setattr(LaurentPoly, "__init__", unbuildable)
    for cmd, want in zip(commands, before):
        code, obj, _ = run_json(capsys, *cmd, *group)
        assert code == 0 and _strip_timings(obj) == want, cmd


def test_help_describes_every_command(capsys):
    from kflag.cli import _COMMANDS

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    for name, fn in _COMMANDS.items():
        assert fn.__doc__, name
        assert f"{name} {' '.join(fn.__doc__.split())}" in out


def test_verify_parabolic_signs(capsys):
    code, obj, _ = run_json(
        capsys,
        "verify", "--type", "A", "--rank", "3",
        "--which", "signs", "--parabolic", "1,3",
    )
    assert code == 0
    signs = next(r for r in obj["reports"] if r["name"] == "signs")
    assert signs["parabolic"] == [1, 3]
    assert signs["checked"] == 216


def test_verify_richardson_only(capsys):
    code, obj, _ = run_json(
        capsys, "verify", "--type", "B", "--rank", "2", "--which", "richardson"
    )
    assert code == 0
    assert {r["name"] for r in obj["reports"]} == {"normalization", "richardson"}


def test_verify_violations_exit_code(capsys, monkeypatch):
    """Exit code 1 when a sweep reports violations (injected; the theorems
    themselves never produce any)."""
    from kflag.ring import SchubertRing, SignReport

    def fake(self, which, parabolic=None):
        assert which == "signs" and parabolic is None
        return [SignReport(
            group="A2", name="signs", parabolic=None, checked=1,
            violations=[((1,), (2,), (), -1, 0)], elapsed_ms=0,
        )]

    monkeypatch.setattr(SchubertRing, "verify_sweeps", fake)
    code, obj, _ = run_json(
        capsys, "verify", "--type", "A", "--rank", "2", "--which", "signs"
    )
    assert code == 1
    assert obj["ok"] is False


def test_csv_restricted_to_tables(capsys):
    code, _, err = run_cli(
        capsys, "describe", "--type", "A", "--rank", "2", "--format", "csv"
    )
    assert code == 2
    assert "csv" in err


def test_verify_line_single_pair(capsys):
    code, obj, _ = run_json(
        capsys,
        "verify", "--type", "A", "--rank", "2", "--which", "line",
        "--lambda", "1,0", "--mu", "0,1",
    )
    assert code == 0
    assert len(obj["line_reports"]) == 1


def test_line_coeffs_rank_one(capsys):
    code, obj, _ = run_json(
        capsys, "line-coeffs", "--type", "A", "--rank", "1", "--v", "1", "--lambda", "3"
    )
    assert code == 0
    assert obj["dominant"] is True
    rows = {tuple(r["w"]): r["c"] for r in obj["coeffs"]}
    assert rows == {(1,): 1, (): 3}


def test_line_coeffs_wrong_length(capsys):
    code, _, err = run_cli(
        capsys, "line-coeffs", "--type", "A", "--rank", "2", "--v", "1", "--lambda", "1"
    )
    assert code == 2


def test_parabolic_constants_p2(capsys):
    code, obj, _ = run_json(
        capsys,
        "parabolic-constants", "--type", "A", "--rank", "2",
        "--parabolic", "2", "--u", "1", "--v", "1",
    )
    assert code == 0
    assert obj["constants"] == [{"w": [], "c": 1, "N": 0}]


def test_richardson_command(capsys):
    code, obj, _ = run_json(
        capsys, "richardson", "--type", "A", "--rank", "2", "--u", "1", "--v", "1,2"
    )
    assert code == 0
    assert obj["comparable"] is True
    assert obj["dimension"] == 1


def test_richardson_incomparable(capsys):
    code, obj, _ = run_json(
        capsys, "richardson", "--type", "A", "--rank", "2", "--u", "1,2", "--v", "2"
    )
    assert code == 0
    assert obj["comparable"] is False
    assert obj["coeffs"] == []


def test_out_file(tmp_path, capsys):
    out = tmp_path / "result.json"
    code, stdout, _ = run_cli(
        capsys,
        "describe", "--type", "A", "--rank", "2", "--out", str(out),
    )
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text())["weyl_order"] == 6


def test_explicit_cartan_file(tmp_path, capsys):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps([[2, -1], [-3, 2]]))
    code, obj, _ = run_json(capsys, "describe", "--cartan", str(path))
    assert code == 0
    assert obj["weyl_order"] == 12


@pytest.mark.parametrize(
    "matrix",
    [
        [[2, "x"], [-1, 2]],
        "abc",
        [[2, -1.5], [-1, 2]],
        [[2.0, -1], [-1, 2]],
        [[2, False], [False, 2]],
        [[2, -1], [-1]],
        [2, -1],
        {"a": 1},
    ],
)
def test_invalid_cartan_is_a_config_error(tmp_path, capsys, matrix):
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps(matrix))
    code, out, err = run_cli(capsys, "describe", "--cartan", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("body", [b"\xff\xfe[[2]]", b"[" * 100000], ids=["not-utf8", "too-deep"])
def test_unreadable_cartan_is_a_config_error(tmp_path, capsys, body):
    """A Cartan file that is not UTF-8, or nests deeper than the JSON
    decoder recurses, exits 2 with one line."""
    path = tmp_path / "cartan.json"
    path.write_bytes(body)
    code, out, err = run_cli(capsys, "describe", "--cartan", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read Cartan matrix file: ") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["a directory", "under a file", "in a missing directory"])
def test_bad_out_path_is_a_config_error(tmp_path, capsys, where):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_path = {
        "a directory": tmp_path,
        "under a file": blocker / "x.json",
        "in a missing directory": tmp_path / "missing" / "x.json",
    }[where]
    code, out, err = run_cli(
        capsys, "describe", "--type", "A", "--rank", "2", "--out", str(out_path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out file: ") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["a directory", "under a file"])
def test_bad_out_path_is_refused_before_the_work(tmp_path, capsys, monkeypatch, where):
    from kflag import cli

    def no_build(cfg):
        raise AssertionError("the ring was built for an unwritable --out path")

    monkeypatch.setattr(cli, "_build_ring", no_build)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_path = tmp_path if where == "a directory" else blocker / "x.json"
    code, out, err = run_cli(
        capsys, "verify", "--type", "A", "--rank", "4", "--which", "signs", "--out", str(out_path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out file: ") and err.count("\n") == 1
    assert blocker.read_text() == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["describe"],
        ["verify", "--which", "signs"],
        ["richardson", "--u", "1", "--v", "1,2"],
    ],
    ids=["describe", "verify", "richardson"],
)
def test_csv_is_refused_before_the_work(capsys, monkeypatch, argv):
    from kflag import cli

    def no_build(cfg):
        raise AssertionError("the ring was built for a command without csv output")

    monkeypatch.setattr(cli, "_build_ring", no_build)
    code, out, err = run_cli(capsys, *argv, "--type", "A", "--rank", "4", "--format", "csv")
    assert code == 2
    assert out == ""
    assert err == "error: csv output is only available for constants tables\n"


@pytest.mark.parametrize(
    "which, weights, message",
    [
        ("all", ["--lambda", "1,0"], "--lambda must have 3 coordinates"),
        ("line", ["--lambda", "1,0,0,0"], "--lambda must have 3 coordinates"),
        ("all", ["--lambda", "1,0,0", "--mu", "1"], "--mu must have 3 coordinates"),
    ],
)
def test_verify_refuses_a_wrong_weight_length_before_the_reports(
    capsys, monkeypatch, which, weights, message
):
    from kflag import SchubertRing

    def no_report(self):
        raise AssertionError("a report ran before the weights were checked")

    monkeypatch.setattr(SchubertRing, "verify_normalization", no_report)
    code, out, err = run_cli(
        capsys, "verify", "--type", "A", "--rank", "3", "--which", which, *weights
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["line-coeffs", "--v", "1"],
        ["verify", "--which", "line"],
        ["verify", "--which", "all"],
    ],
)
def test_wrong_weight_length_is_refused_before_the_group_is_built(capsys, monkeypatch, argv):
    from kflag import cli

    def no_group(*args, **kwargs):
        raise AssertionError("the Weyl group was built before the weights were checked")

    monkeypatch.setattr(cli, "WeylGroup", no_group)
    code, out, err = run_cli(capsys, *argv, "--type", "B", "--rank", "4", "--lambda", "1,0")
    assert code == 2
    assert out == ""
    assert err == "error: --lambda must have 4 coordinates\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["line-coeffs", "--v", "1,2,1", "--lambda", "10000000,0"], "--lambda"),
        (["line-coeffs", "--v", "1", "--lambda", "0,-1048576"], "--lambda"),
        (["verify", "--which", "line", "--lambda", "1048576,0"], "--lambda"),
        (["verify", "--which", "all", "--lambda", "1,0", "--mu", "0,-10000000"], "--mu"),
    ],
    ids=["line-coeffs", "line-coeffs-negative", "verify", "verify-mu"],
)
def test_oversized_weight_is_refused_before_the_group_is_built(capsys, monkeypatch, argv, flag):
    """The one-variable line rows are dense over a degree span that grows
    with the weight, so a coordinate of 2^20 or more exits 2 without work."""
    from kflag import cli

    def no_group(*args, **kwargs):
        raise AssertionError("the Weyl group was built for an oversized weight")

    monkeypatch.setattr(cli, "WeylGroup", no_group)
    code, out, err = run_cli(capsys, *argv, "--type", "A", "--rank", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} coordinates must be below 1048576 in absolute value\n"


def test_weight_just_below_the_bound_is_computed(capsys):
    code, obj, _ = run_json(
        capsys, "line-coeffs", "--type", "A", "--rank", "1", "--v", "1", "--lambda", "1048575"
    )
    assert code == 0
    assert obj["coeffs"] == [{"w": [], "c": 1048575}, {"w": [1], "c": 1}]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_rejected(capsys, jobs):
    code, out, err = run_cli(
        capsys, "verify", "--type", "A", "--rank", "1", "--which", "signs", f"--jobs={jobs}"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"


def test_max_weyl_bound(capsys):
    code, _, err = run_cli(
        capsys, "describe", "--type", "A", "--rank", "3", "--max-weyl", "5"
    )
    assert code == 2
    assert "bound" in err


@pytest.mark.parametrize("group", ["type", "cartan"])
def test_large_rank_is_refused_before_the_cartan_check(tmp_path, capsys, monkeypatch, group):
    """A rank-r Weyl group has at least 2^r elements, so a rank of at least
    the bit length of --max-weyl exits 2 without validating a matrix."""
    def refuse(a):
        raise AssertionError("the Cartan matrix was validated")

    monkeypatch.setattr("kflag.roots._validate_cartan", refuse)
    if group == "type":
        argv = ["--type", "A", "--rank", "1000"]
    else:
        path = tmp_path / "cartan.json"
        path.write_text(json.dumps([[2 if i == j else 0 for j in range(64)] for i in range(64)]))
        argv = ["--cartan", str(path)]
    code, out, err = run_cli(capsys, "describe", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: Weyl group exceeds the configured bound (10000)\n"


def test_rank_bound_keeps_a_group_at_the_bound(capsys):
    code, obj, _ = run_json(
        capsys, "describe", "--type", "A", "--rank", "3", "--max-weyl", "24"
    )
    assert code == 0
    assert obj["weyl_order"] == 24


def test_verify_mu_without_lambda_is_refused(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--type", "A", "--rank", "2", "--which", "line", "--mu", "0,1"
    )
    assert code == 2
    assert out == ""
    assert err == "error: --mu needs --lambda\n"


# -- cache behaviour ---------------------------------------------------------------


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_timings(x) for x in obj]
    return obj


#: the one command that reads a cache file; the cache tests below load one
#: through it, and compare its JSON with ``elapsed_ms`` removed
A2_SIGNS = ("verify", "--type", "A", "--rank", "2", "--which", "signs")


def run_a2_signs(capsys, *argv):
    """(exit code, JSON without ``elapsed_ms`` or None, stderr) of ``A2_SIGNS``."""
    code, obj, err = run_json(capsys, *A2_SIGNS, *argv)
    return code, _strip_timings(obj), err


def test_cache_round_trip(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ("verify", "--type", "A", "--rank", "2", "--which", "signs",
            "--cache-dir", cache)
    code1, obj1, _ = run_json(capsys, *args)
    assert code1 == 0
    path = os.path.join(cache, "schubert-table-A2.json")
    assert os.path.exists(path)
    first = open(path).read()
    code2, obj2, _ = run_json(capsys, *args)
    assert code2 == 0
    assert open(path).read() == first
    assert _strip_timings(obj1) == _strip_timings(obj2)


def test_cache_schema_version_mismatch_recomputes(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ("describe", "--type", "A", "--rank", "2", "--cache-dir", cache)
    run_cli(capsys, *args)
    path = os.path.join(cache, "schubert-table-A2.json")
    payload = json.loads(open(path).read())
    payload["schema_version"] = 999
    open(path, "w").write(json.dumps(payload))
    code, _, err = run_cli(capsys, "verify", "--type", "A", "--rank", "2",
                           "--which", "signs", "--cache-dir", cache)
    assert code == 0
    assert "schema version mismatch" in err
    # and the file has been rewritten at the current version
    assert json.loads(open(path).read())["schema_version"] != 999


def test_cache_digest_mismatch_recomputes_with_warning(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    run_cli(capsys, "describe", "--type", "A", "--rank", "2", "--cache-dir", cache)
    path = os.path.join(cache, "schubert-table-A2.json")
    payload = json.loads(open(path).read())
    payload["values"][0][1][0] += 1  # tamper without fixing digest
    open(path, "w").write(json.dumps(payload))
    code, obj, err = run_json(capsys, "verify", "--type", "A", "--rank", "2",
                              "--which", "signs", "--cache-dir", cache)
    assert code == 0
    assert "digest mismatch" in err
    assert obj["ok"] is True


def test_cache_digest_covers_the_stored_bytes(tmp_path, capsys):
    """The digest is the SHA-256 of the file's bytes after its digest
    member.  The same payload stored with other separators decodes to the
    same JSON but fails the digest: ``verify`` warns once and rewrites it."""
    cache = str(tmp_path / "cache")
    run_cli(capsys, "describe", "--type", "A", "--rank", "2", "--cache-dir", cache)
    path = os.path.join(cache, "schubert-table-A2.json")
    data = open(path, "rb").read()
    payload = json.loads(data)
    head = f'{{"digest": "{payload["digest"]}", '.encode()
    assert data.startswith(head)
    assert hashlib.sha256(data[len(head):]).hexdigest() == payload["digest"]
    open(path, "w").write(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    code, _, err = run_cli(capsys, *A2_SIGNS, "--cache-dir", cache)
    assert code == 0
    assert err.splitlines() == ["warning: cache digest mismatch; recomputing"]
    assert open(path, "rb").read() == data


def _recompute_digest(payload):
    """payload with its digest made anew: the SHA-256 of the bytes after the
    digest member of its sorted dump, where the digest key sorts first.
    Written in sorted key order, it is a digest-valid cache file."""
    body = {k: v for k, v in payload.items() if k != "digest"}
    members = json.dumps(body, sort_keys=True)[1:].encode()
    payload["digest"] = hashlib.sha256(members).hexdigest()
    return payload


def _repoint(payload, w, v, value):
    """payload with the entry (w, v) of its rows pointed at a new pool
    value, which the entry did not hold before; the digest is not fixed."""
    row = payload["rows"][w]
    at = 2 * row[::2].index(v) + 1
    assert payload["values"][row[at]] != value
    row[at] = len(payload["values"])
    payload["values"].append(value)
    return payload


def test_corrupted_cache_with_valid_digest_fails_integrity(tmp_path, capsys):
    """Digest-valid but mathematically wrong table: the verify self-check
    (normalization) must catch it and exit with the integrity code."""
    cache = str(tmp_path / "cache")
    run_cli(capsys, "describe", "--type", "A", "--rank", "2", "--cache-dir", cache)
    path = os.path.join(cache, "schubert-table-A2.json")
    payload = json.loads(open(path).read())
    # point one restriction entry of a non-unit class at a wrong nonzero
    # value (zero is no pool value), then fix the digest
    payload = _recompute_digest(_repoint(payload, 1, 0, [0, [1, -1]]))
    open(path, "w").write(json.dumps(payload))
    code, _, err = run_cli(capsys, "verify", "--type", "A", "--rank", "2",
                           "--which", "signs", "--cache-dir", cache)
    assert code == 3
    assert "integrity" in err


def _double_row_one(monkeypatch) -> None:
    """Every model built from now on, with no cache, holds row 1 of its
    one-variable table doubled: still a class, but one with chi 2.  The
    table is built on first read, so reading row 1 here builds it."""
    from kflag import SchubertModel

    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    init = SchubertModel.__init__

    def corrupt(self, *args, **kwargs):
        init(self, *args, **kwargs)
        w = self.group.elements[1]
        row = self.specialized_schubert_class(w)
        self._rows[1] = {v.index: p for v, p in (row + row).restrictions.items()}

    monkeypatch.setattr(SchubertModel, "__init__", corrupt)


def _plant_in_every_model(monkeypatch, words=([1],)) -> None:
    """Every model built from now on, with no cache, holds the wrong e_1
    rows of ``test_ring._plant_e_row`` at the elements of ``words``."""
    from kflag import SchubertModel
    from test_ring import _plant_e_row

    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    init = SchubertModel.__init__

    def plant(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _plant_e_row(self, words)

    monkeypatch.setattr(SchubertModel, "__init__", plant)


def test_a_planted_e_i_row_fails_constants_with_exit_3(monkeypatch, capsys):
    """With the wrong e_1 row at s_1 in every model, ``constants`` of
    [1] x [1, 2] on A2, which reads it, exits 3 with one line and no
    traceback."""
    _plant_in_every_model(monkeypatch)
    code, out, err = run_cli(capsys, "constants", "--type", "A", "--rank", "2",
                             "--u", "1", "--v", "1,2")
    assert code == 3
    assert out == ""
    assert "integrity" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_planted_e_i_rows_fail_a_walked_sweep_with_exit_3(monkeypatch, capsys):
    """With the wrong e_1 rows of ``test_ring.WALKED_PLANTS`` in every
    model, the A3 sign sweep, which walks, breaks the sum rule and exits 3
    with one line and no traceback."""
    from test_ring import WALKED_PLANTS

    _plant_in_every_model(monkeypatch, WALKED_PLANTS)
    code, out, err = run_cli(capsys, "verify", "--type", "A", "--rank", "3", "--which", "signs")
    assert code == 3
    assert out == ""
    assert "not chi" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_lifting_descents_fails_a_walked_sweep_with_exit_3(monkeypatch, capsys):
    """With a D_i that lifts descents every sum of constants still holds,
    but the A3 sign sweep's walk makes a wrong column of w_o, and exits 3
    with one line and no traceback instead of reporting 116 violations."""
    from test_ring import _MUTATIONS

    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    _MUTATIONS["D_i-lifts-descents"](monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--type", "A", "--rank", "3", "--which", "signs")
    assert code == 3
    assert out == ""
    assert "column of w_o" in err and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_corrupted_table_without_cache_fails_integrity(monkeypatch, capsys):
    """The exit-3 path with no cache: one row of the one-variable table,
    doubled in process, is still a class, so chi at the model's cocharacter
    reads 2 while the freshly built second table reads 1.  The library
    reports that as a normalization violation; the CLI refuses it as a
    route mismatch."""
    from kflag import SchubertModel, SchubertRing, WeylGroup, build_root_datum

    _double_row_one(monkeypatch)
    group = WeylGroup(build_root_datum("A", 2))
    report = SchubertRing(SchubertModel(group)).verify_normalization()
    assert report.violations == [(group.elements[1].word, 2, 1)]
    code, _, err = run_cli(capsys, "verify", "--type", "A", "--rank", "2", "--which", "signs")
    assert code == 3
    assert "integrity" in err


def test_corrupted_table_fails_integrity_through_the_walk(monkeypatch, capsys):
    """The same doubled row on A3, whose sign sweep is filled by the walk,
    which reads no one-variable row: the normalization report's route
    mismatch still exits 3."""
    _double_row_one(monkeypatch)
    code, _, err = run_cli(capsys, "verify", "--type", "A", "--rank", "3", "--which", "signs")
    assert code == 3
    assert "integrity" in err


def test_a_planted_row_moves_chi_at_k_but_not_at_k2(monkeypatch, capsys):
    """``schubert_chi`` reads the model's own rows at its cocharacter k, so
    the doubled row reads chi 2 there, while the table it builds at k2
    reads 1; the CLI, which reads both through it, still exits 3."""
    from kflag import SchubertModel, WeylGroup, build_root_datum

    _double_row_one(monkeypatch)
    model = SchubertModel(WeylGroup(build_root_datum("B", 2)))
    assert model.schubert_chi((1, 1)) == [1, 2] + [1] * 6
    assert model.schubert_chi((1, 2)) == [1] * 8
    code, _, err = run_cli(capsys, "verify", "--type", "B", "--rank", "2", "--which", "signs")
    assert code == 3
    assert "integrity" in err


def test_cache_row_out_of_packed_range_fails_integrity(tmp_path, capsys):
    """A digest-valid row with a coefficient of 2^63 cannot be packed
    exactly: ``verify``, which loads it, exits 3 with one message, no
    traceback."""
    cache = _a2_cache_with_row(tmp_path, capsys, [2**63])
    code, out, err = run_cli(capsys, *A2_SIGNS, "--cache-dir", cache)
    assert code == 3
    assert out == ""
    assert err.startswith("integrity failure: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("letter, rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G", 2), ("D", 4)])
def test_cache_table_fidelity(tmp_path, letter, rank):
    """A table loaded from cache is exactly the computed one-variable table:
    each loaded row holds the built row's values in its key order, and the
    model made from it reads the built rows' values, keys in the same order
    (``UniPoly ==`` leaves the bounds out)."""
    from kflag import SchubertModel, WeylGroup, build_root_datum
    from kflag.cli import cache_load, cache_store

    datum = build_root_datum(letter, rank)
    group = WeylGroup(datum)
    model = SchubertModel(group)
    cache_store(str(tmp_path), datum, group, model)
    table = cache_load(str(tmp_path), datum, group)
    assert table is not None
    loaded = SchubertModel(group, table=table)
    for w in group.elements:
        built = model.specialized_schubert_class(w).restrictions
        assert list(table[w.index].items()) == list(built.items())
        assert loaded.specialized_schubert_class(w) == model.specialized_schubert_class(w)
        assert list(loaded._rows[w.index].items()) == list(model._rows[w.index].items())


@pytest.mark.parametrize("letter, rank, digest", [
    ("A", 3, "4cfccd61c62e22ea93dfae827a8763568ff3570d7246a4731fdad36a8cf8fb89"),
    ("B", 2, "65ff1241904376a905beb21bbdc3b7b7450c3e70e06f5c810929db07773de8ce"),
    ("G", 2, "4ec6f30aadc3d806d6314ef7a975c4429543aec832baa01496db3bcccb76df8f"),
    ("D", 4, "4df77d3908056d24439699cbfa1394667bdb4ab2247149c2b42f584eb5f7b2ba"),
])
def test_cache_file_bytes_are_pinned(tmp_path, letter, rank, digest):
    """A stored table is byte for byte the file of v0.34.0: the pool, its
    order of first use and the rows of references do not move."""
    from kflag import SchubertModel, WeylGroup, build_root_datum
    from kflag.cli import cache_store

    datum = build_root_datum(letter, rank)
    group = WeylGroup(datum)
    path = cache_store(str(tmp_path), datum, group, SchubertModel(group))
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_cache_pool_holds_each_value_once(tmp_path):
    """D4's 9,817 restrictions are 202 distinct values: the pool holds each
    once, every one is referenced, and the loaded table shares one
    ``UniPoly`` per pool value."""
    from kflag import SchubertModel, WeylGroup, build_root_datum
    from kflag.cache import _table_to_payload
    from kflag.cli import cache_load, cache_store

    datum = build_root_datum("D", 4)
    group = WeylGroup(datum)
    model = SchubertModel(group)
    payload = _table_to_payload(datum, group, model)
    values, rows = payload["values"], payload["rows"]
    assert (len(values), sum(len(row) // 2 for row in rows)) == (202, 9817)
    assert len({json.dumps(value) for value in values}) == len(values)
    assert {i for row in rows for i in row[1::2]} == set(range(len(values)))
    cache_store(str(tmp_path), datum, group, model)
    table = cache_load(str(tmp_path), datum, group)
    assert len({id(p) for row in table for p in row.values()}) == len(values)


def _a2_stack():
    from kflag import SchubertModel, WeylGroup, build_root_datum

    datum = build_root_datum("A", 2)
    group = WeylGroup(datum)
    return datum, group, SchubertModel(group)


def test_cache_store_ignores_a_stale_tmp_path(tmp_path, capsys):
    """A leftover <table>.tmp (here a directory) must not block the store."""
    from kflag.cli import cache_load, cache_store

    (tmp_path / "schubert-table-A2.json.tmp").mkdir()
    datum, group, model = _a2_stack()
    path = cache_store(str(tmp_path), datum, group, model)
    assert path == str(tmp_path / "schubert-table-A2.json")
    assert capsys.readouterr().err == ""
    assert cache_load(str(tmp_path), datum, group) is not None
    assert sorted(os.listdir(tmp_path)) == [
        "schubert-table-A2.json", "schubert-table-A2.json.tmp"
    ]


def test_cache_store_bytes_are_the_sorted_dump(tmp_path):
    """The stored file is json.dumps(payload, sort_keys=True), byte for byte,
    which is also what the streaming json.dump writes, with the payload's
    digest the SHA-256 of the bytes after the digest member."""
    from kflag.cache import _table_to_payload
    from kflag.cli import cache_store

    datum, group, model = _a2_stack()
    path = cache_store(str(tmp_path), datum, group, model)
    payload = _recompute_digest(_table_to_payload(datum, group, model))
    assert sorted(payload) == ["digest", "elements", "group", "rows", "schema_version", "values"]
    want = json.dumps(payload, sort_keys=True)
    streamed = io.StringIO()
    json.dump(payload, streamed, sort_keys=True)
    assert streamed.getvalue() == want
    with open(path, "rb") as fh:
        assert fh.read() == want.encode("utf-8")


def test_cache_store_failure_removes_its_temp_file(tmp_path, capsys, monkeypatch):
    from kflag.cli import cache_store

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    datum, group, model = _a2_stack()
    assert cache_store(str(tmp_path), datum, group, model) is None
    assert "cache store failed" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("body", ["[]", '"x"', "3", "null"])
def test_cache_that_is_not_an_object_recomputes(tmp_path, capsys, monkeypatch, body):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, want, err = run_a2_signs(capsys)
    assert code == 0 and not err
    path = tmp_path / "schubert-table-A2.json"
    path.write_text(body)
    code, out, err = run_a2_signs(capsys, "--cache-dir", str(tmp_path))
    assert code == 0
    assert err.splitlines() == [
        "warning: cache malformed (not a JSON object); recomputing"
    ]
    assert out == want
    assert json.loads(path.read_text())["schema_version"]


@pytest.mark.parametrize("body", [b"\xff\xfe\x00{}", b"[" * 100000], ids=["not-utf8", "too-deep"])
def test_unreadable_cache_recomputes(tmp_path, capsys, monkeypatch, body):
    """A cache file that is not UTF-8, or nests too deep to decode: one
    warning line, the output of a run with no cache, and a rewrite."""
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, want, err = run_a2_signs(capsys)
    assert code == 0 and not err
    path = tmp_path / "schubert-table-A2.json"
    path.write_bytes(body)
    code, out, err = run_a2_signs(capsys, "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == want
    assert len(err.splitlines()) == 1
    assert err.startswith("warning: cache unreadable (") and err.endswith("; recomputing\n")
    assert json.loads(path.read_text())["schema_version"]


def _a2_cache_with_row(tmp_path, capsys, coeffs) -> str:
    """An A2 cache whose entry (w=1, v=1) refers to a new pool value
    [0, ``coeffs``], digest fixed."""
    cache = str(tmp_path / "cache")
    run_cli(capsys, "describe", "--type", "A", "--rank", "2", "--cache-dir", cache)
    path = os.path.join(cache, "schubert-table-A2.json")
    payload = json.loads(open(path).read())
    open(path, "w").write(json.dumps(_recompute_digest(_repoint(payload, 1, 1, [0, coeffs]))))
    return cache


@pytest.mark.parametrize("argv", [("verify", "--type", "A", "--rank", "2", "--which", "signs"),
                                  ("verify", "--type", "A", "--rank", "2")])
def test_cache_row_past_2_31_loads_with_no_warning(tmp_path, capsys, argv):
    """A digest-valid row with a coefficient of 2^40, past 32-bit digits,
    loads like any other value: the table is the built one with that one
    entry changed, and ``verify``, the one command that reads the rows,
    runs on it with no warning and finds the row wrong."""
    from kflag import SchubertModel, UniPoly, WeylGroup, build_root_datum
    from kflag.cli import cache_load

    cache = _a2_cache_with_row(tmp_path, capsys, [2**40])
    datum = build_root_datum("A", 2)
    group = WeylGroup(datum)
    table = cache_load(cache, datum, group)
    built = SchubertModel(group)
    want = [dict(built.specialized_schubert_class(w).restrictions) for w in group.elements]
    want[1][group.elements[1]] = UniPoly({0: 2**40})
    assert table == want
    code, out, err = run_cli(capsys, *argv, "--cache-dir", cache)
    assert (code, out) == (3, "")  # the row is wrong, and chi of it shows that
    assert err == "integrity failure: localization sum has a pole at t = 1\n"


def test_cache_rows_load_at_64_bits(tmp_path, capsys):
    from kflag import WeylGroup, build_root_datum
    from kflag.cli import cache_load

    cache = str(tmp_path / "cache")
    run_cli(capsys, "describe", "--type", "A", "--rank", "2", "--cache-dir", cache)
    datum = build_root_datum("A", 2)
    table = cache_load(cache, datum, WeylGroup(datum))
    assert {type(p).DIGIT_BITS for row in table for p in row.values()} == {64}


def _line_rows(capsys, *argv):
    """(exit code, {w: c}) of a ``line-coeffs`` call."""
    code, out, err = run_cli(capsys, "line-coeffs", *argv)
    assert err == ""
    return code, {tuple(row["w"]): row["c"] for row in json.loads(out)["coeffs"]}


@pytest.mark.parametrize("argv", [
    ("--type", "G", "--rank", "2", "--v", "1,2,1", "--lambda", "300,0"),
    ("--type", "B", "--rank", "3", "--v", "1,2,3", "--lambda", "200,0,0"),
    ("--type", "D", "--rank", "4", "--v", "1,2", "--lambda", "100,0,0,0"),
])
def test_line_rows_past_2_31_equal_a_direct_solve(capsys, argv):
    """Solved directly, these line rows do not fit 32-bit digits.  The CLI
    composes them from the fundamental tables, and they equal the rows the
    public API solves."""
    from kflag import WeylGroup, build_root_datum
    from kflag.model import SchubertModel

    code, rows = _line_rows(capsys, *argv)
    assert code == 0
    model = SchubertModel(WeylGroup(build_root_datum(argv[1], int(argv[3]))))
    v = model.group.from_word([int(i) for i in argv[5].split(",")])
    lam = tuple(int(x) for x in argv[7].split(","))
    assert rows == {w.word: c for w, c in public_line_table(model, lam)[v].items()}


def test_line_rows_past_the_64_bit_range_are_answered(capsys, engines):
    """D4 at 1000 omega_1 is past the packed range of a direct solve; the
    composed rows are nonnegative, as the weight is dominant, and equal the
    polynomial in n of degree l(v) through the rows the public API solves
    at n omega_1, n = 0, ..., l(v), since [L(omega_1)] - 1 is nilpotent on
    X_v."""
    from math import comb

    code, rows = _line_rows(capsys, "--type", "D", "--rank", "4",
                            "--v", "1,2", "--lambda", "1000,0,0,0")
    assert code == 0 and rows and min(rows.values()) >= 0
    model = engines.model("D4")
    v = model.group.from_word((1, 2))
    direct = [public_line_table(model, (n, 0, 0, 0))[v] for n in range(v.length + 1)]
    want = {}
    for k in range(v.length + 1):  # Newton's forward differences at n = 0
        for j in range(k + 1):
            for w, c in direct[j].items():
                want[w.word] = want.get(w.word, 0) + comb(1000, k) * comb(k, j) * (-1) ** (k - j) * c
    assert rows == {w: c for w, c in want.items() if c}


@pytest.mark.parametrize(
    "field, value",
    [
        ("group", []),
        ("group", "A2"),
        ("group", None),
        ("elements", {}),
        ("elements", "x"),
        ("values", {}),
        ("values", None),
        ("values", [[0]]),
        ("values", [["0", [1]]]),
        ("values", [[0.5, [1]]]),
        ("values", [[0.0, [1]]]),
        ("values", [[True, [1]]]),
        ("values", [[0, [1], 2]]),
        ("values", [[0, []]]),
        ("values", [[0, [0, 1]]]),
        ("values", [[0, [1, 0]]]),
        ("values", [[0, [1, True]]]),
        ("values", [[0, [1.0]]]),
        ("values", [[0, "1"]]),
        ("values", [[0, {"0": 1}]]),
        ("values", [[0, [[0, 1]]]]),  # a schema-2 term list
        ("values", [[0, 0, 0, [1]]]),  # a schema-4 row
        ("rows", {}),
        ("rows", None),
        ("rows", "x"),
        ("rows", [[0, 0]] * 5),
        ("rows", [[0, 0]] * 7),
        ("rows", [[0, 0, 0]] * 6),
        ("rows", [[0, "0"]] * 6),
        ("rows", [[0, 0.0]] * 6),
        ("rows", [[0, False]] * 6),
        ("rows", [[-1, 0]] * 6),
        ("rows", [[6, 0]] * 6),
        ("rows", [[0, -1]] * 6),
        ("rows", [[0, 99]] * 6),
        ("rows", [{"0": 0}] * 6),
        ("rows", [None] * 6),
    ],
)
def test_cache_with_wrong_typed_field_recomputes(tmp_path, capsys, monkeypatch, field, value):
    """A digest-valid cache whose fields have the wrong JSON type: one
    warning line, a recompute and a rewrite, never a traceback."""
    _recomputed_once(tmp_path, capsys, monkeypatch, lambda payload: payload.update({field: value}))


@pytest.mark.parametrize("mutate", [
    lambda p: p["rows"][1].__setitem__(1, len(p["values"])),  # a ref past the pool
    lambda p: p["rows"][1].__setitem__(1, -1),
    lambda p: p["rows"][1].__setitem__(0, 6),  # a v past |W|
    lambda p: p["rows"][1].__setitem__(0, -1),
    lambda p: p["rows"][1].append(0),  # an odd-length row
    lambda p: p["rows"][2].__setitem__(0, True),  # true among the ints
    lambda p: p["rows"][2].__setitem__(3, True),
    lambda p: p["rows"].pop(),  # rows not |W| long
    lambda p: p["rows"].append([0, 0]),
    lambda p: p["values"][0][1].append(0),  # a pool value with a zero end coefficient
    lambda p: p["values"][0][1].insert(0, 0),
], ids=["ref-past-pool", "ref-negative", "v-past-W", "v-negative", "odd-row", "true-v",
        "true-ref", "short-rows", "long-rows", "zero-last", "zero-first"])
def test_malformed_pool_entry_recomputes(tmp_path, capsys, monkeypatch, mutate):
    """One malformed entry in a digest-valid pool cache: one warning line,
    the output of a run with no cache, and a rewrite."""
    _recomputed_once(tmp_path, capsys, monkeypatch, mutate)


def _recomputed_once(tmp_path, capsys, monkeypatch, mutate):
    """An A2 cache changed by mutate(payload), digest fixed, gives one
    warning line, the output of a run with no cache, and a rewrite that the
    next run reads without a warning."""
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    code, want, err = run_a2_signs(capsys)
    assert code == 0 and not err
    run_cli(capsys, *A2_SIGNS, "--cache-dir", str(tmp_path))
    path = tmp_path / "schubert-table-A2.json"
    payload = json.loads(path.read_text())
    mutate(payload)
    path.write_text(json.dumps(_recompute_digest(payload)))
    code, out, err = run_a2_signs(capsys, "--cache-dir", str(tmp_path))
    assert code == 0
    assert len(err.splitlines()) == 1 and err.startswith("warning: cache ")
    assert err.endswith("; recomputing\n")
    assert out == want
    code, out, err = run_a2_signs(capsys, "--cache-dir", str(tmp_path))
    assert (code, out, err) == (0, want, "")


def _old_schema_file_is_recomputed(tmp_path, capsys, version, rows):
    """A digest-valid A2 cache of an older schema: one warning, the output
    of a run with no cache, and a rewrite at schema 5."""
    code, want, _ = run_a2_signs(capsys)
    datum, group, _ = _a2_stack()
    payload = {
        "schema_version": version,
        "group": {"label": "A2", "rank": 2, "cartan": [list(r) for r in datum.cartan]},
        "elements": [list(w.word) for w in group.elements],
        "restrictions": rows,
    }
    path = tmp_path / "schubert-table-A2.json"
    path.write_text(json.dumps(_recompute_digest(payload), sort_keys=True))
    code, out, err = run_a2_signs(capsys, "--cache-dir", str(tmp_path))
    assert code == 0
    assert err.splitlines() == ["warning: cache schema version mismatch; recomputing"]
    assert out == want
    assert json.loads(path.read_text())["schema_version"] == 5


def test_cache_schema_1_file_is_recomputed(tmp_path, capsys, monkeypatch):
    """A cache written before the one-variable table (schema 1, Laurent
    rows [w, v, [[exponent, c], ...]]) is replaced with one warning."""
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    _, group, model = _a2_stack()
    rows = [
        [w.index, v.index, sorted([list(e), c] for e, c in p.terms.items())]
        for w in group.elements
        for v, p in sorted(model.schubert_class(w).restrictions.items(), key=lambda t: t[0].index)
    ]
    _old_schema_file_is_recomputed(tmp_path, capsys, 1, rows)


def test_cache_schema_2_file_is_recomputed(tmp_path, capsys, monkeypatch):
    """A cache of one-variable rows as term lists (schema 2, rows
    [w, v, [[e, c], ...]]) is replaced with one warning."""
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    _, group, model = _a2_stack()
    rows = [
        [w.index, v.index, sorted([e, c] for e, c in p.terms.items())]
        for w in group.elements
        for v, p in sorted(
            model.specialized_schubert_class(w).restrictions.items(), key=lambda t: t[0].index
        )
    ]
    _old_schema_file_is_recomputed(tmp_path, capsys, 2, rows)


def test_cache_schema_3_file_is_recomputed(tmp_path, capsys, monkeypatch):
    """A cache of today's rows at schema 3, whose digest hashed the payload
    re-encoded, is replaced with one warning."""
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    _, group, model = _a2_stack()
    rows = [
        [w.index, v.index, *p.coefficients()]
        for w in group.elements
        for v, p in model.specialized_schubert_class(w).restrictions.items()
    ]
    _old_schema_file_is_recomputed(tmp_path, capsys, 3, rows)


def test_cache_schema_4_file_is_recomputed(tmp_path, capsys, monkeypatch):
    """A cache of one row [w, v, s, [c_0, ..., c_k]] per restriction
    (schema 4, before the pool) is replaced with one warning."""
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    _, group, model = _a2_stack()
    rows = [
        [w.index, v.index, *p.coefficients()]
        for w in group.elements
        for v, p in model.specialized_schubert_class(w).restrictions.items()
    ]
    _old_schema_file_is_recomputed(tmp_path, capsys, 4, rows)


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path / "envcache")
    monkeypatch.setenv(CACHE_ENV_VAR, cache)
    code, _, _ = run_json(capsys, "describe", "--type", "A", "--rank", "2")
    assert code == 0
    assert os.path.exists(os.path.join(cache, "schubert-table-A2.json"))


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "kflag.cli", "describe", "--type", "G", "--rank", "2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["weyl_order"] == 12
