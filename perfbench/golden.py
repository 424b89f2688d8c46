"""Golden set of kflag CLI outputs: success paths of all six subcommands.

Each entry is an argv run through ``kflag.cli.main`` in-process; its stdout,
with every ``"elapsed_ms": N`` rewritten to 0, is hashed with SHA-256 and
compared with ``golden.json``.  A refactor that keeps output byte-identical
passes unchanged.

    python3 perfbench/golden.py            # check every entry
    python3 perfbench/golden.py --write    # record digests (new entries only)
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def _g(t: str, r: int, *rest: str) -> list[str]:
    return [rest[0], "--type", t, "--rank", str(r), *rest[1:]]


CSV = ("--format", "csv")

ENTRIES: list[list[str]] = [
    _g("A", 2, "describe"),
    _g("A", 2, "describe", "--parabolic", "1"),
    _g("A", 2, "constants", "--u", "1,2", "--v", "2,1"),
    _g("A", 2, "constants", "--u", "1,2", "--v", "2,1", *CSV),
    _g("A", 2, "parabolic-constants", "--parabolic", "1", "--u", "2", "--v", "1,2"),
    _g("A", 2, "parabolic-constants", "--parabolic", "1", "--u", "2", "--v", "1,2", *CSV),
    _g("A", 2, "line-coeffs", "--v", "1,2", "--lambda", "1,0"),
    _g("A", 2, "line-coeffs", "--v", "1,2,1", "--lambda=-1,1", *CSV),
    _g("A", 2, "richardson", "--u", "1", "--v", "1,2"),
    _g("A", 2, "verify", "--which", "all"),
    _g("B", 2, "describe", "--parabolic", "1"),
    _g("B", 2, "constants", "--u", "1,2", "--v", "2,1,2"),
    _g("B", 2, "constants", "--u", "2", "--v", "1,2", *CSV),
    _g("B", 2, "parabolic-constants", "--parabolic", "1", "--u", "1,2", "--v", "2,1,2"),
    _g("B", 2, "parabolic-constants", "--parabolic", "1", "--u", "2", "--v", "1,2", *CSV),
    _g("B", 2, "line-coeffs", "--v", "1,2,1", "--lambda", "1,0"),
    _g("B", 2, "line-coeffs", "--v", "2,1", "--lambda=0,-1", *CSV),
    _g("B", 2, "richardson", "--u", "2", "--v", "1,2,1"),
    _g("B", 2, "verify", "--which", "all"),
    _g("G", 2, "describe"),
    _g("G", 2, "constants", "--u", "1,2", "--v", "2,1,2"),
    _g("G", 2, "constants", "--u", "1,2,1", "--v", "2,1,2", *CSV),
    _g("G", 2, "parabolic-constants", "--parabolic", "1", "--u", "1,2", "--v", "2,1,2"),
    _g("G", 2, "parabolic-constants", "--parabolic", "1", "--u", "2", "--v", "1,2,1,2", *CSV),
    _g("G", 2, "line-coeffs", "--v", "2,1,2", "--lambda", "0,1"),
    _g("G", 2, "line-coeffs", "--v", "1,2,1,2", "--lambda", "1,1", *CSV),
    _g("G", 2, "richardson", "--u", "1", "--v", "2,1,2,1"),
    _g("G", 2, "verify", "--which", "all"),
    _g("A", 3, "describe", "--parabolic", "1,3"),
    _g("A", 3, "constants", "--u", "1,3,2", "--v", "2,3"),
    _g("A", 3, "constants", "--u", "2,1", "--v", "3,2,1", *CSV),
    _g("A", 3, "parabolic-constants", "--parabolic", "1,3", "--u", "1,3,2", "--v", "1,3,2"),
    _g("A", 3, "parabolic-constants", "--parabolic", "1", "--u", "2,3", "--v", "1,2,3", *CSV),
    _g("A", 3, "line-coeffs", "--v", "1,2,3", "--lambda", "1,1,1"),
    _g("A", 3, "line-coeffs", "--v", "2,1,3", "--lambda=0,-1,1", *CSV),
    _g("A", 3, "richardson", "--u", "2", "--v", "1,2,3,2"),
    _g("A", 3, "verify", "--which", "signs"),
    _g("A", 3, "verify", "--which", "all"),
]


def key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(stdout: str) -> str:
    return hashlib.sha256(_ELAPSED.sub('"elapsed_ms": 0', stdout).encode()).hexdigest()


def load() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_inprocess(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    import kflag.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = kflag.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check(skip: set[str] = frozenset()) -> tuple[int, list[str]]:
    """Run every entry not in ``skip``; return (attempted, failure messages)."""
    want = load()["cli"]
    failures = []
    attempted = 0
    for argv in ENTRIES:
        k = key(argv)
        if k in skip:
            continue
        attempted += 1
        code, out, err = run_inprocess(argv)
        if code != 0 or err:
            failures.append(f"golden {k}: exit {code}, stderr {err.strip()[:200]!r}")
        elif want.get(k) != digest(out):
            failures.append(f"golden {k}: stdout digest differs")
    return attempted, failures


def _write() -> None:
    data = load() if GOLDEN_PATH.exists() else {}
    cli = data.setdefault("cli", {})
    for argv in ENTRIES:
        k = key(argv)
        if k in cli:
            continue
        code, out, err = run_inprocess(argv)
        if code != 0 or err:
            raise SystemExit(f"{k}: exit {code}, stderr {err!r}; golden entries are success paths")
        cli[k] = digest(out)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    from run import import_kflag

    import_kflag()
    if sys.argv[1:] == ["--write"]:
        _write()
    else:
        n, bad = check()
        for line in bad:
            print(line)
        print(f"golden: {n - len(bad)} of {n} entries match")
        sys.exit(1 if bad else 0)
