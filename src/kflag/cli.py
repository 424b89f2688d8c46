"""Command-line interface: configuration, caching, machine-readable export.

Exit codes: 0 success/verified, 1 violations found, 2 configuration error,
3 internal integrity failure (failed exact division, nonzero residual,
pole at t = 1, or a route mismatch).

The cache file's format, store and load are in ``kflag.cache``, imported
by ``cache_store`` and ``cache_load`` on first use; a call that finds its
cache file in place and does not ``verify`` never loads it.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .errors import (
    BoundExceededError,
    ConfigError,
    IntegrityError,
    KflagError,
    NonzeroResidualError,
    NotDivisibleError,
    PoleAtOneError,
)
from .model import SchubertModel
from .ring import SchubertRing, SignReport
from .roots import RootDatum, WeylGroup, build_root_datum, cartan_matrix, root_datum_from_cartan


def __getattr__(name: str):
    """``CACHE_SCHEMA_VERSION`` of ``kflag.cache``, imported on first use."""
    if name != "CACHE_SCHEMA_VERSION":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import cache

    return cache.CACHE_SCHEMA_VERSION

CACHE_ENV_VAR = "KFLAG_CACHE_DIR"

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_CONFIG = 2
EXIT_INTEGRITY = 3

CSV_COMMANDS = ("constants", "parabolic-constants", "line-coeffs")


def _parse_int_list(text: str, what: str) -> list[int]:
    text = text.strip()
    if text in ("", "e"):
        return []
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {text!r}: comma-separated integers expected") from exc


#: the arguments each command cannot run without, in the order they are
#: checked, with the message for a missing one
_U = ("u", "--u is required for this command")
_V = ("v", "--v is required for this command")
_REQUIRED = {
    "describe": (),
    "constants": (_U, _V),
    "parabolic-constants": (("parabolic", "--parabolic is required"), _U, _V),
    "line-coeffs": (_V, ("lam", "--lambda is required")),
    "richardson": (_U, _V),
    "verify": (),
}

#: a weight coordinate at or above this in absolute value is refused, a check
#: on outside input: line-coeffs at (2^20 - 1) rho takes 1.3 s on D4 (values to
#: 240 bits) and 12 s, 97 MB on B4 (320 bits), on a 2-CPU host
MAX_WEIGHT_COORDINATE = 2**20


def _check_args(args) -> None:
    """Refuse bad input before any work, parsing the list arguments and the
    Cartan file into ``args`` in place."""
    if args.cartan is not None:
        try:
            with open(args.cartan, "r", encoding="utf-8") as fh:
                args.cartan = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, too deep
            raise ConfigError(f"cannot read Cartan matrix file: {exc}") from exc
    for name, flag in (("parabolic", "--parabolic"), ("u", "--u"), ("v", "--v"),
                       ("lam", "--lambda"), ("mu", "--mu")):
        if getattr(args, name) is not None:
            setattr(args, name, _parse_int_list(getattr(args, name), flag))
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if args.format == "csv" and args.command not in CSV_COMMANDS:
        raise ConfigError("csv output is only available for constants tables")
    if args.out:  # neither created nor truncated until the result is written
        if os.path.isdir(args.out):
            raise ConfigError(f"cannot write --out file: {args.out} is a directory")
        parent = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(parent):
            raise ConfigError(f"cannot write --out file: {parent} is not a directory")
    if args.cartan is None and (args.type is None or args.rank is None):
        raise ConfigError("a group is required: --type and --rank, or --cartan FILE")
    for name, message in _REQUIRED[args.command]:
        if getattr(args, name) is None:
            raise ConfigError(message)
    if args.command == "verify" and args.mu is not None and args.lam is None:
        raise ConfigError("--mu needs --lambda")
    # a finite Weyl group of rank r has at least 2^r elements, so a rank this
    # large is refused before any matrix is built or validated
    if args.cartan is None:
        rank = args.rank
    else:  # root_datum_from_cartan refuses anything but a list
        rank = len(args.cartan) if isinstance(args.cartan, list) else 0
    if rank >= args.max_weyl.bit_length():
        raise BoundExceededError(f"Weyl group exceeds the configured bound ({args.max_weyl})")
    if args.cartan is None:  # an invalid type/rank pair is reported before its weights
        cartan_matrix(args.type, args.rank)
    weights = []
    if args.command == "line-coeffs":
        weights = [("--lambda", args.lam)]
    elif args.command == "verify" and args.which in ("line", "all"):
        weights = [("--lambda", args.lam), ("--mu", args.mu)]
    for flag, weight in weights:
        if weight is None:
            continue
        if len(weight) != rank:
            raise ConfigError(f"{flag} must have {rank} coordinates")
        if any(abs(x) >= MAX_WEIGHT_COORDINATE for x in weight):
            raise ConfigError(
                f"{flag} coordinates must be below {MAX_WEIGHT_COORDINATE} in absolute value"
            )


# -- cache -----------------------------------------------------------------


def _sha256(data: bytes) -> str:
    """The hex SHA-256 of data; only the cache and ``--cartan`` labels
    need it, so hashlib is imported here, not at module load."""
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _cache_path(cache_dir: str, datum: RootDatum) -> str:
    return os.path.join(cache_dir, f"schubert-table-{datum.label}.json")


def cache_store(cache_dir: str, datum: RootDatum, group: WeylGroup, model: SchubertModel) -> str | None:
    """``kflag.cache.store``: write the one-variable table, imported on first use."""
    from .cache import store

    return store(cache_dir, datum, group, model)


def cache_load(cache_dir: str, datum: RootDatum, group: WeylGroup) -> list[dict] | None:
    """``kflag.cache.load``: read a cached one-variable table, imported on first use."""
    from .cache import load

    return load(cache_dir, datum, group)


def _build_ring(args):
    """The root datum, Weyl group and ring of checked arguments.

    With a cache set, only ``verify``, the one command that reads the
    one-variable table, loads the cache file, and it rewrites a file it
    cannot use.  Every other command stores the table when the file is
    missing, for a later ``verify``, and never opens one that is there."""
    if args.cartan is None:
        datum = build_root_datum(args.type, args.rank)
    else:
        digest = _sha256(json.dumps(args.cartan, sort_keys=True).encode())[:8]
        datum = root_datum_from_cartan(args.cartan, label=f"custom-{digest}")
    group = WeylGroup(datum, max_size=args.max_weyl)
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR)
    table, store = None, False
    if cache_dir and args.command == "verify":
        table = cache_load(cache_dir, datum, group)
        store = table is None
    elif cache_dir:
        store = not os.path.exists(_cache_path(cache_dir, datum))
    model = SchubertModel(group, table=table)
    if store:
        cache_store(cache_dir, datum, group, model)
    return datum, group, SchubertRing(model)


# -- serialization helpers ----------------------------------------------------


def _word(w) -> list[int]:
    return list(w.word)


def _sorted_rows(rows: list[dict]) -> list[dict]:
    """Coefficient rows ordered by the length of w, then by its word."""
    rows.sort(key=lambda r: (len(r["w"]), r["w"]))
    return rows


def _emit(obj: dict, args, csv_rows=None, csv_header=None) -> None:
    """Write obj as JSON, or in csv format the rows alone, w as a spaced word."""
    if args.format == "csv":
        import csv  # here, not at module load: only csv output needs it

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        writer.writerows(
            [" ".join(map(str, r["w"])), *(r[k] for k in csv_header[1:])] for r in csv_rows
        )
        text = buf.getvalue()
    else:
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _report_obj(rep: SignReport) -> dict:
    return {
        "name": rep.name,
        "group": rep.group,
        "parabolic": list(rep.parabolic) if rep.parabolic else None,
        "checked": rep.checked,
        "violations": [list(x) for x in rep.violations],
        "elapsed_ms": rep.elapsed_ms,
        "ok": rep.ok,
    }


# -- commands -----------------------------------------------------------------


def cmd_describe(args) -> int:
    """Print the group's rank, root count, Weyl order and dimension."""
    datum, group, ring = _build_ring(args)
    obj = {
        "group": datum.label,
        "rank": datum.rank,
        "positive_roots": len(datum.positive_roots),
        "weyl_order": len(group),
        "dimension": ring.dimension,
    }
    if args.parabolic is not None:
        pdata = group.parabolic(args.parabolic)
        obj["min_reps"] = len(pdata.min_reps)
        obj["parabolic_dimension"] = ring.parabolic_dimension(pdata)
    _emit(obj, args)
    return EXIT_OK


def _emit_constants(obj: dict, constants: dict, dim: int, u, v, args) -> None:
    """Emit a constants table with N = codim w - codim u - codim v in dimension dim."""
    rows = _sorted_rows([
        {"w": _word(w), "c": c, "N": u.length + v.length - w.length - dim}
        for w, c in constants.items()
    ])
    obj["constants"] = rows
    _emit(obj, args, csv_rows=rows, csv_header=["w", "c", "N"])


def cmd_constants(args) -> int:
    """Print the structure constants c_{u,v}^w of K(G/B)."""
    datum, group, ring = _build_ring(args)
    u, v = group.from_word(args.u), group.from_word(args.v)
    obj = {"group": datum.label, "u": _word(u), "v": _word(v)}
    _emit_constants(obj, ring.structure_constants(u, v), ring.dimension, u, v, args)
    return EXIT_OK


def cmd_parabolic_constants(args) -> int:
    """Print the structure constants c_{u,v}^w of K(G/P)."""
    datum, group, ring = _build_ring(args)
    pdata = group.parabolic(args.parabolic)
    u, v = group.from_word(args.u), group.from_word(args.v)
    constants = ring.parabolic_structure_constants(pdata, u, v)
    obj = {
        "group": datum.label,
        "parabolic": list(pdata.subset),
        "u": _word(u),
        "v": _word(v),
    }
    _emit_constants(obj, constants, ring.parabolic_dimension(pdata), u, v, args)
    return EXIT_OK


def cmd_line_coeffs(args) -> int:
    """Print the line-bundle coefficients c_v^w(lambda) of [L(lambda)] [O_{X_v}]."""
    datum, group, ring = _build_ring(args)
    v = group.from_word(args.v)
    lam = tuple(args.lam)
    coeffs = ring.line_bundle_coeffs(v, lam)
    dominant = datum.is_dominant(lam)
    if dominant:
        bad = {w: c for w, c in coeffs.items() if c < 0}
        if bad:
            raise IntegrityError(f"negative coefficients for dominant weight: {bad}")
    rows = _sorted_rows([{"w": _word(w), "c": c} for w, c in coeffs.items()])
    obj = {
        "group": datum.label,
        "v": _word(v),
        "lambda": list(lam),
        "dominant": dominant,
        "coeffs": rows,
    }
    _emit(obj, args, csv_rows=rows, csv_header=["w", "c"])
    return EXIT_OK


def cmd_richardson(args) -> int:
    """Print the O-basis class of the Richardson variety X^u intersect X_v."""
    datum, group, ring = _build_ring(args)
    v, w = group.from_word(args.u), group.from_word(args.v)
    cls = ring.richardson_class(v, w)
    rows = _sorted_rows([{"w": _word(x), "c": c} for x, c in cls.coeffs.items()])
    obj = {
        "group": datum.label,
        "v": _word(v),
        "w": _word(w),
        "comparable": group.bruhat_leq(v, w),
        "dimension": w.length - v.length,
        "coeffs": rows,
    }
    _emit(obj, args)
    return EXIT_OK


def _default_line_sweep(datum):
    weights = []
    for i in range(1, datum.rank + 1):
        omega = datum.fundamental_weight(i)
        weights.append(omega)
        weights.append(tuple(-x for x in omega))
    weights.append(datum.rho)
    return weights


def cmd_verify(args) -> int:
    """Run the normalization check and the chosen sign, Richardson and line sweeps."""
    datum, group, ring = _build_ring(args)
    reports = [ring.verify_normalization()]
    for word, at_k, at_k2 in reports[0].violations:
        if at_k != at_k2:  # one class by two routes: a table is wrong, not the theorem
            raise IntegrityError(f"chi of X_{list(word)} is {at_k} at k but {at_k2} at k2")
    # one sweep for the sign and Richardson reports; only the sign report reads P
    on_p = args.parabolic and args.which in ("signs", "all")
    reports += ring.verify_sweeps(args.which, group.parabolic(args.parabolic) if on_p else None)
    line_objs = []
    if args.which in ("line", "all"):
        if args.lam is not None:
            pairs = [(tuple(args.lam), tuple(args.mu or [0] * datum.rank))]
        else:
            sweep = _default_line_sweep(datum)
            pairs = [(lam, mu) for lam in sweep for mu in sweep]
        for lam, mu in pairs:
            rep = ring.verify_line_identities(lam, mu)
            line_objs.append(
                {
                    "lambda": list(rep.lam),
                    "mu": list(rep.mu),
                    "checks": [[name, count] for name, count in rep.checks],
                    "violations": [list(x) for x in rep.violations],
                    "elapsed_ms": rep.elapsed_ms,
                    "ok": rep.ok,
                }
            )
    ok = all(r.ok for r in reports) and all(o["ok"] for o in line_objs)
    obj = {
        "group": datum.label,
        "which": args.which,
        "reports": [_report_obj(r) for r in reports],
        "line_reports": line_objs,
        "ok": ok,
    }
    _emit(obj, args)
    return EXIT_OK if ok else EXIT_VIOLATIONS


# -- entry point -----------------------------------------------------------


def _common_parser() -> argparse.ArgumentParser:
    """The options every command takes, built once and passed to each
    subcommand as a parent."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--type", help="group type letter A..G")
    parser.add_argument("--rank", type=int, help="group rank")
    parser.add_argument("--cartan", help="path to a JSON file with an explicit Cartan matrix")
    parser.add_argument("--parabolic", help="comma-separated simple-reflection indices of P")
    parser.add_argument("--u", help="reduced word for u, comma-separated indices ('' or 'e' for identity)")
    parser.add_argument("--v", help="reduced word for v")
    parser.add_argument("--lambda", dest="lam", help="weight in fundamental coordinates, comma-separated")
    parser.add_argument("--mu", dest="mu", help="second weight for the line-identity recursion")
    parser.add_argument("--which", choices=["signs", "richardson", "line", "all"], default="all")
    parser.add_argument("--jobs", type=int, default=1, help="accepted, no effect (>= 1)")
    parser.add_argument("--cache-dir", dest="cache_dir",
                        help=f"table cache directory (default ${CACHE_ENV_VAR}); only verify reads it")
    parser.add_argument("--max-weyl", dest="max_weyl", type=int, default=10000)
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--out", help="write output to a file instead of stdout")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kflag",
        description="Exact Schubert-structure-sheaf calculus on flag varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_parser()
    for name, fn in _COMMANDS.items():
        sub.add_parser(name, help=fn.__doc__, parents=[common])
    return parser


_COMMANDS = {
    "describe": cmd_describe,
    "constants": cmd_constants,
    "verify": cmd_verify,
    "line-coeffs": cmd_line_coeffs,
    "parabolic-constants": cmd_parabolic_constants,
    "richardson": cmd_richardson,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_args(args)
        return _COMMANDS[args.command](args)
    except (NotDivisibleError, NonzeroResidualError, PoleAtOneError, IntegrityError) as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except KflagError as exc:  # ConfigError, BoundExceededError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
