"""Command-line interface: configuration, caching, machine-readable export.

Exit codes: 0 success/verified, 1 violations found, 2 configuration error,
3 internal integrity failure (failed exact division, nonzero residual,
pole at t = 1, or a route mismatch).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass

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
from .roots import RootDatum, WeylGroup, build_root_datum, root_datum_from_cartan
from .univariate import UniPoly

CACHE_SCHEMA_VERSION = 3
CACHE_ENV_VAR = "KFLAG_CACHE_DIR"

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_CONFIG = 2
EXIT_INTEGRITY = 3

CSV_COMMANDS = ("constants", "parabolic-constants", "line-coeffs")


@dataclass
class JobConfig:
    """Parsed command configuration."""

    type_letter: str | None = None
    rank: int | None = None
    cartan: list[list[int]] | None = None
    parabolic: list[int] | None = None
    u: list[int] | None = None
    v: list[int] | None = None
    lam: list[int] | None = None
    mu: list[int] | None = None
    which: str = "all"
    jobs: int = 1
    cache_dir: str | None = None
    max_weyl: int = 10000
    fmt: str = "json"
    out: str | None = None


def _parse_int_list(text: str, what: str) -> list[int]:
    text = text.strip()
    if text in ("", "e"):
        return []
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what} {text!r}: comma-separated integers expected") from exc


def _check_out_path(path: str) -> None:
    """Refuse an --out path that cannot be opened for writing before any work
    is done; the file itself is neither created nor truncated here."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write --out file: {path} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write --out file: {parent} is not a directory")


def _config_from_args(args) -> JobConfig:
    cfg = JobConfig()
    cfg.type_letter = getattr(args, "type", None)
    cfg.rank = getattr(args, "rank", None)
    if getattr(args, "cartan", None):
        try:
            with open(args.cartan, "r", encoding="utf-8") as fh:
                cfg.cartan = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, too deep
            raise ConfigError(f"cannot read Cartan matrix file: {exc}") from exc
    if getattr(args, "parabolic", None) is not None:
        cfg.parabolic = _parse_int_list(args.parabolic, "--parabolic")
    for name in ("u", "v"):
        raw = getattr(args, name, None)
        if raw is not None:
            setattr(cfg, name, _parse_int_list(raw, f"--{name}"))
    if getattr(args, "lam", None) is not None:
        cfg.lam = _parse_int_list(args.lam, "--lambda")
    if getattr(args, "mu", None) is not None:
        cfg.mu = _parse_int_list(args.mu, "--mu")
    cfg.which = getattr(args, "which", "all")
    cfg.jobs = getattr(args, "jobs", 1)
    if cfg.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {cfg.jobs}")
    cfg.cache_dir = getattr(args, "cache_dir", None) or os.environ.get(CACHE_ENV_VAR)
    cfg.max_weyl = getattr(args, "max_weyl", 10000)
    cfg.fmt = getattr(args, "format", "json")
    if cfg.fmt == "csv" and args.command not in CSV_COMMANDS:
        raise ConfigError("csv output is only available for constants tables")
    cfg.out = getattr(args, "out", None)
    if cfg.out:
        _check_out_path(cfg.out)
    if cfg.cartan is None and (cfg.type_letter is None or cfg.rank is None):
        raise ConfigError("a group is required: --type and --rank, or --cartan FILE")
    return cfg


def _build_datum(cfg: JobConfig) -> RootDatum:
    # a finite Weyl group of rank r has at least 2^r elements, so a rank this
    # large is refused before any matrix is built or validated
    if cfg.cartan is None:
        rank = cfg.rank
    else:  # root_datum_from_cartan refuses anything but a list
        rank = len(cfg.cartan) if isinstance(cfg.cartan, list) else 0
    if rank >= cfg.max_weyl.bit_length():
        raise BoundExceededError(f"Weyl group exceeds the configured bound ({cfg.max_weyl})")
    if cfg.cartan is not None:
        digest = hashlib.sha256(
            json.dumps(cfg.cartan, sort_keys=True).encode()
        ).hexdigest()[:8]
        return root_datum_from_cartan(cfg.cartan, label=f"custom-{digest}")
    return build_root_datum(cfg.type_letter, cfg.rank)


# -- cache -----------------------------------------------------------------


def _canonical_payload_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _table_to_payload(datum: RootDatum, group: WeylGroup, model: SchubertModel) -> dict:
    """The one-variable Schubert table as rows [w, v, s, [c_0, ..., c_k]]:
    the restriction of class w at fixed point v is t^s (c_0 + ... + c_k t^k)."""
    rows = []
    for w in group.elements:
        cls = model.specialized_schubert_class(w)
        for v, poly in sorted(cls.restrictions.items(), key=lambda t: t[0].index):
            rows.append([w.index, v.index, *poly.coefficients()])
    payload = {
        "schema_version": CACHE_SCHEMA_VERSION,
        "group": {
            "label": datum.label,
            "rank": datum.rank,
            "cartan": [list(r) for r in datum.cartan],
        },
        "elements": [list(w.word) for w in group.elements],
        "restrictions": rows,
    }
    payload["digest"] = hashlib.sha256(_canonical_payload_bytes(payload)).hexdigest()
    return payload


def cache_store(cache_dir: str, datum: RootDatum, group: WeylGroup, model: SchubertModel) -> str | None:
    """Write the Schubert restriction table through a unique temp file, so
    concurrent writers never interleave; failures warn and return None."""
    name = f"schubert-table-{datum.label}.json"
    path = os.path.join(cache_dir, name)
    try:
        os.makedirs(cache_dir, exist_ok=True)
        payload = _table_to_payload(datum, group, model)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # same bytes as json.dump, but json.dumps runs the C encoder
                # where json.dump streams through the pure-Python one
                fh.write(json.dumps(payload, sort_keys=True))
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


def cache_load(cache_dir: str, datum: RootDatum, group: WeylGroup) -> list[dict] | None:
    """Load a cached one-variable table; any mismatch recomputes (returns
    None) with one warning line."""
    path = os.path.join(cache_dir, f"schubert-table-{datum.label}.json")
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, too deep
        print(f"warning: cache unreadable ({exc}); recomputing", file=sys.stderr)
        return None
    if not isinstance(payload, dict):
        print("warning: cache malformed (not a JSON object); recomputing", file=sys.stderr)
        return None
    digest = payload.pop("digest", None)
    if payload.get("schema_version") != CACHE_SCHEMA_VERSION:
        print("warning: cache schema version mismatch; recomputing", file=sys.stderr)
        return None
    if hashlib.sha256(_canonical_payload_bytes(payload)).hexdigest() != digest:
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
    rows = payload.get("restrictions")
    elements = group.elements
    n = len(elements)
    table: list[dict] = [dict() for _ in elements]
    try:
        if not isinstance(rows, list):
            raise ValueError
        for row in rows:
            # [w, v, s, coefficients]; JSON true/false load as bool, a subclass of int
            if type(row) is not list or len(row) != 4:
                raise ValueError
            w_idx, v_idx, shift, coeffs = row
            if not (type(w_idx) is int and 0 <= w_idx < n and type(v_idx) is int
                    and 0 <= v_idx < n and type(shift) is int):
                raise ValueError
            table[w_idx][elements[v_idx]] = UniPoly.from_coefficients(shift, coeffs)
    except ValueError:
        print("warning: cache malformed (restrictions are not [w, v, s, coefficients] rows); "
              "recomputing", file=sys.stderr)
        return None
    return table


def _build_ring(cfg: JobConfig, datum: RootDatum | None = None):
    """The group, model and ring of cfg, over datum when it is already built."""
    if datum is None:
        datum = _build_datum(cfg)
    group = WeylGroup(datum, max_size=cfg.max_weyl)
    table = None
    if cfg.cache_dir:
        table = cache_load(cfg.cache_dir, datum, group)
    model = SchubertModel(group, table=table)
    if cfg.cache_dir and table is None:
        cache_store(cfg.cache_dir, datum, group, model)
    return datum, group, SchubertRing(model)


# -- serialization helpers ----------------------------------------------------


def _word(w) -> list[int]:
    return list(w.word)


def _sorted_rows(rows: list[dict]) -> list[dict]:
    """Coefficient rows ordered by the length of w, then by its word."""
    rows.sort(key=lambda r: (len(r["w"]), r["w"]))
    return rows


def _emit(obj: dict, cfg: JobConfig, csv_rows=None, csv_header=None) -> None:
    """Write obj as JSON, or in csv format the rows alone, w as a spaced word."""
    if cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        writer.writerows(
            [" ".join(map(str, r["w"])), *(r[k] for k in csv_header[1:])] for r in csv_rows
        )
        text = buf.getvalue()
    else:
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
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


def cmd_describe(cfg: JobConfig) -> int:
    datum, group, ring = _build_ring(cfg)
    obj = {
        "group": datum.label,
        "rank": datum.rank,
        "positive_roots": len(datum.positive_roots),
        "weyl_order": len(group),
        "dimension": ring.dimension,
    }
    if cfg.parabolic is not None:
        pdata = group.parabolic(cfg.parabolic)
        obj["min_reps"] = len(pdata.min_reps)
        obj["parabolic_dimension"] = ring.parabolic_dimension(pdata)
    _emit(obj, cfg)
    return EXIT_OK


def _check_weight_length(name: str, weight, rank: int) -> None:
    """Raise for a given --lambda or --mu that is not of length rank."""
    if weight is not None and len(weight) != rank:
        raise ConfigError(f"{name} must have {rank} coordinates")


def _require_words(cfg: JobConfig, *names: str) -> None:
    """Raise for a missing --u or --v, in order; called before the table build."""
    for name in names:
        if getattr(cfg, name) is None:
            raise ConfigError(f"--{name} is required for this command")


def _emit_constants(obj: dict, constants: dict, dim: int, u, v, cfg: JobConfig) -> None:
    """Emit a constants table with N = codim w - codim u - codim v in dimension dim."""
    rows = _sorted_rows([
        {"w": _word(w), "c": c, "N": u.length + v.length - w.length - dim}
        for w, c in constants.items()
    ])
    obj["constants"] = rows
    _emit(obj, cfg, csv_rows=rows, csv_header=["w", "c", "N"])


def cmd_constants(cfg: JobConfig) -> int:
    _require_words(cfg, "u", "v")
    datum, group, ring = _build_ring(cfg)
    u, v = group.from_word(cfg.u), group.from_word(cfg.v)
    obj = {"group": datum.label, "u": _word(u), "v": _word(v)}
    _emit_constants(obj, ring.structure_constants(u, v), ring.dimension, u, v, cfg)
    return EXIT_OK


def cmd_parabolic_constants(cfg: JobConfig) -> int:
    if cfg.parabolic is None:
        raise ConfigError("--parabolic is required")
    _require_words(cfg, "u", "v")
    datum, group, ring = _build_ring(cfg)
    pdata = group.parabolic(cfg.parabolic)
    u, v = group.from_word(cfg.u), group.from_word(cfg.v)
    constants = ring.parabolic_structure_constants(pdata, u, v)
    obj = {
        "group": datum.label,
        "parabolic": list(pdata.subset),
        "u": _word(u),
        "v": _word(v),
    }
    _emit_constants(obj, constants, ring.parabolic_dimension(pdata), u, v, cfg)
    return EXIT_OK


def cmd_line_coeffs(cfg: JobConfig) -> int:
    _require_words(cfg, "v")
    if cfg.lam is None:
        raise ConfigError("--lambda is required")
    datum = _build_datum(cfg)
    _check_weight_length("--lambda", cfg.lam, datum.rank)
    _, group, ring = _build_ring(cfg, datum)
    v = group.from_word(cfg.v)
    lam = tuple(cfg.lam)
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
    _emit(obj, cfg, csv_rows=rows, csv_header=["w", "c"])
    return EXIT_OK


def cmd_richardson(cfg: JobConfig) -> int:
    _require_words(cfg, "u", "v")
    datum, group, ring = _build_ring(cfg)
    v, w = group.from_word(cfg.u), group.from_word(cfg.v)
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
    _emit(obj, cfg)
    return EXIT_OK


def _default_line_sweep(datum):
    weights = []
    for i in range(1, datum.rank + 1):
        omega = datum.fundamental_weight(i)
        weights.append(omega)
        weights.append(tuple(-x for x in omega))
    weights.append(datum.rho)
    return weights


def cmd_verify(cfg: JobConfig) -> int:
    if cfg.mu is not None and cfg.lam is None:
        raise ConfigError("--mu needs --lambda")
    which = cfg.which
    datum = _build_datum(cfg)
    if which in ("line", "all"):
        _check_weight_length("--lambda", cfg.lam, datum.rank)
        _check_weight_length("--mu", cfg.mu, datum.rank)
    _, group, ring = _build_ring(cfg, datum)
    reports = [ring.verify_normalization()]
    if which in ("signs", "all"):
        pdata = group.parabolic(cfg.parabolic) if cfg.parabolic else None
        reports.append(ring.verify_alternating_signs(parabolic=pdata, jobs=cfg.jobs))
    if which in ("richardson", "all"):
        reports.append(ring.verify_richardson_signs())
    line_objs = []
    if which in ("line", "all"):
        if cfg.lam is not None:
            pairs = [(tuple(cfg.lam), tuple(cfg.mu or [0] * datum.rank))]
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
        "which": which,
        "reports": [_report_obj(r) for r in reports],
        "line_reports": line_objs,
        "ok": ok,
    }
    _emit(obj, cfg)
    return EXIT_OK if ok else EXIT_VIOLATIONS


# -- entry point -----------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--type", help="group type letter A..G")
    parser.add_argument("--rank", type=int, help="group rank")
    parser.add_argument("--cartan", help="path to a JSON file with an explicit Cartan matrix")
    parser.add_argument("--parabolic", help="comma-separated simple-reflection indices of P")
    parser.add_argument("--u", help="reduced word for u, comma-separated indices ('' or 'e' for identity)")
    parser.add_argument("--v", help="reduced word for v")
    parser.add_argument("--lambda", dest="lam", help="weight in fundamental coordinates, comma-separated")
    parser.add_argument("--mu", dest="mu", help="second weight for the line-identity recursion")
    parser.add_argument("--which", choices=["signs", "richardson", "line", "all"], default="all")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps (>= 1)")
    parser.add_argument("--cache-dir", dest="cache_dir", help=f"cache directory (default ${CACHE_ENV_VAR})")
    parser.add_argument("--max-weyl", dest="max_weyl", type=int, default=10000)
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--out", help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kflag",
        description="Exact Schubert-structure-sheaf calculus on flag varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        _add_common(p)
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
        cfg = _config_from_args(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, BoundExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NotDivisibleError, NonzeroResidualError, PoleAtOneError, IntegrityError) as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except KflagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
