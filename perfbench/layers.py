"""Which kflag functions the tracer wraps, grouped by the package's modules.

Layers are the modules ``roots``, ``laurent``, ``univariate``, ``model``,
``ring`` and ``cli``.  Only public functions and methods are wrapped.  Hot
kernels (Laurent and univariate arithmetic, Bruhat tests, products) are
aggregated; the coarse boundaries also record spans.
"""
from __future__ import annotations

import multiprocessing.pool
import statistics

import kflag.cli
import kflag.model
from kflag.laurent import LaurentPoly
from kflag.model import EquivClass, SchubertModel
from kflag.ring import SchubertRing
from kflag.roots import WeylGroup
from kflag.univariate import UniPoly

REPORT_METHODS = (
    "verify_normalization",
    "verify_alternating_signs",
    "verify_richardson_signs",
    "verify_line_identities",
)


def _term_products(args, out, token):
    a, b = args
    return 0 if isinstance(b, int) else len(a.terms) * len(b.terms)


def _product_terms(args, out, token):
    return sum(len(p.terms) for p in out.restrictions.values())


def install(tracer, fine: bool = True) -> None:
    """Wrap every layer boundary; with ``fine`` false, only the coarse ones."""
    w = tracer.wrap
    w(WeylGroup, "__init__", "roots.weyl_build", span=True)
    w(SchubertModel, "__init__", "model.init", span=True)
    w(kflag.cli, "main", "cli.main", span=True)
    w(kflag.cli, "cache_load", "cli.cache_load", span=True)
    w(kflag.cli, "cache_store", "cli.cache_store", span=True)
    for meth in REPORT_METHODS:
        w(SchubertRing, meth, f"ring.{meth}", span=True)
    w(multiprocessing.pool.Pool, "map", "pool.map", span=True)
    if not fine:
        return
    # a structure-constant call that runs no pointwise product was a memo hit
    product = tracer.record("model.product")
    w(
        SchubertRing,
        "structure_constants",
        "ring.sc",
        pre=lambda args: product.calls,
        work=lambda args, out, before: int(product.calls == before),
    )
    w(WeylGroup, "bruhat_leq", "roots.bruhat")
    w(LaurentPoly, "__mul__", "laurent.mul", work=_term_products)
    w(LaurentPoly, "__rmul__", "laurent.mul", work=_term_products)
    w(LaurentPoly, "exact_div", "laurent.exact_div")
    w(LaurentPoly, "__add__", "laurent.addsub")
    w(LaurentPoly, "__sub__", "laurent.addsub")
    w(UniPoly, "__mul__", "univariate.arith")
    w(UniPoly, "__rmul__", "univariate.arith")
    w(UniPoly, "__add__", "univariate.arith")
    w(UniPoly, "__sub__", "univariate.arith")
    w(kflag.model, "poly_divexact", "univariate.divexact")
    w(SchubertModel, "demazure", "model.demazure")
    w(EquivClass, "__mul__", "model.product", work=_product_terms)
    w(SchubertModel, "expand_in_schubert_basis", "model.expand")
    w(SchubertModel, "euler_characteristic", "model.chi")


# name -> unit; BENCHMARK.json's per_layer list must name exactly these
PER_LAYER = {
    "roots.weyl_build_ms": "ms",
    "roots.bruhat_calls": "count",
    "roots.bruhat_self_ms": "ms",
    "laurent.mul_calls": "count",
    "laurent.mul_self_ms": "ms",
    "laurent.mul_term_products": "count",
    "laurent.exact_div_calls": "count",
    "laurent.exact_div_self_ms": "ms",
    "laurent.exact_div_failed": "count",
    "laurent.addsub_self_ms": "ms",
    "univariate.divexact_calls": "count",
    "univariate.self_ms": "ms",
    "model.table_build_ms": "ms",
    "model.demazure_calls": "count",
    "model.product_calls": "count",
    "model.product_self_ms": "ms",
    "model.product_terms": "count",
    "model.expand_calls": "count",
    "model.expand_self_ms": "ms",
    "model.chi_calls": "count",
    "model.chi_self_ms": "ms",
    "ring.sc_calls": "count",
    "ring.sc_memo_hit_ratio": "ratio",
    "ring.report_ms.normalization": "ms",
    "ring.report_ms.signs": "ms",
    "ring.report_ms.richardson": "ms",
    "ring.report_ms.line": "ms",
    "ring.sweep_speedup_j2": "x",
    "ring.sweep_serial_ms": "ms",
    "cli.startup_ms": "ms",
    "cli.cache_load_ms": "ms",
    "cli.cache_store_ms": "ms",
    "cli.cache_bytes": "bytes",
    "cli.cache_rejects": "count",
    "trace.traced_wall_s": "s",
    "trace.overhead_pct": "%",
    "trace.model_laurent_pct": "%",
}

_NONE = (0, 0.0, 0.0, 0, 0)


def self_seconds(after: dict, before: dict, prefixes: tuple[str, ...]) -> float:
    """Self time added between two ``Tracer.freeze`` results, over name prefixes."""
    return sum(rec[1] - before.get(n, _NONE)[1]
               for n, rec in after.items() if n.startswith(prefixes))


def median_span_ms(spans, name: str) -> float:
    got = [(end - start) * 1000 for _, n, start, end, _ in spans if n == name]
    return statistics.median(got) if got else 0.0


def layer_metrics(frozen: dict, spans, extra: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a frozen trace; ``extra`` supplies the rest.

    Counts and self times are totals over the traced work; build and cache
    times are medians per call.  A layer the workload does not reach reads 0.
    """
    def get(name):
        return frozen.get(name, _NONE)

    def ms(*names):
        return 1000.0 * sum(get(n)[1] for n in names)

    sc = get("ring.sc")
    values = {
        "roots.weyl_build_ms": median_span_ms(spans, "roots.weyl_build"),
        "roots.bruhat_calls": get("roots.bruhat")[0],
        "roots.bruhat_self_ms": ms("roots.bruhat"),
        "laurent.mul_calls": get("laurent.mul")[0],
        "laurent.mul_self_ms": ms("laurent.mul"),
        "laurent.mul_term_products": get("laurent.mul")[4],
        "laurent.exact_div_calls": get("laurent.exact_div")[0],
        "laurent.exact_div_self_ms": ms("laurent.exact_div"),
        "laurent.exact_div_failed": get("laurent.exact_div")[3],
        "laurent.addsub_self_ms": ms("laurent.addsub"),
        "univariate.divexact_calls": get("univariate.divexact")[0],
        "univariate.self_ms": ms("univariate.divexact", "univariate.arith"),
        "model.table_build_ms": median_span_ms(spans, "model.init"),
        "model.demazure_calls": get("model.demazure")[0],
        "model.product_calls": get("model.product")[0],
        "model.product_self_ms": ms("model.product"),
        "model.product_terms": get("model.product")[4],
        "model.expand_calls": get("model.expand")[0],
        "model.expand_self_ms": ms("model.expand"),
        "model.chi_calls": get("model.chi")[0],
        "model.chi_self_ms": ms("model.chi"),
        "ring.sc_calls": sc[0],
        "ring.sc_memo_hit_ratio": sc[4] / sc[0] if sc[0] else 0.0,
        "cli.cache_load_ms": median_span_ms(spans, "cli.cache_load"),
        "cli.cache_store_ms": median_span_ms(spans, "cli.cache_store"),
    }
    values.update(extra)
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER.items()}
