"""The three workloads.  Each is a closed loop with one client.

Every workload runs its set-up several times (the median is ``setup_s``),
then repeats its unit of work until ``--seconds`` have passed and at least
``MIN_ROUNDS`` units are done, and finally checks every output.  Every
timed call is followed by a probe of the host's speed, and the end-to-end
times are adjusted by it (see ``Clock``).  A traced run (``--trace 1``)
instead does a fixed amount of work set by the seed, once with the
tracer's wrappers removed and once with them in place, so counts repeat
exactly and the tracing overhead is measured on equal work.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import golden
import layers
from tracer import Tracer

SETUP_REPEATS = 3
DESCRIBE_REPEATS = 5
MIN_ROUNDS = 2
STARTUP_REPEATS = 5
CALL_TIMEOUT_S = 170.0
PROBE_LOOPS = 70_000
PROBE_REF_S = 0.005
PROBE_SHARE = 0.05
PROBE_MIN_CHUNKS = 3
PROBE_WINDOW_S = 2.0


# -- timing ------------------------------------------------------------------


def probe(chunks: int) -> float:
    """Wall seconds of ``chunks`` runs of a fixed pure-Python loop that never touches kflag."""
    t0 = perf_counter()
    for _ in range(chunks):
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
    return perf_counter() - t0


class Clock:
    """Times calls, probes the host after each, and adjusts times for its speed.

    The benchmark runs on shared hosts whose speed shifts, for seconds to
    minutes at a time, by up to half; on a 2-core host a fixed loop went
    from 26 ms to 38 ms and back within four minutes, and repeats of equal
    work differed by more than a regression bound.  So after every call a
    run spends about ``PROBE_SHARE`` of the call's time on probe chunks,
    which samples the host's speed evenly over the phase.  A call's adjusted
    time is its wall time times ``PROBE_REF_S`` over the mean chunk time of
    the probes within ``PROBE_WINDOW_S`` of it: the time it would take on a
    host where a chunk takes ``PROBE_REF_S``.  The probe does not touch
    kflag, so a change to kflag moves adjusted times as it moves wall times.
    """

    def __init__(self):
        self.calls: list[tuple[float, float]] = []  # (start, wall seconds)
        self.probes: list[tuple[float, float, int]] = []  # (start, seconds, chunks)
        self._probe(PROBE_MIN_CHUNKS)

    def _probe(self, chunks: int) -> None:
        self.probes.append((perf_counter(), probe(chunks), chunks))

    def __call__(self, fn, *args):
        """``fn(*args)``, timed as the clock's next call."""
        t0 = perf_counter()
        value = fn(*args)
        wall = perf_counter() - t0
        self.calls.append((t0, wall))
        self._probe(max(PROBE_MIN_CHUNKS, round(wall * PROBE_SHARE / PROBE_REF_S)))
        return value

    def samples(self, size: int = 1) -> list[tuple[float, float]]:
        """(adjusted, wall) seconds of the calls so far, summed ``size`` at a time."""
        out = []
        for start, wall in self.calls:
            near = [(s, c) for t, s, c in self.probes
                    if start - PROBE_WINDOW_S <= t <= start + wall + PROBE_WINDOW_S]
            out.append((wall * PROBE_REF_S * sum(c for _, c in near) / sum(s for s, _ in near),
                        wall))
        return [(sum(a for a, _ in out[i:i + size]), sum(w for _, w in out[i:i + size]))
                for i in range(0, len(out), size)]


# -- results -----------------------------------------------------------------


def spread(samples: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(samples) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest whole percentile with at least ten samples beyond it.

    Below 20 samples no percentile at or above the median qualifies; the
    maximum is reported instead and labelled as such.
    """
    n = len(samples)
    p = math.floor(100 * (1 - 10 / n)) if n else 0
    if p >= 50:
        return statistics.quantiles(samples, n=100, method="inclusive")[p - 1], f"p{p} of n={n}"
    return max(samples), f"max of n={n} (too few samples for a percentile)"


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        """Count one attempted operation; a false ``ok`` counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)
        return ok

    def timing(self, name: str, samples: list[tuple[float, float]], unit: str,
               scale: float = 1.0) -> None:
        """Median of adjusted times; the note gives n, spread and the wall median."""
        adjusted = [a for a, _ in samples]
        wall = statistics.median(w for _, w in samples) * scale
        self.metrics[name] = (statistics.median(adjusted) * scale, unit)
        self.notes[name] = (f"median of n={len(samples)}, spread {spread(adjusted):.3f}; "
                            f"unadjusted {wall:.6g}")

    def end_to_end(self, setups, rounds, pairs: int, calls, rss_mb: float) -> None:
        """Metrics from (adjusted, wall) seconds of set-ups, rounds and calls."""
        self.timing("setup_s", setups, "s")
        self.timing("wall_s", rounds, "s")
        timed = sum(a for a, _ in rounds)
        self.metrics["pairs_per_s"] = (pairs / timed, "1/s")
        self.notes["pairs_per_s"] = (f"{pairs} pairs in {timed:.3f} s adjusted, "
                                     f"{sum(w for _, w in rounds):.3f} s unadjusted")
        self.timing("call_ms_p50", calls, "ms", 1000.0)
        value, label = tail([a for a, _ in calls])
        self.metrics["call_ms_tail"] = (value * 1000.0, "ms")
        self.notes["call_ms_tail"] = label
        self.metrics["peak_rss_mb"] = (rss_mb, "MB")

    def report_lines(self, declared: dict[str, str]) -> list[str]:
        lines = [f"{n:<32} {self.metrics[n][0]:>16.6f} {u:<6} {self.notes.get(n, '')}"
                 for n, u in declared.items()]
        ratio = self.failed / self.attempted if self.attempted else 1.0
        lines.append(f"{'fail_ratio':<32} {ratio:>16.6f} {'-':<6} "
                     f"{self.failed} failed of {self.attempted} attempted")
        lines.extend(f"FAILED: {e}" for e in self.errors)
        return lines

    def to_json(self) -> dict:
        return {
            "metrics": {n: {"value": v, "unit": u, "note": self.notes.get(n, "")}
                        for n, (v, u) in self.metrics.items()},
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
        }


# -- running kflag -------------------------------------------------------------


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    tracer: Tracer | None = None

    def __post_init__(self):
        self.rng = random.Random(self.seed)
        # caching is opt-in per workload, never inherited from the caller
        os.environ.pop("KFLAG_CACHE_DIR", None)
        self.env = dict(os.environ)
        src = str(self.root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        if self.trace:
            self.tracer = Tracer()

    def time_left(self, start: float, rounds: int, min_rounds: int = MIN_ROUNDS) -> bool:
        return rounds < min_rounds or perf_counter() - start < self.seconds


@dataclass
class Call:
    argv: list[str]
    code: int
    out: str
    err: str
    wall_s: float
    rss_mb: float


def run_process(ctx: Context, cmd: list[str]) -> Call:
    """Run one child to completion; its own rusage gives the peak RSS."""
    out_path, err_path = ctx.work / "stdout", ctx.work / "stderr"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=ctx.env, cwd=ctx.root)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(cmd, proc.returncode, out_path.read_text(), err_path.read_text(),
                wall, usage.ru_maxrss / 1024.0)


def run_cli(ctx: Context, argv: list[str]) -> Call:
    call = run_process(ctx, [sys.executable, "-m", "kflag", *argv])
    call.argv = argv
    return call


def run_inprocess(argv: list[str]) -> Call:
    t0 = perf_counter()
    code, out, err = golden.run_inprocess(argv)
    return Call(argv, code, out, err, perf_counter() - t0, 0.0)


def startup_ms(ctx: Context) -> float:
    """Median wall time of an interpreter that only imports kflag's CLI."""
    cmd = [sys.executable, "-c", "import kflag.cli"]
    return statistics.median(run_process(ctx, cmd).wall_s for _ in range(STARTUP_REPEATS)) * 1000


def clean_ok(call: Call) -> bool:
    return call.code == 0 and not call.err


def verify_ok(call: Call, want_digest: str | None) -> bool:
    """Exit 0, nothing on stderr, ``"ok": true`` and the stored digest."""
    if not clean_ok(call):
        return False
    try:
        ok = json.loads(call.out)["ok"] is True
    except (ValueError, KeyError, TypeError):
        return False
    return ok and golden.digest(call.out) == want_digest


def describe(msg: str, call: Call) -> str:
    return f"{msg}: {' '.join(call.argv)} exit {call.code}, stderr {call.err.strip()[:200]!r}"


def report_ms(outputs: list[str]) -> dict[str, float]:
    """The program's own ``elapsed_ms`` per report, summed over verify outputs."""
    out = {f"ring.report_ms.{n}": 0.0 for n in ("normalization", "signs", "richardson", "line")}
    for text in outputs:
        obj = json.loads(text)
        for rep in obj["reports"]:
            out[f"ring.report_ms.{rep['name']}"] += rep["elapsed_ms"]
        out["ring.report_ms.line"] += sum(r["elapsed_ms"] for r in obj["line_reports"])
    return out


def group_args(type_letter: str, rank: int) -> list[str]:
    return ["--type", type_letter, "--rank", str(rank)]


def sweep_pairs(describe_out: str) -> int:
    """Unordered pairs u <= v that a full sign sweep checks."""
    n = json.loads(describe_out)["weyl_order"]
    return n * (n + 1) // 2


class TracedPhase:
    """Runs a callable with the tracer on and returns the counts it added."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __call__(self, fn, *args):
        before = self.tracer.freeze()
        self.tracer.active = True
        t0 = perf_counter()
        try:
            value = fn(*args)
        finally:
            wall = perf_counter() - t0
            self.tracer.active = False
        zero = (0, 0.0, 0.0, 0, 0)
        # calls, failures and work are exact counts; times are not compared
        delta = {n: tuple(rec[i] - before.get(n, zero)[i] for i in (0, 3, 4))
                 for n, rec in self.tracer.freeze().items()}
        return value, wall, delta


def same_counts(res: Result, a: dict, b: dict, what: str) -> None:
    res.check(a == b, f"exact counts differ between two identical runs of {what}: "
                      + ", ".join(sorted(n for n in set(a) | set(b) if a.get(n) != b.get(n))))


def traced_metrics(res: Result, frozen, spans, extra: dict, wall_s: float, clean_s: float) -> None:
    extra = dict(extra)
    extra["trace.traced_wall_s"] = wall_s
    extra["trace.overhead_pct"] = 100.0 * (wall_s - clean_s) / clean_s
    res.metrics = layers.layer_metrics(frozen, spans, extra)
    res.notes["trace.overhead_pct"] = f"traced {wall_s:.3f} s vs untraced {clean_s:.3f} s, same work"


# -- constants-d4 ----------------------------------------------------------------


CORPUS_PAIRS = 24
CORPUS_SEED = 0
REPEAT_PAIRS = 8


def _corpus(model) -> list[tuple[int, int]]:
    """24 distinct unordered D4 pairs: one drawn uniformly from each of 24
    equal strata of all 18,336, ranked by a cost proxy (the Laurent term
    products of the pointwise product).  A pass over them takes about 8 s
    on a 2-core host, so a run makes at least two and every pair has
    more than one sample.

    The corpus is the same for every seed.  Pair costs span three orders of
    magnitude, so a fresh sample of this size per seed moved the medians by
    about a quarter from seed to seed, far more than repeated runs of equal
    work differ.  The seed sets the order the pairs run in.
    """
    group = model.group
    sizes = [{v.index: len(p.terms) for v, p in model.schubert_class(w).restrictions.items()}
             for w in group.elements]

    def cost(a: int, b: int) -> int:
        ra, rb = sizes[a], sizes[b]
        if len(ra) > len(rb):
            ra, rb = rb, ra
        return sum(m * rb[x] for x, m in ra.items() if x in rb)

    n = len(group.elements)
    ranked = sorted((cost(a, b), a, b) for a in range(n) for b in range(a + 1, n))
    step = len(ranked) // CORPUS_PAIRS
    rng = random.Random(CORPUS_SEED)
    return [rng.choice(ranked[i * step:(i + 1) * step])[1:] for i in range(CORPUS_PAIRS)]


def _results_digest(group, results: dict) -> str:
    rows = [[group.elements[a].word, group.elements[b].word,
             sorted([w.word, c] for w, c in cs.items())] for (a, b), cs in sorted(results.items())]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def constants_d4(ctx: Context) -> Result:
    """SchubertRing.structure_constants on a fixed stratified corpus of D4 pairs."""
    from kflag import KflagError, SchubertModel, SchubertRing, WeylGroup, build_root_datum

    res = Result()
    datum = build_root_datum("D", 4)

    def setup():
        return SchubertModel(WeylGroup(datum))

    def run_pairs(model, pairs, results: dict, clock=None):
        """Each pair on a fresh ring, timed by ``clock`` if one is given;
        returns the pairs that completed, in order."""
        els = model.group.elements
        done = []
        for a, b in pairs:
            ring = SchubertRing(model)
            try:
                if clock is None:
                    cs = ring.structure_constants(els[a], els[b])
                else:
                    cs = clock(ring.structure_constants, els[a], els[b])
            except KflagError as exc:
                res.check(False, f"constants {els[a].word} x {els[b].word}: {exc!r}")
                continue
            done.append((a, b))
            if results.setdefault((a, b), cs) != cs:
                res.check(False, f"constants {els[a].word} x {els[b].word} differ between runs")
        return done

    def check_results(model, results: dict):
        """The sign rule and chi = sum(c) on every pair, then the stored digest."""
        ring = SchubertRing(model)
        els = model.group.elements
        for (a, b), cs in results.items():
            u, v = els[a], els[b]
            # (-1)^N c >= 0, and c = 0 when N < 0; cs holds only nonzero c
            signs = all(n >= 0 and (c > 0) == (n % 2 == 0)
                        for n, c in ((ring.n_degree(u, v, w), c) for w, c in cs.items()))
            chi = model.euler_characteristic(model.schubert_class(u) * model.schubert_class(v))
            res.check(signs and chi == sum(cs.values()),
                      f"constants {u.word} x {v.word}: sign rule or chi = sum(c) fails")
        want = golden.load()["workloads"][f"constants-d4-corpus-{CORPUS_PAIRS}"]
        res.check(_results_digest(model.group, results) == want,
                  "constants-d4: results differ from the stored digest")

    tr = ctx.tracer
    if tr is None:
        setup_clock = Clock()
        for _ in range(SETUP_REPEATS):
            model = None
            model = setup_clock(setup)
        corpus = _corpus(model)
        clock, results, order = Clock(), {}, []
        start = perf_counter()
        while ctx.time_left(start, len(order) // len(corpus)):
            pass_order = corpus[:]
            ctx.rng.shuffle(pass_order)
            order += run_pairs(model, pass_order, results, clock)
        check_results(model, results)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calls = clock.samples()
        res.end_to_end(setup_clock.samples(), clock.samples(len(corpus)), len(calls), calls, rss)
        # the corpus's costs are spread out, so the median over single calls
        # would sit between two pairs' samples; a pair's median over the
        # passes keeps it on the middle pairs
        by_pair = {}
        for pair, (adjusted, wall) in zip(order, calls):
            by_pair.setdefault(pair, []).append((adjusted, wall))
        res.timing("call_ms_p50", [(statistics.median(a for a, _ in ts),
                                    statistics.median(w for _, w in ts))
                                   for ts in by_pair.values()], "ms", 1000.0)
        res.notes["call_ms_p50"] += f"; each pair's median over {len(order) // len(corpus)} passes"
        res.notes["wall_s"] += f"; one pass is {len(corpus)} pairs"
        return res

    phase = TracedPhase(tr)
    layers.install(tr)
    model, _, setup_counts = phase(setup)
    tr.restore()
    order = _corpus(model)
    ctx.rng.shuffle(order)
    clean = {}
    t0 = perf_counter()
    run_pairs(model, order, clean)
    clean_s = perf_counter() - t0

    layers.install(tr)
    before = tr.freeze()
    traced = {}
    _, head_s, head = phase(run_pairs, model, order[:REPEAT_PAIRS], traced)
    _, rest_s, _ = phase(run_pairs, model, order[REPEAT_PAIRS:], traced)
    traced_s = head_s + rest_s
    frozen, spans = tr.freeze(), list(tr.spans)
    covered = layers.self_seconds(frozen, before, ("model.", "laurent.")) / traced_s
    _, _, again = phase(setup)
    same_counts(res, setup_counts, again, "the D4 set-up")
    _, _, again = phase(run_pairs, model, order[:REPEAT_PAIRS], {})
    same_counts(res, head, again, f"the first {REPEAT_PAIRS} D4 pairs")
    tr.restore()

    res.check(clean == traced, "traced and untraced structure constants differ")
    check_results(model, clean)
    traced_metrics(res, frozen, spans, {"trace.model_laurent_pct": 100.0 * covered},
                   traced_s, clean_s)
    res.notes["trace.model_laurent_pct"] = "self time of model.* and laurent.* / traced pairs"
    return res


# -- verify-small ----------------------------------------------------------------

VERIFY_SMALL = [
    ["verify", *group_args("A", 3), "--which", "all"],
    ["verify", *group_args("G", 2), "--which", "all"],
]
SIGNS_A3 = ["verify", *group_args("A", 3), "--which", "signs"]


def pool_metrics(tracer: Tracer, res: Result, argv: list[str], want: str) -> dict[str, float]:
    """Speed-up and serial time of the fork pool on one sign sweep.

    The ``--jobs 2`` run wraps only coarse boundaries, so pool workers run
    untouched; the serial time is the signs span minus the ``Pool.map`` span.
    """
    serial = run_inprocess([*argv, "--jobs", "1"])
    layers.install(tracer, fine=False)
    first = len(tracer.spans)
    tracer.active = True
    try:
        parallel = run_inprocess([*argv, "--jobs", "2"])
    finally:
        tracer.active = False
        tracer.restore()
    for call in (serial, parallel):
        res.check(verify_ok(call, want), describe("sign sweep output wrong", call))
    if not (clean_ok(serial) and clean_ok(parallel)):
        return {}
    late = tracer.spans[first:]

    def span_ms(name):
        return sum((end - start) * 1000 for _, n, start, end, _ in late if n == name)

    t1 = report_ms([serial.out])["ring.report_ms.signs"]
    t2 = report_ms([parallel.out])["ring.report_ms.signs"]
    res.notes["ring.sweep_speedup_j2"] = f"signs {t1:.0f} ms at --jobs 1 / {t2:.0f} ms at --jobs 2"
    return {
        "ring.sweep_speedup_j2": t1 / t2 if t2 else 0.0,
        "ring.sweep_serial_ms": span_ms("ring.verify_alternating_signs") - span_ms("pool.map"),
    }


def verify_small(ctx: Context) -> Result:
    """``kflag verify --which all`` on A3 then G2, as CLI subprocesses, no cache."""
    res = Result()
    digests = golden.load()["cli"]
    want = [digests[golden.key(argv)] for argv in VERIFY_SMALL]
    tr = ctx.tracer
    if tr is None:
        setup_clock, pairs_per_round = Clock(), 0
        for _ in range(DESCRIBE_REPEATS):
            calls = [setup_clock(run_cli, ctx, ["describe", *argv[1:5]]) for argv in VERIFY_SMALL]
            for call in calls:
                res.check(clean_ok(call), describe("describe failed", call))
            pairs_per_round = sum(sweep_pairs(c.out) for c in calls if clean_ok(c))
        # a round, A3 then G2, is the unit of work and the call: the two
        # groups differ fourfold in cost, so a median over single calls would
        # fall between them
        clock, rss = Clock(), 0.0
        start = perf_counter()
        while ctx.time_left(start, len(clock.calls) // len(VERIFY_SMALL)):
            for argv, digest in zip(VERIFY_SMALL, want):
                call = clock(run_cli, ctx, argv)
                res.check(verify_ok(call, digest), describe("verify output wrong", call))
                rss = max(rss, call.rss_mb)
        n, bad = golden.check(skip={golden.key(a) for a in VERIFY_SMALL})
        res.attempted += n
        res.failed += len(bad)
        res.errors.extend(bad)
        rounds = clock.samples(len(VERIFY_SMALL))
        res.end_to_end(setup_clock.samples(len(VERIFY_SMALL)), rounds,
                       pairs_per_round * len(rounds), rounds, rss)
        return res

    extra = {"cli.startup_ms": startup_ms(ctx)}
    t0 = perf_counter()
    clean = [run_inprocess(argv) for argv in VERIFY_SMALL]
    clean_s = perf_counter() - t0
    for call, digest in zip(clean, want):
        res.check(verify_ok(call, digest), describe("verify output wrong", call))
    extra.update(report_ms([c.out for c in clean if clean_ok(c)]))

    phase = TracedPhase(tr)
    layers.install(tr)
    traced_s, counts = 0.0, []
    for argv, digest in zip(VERIFY_SMALL, want):
        call, wall, delta = phase(run_inprocess, argv)
        res.check(verify_ok(call, digest), describe("traced verify output wrong", call))
        traced_s += wall
        counts.append(delta)
    frozen, spans = tr.freeze(), list(tr.spans)
    _, _, again = phase(run_inprocess, VERIFY_SMALL[-1])
    same_counts(res, counts[-1], again, "verify G2")
    tr.restore()
    extra.update(pool_metrics(tr, res, SIGNS_A3, digests[golden.key(SIGNS_A3)]))
    traced_metrics(res, frozen, spans, extra, traced_s, clean_s)
    return res


# -- cache-d4 ------------------------------------------------------------------------


def _cheap_pairs(rng: random.Random, k: int) -> list[tuple[list[int], list[int]]]:
    """k distinct unordered D4 pairs in which one factor has codimension <= 2.

    Such products take milliseconds, so a warm call's time is the CLI's
    fixed cost: interpreter start, reading the cached table and output.
    """
    from kflag import WeylGroup, build_root_datum

    group = WeylGroup(build_root_datum("D", 4))
    top = group.w_o.length - 2
    els = group.elements
    pairs = [(a, b) for a in range(len(els)) for b in range(a + 1, len(els))
             if max(els[a].length, els[b].length) >= top]
    return [(list(els[a].word), list(els[b].word)) for a, b in rng.sample(pairs, k)]


def _constants_argv(pair, cache_dir: Path) -> list[str]:
    u, v = pair
    return ["constants", *group_args("D", 4), "--u", ",".join(map(str, u)) or "e",
            "--v", ",".join(map(str, v)) or "e", "--cache-dir", str(cache_dir)]


def cache_d4(ctx: Context) -> Result:
    """Cold then warm ``kflag constants`` calls on D4 with a fresh cache directory."""
    res = Result()
    tr = ctx.tracer
    pairs = _cheap_pairs(ctx.rng, SETUP_REPEATS)
    if tr is None:
        setup_clock, cold, tables = Clock(), {}, set()
        for i, pair in enumerate(pairs):
            cache_dir = ctx.work / f"cache-{i}"
            call = setup_clock(run_cli, ctx, _constants_argv(pair, cache_dir))
            res.check(clean_ok(call), describe("cold constants failed", call))
            cold[i] = call.out
            table = next(cache_dir.glob("*.json"), None)
            tables.add(hashlib.sha256(table.read_bytes()).hexdigest() if table else None)
        res.check(len(tables) == 1 and None not in tables,
                  "three cold builds wrote different cache files")
        cache_dir = ctx.work / f"cache-{len(pairs) - 1}"
        clock, rss = Clock(), 0.0
        start = perf_counter()
        # 20 calls give call_ms_tail a percentile with 10 calls beyond it
        while ctx.time_left(start, len(clock.calls), 20):
            i = len(clock.calls) % len(pairs)
            call = clock(run_cli, ctx, _constants_argv(pairs[i], cache_dir))
            res.check(clean_ok(call) and call.out == cold[i],
                      describe("warm output differs from the cold one or warned", call))
            rss = max(rss, call.rss_mb)
        calls = clock.samples()
        res.end_to_end(setup_clock.samples(), calls, len(calls), calls, rss)
        return res

    extra = {"cli.startup_ms": startup_ms(ctx)}
    phase = TracedPhase(tr)
    cache_dir = ctx.work / "cache"
    argv = _constants_argv(pairs[0], cache_dir)
    layers.install(tr)
    cold, _, _ = phase(run_inprocess, argv)
    res.check(clean_ok(cold), describe("cold constants failed", cold))
    tr.restore()
    table = next(cache_dir.glob("*.json"), None)
    extra["cli.cache_bytes"] = float(table.stat().st_size) if table else 0.0

    t0 = perf_counter()
    warm = run_inprocess(argv)
    clean_s = perf_counter() - t0
    layers.install(tr)
    first = len(tr.spans)
    traced, traced_s, counts = phase(run_inprocess, argv)
    frozen, spans = tr.freeze(), list(tr.spans)
    # the table is built by the cold call and read by the warm one
    extra["model.table_build_ms"] = layers.median_span_ms(spans[:first], "model.init")
    extra["cli.cache_load_ms"] = layers.median_span_ms(spans[first:], "cli.cache_load")
    _, _, again = phase(run_inprocess, argv)
    same_counts(res, counts, again, "a warm D4 constants call")
    tr.restore()
    rejects = 0
    for call in (warm, traced):
        rejects += bool(call.err)
        res.check(clean_ok(call) and call.out == cold.out,
                  describe("warm output differs from the cold one or warned", call))
    extra["cli.cache_rejects"] = float(rejects)
    traced_metrics(res, frozen, spans, extra, traced_s, clean_s)
    return res


WORKLOADS = {
    "constants-d4": constants_d4,
    "verify-small": verify_small,
    "cache-d4": cache_d4,
}
