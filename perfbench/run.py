"""kflag benchmark: one command, three workloads, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload constants-d4 --seed 0 --seconds 20 --trace 0

Runs from the root of a kflag source tree and uses the package under
``src/`` (library calls in-process, CLI calls as ``python -m kflag``).
With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 means every correctness gate
passed; 1 means a gate failed; 2 means the program or the benchmark
definition could not be found.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"


def die(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def import_kflag():
    """Import kflag from this tree's ``src/`` and nowhere else."""
    if not (SRC / "kflag" / "__init__.py").is_file():
        die(f"no kflag package under {SRC}")
    sys.path.insert(0, str(SRC))
    import kflag

    if Path(kflag.__file__).resolve().parent != (SRC / "kflag").resolve():
        die(f"imported kflag from {kflag.__file__}, not from {SRC}")
    return kflag


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, workload: str) -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = []
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "loadavg_start": loadavg,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, args, declared: dict[str, str]):
    """Run one workload, record it under OUT_DIR and print its report."""
    import workloads

    prov = provenance(args, name)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        ctx = workloads.Context(
            root=ROOT, work=work, seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
        )
        result = workloads.WORKLOADS[name](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    emitted = {metric: unit for metric, (_, unit) in result.metrics.items()}
    if emitted != declared:
        die(f"emitted metrics {emitted} differ from BENCHMARK.json {declared}")

    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": prov, **result.to_json()}
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if ctx.tracer is not None:
        with open(OUT_DIR / f"spans-{tag}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": ctx.tracer.spans}, fh)

    print(f"perfbench {tag}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for line in result.report_lines(declared):
        print(line)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_kflag()
    if not args.trace:
        # one CPU for the benchmark and its children, so that the host-speed
        # probe runs where the timed work runs (see workloads.Clock)
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        declared = declared_metrics(bool(args.trace))
    except (OSError, KeyError, ValueError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}")
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        die(f"unknown workload {args.workload!r}; choose from all, {', '.join(workloads.WORKLOADS)}")
    results = {name: run_workload(name, args, declared) for name in names}

    # with several workloads, metric names are prefixed by the workload's
    prefix = len(results) > 1
    failed = sum(r.failed for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in results.values()),
        "failed": failed,
        "metrics": {f"{w}.{n}" if prefix else n: {"value": r.metrics[n][0], "unit": u}
                    for w, r in results.items() for n, u in declared.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
