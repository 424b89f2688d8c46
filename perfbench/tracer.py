"""In-memory tracing of kflag's public functions, from outside the package.

The tracer replaces functions and methods with wrappers that record, per
name, the number of calls, inclusive time, self time (inclusive time minus
the time of wrapped calls made inside it), failures and an optional
work count.  Coarse functions additionally record spans
``(id, name, start, end, parent)``; hot kernels are only aggregated so that
memory stays bounded.  Nothing is recorded while ``active`` is false, and
forked children switch the tracer off, so pool workers run untraced.
"""
from __future__ import annotations

import functools
import os
from time import perf_counter


class Record:
    __slots__ = ("calls", "self_s", "total_s", "failed", "work")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.failed = 0
        self.work = 0


class Tracer:
    def __init__(self):
        self.active = False
        self.records: dict[str, Record] = {}
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[list[float]] = []
        self._open_spans: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._stop_in_child)

    def _stop_in_child(self):
        self.active = False

    def record(self, name: str) -> Record:
        rec = self.records.get(name)
        if rec is None:
            rec = self.records[name] = Record()
        return rec

    def wrap(self, owner, attr: str, name: str, work=None, pre=None, span=False):
        """Replace ``owner.attr`` by a recording wrapper.

        ``work(args, result, token)`` returns a count added to the record's
        ``work``; ``token`` is ``pre(args)`` taken before the call.
        """
        fn = getattr(owner, attr)
        rec = self.record(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            token = pre(args) if pre is not None else None
            stack = tracer._stack
            child = [0.0]
            stack.append(child)
            if span:
                sid = len(tracer.spans)
                parent = tracer._open_spans[-1] if tracer._open_spans else None
                tracer.spans.append((sid, name, 0.0, 0.0, parent))
                tracer._open_spans.append(sid)
            ok = False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec.calls += 1
                rec.total_s += dt
                rec.self_s += dt - child[0]
                if not ok:
                    rec.failed += 1
                elif work is not None:
                    rec.work += work(args, out, token)
                if span:
                    tracer._open_spans.pop()
                    tracer.spans[sid] = (sid, name, t0, t1, parent)

        functools.update_wrapper(wrapper, fn)
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put every original function back, newest patch first."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def freeze(self) -> dict[str, tuple[int, float, float, int, int]]:
        """(calls, self_s, total_s, failed, work) per name, as of now."""
        return {n: (r.calls, r.self_s, r.total_s, r.failed, r.work)
                for n, r in self.records.items()}
