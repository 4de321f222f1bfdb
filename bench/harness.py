"""Timing, tracing and bookkeeping shared by the benchmark workloads.

A workload issues *operations* (one map ingest, one ``plan()`` call, ...)
through :class:`Runner.op`, and inside them calls the library's public
functions through :class:`Runner.call`. The runner has three modes:

- ``plain``: the untraced run. Each operation runs once and is timed
  with ``perf_counter``; layer calls go straight to the library.
- ``spans``: the traced run. Each operation runs twice, once plain and
  once with a span around it and around every layer call, in an order
  that alternates from one operation to the next. Layer metrics come from
  the spans; the two copies give the tracing overhead.
- ``memory``: layer calls run under ``tracemalloc`` to get each layer's
  peak allocation. ``tracemalloc`` slows Python-heavy code many times
  over, so this mode only runs a short probe after the timed loop.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager


class OutOfTime(Exception):
    """The traced run's measuring time is used up."""


class Runner:
    def __init__(self, workload: str):
        self.workload = workload
        self.mode = "plain"
        self.instance = ""  # "setup-<i>" or "pass-<i>", set by the loop
        self.deadline = None  # perf_counter value after which spans mode stops
        self.attempted = 0
        self.failed = 0
        self.op_seconds = defaultdict(list)  # op kind -> seconds, plain mode
        self.pass_seconds = 0.0  # timed work in the current pass
        self.spans = []
        self._stack = []
        self._op_id = None
        self._ops_run = 0
        self.paired = []  # (traced seconds, plain seconds) per operation
        self.complete = set()  # instances that ran to the end
        self.counts = defaultdict(lambda: defaultdict(float))  # instance -> name -> value
        self.queries = []  # (plan() span seconds, search_seconds, expanded)
        self.peak_alloc = defaultdict(float)  # layer -> MB
        self.last_span_seconds = 0.0
        self.engine = None  # PathResult.engine of the last query

    # -- layer calls ---------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Call a public library function as layer ``name``."""
        if self.mode == "plain":
            return fn(*args, **kwargs)
        if self.mode == "memory":
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - base
            layer = name.split(".")[0]
            self.peak_alloc[layer] = max(self.peak_alloc[layer], peak / 2**20)
            return out
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "op": self._op_id,
            "instance": self.instance,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()
            self.last_span_seconds = record["end"] - record["start"]

    def count(self, name: str, value) -> None:
        """Add a per-layer count to the current instance (traced run only)."""
        if self.mode == "spans":
            self.counts[self.instance][name] += float(value() if callable(value) else value)

    @property
    def tracing(self) -> bool:
        return self.mode == "spans"

    # -- operations ----------------------------------------------------

    def op(self, kind: str, op_id: str, fn, verify=None, collect: bool = True):
        """Run one timed operation; return its result, or None if it failed.

        ``verify(result)`` runs off the clock and returns False on a wrong
        output. Exceptions from the library count as failed operations.
        """
        if self.mode == "memory":
            return fn()
        if self.mode == "spans" and time.perf_counter() > self.deadline and self._ops_run:
            raise OutOfTime
        if collect:
            gc.collect()
        self._op_id = op_id
        self._ops_run += 1
        self.attempted += 1
        try:
            if self.mode == "plain":
                t0 = time.perf_counter()
                out = fn()
                seconds = time.perf_counter() - t0
                self.op_seconds[kind].append(seconds)
                self.pass_seconds += seconds
            else:
                out = self._paired(kind, fn)
        except Exception:  # every library failure is a failed operation
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            self._op_id = None
        if verify is not None and not verify(out):
            print(f"verification failed: {self.workload} {op_id}", file=sys.stderr)
            self.failed += 1
        return out

    def _paired(self, kind: str, fn):
        order = (True, False) if self._ops_run % 2 == 0 else (False, True)
        out = None
        times = {}
        for i, traced in enumerate(order):
            if i:
                gc.collect()
            self.mode = "spans" if traced else "plain"
            t0 = time.perf_counter()
            if traced:
                with self.span(f"op.{kind}"):
                    out = fn()
            else:
                fn()
            times[traced] = time.perf_counter() - t0
        self.mode = "spans"
        self.paired.append((times[True], times[False]))
        return out

    def check(self, ok: bool, what: str) -> None:
        """Count one verification that is not tied to a timed operation."""
        self.attempted += 1
        if not ok:
            print(f"verification failed: {self.workload} {what}", file=sys.stderr)
            self.failed += 1


def layer_metrics(runner: Runner) -> dict:
    """Per-layer numbers from the traced run's spans and counts.

    A layer's time is summed over one set-up or one pass, then the median
    is taken over the complete set-ups and passes in which the layer ran.
    ``plan.*`` values are per ``plan()`` call. ``trace.self_s`` is the
    time inside operation spans that no layer span covers.
    """
    complete = runner.complete
    per_instance = defaultdict(lambda: defaultdict(float))
    children = defaultdict(float)
    for s in runner.spans:
        if s["end"] is None:
            continue
        dur = s["end"] - s["start"]
        if s["parent"] is not None:
            children[s["parent"]] += dur
        if not s["name"].startswith("op."):
            per_instance[s["instance"]][s["name"]] += dur
    for s in runner.spans:
        if s["name"].startswith("op.") and s["end"] is not None:
            own = (s["end"] - s["start"]) - children[s["id"]]
            per_instance[s["instance"]]["trace.self"] += own

    def median_over_instances(table, name):
        vals = [t[name] for inst, t in table.items() if inst in complete and name in t]
        if not vals:  # only a partial pass ran, e.g. a long query batch
            vals = [t[name] for t in table.values() if name in t]
        return statistics.median(vals) if vals else float("nan")

    out = {}
    for name in sorted({n for t in per_instance.values() for n in t} - {"plan.plan"}):
        out[name + "_s"] = median_over_instances(per_instance, name)
    counts = {n for t in runner.counts.values() for n in t}
    for name in sorted(counts):
        out[name] = median_over_instances(runner.counts, name)

    def ratio(num, den):
        a, b = out.get(num), out.get(den)
        return a / b if a is not None and b else float("nan")

    out["extract.collision_keep_ratio"] = ratio("extract.collision_kept", "extract.candidates")
    out["extract.bfs_reach_ratio"] = ratio("extract.surface_states", "extract.collision_kept")
    out["plan.edge_probe_ratio"] = ratio("plan.edges", "plan.edge_probes")
    out.pop("plan.edge_probes", None)
    if runner.queries:
        out["plan.search_s"] = statistics.median(q[1] for q in runner.queries)
        out["plan.overhead_s"] = statistics.median(q[0] - q[1] for q in runner.queries)
        out["plan.expanded"] = statistics.median(q[2] for q in runner.queries)
    for layer, mb in runner.peak_alloc.items():
        out[f"{layer}.peak_alloc_mb"] = mb
    traced = sum(p[0] for p in runner.paired)
    plain = sum(p[1] for p in runner.paired)
    out["trace.overhead_frac"] = traced / plain - 1.0 if plain else float("nan")
    return out
