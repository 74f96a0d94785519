"""In-memory span recorder for the traced run, and the wrappers that feed it.

The traced run installs wrappers around public functions and methods of
the program's layers (:data:`METHOD_TARGETS`, :data:`FUNCTION_TARGETS`)
from outside: nothing in ``src/`` knows it is being traced.  A span is
recorded only while an op is in flight and carries its name, start, end,
parent span and op id.  Spans opened on another thread (the HTTP
server's handler thread) with no open parent of their own hang under
the client request in flight, so a request's server-side work nests
inside the client's latency.

A layer's self time is its spans' duration minus the part of each
interval covered by the span's children; an op's self time is the part
of the op no wrapped layer covers (``trace.uncovered_frac``).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import inspect
import itertools
import resource
import sys
import threading
import time

__all__ = ["Span", "Tracer", "install", "layer_metrics"]

_MISSING = object()


class Span:
    __slots__ = ("id", "parent", "op", "name", "t0", "t1")

    def __init__(self, id, parent, op, name, t0, t1=0.0):
        self.id, self.parent, self.op, self.name = id, parent, op, name
        self.t0, self.t1 = t0, t1

    def to_json(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """Spans, op boundaries and per-call observations of one traced run."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: list[Span] = []
        self.ops: list[tuple[int, str, float, float]] = []  # id, class, t0, t1
        self.op_id: int | None = None
        self.remote_parent: int | None = None
        self._op_cls = ""
        self._op_t0 = 0.0
        self.sleep_s = 0.0
        self.counts: collections.Counter = collections.Counter()
        self.sim_runs: list[dict] = []
        self.max_queue_items = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- ops ---------------------------------------------------------------

    def begin_op(self, cls: str) -> None:
        self.op_id = next(self._ids)
        self._op_cls = cls
        self._stack().append(self.op_id)
        self._op_t0 = time.perf_counter()

    def end_op(self) -> None:
        t1 = time.perf_counter()
        self._stack().pop()
        self.ops.append((self.op_id, self._op_cls, self._op_t0, t1))
        self.op_id = None

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> Span | None:
        """Open a span under the innermost open one (``None`` outside ops)."""
        op = self.op_id
        if op is None:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else (self.remote_parent or op)
        span = Span(next(self._ids), parent, op, name, 0.0)
        stack.append(span.id)
        span.t0 = time.perf_counter()
        return span

    def exit(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def client_request(self):
        """A client HTTP request: server-thread spans become its children."""
        span = self.enter("client.http")
        if span is None:
            yield
            return
        self.remote_parent = span.id
        try:
            yield
        finally:
            self.remote_parent = None
            self.exit(span)

    def sleep(self, original):
        @functools.wraps(original)
        def traced_sleep(seconds):
            t0 = time.perf_counter()
            try:
                return original(seconds)
            finally:
                if self.op_id is not None:
                    self.sleep_s += time.perf_counter() - t0

        return traced_sleep


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    """``fn`` timed as a ``name`` span; ``before(args)`` snapshots state
    that ``after(args, result, state)`` turns into observations."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.enter(name)
        if span is None:
            return fn(*args, **kwargs)
        state = before(args) if before is not None else None
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(span)
        if after is not None:
            after(args, result, state)
        return result

    return wrapper


# -- observations -------------------------------------------------------------


def _sim_before(args):
    t = args[0].timings
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return (t.stream_seconds, t.boundary_seconds, t.collide_seconds, t.steps,
            ru.ru_minflt)


def _sim_after(tracer):
    def after(args, result, state):
        sim = args[0]
        t = sim.timings
        ru = resource.getrusage(resource.RUSAGE_SELF)
        tracer.sim_runs.append({
            "lattice": sim.lattice.name,
            "shape": list(sim.shape),
            "dtype": str(sim.dtype),
            "cells": int(sim.num_cells),
            "stream_s": t.stream_seconds - state[0],
            "boundary_s": t.boundary_seconds - state[1],
            "collide_s": t.collide_seconds - state[2],
            "steps": t.steps - state[3],
            "minflt": ru.ru_minflt - state[4],
        })

    return after


def _count(tracer, key, predicate=lambda result: True):
    def after(args, result, state):
        if predicate(result):
            tracer.counts[key] += 1

    return after


def _put_after(tracer):
    def after(args, result, state):
        tracer.counts["cache.bytes_written"] += result.stat().st_size

    return after


def _queue_after(tracer):
    def after(args, result, state):
        tracer.max_queue_items = max(tracer.max_queue_items, len(result.items))

    return after


def _worker_after(tracer):
    def after(args, result, state):
        tracer.counts["workers.completions"] += len(result.completed)

    return after


# -- installation -------------------------------------------------------------

#: (module, class, methods, span name); hooks are attached in :func:`install`.
METHOD_TARGETS = [
    ("repro.core.simulation", "Simulation", ("step",), "core.step"),
    ("repro.core.simulation", "Simulation", ("run",), "core.run"),
    ("repro.scenarios.runner", "CaseRunner", ("build",), "runner.build"),
    ("repro.scenarios.runner", "CaseRunner", ("run",), "runner.run"),
    ("repro.scenarios.spec", "CaseSpec", ("fingerprint",), "spec.fingerprint"),
    ("repro.scenarios.cache", "ResultCache", ("lookup", "get"), "cache.lookup"),
    ("repro.scenarios.cache", "ResultCache", ("put",), "cache.put"),
    ("repro.scenarios.cache", "SweepManifest",
     ("save", "load", "create", "resume", "mark_complete", "record_completion"),
     "cache.manifest"),
    ("repro.scenarios.executor", "SweepExecutor", ("run",), "executor.run"),
    ("repro.scenarios.executor", "SweepPlan", ("of",), "sweep.plan"),
    ("repro.scenarios.scheduler", "WorkQueue",
     ("append", "load", "publish", "claim_order"), "scheduler.queue"),
    ("repro.scenarios.scheduler", "LeaseBoard",
     ("acquire", "release", "renew", "reclaim", "holder"), "scheduler.lease"),
    ("repro.resilience.ledger", "FailureLedger",
     ("load", "quarantined", "record_failure", "clear"), "ledger.load"),
    ("repro.serve.jobs", "JobStore",
     ("submit_case", "submit_sweep", "get", "status_payload", "result_response",
      "variant_states", "queue_depth"), "serve.jobstore"),
]

#: (module, function, span name): every ``repro`` module attribute bound to
#: the function is rebound, so ``from x import f`` call sites are traced too.
FUNCTION_TARGETS = [
    ("repro.core.io", "canonical_json", "io.canonical_json"),
    ("repro.api", "case_request", "api.case_request"),
    ("repro.api", "run_case", "api.run_case"),
    ("repro.api", "run_sweep", "api.run_sweep"),
    ("repro.scenarios.scheduler", "predict_spec_costs", "model.predict"),
    ("repro.scenarios.scheduler", "lease_holder", "scheduler.lease"),
    ("repro.scenarios.workers", "run_worker", "workers.run"),
]


def install(tracer: Tracer):
    """Wrap every target and ``time.sleep``; returns the undo callable."""
    import importlib

    hooks = {
        ("Simulation", "run"): (_sim_before, _sim_after(tracer)),
        ("ResultCache", "lookup"): (None, _count(tracer, "cache.hits", lambda r: r.hit)),
        ("ResultCache", "get"): (None, _count(tracer, "cache.hits", lambda r: r is not None)),
        ("ResultCache", "put"): (None, _put_after(tracer)),
        ("SweepManifest", "save"): (None, _count(tracer, "cache.manifest_saves")),
        ("WorkQueue", "load"): (None, _queue_after(tracer)),
        ("run_worker",): (None, _worker_after(tracer)),
    }
    undo: list[tuple[object, str, object]] = []

    for module, cls_name, methods, name in METHOD_TARGETS:
        cls = getattr(importlib.import_module(module), cls_name)
        for attr in methods:
            raw = inspect.getattr_static(cls, attr)
            before, after = hooks.get((cls_name, attr), (None, None))
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(tracer, name, raw.__func__, before, after))
            else:
                new = _wrap(tracer, name, raw, before, after)
            undo.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
            setattr(cls, attr, new)

    for module, fn_name, name in FUNCTION_TARGETS:
        fn = getattr(importlib.import_module(module), fn_name)
        before, after = hooks.get((fn_name,), (None, None))
        wrapper = _wrap(tracer, name, fn, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    undo.append((time, "sleep", time.sleep))
    time.sleep = tracer.sleep(time.sleep)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return restore


# -- reduction ----------------------------------------------------------------


def _covered(t0: float, t1: float, children: list[Span]) -> float:
    """Length of the union of the children's intervals inside [t0, t1]."""
    total, reach = 0.0, t0
    for child in sorted(children, key=lambda s: s.t0):
        lo, hi = max(child.t0, reach), min(child.t1, t1)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(tracer: Tracer):
    """Per-span self time, and per-op uncovered time, in seconds."""
    children: dict[int, list[Span]] = collections.defaultdict(list)
    for span in tracer.spans:
        children[span.parent].append(span)
    spans = {s.id: (s.t1 - s.t0) - _covered(s.t0, s.t1, children[s.id])
             for s in tracer.spans}
    ops = {op: (t1 - t0) - _covered(t0, t1, children[op])
           for op, _, t0, t1 in tracer.ops}
    return spans, ops, children


def layer_metrics(tracer: Tracer, bare_mflups: dict, bytes_per_cell) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and diagnostics to print.

    ``bare_mflups`` maps ``(lattice, shape, dtype)`` to the planned
    kernel's MFLUP/s alone; ``bytes_per_cell(lattice, dtype)`` is B(Q).
    """
    self_s, op_self, children = self_times(tracer)
    by_name_s: collections.Counter = collections.Counter()
    calls: collections.Counter = collections.Counter()
    for span in tracer.spans:
        by_name_s[span.name] += self_s[span.id]
        calls[span.name] += 1

    runs = tracer.sim_runs
    steps = sum(r["steps"] for r in runs)
    phase_s = sum(r["stream_s"] + r["boundary_s"] + r["collide_s"] for r in runs)
    updates = sum(r["steps"] * r["cells"] for r in runs)
    kernel_s = sum(
        r["steps"] * r["cells"] / (bare_mflups[(r["lattice"], tuple(r["shape"]), r["dtype"])] * 1e6)
        for r in runs
    )
    case_mflups = updates / phase_s / 1e6 if phase_s else 0.0
    bare = updates / kernel_s / 1e6 if kernel_s else 0.0

    def descendants(span_id: int, name: str) -> int:
        todo, found = list(children[span_id]), 0
        while todo:
            span = todo.pop()
            found += span.name == name
            todo.extend(children[span.id])
        return found

    probes = sum(descendants(s.id, "cache.lookup") for s in tracer.spans
                 if s.name == "workers.run")
    completions = tracer.counts["workers.completions"]
    http = sorted(self_s[s.id] * 1e3 for s in tracer.spans if s.name == "client.http")
    op_time = sum(t1 - t0 for _, _, t0, t1 in tracer.ops)
    lookups = calls["cache.lookup"]

    metrics = {
        "core.stream_s": sum(r["stream_s"] for r in runs),
        "core.boundary_s": sum(r["boundary_s"] for r in runs),
        "core.collide_s": sum(r["collide_s"] for r in runs),
        "core.steps": steps,
        "core.mflups": case_mflups,
        "core.bare_kernel_mflups": bare,
        "core.overhead_factor": bare / case_mflups if case_mflups else 0.0,
        "core.minor_faults_per_step": sum(r["minflt"] for r in runs) / steps if steps else 0.0,
        "core.computed_bytes_per_step": (
            sum(r["steps"] * r["cells"] * bytes_per_cell(r["lattice"], r["dtype"]) for r in runs)
            / steps if steps else 0.0
        ),
        "runner.build_s": by_name_s["runner.build"],
        "runner.self_s": by_name_s["runner.run"],
        "spec.fingerprint_calls": calls["spec.fingerprint"],
        "spec.fingerprint_s": by_name_s["spec.fingerprint"],
        "io.canonical_json_calls": calls["io.canonical_json"],
        "io.canonical_json_s": by_name_s["io.canonical_json"],
        "cache.lookups": lookups,
        "cache.hit_ratio": tracer.counts["cache.hits"] / lookups if lookups else 0.0,
        "cache.lookup_s": by_name_s["cache.lookup"],
        "cache.puts": calls["cache.put"],
        "cache.put_s": by_name_s["cache.put"],
        "cache.bytes_written": tracer.counts["cache.bytes_written"],
        "cache.manifest_saves": tracer.counts["cache.manifest_saves"],
        "cache.manifest_s": by_name_s["cache.manifest"],
        "executor.self_s": by_name_s["executor.run"],
        "sweep.plan_s": by_name_s["sweep.plan"],
        "api.self_s": by_name_s["api.run_case"] + by_name_s["api.run_sweep"],
        "workers.drain_s": by_name_s["workers.run"],
        "workers.probes_per_completion": probes / completions if completions else 0.0,
        "scheduler.queue_items": tracer.max_queue_items,
        "scheduler.queue_s": by_name_s["scheduler.queue"],
        "scheduler.lease_s": by_name_s["scheduler.lease"],
        "ledger.load_s": by_name_s["ledger.load"],
        "serve.jobstore_s": by_name_s["serve.jobstore"],
        "serve.http_overhead_ms": http[len(http) // 2] if http else 0.0,
        "api.case_request_s": by_name_s["api.case_request"],
        "model.predict_s": by_name_s["model.predict"],
        "trace.uncovered_frac": sum(op_self.values()) / op_time if op_time else 0.0,
        "trace.sleep_s": tracer.sleep_s,
    }

    step_spans = sum(s.t1 - s.t0 for s in tracer.spans if s.name == "core.step")
    per_op = collections.defaultdict(list)
    for op, cls, t0, t1 in tracer.ops:
        per_op[cls].append(op_self[op] / (t1 - t0) if t1 > t0 else 0.0)
    notes = {
        "self_s_by_span": dict(by_name_s),
        "calls_by_span": dict(calls),
        "op_time_s": op_time,
        "uncovered_frac_by_class": {
            cls: sorted(fracs) for cls, fracs in per_op.items()
        },
        "step_span_s": step_spans,
        "step_timings_s": phase_s,
        "pure_kernel_s": kernel_s,
        "updates": updates,
    }
    return metrics, notes
