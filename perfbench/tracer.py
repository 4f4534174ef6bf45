"""Per-layer spans recorded from outside the program.

:func:`install` replaces the public entry point of each layer with a
wrapper, at every name its callers look up (a module attribute, or a
method on a class).  The program's code is not changed: the wrappers
are installed in the benchmark's own worker process after import.

A wrapper opens a span on entry and closes it on exit.  Spans live on a
per-thread stack; a span's *self* time is its duration minus the part
covered by its direct child spans.  A call into a layer that is already
the innermost open span (recursion, or one codec delegating to another)
does not open a new span, so ``calls`` counts outermost calls only.

Spans are reduced as they close into per-layer totals (calls, inclusive
seconds, self seconds) plus named counts, kept in memory and returned by
:meth:`Tracer.summary` when the run ends.
"""

from __future__ import annotations

import collections
import importlib
import os
import threading
import time
from typing import Any, Callable

#: Every layer, in report order (``import`` is timed by the worker).
LAYERS = (
    "import",
    "core",
    "workloads",
    "engine.jobs",
    "util.canonical",
    "engine.session",
    "engine.batch",
    "engine.plan",
    "engine.vectorized",
    "faults",
    "explore",
    "reliability",
    "edc.encode",
    "edc.decode",
    "service.scheduler",
    "service.queue",
    "service.store",
    "service.client",
)

#: Extra counts per layer: (metric name, unit, better).
COUNTS = (
    ("workloads.minstr", "Minstr", "higher"),
    ("engine.session.executed", "count", "lower"),
    ("engine.session.memo_hits", "count", "higher"),
    ("engine.session.deduplicated", "count", "higher"),
    ("engine.session.disk_hits", "count", "higher"),
    ("engine.session.executed_ratio", "ratio", "lower"),
    ("engine.batch.groups", "count", "lower"),
    ("engine.vectorized.runs_per_executed_job", "ratio", "lower"),
    ("faults.dies", "count", "higher"),
    ("edc.corrected", "count", "higher"),
    ("edc.detected", "count", "higher"),
    ("edc.silent", "count", "lower"),
    ("service.scheduler.executed", "count", "lower"),
    ("service.scheduler.served_store", "count", "higher"),
    ("service.scheduler.served_memo", "count", "higher"),
    ("service.scheduler.dedup_ratio", "ratio", "higher"),
    ("service.queue.wait_ms_p50", "ms", "lower"),
    ("service.queue.wait_ms_p95", "ms", "lower"),
    ("service.store.put_bytes", "B", "lower"),
    ("service.store.get_bytes", "B", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    metrics = []
    for layer in LAYERS:
        metrics += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.s", "s", "lower"),
            (f"{layer}.self_s", "s", "lower"),
        ]
    metrics += list(COUNTS)
    metrics += [
        ("trace.overhead_s", "s", "lower"),
        ("unattributed_s", "s", "lower"),
    ]
    return metrics


class Tracer:
    """Thread-safe span recorder reduced to per-layer totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.totals: dict[str, list] = {
            layer: [0, 0.0, 0.0] for layer in LAYERS
        }
        self.counts: collections.Counter = collections.Counter()
        self.samples: dict[str, list[float]] = collections.defaultdict(list)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, layer: str, seconds: float) -> None:
        """Add one already-timed top-level span (the package import)."""
        with self._lock:
            totals = self.totals[layer]
            totals[0] += 1
            totals[1] += seconds
            totals[2] += seconds

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named count."""
        with self._lock:
            self.counts[name] += amount

    def sample(self, name: str, value: float) -> None:
        """Keep one observation of a distribution (queue waits)."""
        with self._lock:
            self.samples[name].append(value)

    def wrap(
        self,
        layer: str,
        fn: Callable,
        after: Callable[[tuple, dict, Any, Any], None] | None = None,
        before: Callable[[tuple, dict], Any] | None = None,
    ) -> Callable:
        """``fn`` inside a ``layer`` span.

        ``before(args, kwargs)`` runs as the span opens; its value is
        passed on as ``after(args, kwargs, result, state)`` once the call
        returns.  Both run only for spans that open.
        """
        tracer = self
        clock = self._clock

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            state = before(args, kwargs) if before is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with tracer._lock:
                    totals = tracer.totals[layer]
                    totals[0] += 1
                    totals[1] += elapsed
                    totals[2] += elapsed - frame[1]
            if after is not None:
                after(args, kwargs, result, state)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def summary(self) -> dict:
        """Per-layer totals, counts and distribution samples."""
        with self._lock:
            return {
                "layers": {k: list(v) for k, v in self.totals.items()},
                "counts": dict(self.counts),
                "samples": {k: list(v) for k, v in self.samples.items()},
            }


def _patch(target: str, attribute: str, make: Callable[[Callable], Callable]):
    """Replace ``target.attribute`` (module, or ``module:Class``)."""
    module_name, _, class_name = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    setattr(owner, attribute, make(getattr(owner, attribute)))


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points at the names callers look up."""

    def span(layer, after=None, before=None):
        return lambda fn: tracer.wrap(layer, fn, after=after, before=before)

    # core: scenario design and chip construction (cacti/sram/cells).
    for target, attribute in (
        ("repro.core.evaluation", "cached_chips"),
        ("repro.core.evaluation", "design_scenario"),
        ("repro.faults.population", "cached_chips"),
        ("repro.experiments.reliability_check", "design_scenario"),
        ("repro.core", "design_scenario"),
        ("repro.core", "build_chips"),
    ):
        _patch(target, attribute, span("core"))

    # workloads: trace materialization.
    def trace_done(args, kwargs, trace, state):
        tracer.count("workloads.minstr", len(trace) / 1e6)

    for target in ("repro.engine.jobs", "repro.engine.batch"):
        _patch(target, "trace_for", span("workloads", after=trace_done))

    for target in ("repro.engine.jobs", "repro.engine.session",
                   "repro.service.scheduler"):
        _patch(target, "job_key", span("engine.jobs"))

    for target in ("repro.util.canonical", "repro.engine.jobs",
                   "repro.engine.batch"):
        _patch(target, "canonical_text", span("util.canonical"))

    # engine.session: where each requested job's result came from.
    def session_before(args, kwargs):
        return args[0].stats.snapshot()

    def session_done(args, kwargs, result, state):
        delta = args[0].stats.since(state)
        for name in ("executed", "memo_hits", "deduplicated", "disk_hits"):
            tracer.count(f"engine.session.{name}", getattr(delta, name))

    _patch("repro.engine.session:SimulationSession", "run_jobs",
           span("engine.session", after=session_done,
                before=session_before))

    def group_done(args, kwargs, result, state):
        tracer.count("engine.batch.groups")

    for target in ("repro.engine.session", "repro.engine.batch"):
        _patch(target, "execute_group",
               span("engine.batch", after=group_done))

    for target in ("repro.engine.batch", "repro.engine.vectorized"):
        _patch(target, "build_stream_plan", span("engine.plan"))

    _patch("repro.engine.backends", "simulate_trace_vectorized",
           span("engine.vectorized"))

    # faults: die-population sampling.
    def dies_done(args, kwargs, result, state):
        tracer.count("faults.dies", len(result))

    for target in ("repro.faults.population", "repro.explore.campaign"):
        _patch(target, "sample_population", span("faults", after=dies_done))

    # explore: campaign expansion, frontier and report.
    _patch("repro.explore.campaign:ExplorationCampaign", "expand",
           span("explore"))
    for attribute in ("frontier", "render_report"):
        _patch("repro.explore.campaign:CampaignResult", attribute,
               span("explore"))

    _patch("repro.experiments.reliability_check", "generate_fault_map",
           span("reliability"))

    # edc: every codec's encode/decode; decode outcomes counted.
    from repro.edc.base import DecodeStatus

    def decoded(args, kwargs, result, state):
        if result.status is DecodeStatus.CORRECTED:
            tracer.count("edc.corrected")
        elif result.status is DecodeStatus.DETECTED:
            tracer.count("edc.detected")

    for codec in ("repro.edc.hsiao:HsiaoSecDed", "repro.edc.dected:DectedCode",
                  "repro.edc.bch:BchCode", "repro.edc.parity:ParityCode"):
        _patch(codec, "encode", span("edc.encode"))
        _patch(codec, "decode", span("edc.decode", after=decoded))

    # Silent errors are only visible to the array that holds the
    # written data: count its delta around each exercise pass.
    def count_silent(exercise):
        def counted_exercise(self, *args, **kwargs):
            before = self.silent_errors
            try:
                return exercise(self, *args, **kwargs)
            finally:
                tracer.count("edc.silent", self.silent_errors - before)

        return counted_exercise

    _patch("repro.cache.edc_layer:ProtectedArray", "exercise", count_silent)

    # service: execution per job, queue waits, store bytes, HTTP.
    _patch("repro.service.scheduler", "execute_job", span("service.scheduler"))

    admitted: dict[str, float] = {}

    def pushed(args, kwargs, result, state):
        key = args[2] if len(args) > 2 else kwargs["payload"]
        admitted[key] = time.perf_counter()

    def popped(args, kwargs, result, state):
        if result is not None:
            began = admitted.pop(result[1], None)
            if began is not None:
                tracer.sample("service.queue.wait_ms",
                              (time.perf_counter() - began) * 1e3)

    _patch("repro.service.queue:WeightedFairQueue", "push",
           span("service.queue", after=pushed))
    _patch("repro.service.queue:WeightedFairQueue", "pop",
           span("service.queue", after=popped))

    def stored(args, kwargs, result, state):
        path = args[0].path_for(args[1])
        if os.path.exists(path):
            tracer.count("service.store.put_bytes", os.path.getsize(path))

    def fetched(args, kwargs, result, state):
        if result is not None:
            path = args[0].path_for(args[1])
            if os.path.exists(path):
                tracer.count("service.store.get_bytes", os.path.getsize(path))

    def fetched_bytes(args, kwargs, result, state):
        if result is not None:
            tracer.count("service.store.get_bytes", len(result))

    store = "repro.service.store:ShardedResultStore"
    _patch(store, "put", span("service.store", after=stored))
    _patch(store, "get", span("service.store", after=fetched))
    _patch(store, "get_bytes", span("service.store", after=fetched_bytes))

    _patch("repro.service.client:ServiceClient", "_request",
           span("service.client"))
