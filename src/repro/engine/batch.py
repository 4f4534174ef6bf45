"""Trace-grouped batch execution: shared plans + memoized functional sims.

The sweeps this reproduction exists for (Vdd/EDC design spaces, die
populations, runtime schedules) submit hundreds of jobs that differ in
chip/mode/operating-point/fault-map terms but share a handful of traces.
Per job, the expensive work splits into

* **trace-dependent precomputation** — decode, per-set sort, run
  collapse (:mod:`repro.engine.plan`) — identical for every job on the
  same stream and geometry;
* **functional simulation** — identical for every job whose (config,
  mode, fault map, transient behaviour) coincide, however much their
  operating points (and therefore energy ledgers) differ;
* **reduction** — timing + energy accounting, cheap and per-job.

This module exploits both redundancies without forking the execution
path: :func:`execute_group` runs each job through the ordinary
:meth:`repro.cpu.chip.Chip.run`, injecting a
:class:`_SharedTraceContext` wrapper as its ``simulate=`` seam.  The
wrapper adds a per-(stream, geometry) :class:`~repro.engine.plan.
StreamPlan` cache and a content-keyed memo of finished
:class:`~repro.cache.stats.CacheStats` in front of the regular
:func:`repro.engine.backends.simulate_cache` — all downstream code is
shared with the per-job path, which is what makes the batched results
bit-identical (enforced by ``tests/engine/test_batch_equivalence.py``).

For multi-process dispatch, :func:`strip_traces` swaps inline traces
for :class:`~repro.workloads.store.StoredTraceRef` pointers into the
content-addressed mmap store, so workers open trace columns by digest
instead of unpickling megabytes of arrays per group.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Callable, Sequence

from repro.cpu.chip import RunResult
from repro.cpu.trace import Trace
from repro.engine import backends
from repro.engine.jobs import (
    SimulationJob,
    TraceSpec,
    _trace_token,
    chip_for,
    trace_for,
)
from repro.engine.plan import build_stream_plan, geometry_key
from repro.util.canonical import canonical_text
from repro.util.memo import ValueMemo
from repro.util.profiling import phase
from repro.workloads.store import StoredTraceRef, TraceStore


def _isolated(stats):
    """A mutation-isolated copy of a functional-simulation result.

    :class:`~repro.cache.stats.CacheStats` rebuilds itself in flat
    Python (``clone``) far cheaper than ``copy.deepcopy``'s recursive
    walk — the difference dominated the ``batch.kernel`` profile on
    memo-heavy sweeps.  Anything else (a monkeypatched seam returning
    a stand-in) falls back to the general deep copy.
    """
    clone = getattr(stats, "clone", None)
    if clone is not None:
        return clone()
    return copy.deepcopy(stats)


def group_by_trace(jobs: Sequence[SimulationJob]) -> list[list[int]]:
    """Partition job indices into same-trace groups.

    Groups are keyed by the job-key trace token (so a
    :class:`~repro.workloads.store.StoredTraceRef` groups with the
    inline :class:`~repro.cpu.trace.Trace` it points to) and returned
    in first-occurrence order — the property the session relies on to
    keep batched execution deterministic.
    """
    by_token: dict[str, list[int]] = {}
    groups: list[list[int]] = []
    for index, job in enumerate(jobs):
        token = _trace_token(job.trace)
        group = by_token.get(token)
        if group is None:
            by_token[token] = group = []
            groups.append(group)
        group.append(index)
    return groups


def partition_for_dispatch(
    jobs: Sequence[SimulationJob], workers: int
) -> list[list[int]]:
    """Same-trace groups, split so every worker process gets work.

    A group executes as a unit (that is what buys the plan/memo
    sharing), so one giant group would serialize a parallel session.
    Large groups are deterministically chunked to roughly
    ``2 * workers`` pieces across the batch — small enough to balance,
    large enough that each chunk still amortizes its plan builds.
    """
    groups = group_by_trace(jobs)
    if workers <= 1:
        return groups
    limit = max(4, -(-len(jobs) // (workers * 2)))
    chunks: list[list[int]] = []
    for group in groups:
        for start in range(0, len(group), limit):
            chunks.append(group[start : start + limit])
    return chunks


def strip_traces(
    jobs: Sequence[SimulationJob], store: TraceStore
) -> list[SimulationJob]:
    """Replace inline traces with store references before dispatch.

    Persisting is idempotent (content-addressed), so repeated batches
    over the same traces write once and dispatch pointers forever
    after.  Symbolic :class:`~repro.engine.jobs.TraceSpec` jobs pass
    through untouched — they never carried arrays in the first place.
    """
    stripped: list[SimulationJob] = []
    for job in jobs:
        if isinstance(job.trace, Trace):
            stripped.append(replace(job, trace=store.put(job.trace)))
        else:
            stripped.append(job)
    return stripped


#: Per-process handles: stores are stateless-cheap but the loaded
#: store-backed traces memoize like ``jobs._TRACE_MEMO`` (bounded FIFO)
#: so consecutive groups on one worker reopen nothing.
_STORE_MEMO: dict[str, TraceStore] = {}
_STORED_TRACE_MEMO: ValueMemo[Trace] = ValueMemo(limit=32)


def open_store(root=None) -> TraceStore:
    """The per-process :class:`TraceStore` handle for a root."""
    key = str(root) if root is not None else ""
    store = _STORE_MEMO.get(key)
    if store is None:
        store = TraceStore(root)
        _STORE_MEMO[key] = store
    return store


def resolve_trace(
    trace: TraceSpec | Trace | StoredTraceRef, store_root=None
) -> Trace:
    """Materialize a job's trace, whatever form it travelled in."""
    if isinstance(trace, StoredTraceRef):
        return _STORED_TRACE_MEMO.lookup(
            (trace.name, trace.digest),
            lambda: open_store(store_root).get(trace),
        )
    return trace_for(trace)


class _SharedTraceContext:
    """Plan cache + functional-simulation memo for one trace group.

    Installed as :meth:`repro.cpu.chip.Chip.run`'s ``simulate=`` seam,
    so it sees exactly the calls the per-job path would make — same
    signature, same arguments — and answers them bit-identically:

    * a :class:`~repro.engine.plan.StreamPlan` is built once per
      (stream identity, geometry) and handed to every vectorized
      simulation of the group;
    * finished :class:`~repro.cache.stats.CacheStats` are memoized by
      *content* key — config, mode, policy, seed, fault lines and the
      transient sampler's :attr:`~repro.transients.sampling.
      TransientSampler.content_token` — so jobs differing only in
      energy terms (a Vdd sweep's operating points) simulate once.
      Hits return cheap :meth:`~repro.cache.stats.CacheStats.clone`
      copies (flat-counter rebuilds, not ``copy.deepcopy`` walks):
      results stay mutation-isolated per job, exactly as if each had
      simulated itself, and a memo hit costs microseconds — the
      ``batch.memo`` phase under ``--profile`` makes that visible
      next to ``batch.kernel``.

    Scoped to one group on purpose: nothing outlives the batch, so
    runtime model changes (monkeypatching in tests, hot reloads) can
    never be served stale functional results across batches.
    """

    def __init__(self) -> None:
        self._plans: dict[tuple, object] = {}
        self._memo: dict[tuple, object] = {}
        self._config_texts: dict[int, str] = {}
        # Pin the objects behind the id()-based keys: a recycled id
        # must not alias a dead stream's plan or config's text.
        self._pins: list[object] = []

    def _config_text(self, config) -> str:
        """Per-context memo of ``canonical_text(config)``.

        The canonical walk costs ~0.4 ms per cache config — charged
        per *simulate call*, it would eat the batching win; charged per
        distinct config object, it vanishes.
        """
        text = self._config_texts.get(id(config))
        if text is None:
            text = canonical_text(config)
            self._config_texts[id(config)] = text
            self._pins.append(config)
        return text

    def simulate(
        self,
        config,
        mode,
        addresses,
        is_write=None,
        policy="lru",
        seed: int = 0,
        backend: str = "auto",
        disabled_lines: tuple[tuple[int, int], ...] = (),
        transients=None,
    ):
        """Drop-in for :func:`repro.engine.backends.simulate_cache`."""
        chosen = backends.resolve_backend(backend, policy)
        memo_key = None
        if isinstance(policy, str):
            # Policy *instances* may carry state; only named policies
            # are safely memoizable by content.
            memo_key = (
                id(addresses),
                id(is_write) if is_write is not None else None,
                self._config_text(config),
                repr(mode),
                policy.lower(),
                seed,
                tuple(disabled_lines),
                (
                    transients.content_token
                    if transients is not None
                    else None
                ),
            )
            hit = self._memo.get(memo_key)
            if hit is not None:
                with phase("batch.memo"):
                    return _isolated(hit)
        plan = None
        if chosen == "vectorized" and len(addresses):
            plan_key = (
                id(addresses),
                id(is_write) if is_write is not None else None,
                geometry_key(config),
            )
            plan = self._plans.get(plan_key)
            if plan is None:
                plan = build_stream_plan(config, addresses, is_write)
                self._plans[plan_key] = plan
                self._pins.append((addresses, is_write))
        stats = backends.simulate_cache(
            config,
            mode,
            addresses,
            is_write,
            policy=policy,
            seed=seed,
            backend=backend,
            disabled_lines=disabled_lines,
            transients=transients,
            plan=plan,
        )
        if memo_key is not None:
            self._memo[memo_key] = _isolated(stats)
        return stats


def execute_group(
    jobs: Sequence[SimulationJob],
    backend: str = "auto",
    store_root=None,
    on_result: Callable[[RunResult], None] | None = None,
) -> list[RunResult]:
    """Run one same-trace job group with shared precomputation.

    Module-level and picklable-by-reference: this is the unit the
    session submits to worker processes.  The trace resolves once (from
    the store, the per-process spec memo, or inline), then every job
    runs through the ordinary :meth:`~repro.cpu.chip.Chip.run` with the
    group's :class:`_SharedTraceContext` as its simulation seam.

    ``on_result`` — when given — fires after each job (serial sessions
    use it for per-job progress reporting).
    """
    results: list[RunResult] = []
    if not jobs:
        return results
    trace = resolve_trace(jobs[0].trace, store_root)
    context = _SharedTraceContext()
    for job in jobs:
        chip = chip_for(job.chip)
        with phase("jobs.execute"):
            result = chip.run(
                trace,
                job.mode,
                operating_point=job.operating_point,
                backend=job.backend or backend,
                fault_map=job.fault_map,
                transients=job.transients,
                simulate=context.simulate,
            )
        results.append(result)
        if on_result is not None:
            on_result(result)
    return results
