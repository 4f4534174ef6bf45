"""Simulation job descriptions and the per-process execution worker.

A :class:`SimulationJob` is a fully self-contained, picklable description
of one (chip, trace, mode, operating point) run — the unit the
:class:`repro.engine.session.SimulationSession` deduplicates, dispatches
across processes and memoizes on disk.

Traces are usually referenced symbolically (:class:`TraceSpec`) so that
worker processes regenerate them locally instead of shipping megabytes of
arrays through pickling; an inline :class:`repro.cpu.trace.Trace` is also
accepted for ad-hoc streams.  Chips travel as :class:`ChipConfig` (pure
frozen dataclasses) and are rebuilt — and memoized — per process.

``job_key`` derives a content hash over everything that determines the
result.  The simulation *backend* is deliberately excluded: backends are
bit-identical by contract (enforced by ``tests/engine``), so results are
shared across backend choices.
"""

from __future__ import annotations

import hashlib
import pathlib
from dataclasses import dataclass
from functools import lru_cache

from repro.cpu.chip import Chip, ChipConfig, RunResult
from repro.cpu.trace import Trace
from repro.faults.maps import DieFaultMap
from repro.workloads.store import StoredTraceRef
from repro.tech.operating import Mode, OperatingPoint
from repro.transients.spec import TransientSpec
from repro.util.canonical import canonical_text
from repro.util.memo import IdentityMemo
from repro.util.profiling import phase

#: Bump when the key schema itself changes.  v4: jobs carry an optional
#: soft-error injection spec (``SimulationJob.transients``), tokenized
#: by content with *null* specs (zero acceleration or zero upset rate)
#: collapsing onto the spec-less key — mirroring v3's fault-map rule,
#: where fault-free maps share keys with map-less jobs.
ENGINE_CACHE_VERSION = 4


@lru_cache(maxsize=1)
def _code_fingerprint() -> str:
    """Digest of the ``repro`` package sources.

    Simulation results depend on the model code, not just the job
    description — tuning a calibration constant must not be served a
    stale on-disk result.  Folding a source digest into every job key
    makes cache invalidation automatic on any package edit.
    """
    root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class TraceSpec:
    """A regenerable trace: registered benchmark name + length + seed."""

    benchmark: str
    length: int
    seed: int


@dataclass(frozen=True)
class SimulationJob:
    """One (chip, trace, mode, operating point) simulation request.

    Attributes:
        chip: the chip configuration to run.
        trace: a :class:`TraceSpec` (regenerated in the worker), an
            inline :class:`Trace`, a store reference, or any workload
            :class:`~repro.workloads.source.TraceSource` (resolved to
            one of the former via ``job_trace()`` — the session
            normalizes sources before dispatch so nothing un-picklable
            reaches a pool).
        mode: operating mode of the run.
        operating_point: optional override of the mode's paper default.
        backend: simulation backend; None defers to the session default.
        fault_map: one die's disabled-line map
            (:class:`repro.faults.maps.DieFaultMap`); None simulates a
            fault-free die.  Keyed by *content*, so identical dies of a
            population deduplicate and a fault-free map shares its key
            with a map-less job.
        transients: soft-error injection spec
            (:class:`repro.transients.spec.TransientSpec`); None (or a
            *null* spec that can never strike) runs without injection.
            Keyed by content; null specs collapse onto the spec-less
            key, so disabled-injection jobs share cached results with
            plain runs.
    """

    chip: ChipConfig
    trace: TraceSpec | Trace | StoredTraceRef
    mode: Mode
    operating_point: OperatingPoint | None = None
    backend: str | None = None
    fault_map: DieFaultMap | None = None
    transients: TransientSpec | None = None


def resolve_source(trace):
    """Collapse a workload :class:`~repro.workloads.source.TraceSource`
    into its job payload; plain trace values pass through.

    Duck-typed on ``job_trace`` so the engine never imports the source
    layer: a :class:`~repro.workloads.source.SyntheticSource` resolves
    to the classic :class:`TraceSpec` (byte-identical keys with the
    pre-source-layer engine), ingested and mix sources resolve to their
    inline :class:`Trace`.
    """
    job_trace = getattr(trace, "job_trace", None)
    return job_trace() if callable(job_trace) else trace


def _trace_token(trace) -> str:
    """Canonical text for the trace part of a job key.

    Inline traces are keyed by name *and* content digest
    (:meth:`repro.cpu.trace.Trace.content_digest`), so content-named
    slices of a recurring phase — :meth:`Trace.slice`'s default — map
    to the same key and deduplicate in the session.  A
    :class:`~repro.workloads.store.StoredTraceRef` produces the *same*
    token as the inline trace it points to: swapping a trace for its
    store reference (what the session does before worker dispatch)
    never changes a job key.  Trace *sources* tokenize as whatever
    they resolve to, so a source-built job deduplicates against its
    plain-trace twin.
    """
    trace = resolve_source(trace)
    if isinstance(trace, TraceSpec):
        return repr(trace)
    if isinstance(trace, StoredTraceRef):
        return f"Trace({trace.name!r}, n={trace.length}, {trace.digest})"
    return (
        f"Trace({trace.name!r}, n={len(trace)}, {trace.content_digest()})"
    )


def _canonical(value) -> str:
    """Deterministic content text for job-key hashing.

    ``repr`` alone is not stable across interpreter invocations: set
    iteration order follows randomized string hashing (PYTHONHASHSEED),
    so ``repr(frozenset({Mode.HP, Mode.ULE}))`` flips between runs and
    would silently defeat the cross-invocation disk cache.  The shared
    canonical walker (:mod:`repro.util.canonical` — the same machinery
    that keys sweep candidates via ``CacheConfig.canonical``) recurses
    through dataclasses and containers, sorting unordered ones.
    """
    return canonical_text(value)


#: Canonical text for a chip configuration.  The canonical walk
#: recursively includes every numeric parameter of the cache geometry,
#: bitcells, protection schemes and timing model, so it is a faithful —
#: and invocation-stable — content description.  The job-key token
#: memos are keyed by identity (see :mod:`repro.util.memo`): sweeps
#: hash hundreds of jobs over a handful of config objects, and the walk
#: over a full ChipConfig costs near a millisecond.
_chip_token = IdentityMemo(_canonical, limit=64)

#: Canonical text for the operating-point part of a job key (one
#: object per mode in a population or sweep).
_operating_point_token = IdentityMemo(_canonical, limit=64)


def _fault_map_text(fault_map: DieFaultMap | None) -> str:
    """Canonical text for the fault-map part of a job key.

    Normalized first, and collapsed to ``None`` when fault-free: the
    many clean dies of a population — and plain non-population jobs —
    all share one key, which is what makes N-die runs cheap.
    """
    if fault_map is None or fault_map.is_fault_free:
        return _canonical(None)
    return _canonical(fault_map.normalized())


#: Memoized :func:`_fault_map_text`: a die's jobs share one map object.
_fault_map_token = IdentityMemo(_fault_map_text, limit=256)


def _transient_text(spec: TransientSpec | None) -> str:
    """Canonical text for the transient-spec part of a job key.

    A *null* spec (zero acceleration or zero nominal upset rate) can
    never inject anything, so it collapses to ``None``: disabled-
    injection jobs share keys — and cached results — with plain runs,
    the same contract fault-free fault maps follow.
    """
    return _canonical(TransientSpec.effective(spec))


#: Memoized :func:`_transient_text` (a batch shares one spec object).
_transient_token = IdentityMemo(_transient_text, limit=64)


def job_key(job: SimulationJob) -> str:
    """Content hash identifying a job's result (backend-independent)."""
    text = "\x1f".join(
        (
            f"engine-cache-v{ENGINE_CACHE_VERSION}",
            _code_fingerprint(),
            _chip_token(job.chip),
            _trace_token(job.trace),
            repr(job.mode),
            _operating_point_token(job.operating_point),
            _fault_map_token(job.fault_map),
            _transient_token(job.transients),
        )
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------- workers
#: Per-process memos: identical jobs in one batch share chip construction
#: and trace generation, whichever process they land in.  The trace memo
#: is bounded (traces are megabytes; sweeps over lengths/seeds must not
#: pin every generated trace for the process lifetime) with FIFO
#: eviction — batches reuse traces generated moments before.
_CHIP_MEMO: dict[str, Chip] = {}
_TRACE_MEMO: dict[TraceSpec, Trace] = {}
_TRACE_MEMO_LIMIT = 32


def chip_for(config: ChipConfig) -> Chip:
    """Build (and memoize per process) the chip of a configuration."""
    key = _chip_token(config)
    chip = _CHIP_MEMO.get(key)
    if chip is None:
        chip = Chip(config)
        _CHIP_MEMO[key] = chip
    return chip


def trace_for(trace) -> Trace:
    """Resolve a job's trace, regenerating specs at most once."""
    trace = resolve_source(trace)
    if isinstance(trace, Trace):
        return trace
    if isinstance(trace, StoredTraceRef):
        # Store-backed refs resolve through the batch layer's bounded
        # per-process memo (lazy import: batch imports this module).
        from repro.engine.batch import resolve_trace

        return resolve_trace(trace)
    resolved = _TRACE_MEMO.get(trace)
    if resolved is None:
        from repro.workloads.mediabench import generate_trace

        resolved = generate_trace(
            trace.benchmark, length=trace.length, seed=trace.seed
        )
        while len(_TRACE_MEMO) >= _TRACE_MEMO_LIMIT:
            _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
        _TRACE_MEMO[trace] = resolved
    return resolved


def execute_job(job: SimulationJob, backend: str = "auto") -> RunResult:
    """Run one job to completion (module-level: picklable for pools)."""
    chip = chip_for(job.chip)
    trace = trace_for(job.trace)
    with phase("jobs.execute"):
        return chip.run(
            trace,
            job.mode,
            operating_point=job.operating_point,
            backend=job.backend or backend,
            fault_map=job.fault_map,
            transients=job.transients,
        )
