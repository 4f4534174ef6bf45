"""The four benchmark workloads, as calls into the public ``repro`` API.

Each workload is a pair of functions.  ``<name>_body(inputs, scratch)``
is the timed body: it runs the workload on freshly created sessions and
stores and returns what the program produced.  ``<name>_outcome(inputs,
produced)`` runs after the timer has stopped and reduces that to an
:class:`Outcome`.  ``inputs`` is the variant dictionary from
``expected.json`` plus the size fields; nothing else reaches the program.

The modelled statistics are deterministic, so ``Outcome.counters`` holds
them for the identity check against the pinned values: integers exactly,
floats formatted at the repository's report precision (``Table`` renders
floats to four significant digits).  Host-side observations that vary
from run to run (latencies, scheduler attach/memo splits) go into
``Outcome.observed`` and are never pinned.

This module imports ``repro`` only inside the functions, so the worker
can time the package import as part of set-up.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import math
import pickle
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Outcome:
    """What one workload body did and produced."""

    #: Work done, in the workload's unit (see ``WORK_UNITS``).
    work: float
    #: Items attempted (words, jobs); the base of ``failed_ratio``.
    items: int
    #: Deterministic simulated outputs, compared with the pinned values.
    counters: dict
    #: Items that failed on their own (service requests not answered,
    #: or answered with payloads that differ between answers).
    failed_items: int = 0
    #: Run-dependent host observations (latencies, scheduler splits).
    observed: dict = field(default_factory=dict)
    #: Per-job payload digests (service-fleet only), for the identity
    #: check against a serial session.
    payloads: dict = field(default_factory=dict)


#: What ``work_per_s`` counts, per workload.
WORK_UNITS = {
    "reliability-mc": "codewords written+read",
    "dse-sweep": "M simulated instructions (requested jobs x trace length)",
    "die-population": "M simulated instructions (requested jobs x trace length)",
    "service-fleet": "M simulated instructions (requested jobs x trace length)",
}


def report_float(value: float) -> str:
    """A float at the repository's report precision."""
    return f"{value:.4g}"


def text_digest(text: str) -> str:
    """Short SHA-256 of a rendered report."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class ResultCollector:
    """Keeps every result a session executes.

    Passed as a :class:`~repro.engine.session.SimulationSession`'s
    ``cache``: ``get`` always misses, so the session runs exactly as it
    would without a cache, and ``put`` sees each executed job once.
    """

    def __init__(self) -> None:
        self.results: list = []

    def get(self, key: str):
        """Never a hit: the session executes every distinct job."""
        return None

    def put(self, key: str, result) -> None:
        """Keep one executed result."""
        self.results.append(result)


_CACHE_COUNTERS = ("accesses", "hits", "misses", "bypasses", "writebacks")


def result_counters(results) -> dict:
    """Summed simulated counters of ``RunResult``\\ s, as pinnable values."""
    ints: collections.Counter = collections.Counter()
    for result in results:
        ints["instructions"] += result.timing.instructions
        for label, stats in (("il1", result.il1_stats),
                             ("dl1", result.dl1_stats)):
            for name in _CACHE_COUNTERS:
                ints[f"{label}_{name}"] += getattr(stats, name)
    out = {"executed_results": len(results)}
    out.update(sorted(ints.items()))
    out["cycles"] = report_float(
        math.fsum(result.timing.cycles for result in results))
    out["energy_j"] = report_float(
        math.fsum(result.energy.total for result in results))
    return out


# --------------------------------------------------------- reliability-mc
_READ_COUNTERS = ("reads", "corrected_reads", "detected_reads",
                  "miscorrections", "undetected_errors")


def reliability_mc_body(inputs: dict, scratch: str):
    """``tab-reliability``: fault maps through the real codecs.

    Every die's :meth:`ProtectedArray.exercise` is wrapped to keep the
    array's read counters, one tuple per die in call order.
    """
    from repro.cache.edc_layer import ProtectedArray
    from repro.experiments.reliability_check import run_reliability

    per_die: list[tuple[int, ...]] = []
    exercise = ProtectedArray.exercise

    def counted_exercise(self, *args, **kwargs):
        exercise(self, *args, **kwargs)
        per_die.append(tuple(getattr(self, name) for name in _READ_COUNTERS))

    ProtectedArray.exercise = counted_exercise
    try:
        result = run_reliability(dies=inputs["dies"], seed=inputs["seed"])
    finally:
        ProtectedArray.exercise = exercise
    return result, per_die


def reliability_mc_outcome(inputs: dict, produced) -> Outcome:
    """Yields, read outcomes and in-budget cleanliness per scenario."""
    from repro.core.methodology import default_ule_geometry

    result, per_die = produced
    dies = inputs["dies"]
    counters: dict = {"report": text_digest(result.body),
                      "exercised_dies": len(per_die)}
    # ``run_reliability`` exercises the dies of one scenario after the
    # other, in sorted scenario order.
    for index, (scenario, data) in enumerate(sorted(result.data.items())):
        for name in ("dies", "usable", "exercised_ok", "silent_errors"):
            counters[f"{scenario}.{name}"] = int(data[name])
        for name in ("empirical_yield", "analytic_data_yield",
                     "yield_baseline", "yield_proposed"):
            counters[f"{scenario}.{name}"] = report_float(data[name])
        reads = per_die[index * dies:(index + 1) * dies]
        for position, name in enumerate(_READ_COUNTERS):
            counters[f"{scenario}.{name}"] = sum(die[position] for die in reads)
        # Every die that fits the hard-fault budget must read back
        # without a silent (or detected) error.
        counters[f"{scenario}.in_budget_clean"] = (
            data["exercised_ok"] == data["usable"]
        )
    # Each die writes then reads every data word once, per scenario.
    words = 2 * len(result.data) * dies * default_ule_geometry().data_words
    return Outcome(work=float(words), items=words, counters=counters)


# -------------------------------------------------------------- dse-sweep
def dse_sweep_body(inputs: dict, scratch: str):
    """A halton-sampled exploration campaign in a serial session."""
    from repro.engine.session import SimulationSession
    from repro.explore import ExplorationCampaign, default_space

    collector = ResultCollector()
    campaign = ExplorationCampaign(
        space=default_space(),
        sampler="halton",
        samples=inputs["samples"],
        trace_length=inputs["trace_length"],
        seed=inputs["seed"],
    )
    with SimulationSession(jobs=1, cache=collector) as session:
        result = campaign.run(session=session)
        frontier = result.frontier()
        report = result.render_report(top=len(result.outcomes))
    return result, frontier, report, session.stats, collector.results


def dse_sweep_outcome(inputs: dict, produced) -> Outcome:
    """Campaign shape, session counters, report and result counters."""
    result, frontier, report, stats, results = produced
    counters = {
        "candidates": len(result.outcomes),
        "infeasible": len(result.infeasible),
        "duplicates": result.duplicates,
        "frontier": len(frontier),
        "requested": stats.requested,
        "executed": stats.executed,
        "deduplicated": stats.deduplicated,
        "report": text_digest(report),
    }
    counters.update(result_counters(results))
    minstr = stats.requested * inputs["trace_length"] / 1e6
    return Outcome(work=minstr, items=stats.requested, counters=counters)


# --------------------------------------------------------- die-population
def die_population_body(inputs: dict, scratch: str):
    """A ``faults`` die population through ``run_population``."""
    from repro.engine.session import SimulationSession, use_session
    from repro.experiments.population_study import run_population

    collector = ResultCollector()
    with SimulationSession(jobs=1, cache=collector) as session:
        with use_session(session):
            result = run_population(
                dies=inputs["dies"],
                trace_length=inputs["trace_length"],
                seed=inputs["seed"],
                scenario=inputs["scenario"],
                chip=inputs["chip"],
            )
    return result, session.stats, collector.results


def die_population_outcome(inputs: dict, produced) -> Outcome:
    """Population shape, session counters, report and result counters."""
    result, stats, results = produced
    population = result.data["population"]
    meta = population["meta"]
    counters = {
        "dies": meta["dies"],
        "unique_fault_maps": meta["unique_fault_maps"],
        "usable_dies": round(population["sampled_yield"] * meta["dies"]),
        "fault_histogram": population["fault_histogram"],
        "requested": stats.requested,
        "executed": stats.executed,
        "deduplicated": stats.deduplicated,
        "report": text_digest(result.body),
    }
    counters.update(result_counters(results))
    minstr = stats.requested * inputs["trace_length"] / 1e6
    return Outcome(work=minstr, items=stats.requested, counters=counters)


# ---------------------------------------------------------- service-fleet
def fleet_requests(inputs: dict) -> dict[str, list]:
    """The two clients' overlapping request lists, drawn from the seed."""
    from repro.service.requests import JobRequest
    from repro.workloads.mediabench import BENCHMARKS

    per_client = inputs["requests_per_client"]
    overlap = inputs["overlap"]
    rng = random.Random(inputs["seed"])
    space = [
        (benchmark, mode, scenario, chip, trace_seed)
        for benchmark in sorted(spec.name for spec in BENCHMARKS)
        for mode in ("ule", "hp")
        for scenario in ("A", "B")
        for chip in ("proposed", "baseline")
        for trace_seed in range(1, 6)
    ]
    drawn = rng.sample(space, 2 * per_client - overlap)
    pool = [
        JobRequest(
            benchmark=benchmark,
            trace_length=inputs["trace_length"],
            seed=trace_seed,
            mode=mode,
            scenario=scenario,
            chip=chip,
        )
        for benchmark, mode, scenario, chip, trace_seed in drawn
    ]
    lists = {
        "client-a": pool[:per_client],
        "client-b": pool[per_client - overlap:],
    }
    for requests in lists.values():
        rng.shuffle(requests)
    return lists


def _drive_fleet(
    handle, lists: dict[str, list], window: int, requested: collections.Counter
) -> tuple[dict[str, bytes], list[float], list[str], int]:
    """Closed loop: each client sends its list ``window`` jobs at a time.

    Every client is one thread.  It submits the next ``window`` requests,
    waits on the progress stream until all of them are done, fetches the
    payloads, and only then submits the next window.  Returns the
    payloads by key, the per-job submit-to-done latencies in ms, any
    client errors, and the number of requests not answered with a
    consistent payload (every request of a failed window, and every one
    never reached); ``requested`` counts the answers of each key.
    """
    from repro.service.client import ServiceClient

    payloads: dict[str, bytes] = {}
    latencies: list[float] = []
    errors: list[str] = []
    answered = 0
    lock = threading.Lock()

    def drive(client: ServiceClient, requests: list) -> None:
        nonlocal answered
        for start in range(0, len(requests), window):
            batch = requests[start:start + window]
            try:
                submitted = time.perf_counter()
                keys = client.submit_all(batch)
                pending = set(keys)
                done_at = {}
                with contextlib.closing(client.stream(keys)) as events:
                    for event in events:
                        key = event.get("key")
                        if key in pending and event["state"] in (
                            "done", "failed"
                        ):
                            pending.discard(key)
                            done_at[key] = time.perf_counter()
                            if event["state"] == "failed":
                                raise RuntimeError(f"job {key[:12]} failed")
                if pending:
                    raise RuntimeError(f"{len(pending)} jobs never finished")
                fetched = {key: client.result_bytes(key) for key in set(keys)}
            except Exception as error:  # recorded as failed jobs
                with lock:
                    errors.append(f"{type(error).__name__}: {error}")
                continue
            with lock:
                for key in keys:
                    requested[key] += 1
                    latencies.append((done_at[key] - submitted) * 1e3)
                    payloads.setdefault(key, fetched[key])
                    if payloads[key] != fetched[key]:
                        errors.append(f"job {key[:12]}: payload changed")
                    else:
                        answered += 1

    threads = [
        threading.Thread(
            target=drive,
            args=(ServiceClient(handle.host, handle.port, tenant=tenant),
                  requests),
        )
        for tenant, requests in lists.items()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=150.0)
    with lock:
        if any(thread.is_alive() for thread in threads):
            errors.append("clients still running after 150 s")
        unanswered = sum(len(requests) for requests in lists.values()) - (
            answered)
        return payloads, latencies, errors, unanswered


def service_fleet_body(inputs: dict, scratch: str):
    """Two closed-loop clients against an in-process service, twice.

    Phase 1 starts on an empty store and writes it; phase 2 starts a
    fresh scheduler on the same store root and replays both lists, so
    every answer is read back from the store.
    """
    from repro.service.api import serve_in_thread
    from repro.service.scheduler import ServiceScheduler
    from repro.service.store import ShardedResultStore

    lists = fleet_requests(inputs)
    requested = sum(len(requests) for requests in lists.values())
    store_root = f"{scratch}/store"
    phases = []
    key_requests: collections.Counter = collections.Counter()
    for phase in ("write", "read"):
        scheduler = ServiceScheduler(
            ShardedResultStore(store_root),
            workers=inputs["workers"],
            queue_capacity=4 * requested,
        )
        scheduler.start()
        try:
            handle = serve_in_thread(
                scheduler, poll_interval=inputs["poll_interval"]
            )
            try:
                payloads, latencies, errors, unanswered = _drive_fleet(
                    handle, lists, inputs["window"], key_requests
                )
            finally:
                handle.close()
        finally:
            scheduler.stop()
        phases.append((phase, scheduler.stats, payloads, latencies, errors,
                       unanswered))
    return phases, key_requests


def service_fleet_outcome(inputs: dict, produced) -> Outcome:
    """Both phases' payloads, scheduler counters and latencies."""
    phases, key_requests = produced
    requested = 2 * sum(
        len(requests) for requests in fleet_requests(inputs).values())
    write_payloads = phases[0][2]
    results = [pickle.loads(write_payloads[key])
               for key in sorted(write_payloads)]
    failed = 0
    observed: dict = {"errors": [], "key_requests": dict(key_requests)}
    digests: dict[str, str] = {}
    for phase, stats, payloads, latencies, errors, unanswered in phases:
        failed += unanswered
        observed["errors"].extend(errors[:5])
        for key, payload in payloads.items():
            digest = hashlib.sha256(payload).hexdigest()
            if digests.setdefault(key, digest) != digest:
                failed += 1
                observed["errors"].append(f"job {key[:12]}: phases differ")
        observed[f"{phase}.latencies_ms"] = latencies
        observed[f"{phase}.scheduler"] = stats.to_dict()
    counters = {
        "requested": requested,
        "distinct": len(digests),
        "write.executed": phases[0][1].executed,
        "write.failed": phases[0][1].failed,
        "read.executed": phases[1][1].executed,
        "read.served_store": phases[1][1].served_store,
    }
    counters.update(result_counters(results))
    minstr = requested * inputs["trace_length"] / 1e6
    return Outcome(
        work=minstr,
        items=requested,
        counters=counters,
        failed_items=failed,
        observed=observed,
        payloads=digests,
    )


def serial_reference(inputs: dict) -> dict[str, str]:
    """Payload digests a serial library session gives the fleet's jobs."""
    from repro.engine.jobs import job_key
    from repro.engine.session import SimulationSession
    from repro.service.requests import resolve

    jobs = {}
    for requests in fleet_requests(inputs).values():
        for request in requests:
            job = resolve(request)
            jobs[job_key(job)] = job
    keys = sorted(jobs)
    with SimulationSession(jobs=1) as session:
        results = session.run_jobs([jobs[key] for key in keys])
    return {
        key: hashlib.sha256(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        ).hexdigest()
        for key, result in zip(keys, results)
    }


#: Workload name -> (timed body, untimed reduction to an Outcome).
WORKLOADS: dict[str, tuple[Callable, Callable[..., Outcome]]] = {
    "reliability-mc": (reliability_mc_body, reliability_mc_outcome),
    "dse-sweep": (dse_sweep_body, dse_sweep_outcome),
    "die-population": (die_population_body, die_population_outcome),
    "service-fleet": (service_fleet_body, service_fleet_outcome),
}
