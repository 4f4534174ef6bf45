"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so every repetition
pays what a command-line user pays: interpreter start, package import,
scenario chip construction, and cold modelled caches, sessions and
stores.  It prints one JSON record on its last stdout line:

``setup_s``
    From the first line of this script to the scenario A/B chips being
    built (``import repro`` + ``core.evaluation.cached_chips``).
``wall_s``
    The workload body.
``peak_rss_mb``
    The process's peak resident set size.

plus the workload's work, items, counters and observations, the traced
per-layer summary when ``--trace 1``, and the serial reference digests
when ``--reference 1`` (service-fleet).

Usage (normally run by ``run.py``)::

    python3 perfbench/worker.py --workload dse-sweep \\
        --inputs '{"samples": 60, ...}' --scratch DIR [--trace 1]
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The package modules every workload's set-up imports.  One list for
#: all workloads keeps ``setup_s`` comparable between them.
SETUP_MODULES = (
    "repro.core.evaluation",
    "repro.explore",
    "repro.faults",
    "repro.experiments.reliability_check",
    "repro.experiments.population_study",
    "repro.service.api",
    "repro.service.client",
)


def provenance() -> dict:
    """Versions and engine identity of this repetition."""
    import platform

    import numpy
    import scipy
    from repro.engine.jobs import ENGINE_CACHE_VERSION, _code_fingerprint

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "engine_cache_version": ENGINE_CACHE_VERSION,
        "engine_fingerprint": _code_fingerprint()[:16],
    }


def main(argv=None) -> int:
    """Set up, run the body, print the record."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, help="JSON object")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    inputs = json.loads(args.inputs)

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    for module in SETUP_MODULES:
        importlib.import_module(module)
    imported = time.perf_counter()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.record("import", imported - _STARTED)
    from repro.core import evaluation
    from repro.core.scenarios import Scenario

    for scenario in (Scenario.A, Scenario.B):
        evaluation.cached_chips(scenario)
    setup_s = time.perf_counter() - _STARTED

    from workloads import WORKLOADS, serial_reference

    body, reduce = WORKLOADS[args.workload]
    started = time.perf_counter()
    produced = body(inputs, args.scratch)
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    trace = tracer.summary() if tracer is not None else None
    outcome = reduce(inputs, produced)

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "work": outcome.work,
        "items": outcome.items,
        "failed_items": outcome.failed_items,
        "counters": outcome.counters,
        "observed": outcome.observed,
        "payloads": outcome.payloads,
        "provenance": provenance(),
    }
    if trace is not None:
        record["trace"] = trace
    if args.reference:
        record["reference"] = serial_reference(inputs)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
