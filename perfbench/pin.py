#!/usr/bin/env python3
"""Regenerate ``expected.json``: the benchmark's inputs and pinned outputs.

For every size (``full``, ``tiny``) and workload this fixes the size
inputs and a list of variants.  ``run.py --seed N`` runs variant
``N mod len(variants)``.  Each variant is run once on the current code
and its simulated counters are pinned; the run must pass the checks
that do not depend on pins (in-budget dies read back cleanly, every
service payload equals the serial session's).

die-population variants are the first seeds whose population holds
the median number of distinct fault maps, so every variant simulates
the same number of distinct dies and its host time does not depend on
which seed was drawn.  The other workloads' cost does not depend on
the seed, so their variants take consecutive seeds.

Run only when the simulated model is meant to change::

    python3 perfbench/pin.py [--size full|tiny]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

#: Size inputs per size and workload.
SIZES = {
    "full": {
        "reliability-mc": {"dies": 60},
        "dse-sweep": {"samples": 40, "trace_length": 20_000},
        "die-population": {"dies": 400, "trace_length": 20_000,
                           "scenario": "A", "chip": "proposed"},
        "service-fleet": {"requests_per_client": 150, "overlap": 50,
                          "trace_length": 20_000, "window": 8,
                          "poll_interval": 0.005},
    },
    "tiny": {
        "reliability-mc": {"dies": 3},
        "dse-sweep": {"samples": 4, "trace_length": 2_000},
        "die-population": {"dies": 40, "trace_length": 2_000,
                           "scenario": "A", "chip": "proposed"},
        "service-fleet": {"requests_per_client": 6, "overlap": 2,
                          "trace_length": 2_000, "window": 4,
                          "poll_interval": 0.005},
    },
}

#: Variants per size.
VARIANTS = {"full": 8, "tiny": 2}

#: First seed of every variant list.
FIRST_SEED = 1


def population_seeds(size: dict, count: int) -> list[int]:
    """Seeds whose populations hold the median number of distinct maps."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from repro.faults import scenario_population_study

    def distinct_maps(seed: int) -> int:
        study = scenario_population_study(
            size["scenario"], chip=size["chip"], dies=size["dies"],
            trace_length=size["trace_length"], seed=seed)
        return len(
            {die_map.content_digest() for die_map in study.sample_maps()})

    scanned = {seed: distinct_maps(seed)
               for seed in range(FIRST_SEED, FIRST_SEED + 8 * count)}
    target = statistics.median_low(scanned.values())
    seed = FIRST_SEED + 8 * count
    while sum(n == target for n in scanned.values()) < count:
        scanned[seed] = distinct_maps(seed)
        seed += 1
    return [seed for seed, n in scanned.items() if n == target][:count]


def pin_variant(workload: str, inputs: dict, scratch: pathlib.Path) -> dict:
    """Run one variant once and return its pinned form."""
    child_inputs = dict(inputs)
    if workload == run.SERVICE:
        child_inputs["workers"] = run.service_workers()
    record = run.run_child(
        workload, child_inputs, scratch, traced=False,
        reference=workload == run.SERVICE)
    if "error" in record:
        raise SystemExit(f"{workload}: {record['error']}")
    problems = run.invariant_problems(workload, record["counters"])
    problems += record["observed"].get("errors", [])
    if workload == run.SERVICE and record["payloads"] != record["reference"]:
        problems.append("service payloads differ from the serial session")
    if problems or record["failed_items"]:
        raise SystemExit(f"{workload}: refusing to pin: {problems}")
    return {"items": record["items"], "counters": record["counters"]}


def main(argv=None) -> int:
    """Pin the chosen sizes into ``expected.json``."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=tuple(SIZES), action="append")
    parser.add_argument("--workload", choices=run.WORKLOAD_NAMES,
                        action="append")
    args = parser.parse_args(argv)
    path = HERE / "expected.json"
    expected = run.load_expected(path) if path.exists() else {}
    scratch = run.ROOT / ".perfbench_tmp" / "pin"
    for size in args.size or tuple(SIZES):
        for workload in args.workload or run.WORKLOAD_NAMES:
            inputs = SIZES[size][workload]
            count = VARIANTS[size]
            if workload == "die-population":
                seeds = population_seeds(inputs, count)
            else:
                seeds = list(range(FIRST_SEED, FIRST_SEED + count))
            variants = []
            for seed in seeds:
                variant_inputs = dict(inputs, seed=seed)
                pinned = pin_variant(workload, variant_inputs, scratch)
                variants.append({"inputs": {"seed": seed}, **pinned})
                print(f"{size} {workload} seed {seed}: {pinned['items']} "
                      "items pinned", file=sys.stderr)
            expected.setdefault(size, {})[workload] = {
                "inputs": inputs, "variants": variants}
            path.write_text(
                json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
