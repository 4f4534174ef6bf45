#!/usr/bin/env python3
"""End-to-end host-time benchmark of the ``repro`` package.

Runs one or more workloads for a fixed measuring time.  Every
repetition is a fresh interpreter (``worker.py``) that imports the
package, builds the scenario chips and runs the workload body on cold
sessions and stores, as a command-line user does.  Repetitions run one
after another until ``--seconds`` is used up (at least ``--min-reps``),
and each metric is the median over them.

Every repetition's simulated outputs are checked against the values
pinned in ``expected.json`` (integers exactly, floats at report
precision); service-fleet payloads are also checked byte for byte
against a serial library session.  A mismatch counts the repetition's
items as failed, sets ``correct`` to false and makes the exit code 1.

Usage::

    python3 perfbench/run.py --workload dse-sweep --seed 3 --seconds 30
    python3 perfbench/run.py --workload all --size tiny --seconds 1
    python3 perfbench/run.py --workload service-fleet --trace 1
    python3 perfbench/run.py --workload dse-sweep --record before.json
    python3 perfbench/run.py --compare before.json after.json

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` untraced, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, per_layer_metrics  # noqa: E402
from workloads import WORK_UNITS  # noqa: E402

WORKLOAD_NAMES = tuple(WORK_UNITS)
SERVICE = "service-fleet"
#: A repetition that takes longer than this is killed and fails.
CHILD_TIMEOUT_S = 150.0

#: End-to-end metrics reported for every workload (BENCHMARK.json).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ------------------------------------------------------------- inputs
def load_expected(path: pathlib.Path) -> dict:
    """The pinned inputs and outputs."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def select_variant(expected: dict, size: str, workload: str, seed: int):
    """(variant index, inputs, pinned variant) for a seed."""
    spec = expected[size][workload]
    variants = spec["variants"]
    index = seed % len(variants)
    inputs = dict(spec["inputs"])
    inputs.update(variants[index]["inputs"])
    if workload == SERVICE:
        inputs["workers"] = service_workers()
    return index, inputs, variants[index]


def service_workers() -> int:
    """Service worker threads: two, or fewer on a smaller machine."""
    return min(2, os.cpu_count() or 1)


# ------------------------------------------------------------ children
def child_env(scratch: pathlib.Path) -> dict:
    """Environment of a repetition: all scratch files in the checkout."""
    env = dict(os.environ)
    env["TMPDIR"] = str(scratch)
    env["REPRO_TRACE_STORE"] = str(scratch / "traces")
    env.pop("PYTHONPATH", None)
    return env


def run_child(workload, inputs, scratch, traced, reference):
    """One repetition; returns its record or ``{"error": ...}``."""
    scratch.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--inputs", json.dumps(inputs, sort_keys=True),
        "--scratch", str(scratch),
        "--trace", "1" if traced else "0",
        "--reference", "1" if reference else "0",
    ]
    started = time.perf_counter()
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(scratch),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        record = {"error": f"repetition exceeded {CHILD_TIMEOUT_S:.0f} s"}
    else:
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            tail = done.stderr.strip().splitlines()[-3:]
            record = {
                "error": f"worker exit {done.returncode}: " + " | ".join(tail)
            }
        else:
            record = json.loads(lines[-1])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["duration_s"] = time.perf_counter() - started
    record["traced"] = traced
    return record


# ------------------------------------------------------------- checks
def counter_mismatches(expected: dict, actual: dict) -> list[str]:
    """Every pinned counter whose value differs."""
    problems = []
    for name in sorted(set(expected) | set(actual)):
        want = expected.get(name, "<missing>")
        got = actual.get(name, "<missing>")
        if want != got:
            problems.append(f"{name}: pinned {want!r}, got {got!r}")
    return problems


def invariant_problems(workload: str, counters: dict) -> list[str]:
    """Checks that hold whatever the pinned values say."""
    problems = []
    if workload == "reliability-mc":
        for name, value in counters.items():
            if name.endswith(".in_budget_clean") and value is not True:
                problems.append(f"{name}: an in-budget die read wrongly")
            if name.endswith(".silent_errors"):
                scenario = name.split(".")[0]
                reads = (counters.get(f"{scenario}.miscorrections", 0)
                         + counters.get(f"{scenario}.undetected_errors", 0))
                if reads != value:
                    problems.append(f"{name}: {value}, but the arrays "
                                    f"counted {reads} silent reads")
    if workload == SERVICE and counters.get("write.failed"):
        problems.append(f"{counters['write.failed']} service jobs failed")
    return problems


def check_rep(workload, record, pinned, reference) -> tuple[int, int, list]:
    """(attempted, failed, problems) of one repetition."""
    items = pinned["items"]
    if "error" in record:
        return items, items, [record["error"]]
    problems = counter_mismatches(pinned["counters"], record["counters"])
    problems += invariant_problems(workload, record["counters"])
    failed = record["failed_items"]
    problems += record.get("observed", {}).get("errors", [])
    if workload == SERVICE and reference is not None:
        payloads = record["payloads"]
        wrong = sorted(
            key for key in reference if payloads.get(key) != reference[key]
        )
        if wrong:
            problems.append(
                f"{len(wrong)} payloads differ from the serial session"
            )
        # Every request answered with a wrong payload is a failed job.
        requests = record["observed"]["key_requests"]
        failed += sum(requests.get(key, 0) for key in wrong)
    if problems and not failed:
        failed = record["items"]
    return record["items"], min(failed, record["items"]), problems


# ------------------------------------------------------------ metrics
def end_to_end(workload, reps) -> dict:
    """End-to-end metrics (medians over untraced repetitions)."""
    good = [r for r in reps if "error" not in r and not r["traced"]]
    if not good:
        return {}
    values = {
        "setup_s": [r["setup_s"] for r in good],
        "wall_s": [r["wall_s"] for r in good],
        "work_per_s": [r["work"] / r["wall_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    return {
        name: {"value": median(values[name]), "unit": unit,
               "samples": len(values[name])}
        for name, unit in END_TO_END
    }


def named_metrics(workload, reps, attempted, failed) -> dict:
    """Service latencies and ``failed_ratio`` (printed, not gated)."""
    good = [r for r in reps if "error" not in r and not r["traced"]]
    out = {}
    if workload == SERVICE and good:
        for phase, label in (("write", "job"), ("read", "replay")):
            pooled = [
                value for r in good
                for value in r["observed"][f"{phase}.latencies_ms"]
            ]
            if pooled:
                for q in (50, 95):
                    out[f"{label}_latency_p{q}_ms"] = (
                        percentile(pooled, q), "ms", len(pooled))
    out["failed_ratio"] = (failed / max(attempted, 1), "ratio", attempted)
    return out


def per_layer(reps) -> dict:
    """Per-layer metrics: medians over the traced repetitions."""
    traced = [r for r in reps if "error" not in r and r["traced"]]
    plain = [r for r in reps if "error" not in r and not r["traced"]]
    if not traced:
        return {}
    rows = []
    for record in traced:
        summary = record["trace"]
        counts = summary["counts"]
        row = {}
        self_total = 0.0
        for layer in LAYERS:
            calls, inclusive, own = summary["layers"][layer]
            row[f"{layer}.calls"] = calls
            row[f"{layer}.s"] = inclusive
            row[f"{layer}.self_s"] = own
            self_total += own
        for name, _unit, _better in per_layer_metrics():
            if name not in row:
                row[name] = counts.get(name, 0)
        session = sum(counts.get(f"engine.session.{k}", 0) for k in (
            "executed", "memo_hits", "deduplicated", "disk_hits"))
        executed = counts.get("engine.session.executed", 0)
        row["engine.session.executed_ratio"] = (
            executed / session if session else 0.0)
        observed = record["observed"]
        scheduler = {"executed": 0, "served_store": 0, "served_memo": 0,
                     "attached": 0, "submitted": 0}
        for phase in ("write", "read"):
            stats = observed.get(f"{phase}.scheduler", {})
            for key in scheduler:
                scheduler[key] += stats.get(key, 0)
        for key in ("executed", "served_store", "served_memo"):
            row[f"service.scheduler.{key}"] = scheduler[key]
        saved = (scheduler["served_store"] + scheduler["served_memo"]
                 + scheduler["attached"])
        row["service.scheduler.dedup_ratio"] = (
            saved / scheduler["submitted"] if scheduler["submitted"] else 0.0)
        runs = executed + scheduler["executed"]
        row["engine.vectorized.runs_per_executed_job"] = (
            row["engine.vectorized.calls"] / runs if runs else 0.0)
        waits = summary["samples"].get("service.queue.wait_ms", [])
        row["service.queue.wait_ms_p50"] = percentile(waits, 50) if waits else 0.0
        row["service.queue.wait_ms_p95"] = percentile(waits, 95) if waits else 0.0
        row["unattributed_s"] = (
            record["setup_s"] + record["wall_s"] - self_total)
        rows.append(row)
    overhead = 0.0
    if plain:
        overhead = (median([r["wall_s"] for r in traced])
                    - median([r["wall_s"] for r in plain]))
    metrics = {}
    for name, unit, _better in per_layer_metrics():
        if name == "trace.overhead_s":
            value = overhead
        else:
            value = median([row[name] for row in rows])
        metrics[name] = {"value": value, "unit": unit,
                         "samples": len(rows)}
    return metrics


# ---------------------------------------------------------- a workload
def run_workload(args, expected, workload) -> dict:
    """Repeat one workload for the measuring time; check and reduce."""
    index, inputs, pinned = select_variant(
        expected, args.size, workload, args.seed)
    scratch_root = ROOT / ".perfbench_tmp" / f"{os.getpid()}-{workload}"
    reps = []
    reference = None
    attempted = failed = 0
    problems: list[str] = []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 0
        want_reference = workload == SERVICE and reference is None
        record = run_child(
            workload, inputs, scratch_root / f"rep-{len(reps)}",
            traced=traced, reference=want_reference)
        if want_reference and "reference" in record:
            reference = record.pop("reference")
        reps.append(record)
        n_items, n_failed, rep_problems = check_rep(
            workload, record, pinned, reference)
        attempted += n_items
        failed += n_failed
        problems += [f"rep {len(reps) - 1}: {p}" for p in rep_problems]
        elapsed = time.perf_counter() - started
        if len(reps) >= args.min_reps and (
            elapsed + record["duration_s"] > args.seconds
        ):
            break
    shutil.rmtree(scratch_root, ignore_errors=True)
    try:
        scratch_root.parent.rmdir()  # only when no other run is using it
    except OSError:
        pass
    provenance = next(
        (r["provenance"] for r in reps if "provenance" in r), {})
    return {
        "workload": workload,
        "seed": args.seed,
        "variant": index,
        "size": args.size,
        "inputs": inputs,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "provenance": provenance,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not problems,
        "problems": problems[:20],
        "metrics": per_layer(reps) if args.trace else end_to_end(
            workload, reps),
        "named": named_metrics(workload, reps, attempted, failed),
        "repetitions": [
            {k: r.get(k) for k in ("setup_s", "wall_s", "peak_rss_mb",
                                   "work", "traced", "duration_s",
                                   "error")}
            for r in reps
        ],
    }


# ------------------------------------------------------------ output
def print_result(result: dict) -> None:
    """Human-readable block of one workload's result."""
    inputs = ", ".join(f"{k}={v}" for k, v in sorted(result["inputs"].items()))
    print(f"== {result['workload']} (seed {result['seed']}, variant "
          f"{result['variant']}, {result['size']}: {inputs})")
    prov = result["provenance"]
    if prov:
        print("   provenance: " + ", ".join(
            f"{k}={v}" for k, v in sorted(prov.items())))
    print(f"   work unit: {WORK_UNITS[result['workload']]}")
    print(f"   {'metric':<44} {'value':>14}  {'unit':<9} samples")
    for name, metric in result["metrics"].items():
        print(f"   {name:<44} {metric['value']:>14.6g}  "
              f"{metric['unit']:<9} {metric['samples']}")
    if not result["trace"]:
        for name, (value, unit, samples) in result["named"].items():
            print(f"   {name:<44} {value:>14.6g}  {unit:<9} {samples}")
    status = "ok" if result["correct"] else "FAILED"
    print(f"   correctness: {status} ({result['failed']} of "
          f"{result['attempted']} items failed)")
    for problem in result["problems"]:
        print(f"   ! {problem}")


def final_line(results: list[dict]) -> dict:
    """The machine-readable last line."""
    if len(results) == 1:
        metrics = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in results[0]["metrics"].items()
        }
    else:
        metrics = {
            f"{r['workload']}/{name}": {"value": m["value"], "unit": m["unit"]}
            for r in results
            for name, m in r["metrics"].items()
        }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


# ------------------------------------------------------------ compare
#: Record fields that must be equal for two records to be compared.
COMPARABLE = ("workload", "size", "inputs", "seconds", "trace", "nproc")


def compare(old_path: pathlib.Path, new_path: pathlib.Path) -> int:
    """Print metric changes between two ``--record`` files."""
    old = {r["workload"]: r for r in json.loads(old_path.read_text())}
    new = {r["workload"]: r for r in json.loads(new_path.read_text())}
    status = 0
    for workload in sorted(set(old) & set(new)):
        a, b = old[workload], new[workload]
        different = [f for f in COMPARABLE if a.get(f) != b.get(f)]
        if different:
            print(f"{workload}: not comparable, records differ in "
                  f"{', '.join(different)}", file=sys.stderr)
            status = 2
            continue
        print(f"== {workload}")
        for name, metric in a["metrics"].items():
            if name not in b["metrics"]:
                continue
            before, after = metric["value"], b["metrics"][name]["value"]
            change = (after - before) / before * 100 if before else math.nan
            print(f"   {name:<44} {before:>12.6g} -> {after:>12.6g} "
                  f"{metric['unit']:<8} {change:+7.1f} %")
    return status


# --------------------------------------------------------------- main
def parse_args(argv):
    """Command-line arguments."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default="all",
        help="a workload, a comma-separated list, or 'all' "
             f"({', '.join(WORKLOAD_NAMES)})")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--min-reps", type=int, default=3)
    parser.add_argument("--record", type=pathlib.Path,
                        help="write the full result records here")
    parser.add_argument("--compare", type=pathlib.Path, nargs=2,
                        metavar=("OLD", "NEW"),
                        help="compare two --record files and exit")
    args = parser.parse_args(argv)
    if args.workload == "all":
        args.workloads = list(WORKLOAD_NAMES)
    else:
        args.workloads = args.workload.split(",")
    unknown = [w for w in args.workloads if w not in WORKLOAD_NAMES]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    if args.min_reps < 1:
        parser.error("--min-reps must be at least 1")
    if args.trace and args.min_reps < 2:
        args.min_reps = 2  # one traced and one untraced repetition
    return args


def main(argv=None) -> int:
    """Run the chosen workloads; exit 0 only if every check passed."""
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    package = ROOT / "src" / "repro"
    if not package.is_dir():
        print(f"error: no package sources at {package}", file=sys.stderr)
        return 2
    # Users run from compiled bytecode; compile once, outside the timing.
    compileall.compile_dir(str(package), quiet=1)
    expected = load_expected(HERE / "expected.json")
    results = [run_workload(args, expected, w) for w in args.workloads]
    for result in results:
        print_result(result)
    if args.record:
        args.record.write_text(json.dumps(results, indent=1, sort_keys=True))
    line = final_line(results)
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
