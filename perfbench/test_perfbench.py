"""Tests of the benchmark harness on its tiny workload sizes.

They run ``run.py`` the way the benchmark is run, on the ``tiny`` size
of every workload, and check metric names and units against
``BENCHMARK.json``, the correctness checks (a corrupted pinned value
must be caught), the refusal to compare records of different sizes,
the failure in a directory without the package, the failed-job count
of a service window that fails, and the tracer's self-time arithmetic.
"""

from __future__ import annotations

import collections
import importlib.util
import json
import pathlib
import shutil
import socket
import subprocess
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(*args, cwd=ROOT, timeout=170):
    """Run the harness; returns (exit code, stdout lines)."""
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )
    return done.returncode, done.stdout.strip().splitlines()


def last_json(lines):
    """The result object on the last stdout line."""
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def tiny_all():
    """Every workload once at tiny size, untraced."""
    return run_bench("--workload", "all", "--size", "tiny",
                     "--seconds", "0", "--min-reps", "1")


@pytest.fixture(scope="module")
def tiny_traced():
    """The codec-only and the service workload, traced, at tiny size."""
    return run_bench("--workload", "reliability-mc,service-fleet",
                     "--size", "tiny", "--seconds", "0", "--trace", "1",
                     "--min-reps", "2")


def test_tiny_workloads_pass_their_checks(tiny_all):
    code, lines = tiny_all
    result = last_json(lines)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0


def test_every_end_to_end_metric_named_with_its_unit(tiny_all):
    _code, lines = tiny_all
    metrics = last_json(lines)["metrics"]
    expected = {
        f"{workload}/{m['name']}": m["unit"]
        for workload in WORKLOADS
        for m in BENCHMARK["end_to_end"]
    }
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(m["value"] > 0 for m in metrics.values())
    # The human-readable table names the sample count of each metric.
    assert any("samples" in line for line in lines)


def test_traced_run_reports_every_per_layer_metric(tiny_traced):
    code, lines = tiny_traced
    result = last_json(lines)
    assert code == 0 and result["correct"] is True
    metrics = result["metrics"]
    for workload in ("reliability-mc", "service-fleet"):
        got = {
            name.split("/", 1)[1]: m["unit"]
            for name, m in metrics.items()
            if name.startswith(workload + "/")
        }
        assert got == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_traced_layers_are_heavy_and_light_where_predicted(tiny_traced):
    _code, lines = tiny_traced
    value = {k: m["value"] for k, m in last_json(lines)["metrics"].items()}
    assert value["reliability-mc/edc.encode.calls"] > 0
    assert value["reliability-mc/edc.decode.calls"] > 0
    assert value["reliability-mc/engine.session.calls"] == 0
    assert value["reliability-mc/engine.vectorized.calls"] == 0
    assert value["service-fleet/edc.decode.calls"] == 0
    assert value["service-fleet/service.scheduler.calls"] > 0
    assert value["service-fleet/service.store.put_bytes"] > 0
    assert value["service-fleet/service.store.get_bytes"] > 0
    assert value["service-fleet/service.client.calls"] > 0


def copy_harness(tmp_path):
    """A copy of the harness beside the real package sources."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "perfbench" / "expected.json"


@pytest.mark.parametrize("counter", ["A.usable", "B.corrected_reads"])
def test_corrupted_pinned_value_is_caught(tmp_path, counter):
    pinned = copy_harness(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    expected = json.loads(pinned.read_text())
    for variant in expected["tiny"]["reliability-mc"]["variants"]:
        variant["counters"][counter] += 1
    pinned.write_text(json.dumps(expected))
    code, lines = run_bench("--workload", "reliability-mc", "--size", "tiny",
                            "--seconds", "0", "--min-reps", "1",
                            cwd=tmp_path)
    result = last_json(lines)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert any(counter in line for line in lines)


def test_compare_refuses_records_of_different_sizes(tmp_path):
    record = {"workload": "dse-sweep", "size": "full", "seconds": 20,
              "trace": 0, "nproc": 2, "inputs": {"samples": 60},
              "metrics": {"wall_s": {"value": 3.0, "unit": "s"}}}
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps([record]))
    new.write_text(json.dumps([dict(record, inputs={"samples": 61})]))
    code, _lines = run_bench("--compare", str(old), str(new))
    assert code == 2
    new.write_text(json.dumps([record]))
    code, lines = run_bench("--compare", str(old), str(new))
    assert code == 0 and any("wall_s" in line for line in lines)


def test_fails_without_the_package(tmp_path):
    copy_harness(tmp_path)
    code, lines = run_bench("--workload", "dse-sweep", "--seed", "1",
                            "--seconds", "1", cwd=tmp_path, timeout=60)
    assert code != 0
    assert not lines


def load_module(name):
    """A harness module, imported under a name of its own."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_request_of_a_failed_service_window_fails(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    workloads = load_module("workloads")
    inputs = {"requests_per_client": 5, "overlap": 2, "trace_length": 2_000,
              "seed": 1}
    lists = workloads.fleet_requests(inputs)
    with socket.socket() as probe:  # a local port nobody listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    handle = types.SimpleNamespace(host="127.0.0.1", port=port)
    requested = collections.Counter()
    payloads, latencies, errors, unanswered = workloads._drive_fleet(
        handle, lists, window=2, requested=requested)
    assert unanswered == 10
    assert len(errors) == 6  # three windows of 2, 2, 1 per client
    assert not payloads and not latencies and not requested


def test_tracer_self_time_and_outermost_calls():
    clock = iter([0.0, 1.0, 3.0, 10.0])
    tracer = load_module("tracer").Tracer(clock=lambda: next(clock))

    def inner(depth):
        if depth:
            return inner_traced(depth - 1)  # same layer: no new span
        return "done"

    inner_traced = tracer.wrap("engine.plan", inner)
    outer_traced = tracer.wrap("engine.batch", lambda: inner_traced(2))
    assert outer_traced() == "done"
    layers = tracer.summary()["layers"]
    assert layers["engine.plan"] == [1, 2.0, 2.0]
    assert layers["engine.batch"] == [1, 10.0, 8.0]
