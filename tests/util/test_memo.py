"""Tests for repro.util.memo."""

import gc
import sys
import threading
import weakref

import pytest

from repro.util.memo import IdentityMemo, ValueMemo


class Box:
    """An unhashable-by-value stand-in for a frozen job part."""

    def __init__(self, value):
        self.value = value


class TestIdentityMemo:
    def test_evaluates_each_object_once(self):
        calls = []
        memo = IdentityMemo(lambda box: calls.append(box) or box.value, 4)
        box = Box(3)
        assert memo(box) == memo(box) == 3
        assert calls == [box]

    def test_equal_objects_evaluate_separately(self):
        """Identity, not value: ``1`` and ``1.0`` are equal, yet each
        object gets its own result."""
        memo = IdentityMemo(repr, 4)
        assert memo(1.0) == "1.0"
        assert memo(1) == "1"
        assert memo(1.0) == "1.0"

    def test_stays_within_its_limit_evicting_the_oldest(self):
        calls = []
        memo = IdentityMemo(lambda box: calls.append(box) or box.value, 3)
        boxes = [Box(index) for index in range(10)]
        for box in boxes:
            memo(box)
            assert len(memo) <= 3
        assert len(memo) == 3
        memo(boxes[-1])
        assert len(calls) == 10
        memo(boxes[0])
        assert len(calls) == 11

    def test_pins_its_objects_until_evicted(self):
        """A memoized object stays alive, so its id cannot be recycled
        for another object while the entry exists."""
        memo = IdentityMemo(lambda box: box.value, 2)
        box = Box("pinned")
        pinned = weakref.ref(box)
        memo(box)
        del box
        gc.collect()
        assert pinned() is not None
        memo(Box("second"))
        memo(Box("third"))
        gc.collect()
        assert pinned() is None

    def test_rejects_an_empty_bound(self):
        with pytest.raises(ValueError):
            IdentityMemo(repr, 0)


class TestValueMemo:
    def test_equal_keys_share_one_value(self):
        calls = []
        memo = ValueMemo(4)
        assert memo.lookup(("a", 1), lambda: calls.append(1) or "x") == "x"
        assert memo.lookup(("a", 1), lambda: calls.append(2) or "y") == "x"
        assert calls == [1]

    def test_caches_falsy_values(self):
        calls = []
        memo = ValueMemo(4)
        for _ in range(3):
            assert memo.lookup("none", lambda: calls.append(1)) is None
        assert calls == [1]

    def test_stays_within_its_limit_evicting_the_oldest(self):
        calls = []
        memo = ValueMemo(3)
        for key in range(10):
            memo.lookup(key, lambda: calls.append(key) or key)
            assert len(memo) <= 3
        memo.lookup(9, lambda: calls.append(9))
        assert len(calls) == 10
        memo.lookup(0, lambda: calls.append(0))
        assert len(calls) == 11

    def test_rejects_an_empty_bound(self):
        with pytest.raises(ValueError):
            ValueMemo(0)


def _hammer_concurrently(work, threads=8):
    """Run ``work(offset)`` on ``threads`` threads with a tiny switch
    interval; return what the calls raised or reported."""
    errors = []

    def run(offset):
        try:
            work(offset, errors)
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=run, args=(offset,))
            for offset in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    return errors


class TestThreads:
    def test_concurrent_callers_over_a_small_bound(self):
        """Threads sharing one memo (the service's workers share each
        chip's energy memo) evict and insert concurrently: no call may
        raise, every call returns its own object's value, and the bound
        holds."""
        def compute(box):
            # A little Python work widens the window between a miss and
            # its insert, as a canonical walk or an energy model does.
            return sum(range(20)) and box.value

        memo = IdentityMemo(compute, 2)
        boxes = [Box(index) for index in range(64)]

        def hammer(offset, errors):
            for step in range(30_000):
                box = boxes[(offset + step * 7) % len(boxes)]
                if memo(box) != box.value:
                    errors.append(f"wrong value for {box.value}")

        assert _hammer_concurrently(hammer) == []
        assert len(memo) <= memo.limit

    def test_value_memo_concurrent_callers_over_a_small_bound(self):
        memo = ValueMemo(2)

        def hammer(offset, errors):
            for step in range(10_000):
                key = (offset + step * 7) % 64
                value = memo.lookup(key, lambda: sum(range(20)) and -key)
                if value != -key:
                    errors.append(f"wrong value for {key}")

        assert _hammer_concurrently(hammer) == []
        assert len(memo) <= memo.limit

    def test_trace_memo_under_service_threads(self, monkeypatch):
        """The service runs jobs on worker threads, and a fleet touches
        more distinct traces than the engine's 32-entry trace memo
        holds: concurrent misses must evict without raising."""
        from repro.engine.jobs import TraceSpec, trace_for

        # A cheap stand-in generator keeps the threads in the memo's
        # evict-and-insert path rather than in trace synthesis; the
        # unregistered benchmark name keeps its stand-in results from
        # ever answering a real job later in the session.
        monkeypatch.setattr(
            "repro.workloads.mediabench.generate_trace",
            lambda benchmark, length, seed: (benchmark, length, seed),
        )
        specs = [TraceSpec("memo-stress", 64, seed) for seed in range(48)]

        def hammer(offset, errors):
            for _ in range(300):
                for index in range(len(specs)):
                    spec = specs[(offset + index) % len(specs)]
                    if trace_for(spec) != (
                        spec.benchmark, spec.length, spec.seed
                    ):
                        errors.append(f"wrong trace for {spec}")

        assert _hammer_concurrently(hammer) == []
