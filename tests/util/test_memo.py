"""Tests for repro.util.memo."""

import gc
import sys
import threading
import weakref

import pytest

from repro.util.memo import IdentityMemo


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
        errors = []

        def hammer(offset):
            try:
                for step in range(30_000):
                    box = boxes[(offset + step * 7) % len(boxes)]
                    if memo(box) != box.value:
                        errors.append(f"wrong value for {box.value}")
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(offset,))
                for offset in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) <= memo.limit
