"""Bounded, thread-safe FIFO memos.

The hot loops of a population or a sweep evaluate pure functions of a
handful of frozen *objects* over and over: the canonical text of one
chip config per candidate, of one operating point per mode, of one
fault map per die; the energy terms of a chip at one operating point.
:class:`IdentityMemo` evaluates each once per object.

Content-keyed caches — a generated trace per :class:`~repro.engine.
jobs.TraceSpec`, a store-backed trace per digest, a candidate's
analytic metrics per hardware digest — use :class:`ValueMemo` instead:
there the key *is* the content, so equal keys must share one value.

The rules every :class:`IdentityMemo` use follows:

* keyed by identity, never by value — equal objects can still differ
  in what the function sees (``OperatingPoint(vdd=1)`` equals
  ``OperatingPoint(vdd=1.0)``, yet their canonical texts are ``1`` and
  ``1.0``), so a value-keyed memo would make results depend on call
  order; equal-but-distinct objects simply re-evaluate;
* each entry *pins* its object, so a recycled ``id`` can never alias a
  dead object's result;
* bounded, oldest entry evicted first;
* safe to share between threads (the service's workers share each
  chip's memo): eviction and insertion run under a lock, while the
  function itself runs outside it — two threads missing on the same
  object both evaluate it, which is harmless for a pure function;
* only the function's return value is cached — callers keep every
  arithmetic expression that consumes it unchanged, so memoizing never
  re-associates a floating-point product.
"""

from __future__ import annotations

import threading
from typing import Callable, Generic, Hashable, TypeVar

T = TypeVar("T")

_MISSING = object()


class _BoundedFifo:
    """Entries evicted oldest first once ``limit`` is reached.

    Readers look entries up without the lock (a dict read is atomic);
    eviction and insertion run under it, so two threads can never pick
    — and both pop — the same oldest key.
    """

    def __init__(self, limit: int):
        if limit < 1:
            raise ValueError("limit must be at least 1")
        self.limit = limit
        self._entries: dict = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def _insert(self, key, entry) -> None:
        with self._lock:
            while len(self._entries) >= self.limit:
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = entry


class IdentityMemo(_BoundedFifo, Generic[T]):
    """A bounded FIFO memo of ``compute``, keyed by argument identity."""

    def __init__(self, compute: Callable[[object], T], limit: int):
        super().__init__(limit)
        self._compute = compute

    def __call__(self, value: object) -> T:
        cached = self._entries.get(id(value))
        if cached is not None and cached[0] is value:
            return cached[1]
        result = self._compute(value)
        self._insert(id(value), (value, result))
        return result


class ValueMemo(_BoundedFifo, Generic[T]):
    """A bounded FIFO memo keyed by a hashable content key."""

    def lookup(self, key: Hashable, compute: Callable[[], T]) -> T:
        """The cached value of ``key``, else store and return ``compute()``.

        As with :class:`IdentityMemo`, ``compute`` runs outside the
        lock: two threads missing on one key both compute it, and the
        later insert wins.
        """
        cached = self._entries.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        result = compute()
        self._insert(key, result)
        return result
