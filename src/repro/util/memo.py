"""Bounded memos keyed by object identity.

The hot loops of a population or a sweep evaluate pure functions of a
handful of frozen *objects* over and over: the canonical text of one
chip config per candidate, of one operating point per mode, of one
fault map per die; the energy terms of a chip at one operating point.
:class:`IdentityMemo` evaluates each once per object.

The rules every use follows:

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
from typing import Callable, Generic, TypeVar

T = TypeVar("T")


class IdentityMemo(Generic[T]):
    """A bounded FIFO memo of ``compute``, keyed by argument identity."""

    def __init__(self, compute: Callable[[object], T], limit: int):
        if limit < 1:
            raise ValueError("limit must be at least 1")
        self._compute = compute
        self.limit = limit
        self._entries: dict[int, tuple[object, T]] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __call__(self, value: object) -> T:
        cached = self._entries.get(id(value))
        if cached is not None and cached[0] is value:
            return cached[1]
        result = self._compute(value)
        with self._lock:
            while len(self._entries) >= self.limit:
                self._entries.pop(next(iter(self._entries)))
            self._entries[id(value)] = (value, result)
        return result
