"""Stored-word simulation through hard faults and the EDC codec.

:class:`ProtectedArray` models one physical word array of a ULE way: every
write encodes the value; every read passes the stored codeword through the
die's stuck-at fault map (and optional soft-error flips) and decodes it.
Against a shadow copy of the written values it classifies each read as
clean / corrected / detected / **silent** (decoder claimed success but
returned wrong data) — the last category must stay empty whenever the
fault map respects the code's budget, which is what the reliability
experiments verify against Eq. (1)-(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.edc.base import MAX_BATCH_BITS, DecodeStatus, LinearBlockCode
from repro.edc.protection import ProtectionScheme, make_code
from repro.reliability.fault_maps import FaultMap


@dataclass(frozen=True)
class WordReadRecord:
    """One read through the protected array.

    Attributes:
        value: the data returned to the consumer.
        status: decoder outcome (CLEAN for unprotected arrays).
        correct: whether ``value`` matches what was last written.
    """

    value: int
    status: DecodeStatus
    correct: bool


class ProtectedArray:
    """A fault-injected, EDC-protected array of fixed-width words."""

    def __init__(
        self,
        words: int,
        data_bits: int,
        scheme: ProtectionScheme,
        fault_map: FaultMap | None = None,
    ):
        if words <= 0 or data_bits <= 0:
            raise ValueError("bad geometry")
        self.words = words
        self.data_bits = data_bits
        self.scheme = scheme
        self.code: LinearBlockCode | None = make_code(scheme, data_bits)
        self.stored_bits = (
            self.code.n if self.code is not None else data_bits
        )
        if self.stored_bits > MAX_BATCH_BITS:
            raise ValueError(
                f"{scheme} over {data_bits}-bit data stores "
                f"{self.stored_bits} bits/word; at most {MAX_BATCH_BITS} "
                "are supported"
            )
        if fault_map is not None:
            if fault_map.words < words:
                raise ValueError("fault map smaller than the array")
            if fault_map.word_bits != self.stored_bits:
                raise ValueError(
                    f"fault map is {fault_map.word_bits} bits/word; "
                    f"array stores {self.stored_bits}"
                )
        self.fault_map = fault_map
        self._stored = np.zeros(words, dtype=np.uint64)
        self._shadow = np.zeros(words, dtype=np.uint64)
        self._written = np.zeros(words, dtype=bool)
        self.reads = 0
        self.corrected_reads = 0
        self.detected_reads = 0
        self.miscorrections = 0
        self.undetected_errors = 0

    # --------------------------------------------------------------- API
    def write(self, index: int, value: int) -> None:
        """Encode and store ``value`` at ``index``."""
        self._check_index(index)
        if value < 0 or value >> self.data_bits:
            raise ValueError(f"value does not fit in {self.data_bits} bits")
        stored = self.code.encode(value) if self.code else value
        self._stored[index] = stored
        self._shadow[index] = value
        self._written[index] = True

    def read(
        self,
        index: int,
        soft_error_bits: tuple[int, ...] = (),
    ) -> WordReadRecord:
        """Read ``index`` through faults (+ optional transient flips).

        ``soft_error_bits`` must name *distinct* bit positions: two
        mentions of the same bit would XOR-cancel silently, so an
        injected double strike would masquerade as no strike at all.
        Duplicates are rejected rather than deduplicated — a caller
        producing them almost certainly meant different positions.
        """
        self._check_index(index)
        if not self._written[index]:
            raise ValueError(f"word {index} read before written")
        raw = int(self._stored[index])
        if self.fault_map is not None:
            raw = self.fault_map.apply(index, raw)
        if len(set(soft_error_bits)) != len(soft_error_bits):
            raise ValueError(
                "duplicate soft-error bit positions: "
                f"{tuple(soft_error_bits)} (duplicates would XOR-cancel "
                "and hide the injected strike)"
            )
        for bit in soft_error_bits:
            if not 0 <= bit < self.stored_bits:
                raise ValueError("soft-error bit out of range")
            raw ^= 1 << bit
        return self._classify(raw, int(self._shadow[index]))

    def _classify(self, raw: int, written: int) -> WordReadRecord:
        """Decode one read-out word and count its outcome."""
        self.reads += 1
        if self.code is None:
            value = raw
            status = DecodeStatus.CLEAN
        else:
            result = self.code.decode(raw)
            value = result.data
            status = result.status
        correct = status is not DecodeStatus.DETECTED and value == written
        if status is DecodeStatus.CORRECTED:
            self.corrected_reads += 1
        elif status is DecodeStatus.DETECTED:
            self.detected_reads += 1
        if not correct:
            if status is DecodeStatus.CORRECTED:
                self.miscorrections += 1
            elif status is DecodeStatus.CLEAN:
                self.undetected_errors += 1
        return WordReadRecord(value=value, status=status, correct=correct)

    @property
    def silent_errors(self) -> int:
        """Reads where the decoder claimed success but the data is wrong.

        The sum of the two distinguishable failure modes —
        :attr:`miscorrections` (status ``CORRECTED``, wrong data: the
        decoder "fixed" the word onto the wrong codeword) and
        :attr:`undetected_errors` (status ``CLEAN``, wrong data: the
        error pattern aliased to a valid codeword).  Scenario-B
        verification needs the split; existing yield checks keep
        consuming the sum.
        """
        return self.miscorrections + self.undetected_errors

    # --------------------------------------------------------- analysis
    def word_is_usable(self, index: int, hard_budget: int) -> bool:
        """Static check: does the word's fault count fit the budget?"""
        self._check_index(index)
        if self.fault_map is None:
            return True
        return self.fault_map.faults_in_word(index) <= hard_budget

    def usable(self, hard_budget: int) -> bool:
        """Whether every word of the array fits the budget (die works)."""
        if self.fault_map is None:
            return True
        return all(
            mask.bit_count() <= hard_budget
            for index, mask in self.fault_map.fault_masks.items()
            if index < self.words
        )

    def exercise(self, rng: np.random.Generator, rounds: int = 1) -> None:
        """Write random data everywhere and read it back ``rounds`` times.

        Used by the Monte Carlo yield validation: after exercising, the
        ``silent_errors`` /  ``detected_reads`` counters tell whether this
        die behaved as a yielding part.

        Each round handles the whole array at once: one draw of every
        data word (the same generator stream as word-by-word draws), a
        batched encode, the fault map as dense stuck-at masks, and a
        codeword screen of every read.  Only words the screen flags go
        through the scalar decoder; the counters, the generator state
        and later :meth:`read` records equal those of a
        :meth:`write`/:meth:`read` loop over the words.
        """
        fault_mask, stuck = self._dense_fault_map()
        for _ in range(rounds):
            data = rng.integers(
                0, 1 << self.data_bits, size=self.words, dtype=np.uint64
            )
            stored = self.code.encode_many(data) if self.code else data.copy()
            self._stored, self._shadow = stored, data
            self._written[:] = True
            raw = (stored & ~fault_mask) | stuck
            if self.code is None:
                value, clean = raw, np.ones(self.words, dtype=bool)
            else:
                value, clean = self.code.screen_many(raw)
            self.reads += int(np.count_nonzero(clean))
            self.undetected_errors += int(
                np.count_nonzero(clean & (value != data))
            )
            for index in np.flatnonzero(~clean):
                self._classify(int(raw[index]), int(data[index]))

    def _dense_fault_map(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-word stuck-bit masks and stuck values as uint64 arrays."""
        fault_mask = np.zeros(self.words, dtype=np.uint64)
        stuck = np.zeros(self.words, dtype=np.uint64)
        if self.fault_map is not None:
            for index, mask in self.fault_map.fault_masks.items():
                if index < self.words:
                    fault_mask[index] = mask
                    stuck[index] = (
                        self.fault_map.stuck_values.get(index, 0) & mask
                    )
        return fault_mask, stuck

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.words:
            raise IndexError(f"word index {index} out of range")
