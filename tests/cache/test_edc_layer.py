"""Tests for the EDC storage layer (faults x codecs)."""

import itertools

import numpy as np
import pytest

from repro.cache.edc_layer import ProtectedArray
from repro.edc.base import DecodeStatus
from repro.edc.protection import ProtectionScheme
from repro.reliability.fault_maps import FaultMap, generate_fault_map


def _single_fault_map(word_bits: int, word: int, bit: int) -> FaultMap:
    return FaultMap(
        word_bits=word_bits,
        words=8,
        fault_masks={word: 1 << bit},
        stuck_values={word: 1 << bit},
    )


class TestCleanArray:
    def test_roundtrip(self, rng):
        array = ProtectedArray(8, 32, ProtectionScheme.SECDED)
        for index in range(8):
            value = int(rng.integers(0, 1 << 32))
            array.write(index, value)
            record = array.read(index)
            assert record.value == value
            assert record.status is DecodeStatus.CLEAN
            assert record.correct

    def test_unwritten_read_rejected(self):
        array = ProtectedArray(4, 32, ProtectionScheme.NONE)
        with pytest.raises(ValueError):
            array.read(0)

    def test_value_range_checked(self):
        array = ProtectedArray(4, 8, ProtectionScheme.NONE)
        with pytest.raises(ValueError):
            array.write(0, 256)

    def test_geometry_mismatch_rejected(self, rng):
        fmap = generate_fault_map(0.01, 8, 32, rng)  # 32 != 39 stored
        with pytest.raises(ValueError):
            ProtectedArray(8, 32, ProtectionScheme.SECDED, fault_map=fmap)


class TestFaultyReads:
    def test_secded_hides_single_stuck_bit(self, rng):
        fmap = _single_fault_map(39, word=3, bit=10)
        array = ProtectedArray(
            8, 32, ProtectionScheme.SECDED, fault_map=fmap
        )
        flagged = 0
        for _ in range(50):
            value = int(rng.integers(0, 1 << 32))
            array.write(3, value)
            record = array.read(3)
            assert record.correct
            assert record.value == value
            if record.status is DecodeStatus.CORRECTED:
                flagged += 1
        # Roughly half the writes conflict with the stuck polarity.
        assert 10 < flagged < 45
        assert array.silent_errors == 0

    def test_unprotected_array_corrupts(self, rng):
        fmap = _single_fault_map(32, word=0, bit=4)
        array = ProtectedArray(8, 32, ProtectionScheme.NONE, fault_map=fmap)
        wrong = 0
        for _ in range(40):
            value = int(rng.integers(0, 1 << 32))
            array.write(0, value)
            if not array.read(0).correct:
                wrong += 1
        assert wrong > 5
        assert array.silent_errors == wrong

    def test_two_stuck_bits_beat_secded(self, rng):
        fmap = FaultMap(
            word_bits=39,
            words=8,
            fault_masks={1: 0b101},
            stuck_values={1: 0b101},
        )
        array = ProtectedArray(
            8, 32, ProtectionScheme.SECDED, fault_map=fmap
        )
        outcomes = set()
        for _ in range(60):
            array.write(1, int(rng.integers(0, 1 << 32)))
            outcomes.add(array.read(1).status)
        assert DecodeStatus.DETECTED in outcomes
        assert not array.word_is_usable(1, hard_budget=1)

    def test_dected_hides_stuck_bit_plus_soft_flip(self, rng):
        fmap = _single_fault_map(45, word=2, bit=7)
        array = ProtectedArray(
            8, 32, ProtectionScheme.DECTED, fault_map=fmap
        )
        for soft_bit in (0, 11, 31, 44):
            value = int(rng.integers(0, 1 << 32))
            array.write(2, value)
            record = array.read(2, soft_error_bits=(soft_bit,))
            assert record.correct
            assert record.value == value
        assert array.silent_errors == 0

    def test_soft_bit_range_checked(self, rng):
        array = ProtectedArray(4, 32, ProtectionScheme.SECDED)
        array.write(0, 5)
        with pytest.raises(ValueError):
            array.read(0, soft_error_bits=(39,))


class TestUsability:
    def test_budget_logic(self):
        fmap = FaultMap(
            word_bits=39,
            words=4,
            fault_masks={0: 0b1, 2: 0b11},
            stuck_values={},
        )
        array = ProtectedArray(
            4, 32, ProtectionScheme.SECDED, fault_map=fmap
        )
        assert array.word_is_usable(0, 1)
        assert not array.word_is_usable(2, 1)
        assert not array.usable(1)
        assert array.usable(2)

    def test_exercise_counts(self, rng):
        array = ProtectedArray(16, 32, ProtectionScheme.SECDED)
        array.exercise(rng, rounds=2)
        assert array.reads == 32
        assert array.silent_errors == 0
        assert array.detected_reads == 0


class TestWordWidth:
    """Words up to 64 stored bits work end to end; wider are rejected."""

    def test_unprotected_64_bit_exercise(self, rng):
        array = ProtectedArray(16, 64, ProtectionScheme.NONE)
        array.exercise(rng, rounds=2)
        assert array.reads == 32
        assert array.silent_errors == 0
        record = array.read(3)
        assert record.correct and 0 <= record.value < 1 << 64

    def test_64_bit_write_read_roundtrip(self):
        array = ProtectedArray(2, 64, ProtectionScheme.NONE)
        array.write(1, (1 << 64) - 1)
        assert array.read(1).value == (1 << 64) - 1

    def test_parity_over_64_bits_rejected(self):
        with pytest.raises(ValueError, match="at most 64"):
            ProtectedArray(16, 64, ProtectionScheme.PARITY)

    def test_parity_over_63_bits_fits(self, rng):
        array = ProtectedArray(16, 63, ProtectionScheme.PARITY)
        assert array.stored_bits == 64
        array.exercise(rng)
        assert array.reads == 16 and array.silent_errors == 0


class TestFailureModeSplit:
    """silent_errors is now the sum of two distinguishable modes."""

    def test_parity_double_flip_is_undetected(self):
        """Two flips alias parity back to even: status CLEAN, wrong
        data — an *undetected* error, not a miscorrection."""
        array = ProtectedArray(4, 32, ProtectionScheme.PARITY)
        array.write(0, 0b1010)
        record = array.read(0, soft_error_bits=(0, 1))
        assert record.status is DecodeStatus.CLEAN
        assert not record.correct
        assert array.undetected_errors == 1
        assert array.miscorrections == 0
        assert array.silent_errors == 1

    def test_secded_triple_flip_can_miscorrect(self):
        """Three flips sit within distance 1 of some *wrong* codeword
        for many patterns: the decoder "fixes" onto it — a
        miscorrection (never CLEAN, since d_min = 4)."""
        array = ProtectedArray(4, 32, ProtectionScheme.SECDED)
        array.write(0, 0xDEADBEEF)
        found = False
        for bits in itertools.combinations(range(array.stored_bits), 3):
            before = array.miscorrections
            record = array.read(0, soft_error_bits=bits)
            assert record.status is not DecodeStatus.CLEAN
            if (
                record.status is DecodeStatus.CORRECTED
                and not record.correct
            ):
                assert array.miscorrections == before + 1
                found = True
                break
        assert found
        assert array.undetected_errors == 0
        assert array.silent_errors == array.miscorrections

    def test_sum_preserved_for_back_compat(self):
        array = ProtectedArray(4, 32, ProtectionScheme.PARITY)
        array.write(0, 1)
        array.read(0, soft_error_bits=(2, 3))
        array.read(0, soft_error_bits=(4, 5))
        assert array.silent_errors == (
            array.miscorrections + array.undetected_errors
        ) == 2

    def test_clean_reads_leave_both_counters_zero(self):
        array = ProtectedArray(4, 32, ProtectionScheme.SECDED)
        array.write(1, 77)
        array.read(1)
        array.read(1, soft_error_bits=(5,))
        assert array.miscorrections == 0
        assert array.undetected_errors == 0
        assert array.silent_errors == 0


class TestDuplicateSoftErrorBits:
    """Duplicate indices would XOR-cancel and hide the strike."""

    def test_duplicates_rejected(self):
        array = ProtectedArray(4, 32, ProtectionScheme.SECDED)
        array.write(0, 9)
        with pytest.raises(ValueError, match="duplicate"):
            array.read(0, soft_error_bits=(3, 3))

    def test_duplicates_rejected_even_with_others(self):
        array = ProtectedArray(4, 32, ProtectionScheme.DECTED)
        array.write(0, 9)
        with pytest.raises(ValueError, match="XOR-cancel"):
            array.read(0, soft_error_bits=(1, 5, 1))

    def test_counters_untouched_by_rejected_read(self):
        array = ProtectedArray(4, 32, ProtectionScheme.SECDED)
        array.write(0, 9)
        with pytest.raises(ValueError):
            array.read(0, soft_error_bits=(2, 2))
        assert array.reads == 0
        assert array.silent_errors == 0

    def test_distinct_bits_still_fine(self):
        array = ProtectedArray(4, 32, ProtectionScheme.DECTED)
        array.write(0, 9)
        record = array.read(0, soft_error_bits=(1, 5))
        assert record.correct
