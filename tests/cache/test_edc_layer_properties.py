"""Hypothesis: ProtectedArray usability vs sampled fault-map populations.

``word_is_usable`` / ``usable`` are the static side of Eq. (1): a word
is usable iff its stuck-bit count fits the scheme's hard-fault budget.
These properties pin that contract against arbitrary
:func:`repro.reliability.fault_maps.generate_fault_map` populations —
budget boundaries included — and the degenerate maps (fault-free and
fully saturated) that the analytic yield model never exercises.

The batched :meth:`ProtectedArray.exercise` is pinned against a
word-by-word ``write``/``read`` reference loop, and the codecs' batched
codeword screen against the scalar decoders.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.edc_layer import ProtectedArray
from repro.edc.base import DecodeStatus
from repro.edc.protection import ProtectionScheme, make_code
from repro.reliability.fault_maps import generate_fault_map

SCHEMES = st.sampled_from(list(ProtectionScheme))


def _array_and_map(scheme, words, data_bits, pf, seed):
    array = ProtectedArray(words, data_bits, scheme)
    fault_map = generate_fault_map(
        pf, words, array.stored_bits, np.random.default_rng(seed)
    )
    return (
        ProtectedArray(words, data_bits, scheme, fault_map=fault_map),
        fault_map,
    )


@settings(max_examples=40, deadline=None)
@given(
    scheme=SCHEMES,
    words=st.integers(1, 48),
    data_bits=st.sampled_from((26, 32)),
    pf=st.floats(0.0, 0.3),
    budget=st.integers(0, 4),
    seed=st.integers(0, 10_000),
)
def test_usability_matches_fault_population(
    scheme, words, data_bits, pf, budget, seed
):
    """A word is usable iff its stuck-bit count fits the budget."""
    array, fault_map = _array_and_map(scheme, words, data_bits, pf, seed)
    for index in range(words):
        assert array.word_is_usable(index, budget) == (
            fault_map.faults_in_word(index) <= budget
        )
    assert array.usable(budget) == (
        fault_map.max_faults_per_word() <= budget
    )


@settings(max_examples=25, deadline=None)
@given(
    scheme=SCHEMES,
    words=st.integers(1, 48),
    data_bits=st.sampled_from((26, 32)),
    pf=st.floats(0.0, 0.3),
    seed=st.integers(0, 10_000),
)
def test_budget_boundary_is_tight(scheme, words, data_bits, pf, seed):
    """The worst word's fault count is exactly the smallest workable
    budget: one below fails, the count itself (and anything above)
    passes."""
    array, fault_map = _array_and_map(scheme, words, data_bits, pf, seed)
    worst = fault_map.max_faults_per_word()
    assert array.usable(worst)
    assert array.usable(worst + 1)
    if worst > 0:
        assert not array.usable(worst - 1)


@settings(max_examples=25, deadline=None)
@given(
    scheme=SCHEMES,
    words=st.integers(1, 48),
    data_bits=st.sampled_from((26, 32)),
    budget=st.integers(0, 4),
    seed=st.integers(0, 10_000),
)
def test_zero_fault_map_is_always_usable(
    scheme, words, data_bits, budget, seed
):
    """pf=0 samples the empty population: every budget works, and a
    map-free array reports the same."""
    array, fault_map = _array_and_map(scheme, words, data_bits, 0.0, seed)
    assert fault_map.faulty_bit_count == 0
    assert array.usable(budget)
    bare = ProtectedArray(words, data_bits, scheme)
    assert bare.usable(0)


@settings(max_examples=25, deadline=None)
@given(
    scheme=SCHEMES,
    words=st.integers(1, 32),
    data_bits=st.sampled_from((26, 32)),
    seed=st.integers(0, 10_000),
)
def test_saturated_map_needs_full_width_budget(
    scheme, words, data_bits, seed
):
    """pf=1 sticks every stored bit: only a budget of the full stored
    width admits any word."""
    array, fault_map = _array_and_map(scheme, words, data_bits, 1.0, seed)
    stored_bits = array.stored_bits
    assert fault_map.faulty_bit_count == words * stored_bits
    assert not array.usable(stored_bits - 1)
    assert array.usable(stored_bits)
    for index in range(words):
        assert not array.word_is_usable(index, stored_bits - 1)


@settings(max_examples=20, deadline=None)
@given(
    words=st.integers(1, 32),
    pf=st.floats(0.0, 0.5),
    seed=st.integers(0, 10_000),
)
def test_unmapped_array_ignores_budgets(words, pf, seed):
    """Without a fault map the static check is vacuously true."""
    array = ProtectedArray(words, 32, ProtectionScheme.SECDED)
    assert array.usable(0)
    for index in range(words):
        assert array.word_is_usable(index, 0)


def _distinct_bits(rng, stored_bits, count):
    return tuple(
        int(b) for b in rng.choice(stored_bits, size=count, replace=False)
    )


def _budgets(scheme, data_bits):
    code = make_code(scheme, data_bits)
    return (code.correctable, code.detectable) if code else (0, 0)


@settings(max_examples=120, deadline=None)
@given(
    scheme=SCHEMES,
    data_bits=st.sampled_from((26, 32)),
    value_seed=st.integers(0, 10_000),
    flip_seed=st.integers(0, 10_000),
)
def test_within_detection_budget_never_silent(
    scheme, data_bits, value_seed, flip_seed
):
    """Any flip pattern within the code's detection budget must be
    corrected or flagged — never silently consumed.  This is the
    contract scenario-B verification rests on: every scheme in a way
    group's ``edc_inline_modes`` map keeps the property."""
    _, detectable = _budgets(scheme, data_bits)
    rng = np.random.default_rng(flip_seed)
    array = ProtectedArray(2, data_bits, scheme)
    value = int(
        np.random.default_rng(value_seed).integers(0, 1 << data_bits)
    )
    array.write(0, value)
    for count in range(detectable + 1):
        record = array.read(
            0, soft_error_bits=_distinct_bits(rng, array.stored_bits, count)
        )
        # Not DETECTED => the returned data must be the written data.
        if record.status is not DecodeStatus.DETECTED:
            assert record.correct
            assert record.value == value
    assert array.silent_errors == 0
    assert array.miscorrections == 0
    assert array.undetected_errors == 0


@settings(max_examples=120, deadline=None)
@given(
    scheme=SCHEMES,
    data_bits=st.sampled_from((26, 32)),
    value_seed=st.integers(0, 10_000),
    flip_seed=st.integers(0, 10_000),
)
def test_one_past_detection_budget_is_observable(
    scheme, data_bits, value_seed, flip_seed
):
    """One flip beyond the detection budget may miscorrect or alias,
    but it must be *observable*: either a non-CLEAN status, or wrong
    data that lands in the miscorrection/undetected counters — it can
    never masquerade as a clean, correct read."""
    _, detectable = _budgets(scheme, data_bits)
    rng = np.random.default_rng(flip_seed)
    array = ProtectedArray(2, data_bits, scheme)
    value = int(
        np.random.default_rng(value_seed).integers(0, 1 << data_bits)
    )
    array.write(0, value)
    record = array.read(
        0,
        soft_error_bits=_distinct_bits(
            rng, array.stored_bits, detectable + 1
        ),
    )
    assert not (record.status is DecodeStatus.CLEAN and record.correct)
    observable = (
        record.status is DecodeStatus.DETECTED
        or array.miscorrections + array.undetected_errors == 1
    )
    assert observable


def _per_word_exercise(array, rng, rounds):
    """Reference for :meth:`ProtectedArray.exercise`: one word at a time."""
    for _ in range(rounds):
        for index in range(array.words):
            array.write(index, int(rng.integers(0, 1 << array.data_bits)))
        for index in range(array.words):
            array.read(index)


_READ_COUNTERS = ("reads", "corrected_reads", "detected_reads",
                  "miscorrections", "undetected_errors")


def _assert_exercise_matches_reference(scheme, words, data_bits, pf,
                                       rounds, seed):
    array, fault_map = _array_and_map(scheme, words, data_bits, pf, seed)
    reference = ProtectedArray(words, data_bits, scheme, fault_map=fault_map)
    rng = np.random.default_rng(seed + 1)
    reference_rng = np.random.default_rng(seed + 1)
    array.exercise(rng, rounds=rounds)
    _per_word_exercise(reference, reference_rng, rounds)
    counters = [getattr(array, name) for name in _READ_COUNTERS]
    assert counters == [getattr(reference, name) for name in _READ_COUNTERS]
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    for index in range(words):
        assert array.read(index) == reference.read(index)
    return dict(zip(_READ_COUNTERS, counters))


@settings(max_examples=60, deadline=None)
@given(
    scheme=SCHEMES,
    words=st.integers(1, 48),
    data_bits=st.sampled_from((26, 32)),
    pf=st.floats(0.0, 0.3),
    rounds=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_batched_exercise_matches_per_word_reference(
    scheme, words, data_bits, pf, rounds, seed
):
    """Same counters, generator state and later reads as word by word."""
    _assert_exercise_matches_reference(
        scheme, words, data_bits, pf, rounds, seed
    )


@pytest.mark.parametrize(
    "scheme, outcomes",
    [
        (ProtectionScheme.NONE, ("undetected_errors",)),
        (ProtectionScheme.PARITY, ("detected_reads", "undetected_errors")),
        (ProtectionScheme.SECDED,
         ("corrected_reads", "detected_reads", "miscorrections")),
        (ProtectionScheme.DECTED,
         ("corrected_reads", "detected_reads", "miscorrections")),
    ],
)
def test_batched_exercise_reaches_every_outcome(scheme, outcomes):
    """At a heavy fault rate the equivalence covers every read outcome
    the scheme can produce, not only clean reads."""
    counters = _assert_exercise_matches_reference(
        scheme, 256, 32, 0.3, 2, seed=2013
    )
    for name in outcomes:
        assert counters[name] > 0, name


CODED_SCHEMES = st.sampled_from(
    [scheme for scheme in ProtectionScheme
     if scheme is not ProtectionScheme.NONE]
)


@st.composite
def _received_words(draw):
    """A coded scheme plus n-bit words: codewords hit by a few flips
    (so every decode outcome occurs) mixed with arbitrary words."""
    code = make_code(draw(CODED_SCHEMES), draw(st.sampled_from((26, 32))))
    near = st.builds(
        lambda data, flips: code.encode(data) ^ sum(1 << b for b in flips),
        st.integers(0, (1 << code.k) - 1),
        st.sets(st.integers(0, code.n - 1), max_size=4),
    )
    arbitrary = st.integers(0, (1 << code.n) - 1)
    return code, draw(st.lists(near | arbitrary, min_size=1, max_size=40))


@settings(max_examples=80, deadline=None)
@given(case=_received_words())
def test_codeword_screen_matches_scalar_decode(case):
    """``screen_many`` flags exactly the words ``decode`` does not call
    CLEAN, and returns the CLEAN words' decoded data."""
    code, words = case
    data, clean = code.screen_many(np.array(words, dtype=np.uint64))
    for word, value, is_clean in zip(words, data.tolist(), clean.tolist()):
        result = code.decode(word)
        assert is_clean == (result.status is DecodeStatus.CLEAN)
        if is_clean:
            assert value == result.data


@settings(max_examples=40, deadline=None)
@given(
    scheme=CODED_SCHEMES,
    data_bits=st.sampled_from((26, 32)),
    seed=st.integers(0, 10_000),
)
def test_encode_many_matches_scalar_encode(scheme, data_bits, seed):
    code = make_code(scheme, data_bits)
    data = np.random.default_rng(seed).integers(
        0, 1 << data_bits, size=64, dtype=np.uint64
    )
    assert code.encode_many(data).tolist() == [
        code.encode(value) for value in data.tolist()
    ]
