"""Population sampling: determinism, budgets, physical trends, pins."""

import numpy as np
import pytest

from repro.faults.maps import CACHE_LABELS
from repro.faults.sampling import (
    functional_fraction,
    sample_cache_fault_map,
    sample_die_fault_map,
    sample_population,
)
from repro.tech.operating import Mode
from repro.util.canonical import canonical_digest
from repro.util.rng import RngStreams


class TestDeterminism:
    def test_same_seed_same_population(self, chips_a):
        config = chips_a.proposed.config
        first = sample_population(config.il1, config.dl1, 20, seed=7)
        second = sample_population(config.il1, config.dl1, 20, seed=7)
        assert first == second

    def test_different_seed_different_population(self, chips_a):
        config = chips_a.proposed.config
        a = sample_population(config.il1, config.dl1, 40, seed=7)
        b = sample_population(config.il1, config.dl1, 40, seed=8)
        assert a != b

    def test_die_index_stable_across_population_sizes(self, chips_a):
        """Die 17 of a 20-die population equals die 17 of a 50-die one
        (each (die, cache, mode) draws its own derived stream)."""
        config = chips_a.proposed.config
        small = sample_population(config.il1, config.dl1, 20, seed=3)
        large = sample_population(config.il1, config.dl1, 50, seed=3)
        assert small == large[:20]


class TestBudgets:
    def test_proposed_ule_way_absorbs_single_faults(self, chips_a):
        """The proposed 8T way corrects one hard fault per word inline,
        so a supply where single faults are common still yields working
        lines; the baseline 10T way (no inline correction, but a far
        stronger cell) must rely on its sizing instead.  Both sampled
        maps must at least respect their analytic regimes: at the
        paper's 350 mV sizing point most dies are clean."""
        for which in ("proposed", "baseline"):
            config = getattr(chips_a, which).config
            maps = sample_population(
                config.il1, config.dl1, 50, seed=11
            )
            fraction = functional_fraction(maps, Mode.ULE)
            assert fraction > 0.8, which

    def test_lower_vdd_disables_more_lines(self, chips_a):
        """Pf rises steeply below the sizing point: the sampled maps
        must show the same cliff the yield curve reports."""
        config = chips_a.proposed.config
        at_sizing = sample_population(
            config.il1, config.dl1, 30, seed=5,
            mode_vdds={Mode.ULE: 0.35},
        )
        below = sample_population(
            config.il1, config.dl1, 30, seed=5,
            mode_vdds={Mode.ULE: 0.30},
        )
        def count(maps):
            return sum(m.disabled_line_count for m in maps)

        assert count(below) > count(at_sizing)
        assert functional_fraction(below, Mode.ULE) < functional_fraction(
            at_sizing, Mode.ULE
        )


class TestShapes:
    def test_cache_map_within_geometry(self, chips_a, rng):
        config = chips_a.proposed.config.il1
        entry = sample_cache_fault_map(
            config, "il1", Mode.ULE, 0.30, rng
        )
        assert entry.cache == "il1"
        assert entry.mode is Mode.ULE
        ule_ways = set(config.ways_of_group("ule"))
        for set_index, way in entry.disabled:
            assert 0 <= set_index < config.sets
            # At ULE mode only the ULE way group is powered/sampled.
            assert way in ule_ways

    def test_die_map_is_normalized(self, chips_a):
        config = chips_a.proposed.config
        die = sample_die_fault_map(config.il1, config.dl1, 9, 0)
        for entry in die.entries:
            assert entry.disabled
            assert entry.cache in CACHE_LABELS

    def test_functional_fraction_counts_mode_only(self, chips_a):
        """HP-mode-only faults must not reduce the ULE yield."""
        from repro.faults.maps import CacheFaultMap, DieFaultMap

        hp_faulty = DieFaultMap(
            entries=(
                CacheFaultMap(
                    cache="il1", mode=Mode.HP, disabled=((0, 0),)
                ),
            )
        )
        clean = DieFaultMap()
        assert functional_fraction((hp_faulty, clean), Mode.ULE) == 1.0
        assert functional_fraction((hp_faulty, clean), Mode.HP) == 0.5

    def test_rng_streams_decorrelated(self):
        streams = RngStreams(1)
        a = streams.fresh("faults", 0, "il1", "ule")
        b = streams.fresh("faults", 0, "dl1", "ule")
        assert a.integers(0, 1 << 30) != b.integers(0, 1 << 30)


#: Supplies of the pinned populations: the paper's defaults, a ULE
#: supply below the sizing point, and both modes stressed (HP way
#: groups sampled with many faults too).
PINNED_MODE_VDDS = {
    "default": None,
    "ule030": {Mode.ULE: 0.30},
    "stressed": {Mode.HP: 0.62, Mode.ULE: 0.30},
}

#: ``canonical_digest`` of a 30-die ``sample_population``, recorded
#: before the sampling plan was hoisted out of the per-die loop.  Any
#: change to the draws — their order, shapes, probabilities or the
#: (set, way) decoding — changes these.
PINNED_POPULATIONS = {
    ("A", "proposed", 7, "default"):
        "1e24edab8f8a069fb38c943f53bedd6bce0e12c6b586e8be447170652b401fac",
    ("A", "proposed", 7, "ule030"):
        "93f7b95e23e719ce4b90d6daf3855d22bd7d234e054e4ff8f1ed6fa82e8c117e",
    ("A", "proposed", 7, "stressed"):
        "109b33923b8c8fe13c6180f13d354f3b673c01623799cd0a9caaa6a14ce5a298",
    ("A", "proposed", 2013, "default"):
        "27dab90b7aa883eacaa9fef19bd67cdb61c23b124d00439665ccf2f98415a57c",
    ("A", "proposed", 2013, "ule030"):
        "4bc26ec6fb24a2b132938a350da9a007342e88ca5e4332189b663a540db3e658",
    ("A", "proposed", 2013, "stressed"):
        "b5f528074fe350b25014cffa3a2855e3bb93a82df43b21c56480bcd549f6d468",
    ("A", "baseline", 7, "default"):
        "1e24edab8f8a069fb38c943f53bedd6bce0e12c6b586e8be447170652b401fac",
    ("A", "baseline", 7, "ule030"):
        "9800b554d17346a3f53ebbd78c77e7bbee71377272601931596492f15a03294b",
    ("A", "baseline", 7, "stressed"):
        "821ef5b5f5eb8d85c27963c809a47755d5b061ccaabdf255d4589391c164bbc8",
    ("A", "baseline", 2013, "default"):
        "27dab90b7aa883eacaa9fef19bd67cdb61c23b124d00439665ccf2f98415a57c",
    ("A", "baseline", 2013, "ule030"):
        "6ff9b89f089727bac4f4a562f2a3c7686ed82d9d22431a533bf2c9f9f6ca6a0e",
    ("A", "baseline", 2013, "stressed"):
        "005da2d0868a28f8721e66748b41d6282b5a374b8e4ea6e8d7a6d1138e2109dc",
    ("B", "proposed", 7, "default"):
        "3975db923f923db64adbf23d03828ce6256bb3dc8730fc61b0202f2a02e2dda5",
    ("B", "proposed", 7, "ule030"):
        "af0a89580fc1f69053b4ca7f8850a8ec0a24a636452ad0d76b47b3328a33662c",
    ("B", "proposed", 7, "stressed"):
        "109c1ef1a6a49f888b4fba14f9f4c8f3d56a4ef43e8ce2003e9f7273e29957d5",
    ("B", "proposed", 2013, "default"):
        "27dab90b7aa883eacaa9fef19bd67cdb61c23b124d00439665ccf2f98415a57c",
    ("B", "proposed", 2013, "ule030"):
        "29e2c8e8d66fc3e4ec9aba5ce6d5a9a8883049661a691f9d514232ebd69d04a0",
    ("B", "proposed", 2013, "stressed"):
        "4adc1ba5c283db20a61a901f941df34c458d7f94896211d52022e477d7672e8b",
    ("B", "baseline", 7, "default"):
        "3975db923f923db64adbf23d03828ce6256bb3dc8730fc61b0202f2a02e2dda5",
    ("B", "baseline", 7, "ule030"):
        "7bd8eb68a91ed49fd9ce2da6e482046a4b4ba501d860361f1704b19c908d8967",
    ("B", "baseline", 7, "stressed"):
        "f1d078527b4de63b4ee33aad1e3c21d685a20dc525c7b6d4271cf9038a8f5be5",
    ("B", "baseline", 2013, "default"):
        "27dab90b7aa883eacaa9fef19bd67cdb61c23b124d00439665ccf2f98415a57c",
    ("B", "baseline", 2013, "ule030"):
        "b5e6cac9b2556b09ee702a58abba82d047d5ef10393018a5113d9f6deaa1fe89",
    ("B", "baseline", 2013, "stressed"):
        "2ad5a3f6fc078f7be1c4be76f50bafdb1b74069be49bf6a3236b9574fe12b1d3",
}

#: PCG64 state after one ``sample_cache_fault_map`` on
#: ``default_rng(12345)`` (scenario A proposed), with the map's digest,
#: recorded with the population pins.
PINNED_RNG_STATES = {
    ("il1", Mode.ULE, 0.30): (
        291712898127722900041423609019042163573,
        "fba785ad86e36b03526232a336d408e70aa5abe6fe6974e2be68c118b8e1b87b",
    ),
    ("dl1", Mode.HP, 0.62): (
        6996842632223612532857638620367870677,
        "2e3c60fd52f6bb62cec1eccc85db1aae894c85a8035834345b1831a661fac8a5",
    ),
}
PINNED_RNG_INC = 268209174141567072605526753992732310247


class TestPinnedDraws:
    @pytest.mark.parametrize(
        "scenario, which, seed, supplies", sorted(PINNED_POPULATIONS)
    )
    def test_population_digest_is_pinned(
        self, request, scenario, which, seed, supplies
    ):
        chips = request.getfixturevalue(f"chips_{scenario.lower()}")
        config = getattr(chips, which).config
        maps = sample_population(
            config.il1, config.dl1, 30, seed=seed,
            mode_vdds=PINNED_MODE_VDDS[supplies],
        )
        assert canonical_digest(maps) == PINNED_POPULATIONS[
            (scenario, which, seed, supplies)
        ]

    @pytest.mark.parametrize("cache, mode, vdd", sorted(
        PINNED_RNG_STATES, key=lambda key: key[0]
    ))
    def test_caller_rng_is_left_in_the_pinned_state(
        self, chips_a, cache, mode, vdd
    ):
        """A caller-supplied generator advances by exactly the draws
        it always made, so code sampling after it sees the same
        stream."""
        config = getattr(chips_a.proposed.config, cache)
        rng = np.random.default_rng(12345)
        entry = sample_cache_fault_map(config, cache, mode, vdd, rng)
        state, digest = PINNED_RNG_STATES[(cache, mode, vdd)]
        assert rng.bit_generator.state == {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": PINNED_RNG_INC},
            "has_uint32": 0,
            "uinteger": 0,
        }
        assert canonical_digest(entry) == digest

    @pytest.mark.parametrize("supplies", sorted(PINNED_MODE_VDDS))
    def test_single_die_equals_its_population_entry(
        self, chips_b, supplies
    ):
        """The one-off plan of ``sample_die_fault_map`` and the shared
        plan of ``sample_population`` draw the same die."""
        config = chips_b.proposed.config
        mode_vdds = PINNED_MODE_VDDS[supplies]
        population = sample_population(
            config.il1, config.dl1, 25, seed=7, mode_vdds=mode_vdds
        )
        for die in (0, 1, 9, 17, 24):
            assert sample_die_fault_map(
                config.il1, config.dl1, 7, die, mode_vdds=mode_vdds
            ) == population[die]
