"""Backend equivalence and job identity under die fault maps.

The fault-map edge cases of the population subsystem:

* a zero-fault die is byte-identical to the no-fault-map path (same
  counters, same energy, same engine job key);
* a set — or a whole cache — with every way faulty degrades
  gracefully: accesses bypass to memory, nothing crashes, and both
  backends agree bit-for-bit;
* partial disables reduce the effective associativity per set,
  bit-identically across backends.

Conflict-heavy streams through the multi-way LRU run kernel are in
``test_kernels.py``.
"""

import numpy as np
import pytest

from repro.engine.backends import simulate_cache
from repro.engine.jobs import SimulationJob, TraceSpec, execute_job, job_key
from repro.faults.maps import CacheFaultMap, DieFaultMap
from repro.faults.sampling import sample_die_fault_map
from repro.tech.operating import Mode
from repro.workloads.mediabench import generate_trace


def _results_equal(left, right) -> bool:
    return (
        left.il1_stats == right.il1_stats
        and left.dl1_stats == right.dl1_stats
        and left.timing == right.timing
        and list(left.energy.items()) == list(right.energy.items())
    )


def _job(chips, fault_map=None, mode=Mode.ULE):
    return SimulationJob(
        chip=chips.proposed.config,
        trace=TraceSpec("adpcm_c", 3_000, 42),
        mode=mode,
        fault_map=fault_map,
    )


def _all_lines(config, mode):
    ways = [
        way
        for way, active in enumerate(config.active_way_mask(mode))
        if active
    ]
    return tuple(
        (set_index, way)
        for set_index in range(config.sets)
        for way in ways
    )


class TestZeroFaultDie:
    def test_result_identical_to_no_map(self, chips_a):
        plain = execute_job(_job(chips_a))
        empty = execute_job(_job(chips_a, fault_map=DieFaultMap()))
        assert _results_equal(plain, empty)

    def test_job_key_identical_to_no_map(self, chips_a):
        """Clean dies must share cache entries with map-less runs."""
        assert job_key(_job(chips_a)) == job_key(
            _job(chips_a, fault_map=DieFaultMap())
        )

    def test_faulty_die_changes_job_key(self, chips_a):
        faulty = DieFaultMap(
            entries=(
                CacheFaultMap(
                    cache="il1", mode=Mode.ULE, disabled=((0, 7),)
                ),
            )
        )
        assert job_key(_job(chips_a, fault_map=faulty)) != job_key(
            _job(chips_a)
        )

    def test_equal_maps_share_job_key(self, chips_a):
        entries = (
            CacheFaultMap(
                cache="dl1", mode=Mode.ULE, disabled=((1, 7), (4, 7))
            ),
        )
        a = _job(chips_a, fault_map=DieFaultMap(entries=entries))
        b = _job(chips_a, fault_map=DieFaultMap(entries=entries))
        assert job_key(a) == job_key(b)


class TestGracefulDegradation:
    def test_whole_cache_faulty_still_runs(self, chips_a):
        """Every ULE line disabled in both arrays: everything misses,
        nothing allocates, and the run completes with finite EPI."""
        config = chips_a.proposed.config
        fault_map = DieFaultMap(
            entries=(
                CacheFaultMap(
                    cache="il1",
                    mode=Mode.ULE,
                    disabled=_all_lines(config.il1, Mode.ULE),
                ),
                CacheFaultMap(
                    cache="dl1",
                    mode=Mode.ULE,
                    disabled=_all_lines(config.dl1, Mode.ULE),
                ),
            )
        )
        results = {
            backend: execute_job(
                SimulationJob(
                    chip=config,
                    trace=TraceSpec("adpcm_c", 3_000, 42),
                    mode=Mode.ULE,
                    backend=backend,
                    fault_map=fault_map,
                )
            )
            for backend in ("vectorized", "reference")
        }
        assert _results_equal(
            results["vectorized"], results["reference"]
        )
        result = results["vectorized"]
        for stats in (result.il1_stats, result.dl1_stats):
            assert stats.hits == 0
            assert stats.fills == 0
            assert stats.bypasses == stats.misses == stats.accesses
        assert np.isfinite(result.epi)
        # Strictly worse than a clean die: every access pays the miss.
        clean = execute_job(_job(chips_a))
        assert result.timing.cycles > clean.timing.cycles

    def test_fills_plus_bypasses_equals_misses(self, chips_a):
        config = chips_a.proposed.config.il1
        trace = generate_trace("adpcm_c", length=2_000, seed=1)
        disabled = tuple(
            (set_index, 7) for set_index in range(0, config.sets, 2)
        )
        stats = simulate_cache(
            config, Mode.ULE, trace.pc, disabled_lines=disabled
        )
        assert stats.fills + stats.bypasses == stats.misses
        assert stats.bypasses > 0


class TestBackendEquivalence:
    @pytest.mark.parametrize("mode", [Mode.ULE, Mode.HP])
    def test_sampled_maps_agree_across_backends(self, chips_a, mode):
        """Low-supply sampled maps (dense faults) must simulate
        bit-identically on both backends."""
        config = chips_a.proposed.config
        fault_map = sample_die_fault_map(
            config.il1,
            config.dl1,
            seed=123,
            die=0,
            mode_vdds={Mode.ULE: 0.30, Mode.HP: 0.60},
        )
        assert not fault_map.is_fault_free
        trace = generate_trace("g721_c", length=4_000, seed=9)
        outcomes = [
            chips_a.proposed.run(
                trace, mode, backend=backend, fault_map=fault_map
            )
            for backend in ("vectorized", "reference")
        ]
        assert _results_equal(*outcomes)

    def test_partial_disable_equivalence_hp(self, chips_a):
        """Reduced per-set associativity at HP mode (8 ways)."""
        config = chips_a.proposed.config
        disabled = tuple(
            (set_index, way)
            for set_index in range(config.il1.sets)
            for way in ((0, 3) if set_index % 2 else (5,))
        )
        trace = generate_trace("g721_c", length=4_000, seed=9)
        reference = simulate_cache(
            config.il1, Mode.HP, trace.pc,
            backend="reference", disabled_lines=disabled,
        )
        vectorized = simulate_cache(
            config.il1, Mode.HP, trace.pc,
            backend="vectorized", disabled_lines=disabled,
        )
        assert reference == vectorized
        assert vectorized.bypasses == 0

    def test_out_of_range_lines_rejected(self, chips_a):
        config = chips_a.proposed.config.il1
        trace = generate_trace("adpcm_c", length=500, seed=1)
        for bad in ((config.sets, 0), (0, config.ways)):
            for backend in ("vectorized", "reference"):
                with pytest.raises(ValueError, match="out of range"):
                    simulate_cache(
                        config, Mode.HP, trace.pc,
                        backend=backend, disabled_lines=(bad,),
                    )
