"""The multi-way LRU run kernel against the reference model.

Conflict-heavy random streams (evictions and writebacks on every
branch of ``engine/vectorized._accumulate_lru_runs``), with and
without a mixed fault map that fully disables one set, must agree
bit-for-bit with the reference ``HybridCache`` — soft-error injection
included, so the kernel's per-run transient records are checked too.
"""

import numpy as np
import pytest

from repro.core.architect import build_cache_pair
from repro.engine.backends import simulate_cache
from repro.tech.operating import Mode, operating_point_for
from repro.transients import TransientSpec, make_sampler


#: Multi-way LRU variants: the paper's 7+1 split at HP (seven
#: unprotected ways) and a 4+4 split at ULE (four EDC-protected ways,
#: where a soft error's class depends on the line's dirtiness).
MULTIWAY = (((7, 1), Mode.HP), ((4, 4), Mode.ULE))


def _conflict_stream(rng, n=6_000):
    """2,048 distinct lines, 30 % writes: small enough an address space
    to force evictions and writebacks, the branches runny benchmark
    streams rarely stress."""
    addresses = rng.integers(0, 2_048, size=n).astype(np.uint64) * 32
    is_write = rng.random(n) < 0.3
    return addresses, is_write


def _agree(config, mode, addresses, is_write, disabled_lines=()):
    """Both backends, with and without soft-error injection; returns
    the injected vectorized counters."""
    sampler = make_sampler(
        config, mode, operating_point_for(mode),
        TransientSpec(
            acceleration=1e19, scrub_interval_seconds=1e-6, seed=7
        ),
        "dl1",
    )
    for transients in (None, sampler):
        reference, vectorized = (
            simulate_cache(
                config, mode, addresses, is_write,
                backend=backend, disabled_lines=disabled_lines,
                transients=transients,
            )
            for backend in ("reference", "vectorized")
        )
        assert reference == vectorized
        for attr in (
            "group_read_hits",
            "group_write_hits",
            "group_fills",
            "group_writebacks",
        ):
            assert dict(getattr(reference, attr)) == dict(
                getattr(vectorized, attr)
            )
    assert vectorized.transient_affected > 0  # records were exercised
    return vectorized


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_conflict_heavy_streams(self, design_a, seed):
        addresses, is_write = _conflict_stream(np.random.default_rng(seed))
        for (hp_ways, ule_ways), mode in MULTIWAY:
            _, proposed = build_cache_pair(
                design_a, hp_ways=hp_ways, ule_ways=ule_ways
            )
            stats = _agree(proposed, mode, addresses, is_write)
            assert stats.writebacks > 0

    @pytest.mark.parametrize("seed", [3, 4])
    def test_fault_maps_including_fully_disabled_sets(
        self, design_a, seed
    ):
        """Partial disables reduce per-set associativity; a set whose
        every active way is disabled must bypass."""
        rng = np.random.default_rng(seed)
        addresses, is_write = _conflict_stream(rng)
        for (hp_ways, ule_ways), mode in MULTIWAY:
            _, proposed = build_cache_pair(
                design_a, hp_ways=hp_ways, ule_ways=ule_ways
            )
            actives = [
                way
                for way, active in enumerate(proposed.active_way_mask(mode))
                if active
            ]
            disabled = {
                (int(rng.integers(0, proposed.sets)), int(way))
                for way in rng.choice(actives, size=3, replace=False)
            }
            # Set 0: every active way dead — the graceful-bypass path.
            disabled |= {(0, way) for way in actives}
            stats = _agree(
                proposed, mode, addresses, is_write,
                disabled_lines=tuple(sorted(disabled)),
            )
            assert stats.bypasses > 0
