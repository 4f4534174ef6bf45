"""SRAM job-key stability across the pluggable cell-technology API.

The cells refactor (protocol + registry + dynamic technologies) must
not invalidate the on-disk result cache for SRAM work: job keys hash
the chip's *canonical form*, canonical forms walk dataclass fields
only, and the protocol added methods, not fields.  These pins make
that contract explicit:

* ``ENGINE_CACHE_VERSION`` stays exactly 4 — registering a technology
  is not a cache-schema change, so it must NOT bump the version;
* the canonical text of each SRAM ``CellDesign`` is byte-pinned (by
  digest) — if a field sneaks onto the dataclass, this fails before a
  fleet's cache silently invalidates;
* the dynamic technologies get canonical forms *distinct* from every
  SRAM cell, so their results can never alias an SRAM key;
* full job keys of a population job (with and without faults) and of
  a transients job are pinned, and the identity-keyed token memos are
  checked to be order-independent and bounded.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.cells import CELL_6T, CELL_8T, CELL_10T, CellDesign
from repro.cells.edram import EDRAM_1T1C
from repro.cells.gain import GAIN_2T
from repro.engine import jobs
from repro.engine.jobs import (
    ENGINE_CACHE_VERSION,
    SimulationJob,
    TraceSpec,
    job_key,
)
from repro.faults.maps import CacheFaultMap, DieFaultMap
from repro.tech.operating import Mode, OperatingPoint
from repro.transients.spec import TransientSpec
from repro.util.canonical import canonical_text

#: sha256 of ``canonical_text(CellDesign(<topology>, 1.25))``, pinned
#: at the cells-API refactor.  A change here means every cached SRAM
#: result in every fleet cache is orphaned — bump only deliberately.
PINNED_DIGESTS = {
    "6T": "2eb791abde0f5f811e8d2accd0695a144ebb8358b01e8c4c956c871c890e9257",
    "8T": "0386a9e836bde1d02faf21aff4c7090123303b30ba15416f1ba05562dc2b6144",
    "10T": "7283485e9bb4f7bc7191221c7c8d210453ff51a14246c5a3edf926f57e664b1a",
}

TOPOLOGIES = {"6T": CELL_6T, "8T": CELL_8T, "10T": CELL_10T}


def _digest(design) -> str:
    return hashlib.sha256(
        canonical_text(design).encode("utf-8")
    ).hexdigest()


class TestSramKeyStability:
    def test_cache_version_is_exactly_four(self):
        assert ENGINE_CACHE_VERSION == 4

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_sram_canonical_text_is_byte_pinned(self, name):
        design = CellDesign(TOPOLOGIES[name], 1.25)
        assert _digest(design) == PINNED_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_canonical_text_carries_no_protocol_members(self, name):
        """Protocol members are methods/properties, never fields."""
        text = canonical_text(CellDesign(TOPOLOGIES[name], 1.25))
        for member in ("technology", "retention", "refresh"):
            assert member not in text


class TestDynamicCellsCannotAlias:
    @pytest.mark.parametrize("technology", [EDRAM_1T1C, GAIN_2T])
    def test_distinct_class_names_separate_the_keys(self, technology):
        design = technology.design(1.25)
        text = canonical_text(design)
        assert '"__class__":"CellDesign"' not in text
        assert _digest(design) not in PINNED_DIGESTS.values()


#: Full ``job_key`` digests of three representative jobs, recorded
#: before the job-key tokens were memoized.  The package-source
#: fingerprint is replaced by a constant (it changes with every source
#: edit, by design); everything else of the key is pinned.
PINNED_JOB_KEYS = {
    "population_faulty": (
        "8b3956d40c307d5cd9c15509e33ab6117eecf22273f5fe3bfd8d74c8bec4f81f"
    ),
    "population_clean": (
        "f793c7f968b5a6a5d9d5e730a1f76273fab78489aec31c4e18504617c7c866f3"
    ),
    "transients": (
        "ecfaa2743720b4e61597c4e7a508655bbc9d888e6999a8d19b613801d704192e"
    ),
}


@pytest.fixture()
def pinned_code(monkeypatch):
    monkeypatch.setattr(jobs, "_code_fingerprint", lambda: "pinned-code")


def _population_job(config, fault_map, vdd=0.33):
    return SimulationJob(
        chip=config,
        trace=TraceSpec("adpcm_c", 2000, 4),
        mode=Mode.ULE,
        operating_point=OperatingPoint(
            mode=Mode.ULE, vdd=vdd, frequency=5e6
        ),
        fault_map=fault_map,
    )


def _faulty_map():
    return DieFaultMap(
        entries=(
            CacheFaultMap(
                cache="il1", mode=Mode.ULE, disabled=((3, 0), (17, 0))
            ),
            CacheFaultMap(cache="dl1", mode=Mode.ULE, disabled=((5, 0),)),
        )
    )


class TestPinnedJobKeys:
    def test_population_job_with_faults(self, pinned_code, chips_a):
        job = _population_job(chips_a.proposed.config, _faulty_map())
        assert job_key(job) == PINNED_JOB_KEYS["population_faulty"]
        # A warm memo serves the same key.
        assert job_key(job) == PINNED_JOB_KEYS["population_faulty"]

    def test_fault_free_population_job(self, pinned_code, chips_a):
        job = _population_job(chips_a.proposed.config, DieFaultMap())
        assert job_key(job) == PINNED_JOB_KEYS["population_clean"]
        assert job_key(replace(job, fault_map=None)) == (
            PINNED_JOB_KEYS["population_clean"]
        )

    def test_transients_job(self, pinned_code, chips_b):
        job = SimulationJob(
            chip=chips_b.baseline.config,
            trace=TraceSpec("g721_c", 2000, 4),
            mode=Mode.HP,
            transients=TransientSpec(acceleration=1e9, seed=3),
        )
        assert job_key(job) == PINNED_JOB_KEYS["transients"]
        assert job_key(job) == PINNED_JOB_KEYS["transients"]


class TestTokenMemoSafety:
    def test_equal_points_keep_their_own_canonical_text(
        self, pinned_code, chips_a
    ):
        """``vdd=1`` and ``vdd=1.0`` are equal points with different
        canonical texts; whichever is keyed first, each key equals the
        one a never-seen equal object (a memo miss) produces."""
        config = chips_a.proposed.config

        def point(vdd):
            return OperatingPoint(mode=Mode.HP, vdd=vdd, frequency=1e9)

        def key(op):
            return job_key(
                SimulationJob(
                    chip=config,
                    trace=TraceSpec("g721_c", 2000, 4),
                    mode=Mode.HP,
                    operating_point=op,
                )
            )

        assert point(1) == point(1.0)
        assert canonical_text(point(1)) != canonical_text(point(1.0))
        for order in ((1, 1.0), (1.0, 1)):
            points = [point(vdd) for vdd in order]
            keys = [key(op) for op in points]
            assert keys[0] != keys[1]
            for vdd, op, memoized in zip(order, points, keys):
                assert jobs._operating_point_token(op) == canonical_text(op)
                assert memoized == key(point(vdd))

    def test_token_memos_stay_within_their_bounds(self, chips_a):
        config = chips_a.proposed.config
        memos = (
            jobs._chip_token,
            jobs._operating_point_token,
            jobs._fault_map_token,
            jobs._transient_token,
        )
        largest = max(memo.limit for memo in memos)
        for index in range(largest + 8):
            fault_map = DieFaultMap(
                entries=(
                    CacheFaultMap(
                        cache="il1", mode=Mode.ULE,
                        disabled=((index % 64, 0),),
                    ),
                )
            )
            job_key(
                replace(
                    _population_job(
                        config, fault_map, vdd=0.3 + index * 1e-4
                    ),
                    chip=replace(config),
                    transients=TransientSpec(seed=index),
                )
            )
            for memo in memos:
                assert len(memo) <= memo.limit
        for memo in memos:
            assert len(memo) == memo.limit
