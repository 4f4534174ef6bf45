"""Per-operating-point energy terms: a warm chip prices runs exactly
like a fresh one.

``Chip`` evaluates its CACTI/codec energy and leakage models once per
operating point and reuses them for every later run at that point.
These tests hold the ledger of a run on a warm chip bitwise equal
(``==`` on floats, not approx) to the same run on a fresh chip, across
both scenarios, both chips, both modes, with and without soft-error
injection, and for an eDRAM way (the only source of refresh energy).
"""

import pytest

from repro.cpu.chip import Chip
from repro.explore.candidates import build_candidate
from repro.tech.operating import Mode, OperatingPoint
from repro.transients.spec import TransientSpec

CHIPS = [
    ("A", "proposed"),
    ("A", "baseline"),
    ("B", "proposed"),
    ("B", "baseline"),
    ("edram", None),
]

SPECS = {
    "plain": None,
    "injected": TransientSpec(acceleration=1e12, seed=5),
}


@pytest.fixture(scope="module")
def edram_config():
    return build_candidate(
        {"ule_cell": "EDRAM", "ule_scheme": "secded", "suite": "paper"}
    ).chip


def _config(request, scenario, which):
    if scenario == "edram":
        return request.getfixturevalue("edram_config")
    chips = request.getfixturevalue(f"chips_{scenario.lower()}")
    return getattr(chips, which).config


def _ledger(result):
    return list(result.energy.items()), result.energy.total


@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("mode", [Mode.HP, Mode.ULE], ids=str)
@pytest.mark.parametrize("scenario, which", CHIPS)
def test_warm_chip_ledger_is_bitwise_equal_to_a_fresh_one(
    request, small_trace, scenario, which, mode, spec_name
):
    config = _config(request, scenario, which)
    spec = SPECS[spec_name]
    other = Mode.ULE if mode is Mode.HP else Mode.HP
    chip = Chip(config)
    # The other mode in between: each warm run must find its own terms.
    warm = [
        chip.run(small_trace, run_mode, transients=spec)
        for run_mode in (mode, other, mode)
    ]
    fresh = [
        Chip(config).run(small_trace, run_mode, transients=spec)
        for run_mode in (mode, other, mode)
    ]
    assert [_ledger(run) for run in warm] == [_ledger(run) for run in fresh]
    first = warm[0]
    if scenario == "edram" and mode is Mode.ULE:
        assert first.energy.get("il1.refresh") > 0.0
        assert first.energy.get("dl1.refresh") > 0.0


def test_equal_points_are_priced_alike(chips_a, small_trace):
    """Equal operating points held by distinct objects (an overridden
    point, say) price identically, warm or fresh."""
    config = chips_a.proposed.config

    def point():
        return OperatingPoint(mode=Mode.ULE, vdd=0.4, frequency=4e6)

    chip = Chip(config)
    runs = [
        chip.run(small_trace, Mode.ULE, operating_point=point())
        for _ in range(3)
    ]
    fresh = Chip(config).run(small_trace, Mode.ULE, operating_point=point())
    assert all(_ledger(run) == _ledger(fresh) for run in runs)


def test_models_are_evaluated_once_per_point(chips_b, small_trace):
    """Repeated runs at one point reuse the evaluated terms."""
    chip = Chip(chips_b.proposed.config)
    calls = []
    leakage = chip.il1_model.leakage_power

    def counting(op):
        calls.append(op)
        return leakage(op)

    chip.il1_model.leakage_power = counting
    for _ in range(3):
        chip.run(small_trace, Mode.HP)
    chip.run(small_trace, Mode.ULE)
    assert [op.mode for op in calls] == [Mode.HP, Mode.ULE]
