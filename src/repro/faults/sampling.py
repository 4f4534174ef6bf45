"""Seeded die sampling from the variation models.

One die is one draw from the parametric-variation substrate: every
stored bit of every powered way fails independently with the analytic
per-bit probability of its sized cell at the mode's supply (the cell's
own :meth:`repro.cells.SizedCell.failure_probability` — for SRAM the
same Pelgrom-margin model the Fig. 2 methodology sizes against).  A *word* is unusable when its
hard-fault count exceeds the correction budget of the EDC scheme active
in that mode; a *line* is disabled when any of its data or tag words is
unusable — the fault-aware way design of Section 3.

The hard-fault budget is derived from the configuration itself: a way
group only spends EDC corrections on hard faults in the modes where its
decode is inline (``WayGroupConfig.edc_inline_modes`` — the proposed 8T
way at ULE mode).  Off-critical-path coding (the baselines' SECDED) is
reserved for soft errors and absorbs no hard faults, exactly as the
yield methodology assumes.

Sampling is seeded and order-independent: each (die, cache, mode)
triple draws from its own :func:`repro.util.rng.derive_seed` child
stream, so die 17 of a 200-die population is bit-identical to die 17 of
a 1000-die population with the same root seed.

Everything a draw needs that does not depend on the die — failure
probabilities, bit counts, budgets, way indices — is evaluated once
per (cache, mode) into a sampling plan; a population shares its plans
across dies, so each die costs only its binomial draws.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from repro.cache.config import CacheConfig
from repro.edc.protection import ProtectionScheme
from repro.faults.maps import CACHE_LABELS, CacheFaultMap, DieFaultMap
from repro.tech.operating import Mode, operating_point_for
from repro.util.profiling import phase
from repro.util.rng import derive_seed


def default_mode_vdds() -> dict[Mode, float]:
    """The paper's supplies per mode (1 V at HP, 350 mV at ULE)."""
    return {
        mode: operating_point_for(mode).vdd
        for mode in (Mode.HP, Mode.ULE)
    }


def _group_hard_budgets(group, mode: Mode) -> tuple[int, int]:
    """(data, tag) hard-fault budgets of one way group in one mode."""
    if not group.edc_inline(mode):
        return 0, 0
    data = group.data_protection.get(mode, ProtectionScheme.NONE)
    tag = group.tag_protection.get(mode, ProtectionScheme.NONE)
    return data.hard_fault_budget, tag.hard_fault_budget


class _GroupDraw(NamedTuple):
    """What one powered way group's draw needs, evaluated once."""

    pf: float
    data_bits: int
    tag_bits: int
    budget_data: int
    budget_tag: int
    ways: np.ndarray


class _SamplingPlan(NamedTuple):
    """The loop-invariant part of sampling one array in one mode."""

    sets: int
    words_per_line: int
    groups: tuple[_GroupDraw, ...]


def _sampling_plan(
    config: CacheConfig, mode: Mode, vdd: float
) -> _SamplingPlan:
    """Evaluate every die-independent quantity of one (array, mode).

    The analytic per-bit failure probability is the expensive part of a
    draw and depends only on the cell and ``vdd``, so a population
    evaluates it once here instead of once per die.  Groups that are
    unpowered in ``mode`` or cannot fail are left out, exactly as the
    draw skips them.
    """
    groups = []
    for group in config.way_groups:
        if not group.is_active(mode):
            continue
        pf = float(group.cell.failure_probability(vdd))
        pf = min(max(pf, 0.0), 1.0)
        if pf == 0.0:
            continue
        budget_data, budget_tag = _group_hard_budgets(group, mode)
        groups.append(
            _GroupDraw(
                pf=pf,
                data_bits=(
                    config.data_word_bits
                    + group.active_data_check_bits(mode)
                ),
                tag_bits=(
                    config.tag_bits + group.active_tag_check_bits(mode)
                ),
                budget_data=budget_data,
                budget_tag=budget_tag,
                ways=np.asarray(config.ways_of_group(group.name)),
            )
        )
    return _SamplingPlan(
        sets=config.sets,
        words_per_line=config.words_per_line,
        groups=tuple(groups),
    )


def _draw_cache_fault_map(
    plan: _SamplingPlan, cache: str, mode: Mode, rng: np.random.Generator
) -> CacheFaultMap:
    """One array's disabled lines: the per-die half of a draw.

    Fault counts per stored word are binomial draws — data then tag,
    group by group — and a line is disabled when any word exceeds the
    group's hard-fault budget in ``mode``.
    """
    disabled: list[tuple[int, int]] = []
    for group in plan.groups:
        data_faults = rng.binomial(
            group.data_bits,
            group.pf,
            size=(len(group.ways), plan.sets, plan.words_per_line),
        )
        tag_faults = rng.binomial(
            group.tag_bits, group.pf, size=(len(group.ways), plan.sets)
        )
        bad = (data_faults > group.budget_data).any(axis=2) | (
            tag_faults > group.budget_tag
        )
        positions, set_indices = np.nonzero(bad)
        disabled.extend(
            zip(set_indices.tolist(), group.ways[positions].tolist())
        )
    return CacheFaultMap(
        cache=cache, mode=mode, disabled=tuple(sorted(disabled))
    )


def sample_cache_fault_map(
    config: CacheConfig,
    cache: str,
    mode: Mode,
    vdd: float,
    rng: np.random.Generator,
) -> CacheFaultMap:
    """Draw one array's disabled lines for one mode.

    Every powered way group is sampled with its own cell's analytic
    per-bit failure probability at ``vdd``; fault counts per stored
    word are binomial draws, and a line is disabled when any word
    exceeds the group's hard-fault budget in ``mode``.
    """
    return _draw_cache_fault_map(
        _sampling_plan(config, mode, vdd), cache, mode, rng
    )


def _die_plans(
    il1: CacheConfig,
    dl1: CacheConfig,
    mode_vdds: Mapping[Mode, float] | None,
) -> tuple[tuple[str, Mode, _SamplingPlan], ...]:
    """Every (cache, mode) plan of a die, in draw order."""
    mode_vdds = dict(mode_vdds or default_mode_vdds())
    return tuple(
        (cache, mode, _sampling_plan(config, mode, mode_vdds[mode]))
        for cache, config in zip(CACHE_LABELS, (il1, dl1))
        for mode in sorted(mode_vdds, key=lambda m: m.value)
    )


def _draw_die(
    plans: tuple[tuple[str, Mode, _SamplingPlan], ...], seed: int, die: int
) -> DieFaultMap:
    """One die's normalized fault map from its (cache, mode) plans."""
    entries: list[CacheFaultMap] = []
    for cache, mode, plan in plans:
        rng = np.random.default_rng(
            derive_seed(seed, "faults", die, cache, mode.value)
        )
        entry = _draw_cache_fault_map(plan, cache, mode, rng)
        if entry.disabled:
            entries.append(entry)
    return DieFaultMap(entries=tuple(entries))


def sample_die_fault_map(
    il1: CacheConfig,
    dl1: CacheConfig,
    seed: int,
    die: int,
    mode_vdds: Mapping[Mode, float] | None = None,
) -> DieFaultMap:
    """Draw one die's fault map over both L1 arrays and both modes.

    IL1 and DL1 are sampled independently even when they share a
    configuration — they are distinct silicon.  The result is
    normalized (fault-free entries dropped), so every clean die shares
    one canonical content and the engine runs it once.
    """
    return _draw_die(_die_plans(il1, dl1, mode_vdds), seed, die)


def sample_population(
    il1: CacheConfig,
    dl1: CacheConfig,
    dies: int,
    seed: int,
    mode_vdds: Mapping[Mode, float] | None = None,
) -> tuple[DieFaultMap, ...]:
    """Draw a whole die population (index-stable, see module docs).

    The plans are built once per population; each die then costs only
    its binomial draws.
    """
    if dies < 1:
        raise ValueError("dies must be at least 1")
    with phase("faults.sample"):
        plans = _die_plans(il1, dl1, mode_vdds)
        return tuple(_draw_die(plans, seed, die) for die in range(dies))


def functional_fraction(
    maps: tuple[DieFaultMap, ...], mode: Mode = Mode.ULE
) -> float:
    """Fraction of dies with no disabled line in ``mode`` — the
    sampled counterpart of the paper's Eq. (2) yield."""
    if not maps:
        return 0.0
    working = sum(
        1
        for die_map in maps
        if all(
            not die_map.disabled_for(cache, mode)
            for cache in CACHE_LABELS
        )
    )
    return working / len(maps)
