"""The full chip: in-order core + IL1 + DL1 + core arrays + energy ledger.

:class:`Chip.run` is the reproduction's MPSim: it streams a trace through
the functional caches via the simulation engine
(:func:`repro.engine.backends.simulate_cache`), derives the cycle count
from the timing model, and prices every event with the CACTI-like energy
models — producing the energy-per-instruction (EPI) breakdowns of the
paper's Figures 3 and 4.

Memory energy is deliberately excluded, as in the paper ("we did not
include memory energy in our results"); memory *latency* is included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.cache.config import CacheConfig
from repro.cache.stats import CacheStats
from repro.cacti.model import AccessEnergy, CacheEnergyModel
from repro.cpu.arrays import CoreArrays
from repro.cpu.power import EnergyLedger
from repro.cpu.timing import TimingParams, TimingResult, compute_timing
from repro.cpu.trace import Trace
from repro.engine.backends import simulate_cache
from repro.tech.operating import Mode, OperatingPoint, operating_point_for
from repro.util.memo import IdentityMemo
from repro.util.profiling import phase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.maps import DieFaultMap
    from repro.transients.spec import TransientSpec


@dataclass(frozen=True)
class ChipConfig:
    """A complete chip configuration.

    Attributes:
        name: configuration label (e.g. "A-baseline").
        il1 / dl1: the L1 cache configurations.
        core_arrays: register file / TLB models (10T, shared design).
        core_logic_cap: effective switched capacitance of the core logic
            per instruction (F) — the Wattch-style lumped core model.
        core_leak_gates: equivalent minimum-gate count for core logic
            leakage.
        timing: pipeline timing constants.
    """

    name: str
    il1: CacheConfig
    dl1: CacheConfig
    core_arrays: CoreArrays
    core_logic_cap: float
    core_leak_gates: int
    timing: TimingParams = field(default_factory=TimingParams)


@dataclass(frozen=True)
class RunResult:
    """Everything measured in one benchmark run on one chip."""

    chip_name: str
    trace_name: str
    mode: Mode
    operating_point: OperatingPoint
    timing: TimingResult
    energy: EnergyLedger
    il1_stats: CacheStats
    dl1_stats: CacheStats

    @property
    def epi(self) -> float:
        """Energy per instruction (J)."""
        return self.energy.total / max(self.timing.instructions, 1)

    @property
    def execution_seconds(self) -> float:
        """Wall-clock run time at the operating point the run used.

        Uses the stored :attr:`operating_point` — an overridden point
        (e.g. the Vcc ablation's) changes the implied wall clock, not
        just the energy.
        """
        return self.operating_point.cycle_time * self.timing.cycles


def suite_mode_metrics(
    results,
    modes: tuple[tuple[Mode, str], ...] = (
        (Mode.ULE, "ule"),
        (Mode.HP, "hp"),
    ),
) -> dict[str, float]:
    """Suite-mean EPI and seconds-per-instruction per mode.

    The shared reduction of the exploration campaigns and population
    studies: results are grouped by their run mode and averaged into
    ``epi_<label>`` / ``spi_<label>`` entries.  Modes with no runs
    reduce to 0.0.
    """
    by_mode: dict[Mode, list[RunResult]] = {
        mode: [] for mode, _ in modes
    }
    for result in results:
        if result.mode in by_mode:
            by_mode[result.mode].append(result)
    metrics: dict[str, float] = {}
    for mode, label in modes:
        runs = by_mode[mode]
        metrics[f"epi_{label}"] = _mean(r.epi for r in runs)
        metrics[f"spi_{label}"] = _mean(
            r.execution_seconds / max(r.timing.instructions, 1)
            for r in runs
        )
    return metrics


def _mean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


#: Operating points whose energy terms one chip keeps.  A population
#: or sweep runs one point per mode; ablations visit a few supplies.
_ENERGY_TERMS_LIMIT = 16


class _CacheTerms(NamedTuple):
    """One cache's per-event energies and powers at one operating point.

    ``groups`` holds, per way group, its name and its read-hit extra,
    write-hit, fill and writeback energies.
    """

    probe_read: AccessEnergy
    probe_write: AccessEnergy
    groups: tuple[
        tuple[str, AccessEnergy, AccessEnergy, AccessEnergy, AccessEnergy],
        ...,
    ]
    leakage: AccessEnergy
    refresh: float


class _EnergyTerms(NamedTuple):
    """Everything the ledger prices a run with at one operating point,
    apart from the run's own event counts and duration."""

    il1: _CacheTerms
    dl1: _CacheTerms
    core_arrays_leakage: float
    core_logic_leakage: float


def _cache_terms(model: CacheEnergyModel, op: OperatingPoint) -> _CacheTerms:
    """Evaluate one cache's energy models at ``op``."""
    return _CacheTerms(
        probe_read=model.probe_read_energy(op),
        probe_write=model.probe_write_energy(op),
        groups=tuple(
            (
                group_name,
                model.read_hit_extra_energy(group_name, op),
                model.write_hit_energy(group_name, op),
                model.fill_energy(group_name, op),
                model.writeback_energy(group_name, op),
            )
            for group_name in model.groups
        ),
        leakage=model.leakage_power(op),
        refresh=model.refresh_power(op),
    )


class Chip:
    """Executable model of one chip configuration."""

    def __init__(self, config: ChipConfig):
        self.config = config
        self.il1_model = CacheEnergyModel(config.il1)
        self.dl1_model = CacheEnergyModel(config.dl1)
        # The energy and leakage models are pure functions of (model,
        # way group, operating point); every run at a point reuses them.
        self._energy_terms = IdentityMemo(
            self._evaluate_energy_terms, limit=_ENERGY_TERMS_LIMIT
        )

    # ------------------------------------------------------------- running
    def run(
        self,
        trace: Trace,
        mode: Mode,
        operating_point: OperatingPoint | None = None,
        backend: str = "auto",
        fault_map: "DieFaultMap | None" = None,
        transients: "TransientSpec | None" = None,
        simulate=None,
    ) -> RunResult:
        """Execute a trace in ``mode`` and account time and energy.

        ``backend`` selects the functional simulation engine ("auto",
        "vectorized", "numba" or "reference"); all backends are
        bit-identical.
        ``fault_map`` applies one die's disabled-line map
        (:class:`repro.faults.maps.DieFaultMap`) to both L1 arrays; a
        fault-free map is byte-identical to passing None.
        ``transients`` enables soft-error injection
        (:class:`repro.transients.spec.TransientSpec`): read hits are
        classified through each array's sampler, refetch and
        correction stalls enter the cycle count, and refetch + scrub
        energy enter the ledger.  A *null* spec is byte-identical to
        passing None.
        ``simulate`` swaps the functional simulation entry point — a
        callable with :func:`repro.engine.backends.simulate_cache`'s
        signature.  The batching layer passes a wrapper that reuses
        per-trace plans and memoizes identical functional simulations
        across the jobs of a batch; everything downstream (timing,
        energy, the result record) is shared code, which is what keeps
        the batched path bit-identical to this per-job one.
        """
        op = operating_point or operating_point_for(mode)
        if op.mode is not mode:
            raise ValueError("operating point does not match mode")
        from repro.transients.spec import TransientSpec

        spec = TransientSpec.effective(transients)
        il1_sampler = dl1_sampler = None
        if spec is not None:
            from repro.transients.sampling import make_sampler

            il1_sampler = make_sampler(
                self.config.il1, mode, op, spec, "il1"
            )
            dl1_sampler = make_sampler(
                self.config.dl1, mode, op, spec, "dl1"
            )

        # Functional simulation: instruction fetches then data accesses.
        # Each cache names its replacement policy; non-LRU policies make
        # backend="auto" fall back to the reference model per cache.
        il1_disabled = (
            fault_map.disabled_for("il1", mode) if fault_map else ()
        )
        dl1_disabled = (
            fault_map.disabled_for("dl1", mode) if fault_map else ()
        )
        sim = simulate if simulate is not None else simulate_cache
        il1_stats = sim(
            self.config.il1, mode, trace.pc,
            policy=self.config.il1.replacement, backend=backend,
            disabled_lines=il1_disabled,
            transients=il1_sampler,
        )
        addresses, is_write = trace.memory_stream()
        dl1_stats = sim(
            self.config.dl1, mode, addresses, is_write,
            policy=self.config.dl1.replacement, backend=backend,
            disabled_lines=dl1_disabled,
            transients=dl1_sampler,
        )

        with phase("run.reduce"):
            recovery = 0.0
            if spec is not None:
                from repro.transients.recovery import recovery_cycles

                recovery = recovery_cycles(
                    self.config.il1, mode, il1_stats, spec,
                    self.config.timing.memory_latency_cycles,
                ) + recovery_cycles(
                    self.config.dl1, mode, dl1_stats, spec,
                    self.config.timing.memory_latency_cycles,
                )
            timing = compute_timing(
                trace.summary,
                il1_misses=il1_stats.misses,
                dl1_misses=dl1_stats.misses,
                il1_hit_latency=self.il1_model.hit_latency_cycles(op),
                dl1_hit_latency=self.dl1_model.hit_latency_cycles(op),
                params=self.config.timing,
                recovery_cycles=recovery,
            )
            energy = self._account_energy(
                trace, op, timing, il1_stats, dl1_stats, transients=spec
            )
            return RunResult(
                chip_name=self.config.name,
                trace_name=trace.name,
                mode=mode,
                operating_point=op,
                timing=timing,
                energy=energy,
                il1_stats=il1_stats,
                dl1_stats=dl1_stats,
            )

    # -------------------------------------------------------------- energy
    def _evaluate_energy_terms(self, op: OperatingPoint) -> _EnergyTerms:
        return _EnergyTerms(
            il1=_cache_terms(self.il1_model, op),
            dl1=_cache_terms(self.dl1_model, op),
            core_arrays_leakage=self.config.core_arrays.leakage_power(op),
            core_logic_leakage=self._core_logic_leakage(op),
        )

    def _account_energy(
        self,
        trace: Trace,
        op: OperatingPoint,
        timing: TimingResult,
        il1_stats: CacheStats,
        dl1_stats: CacheStats,
        transients: "TransientSpec | None" = None,
    ) -> EnergyLedger:
        with phase("energy.account"):
            terms = self._energy_terms(op)
            ledger = EnergyLedger()
            self._account_cache(ledger, "il1", terms.il1, il1_stats)
            self._account_cache(ledger, "dl1", terms.dl1, dl1_stats)

            seconds = timing.cycles * op.cycle_time
            if transients is not None:
                from repro.transients.recovery import (
                    account_transient_energy,
                )

                for label, model, stats in (
                    ("il1", self.il1_model, il1_stats),
                    ("dl1", self.dl1_model, dl1_stats),
                ):
                    account_transient_energy(
                        ledger, label, model, stats, op,
                        transients, seconds,
                    )
            for label, cache_terms in (
                ("il1", terms.il1),
                ("dl1", terms.dl1),
            ):
                leak = cache_terms.leakage
                ledger.add(f"{label}.leakage", leak.array * seconds)
                ledger.add(f"{label}.edc.leakage", leak.edc * seconds)
                # Dynamic cell technologies pay retention refresh for as
                # long as the run holds state.  The component is created
                # only when nonzero, so all-SRAM ledgers stay
                # byte-identical to the pre-refresh model.
                refresh = cache_terms.refresh
                if refresh > 0.0:
                    ledger.add(f"{label}.refresh", refresh * seconds)

            # Core: lumped logic plus the 10T arrays.
            summary = trace.summary
            logic = (
                summary.instructions
                * self.config.core_logic_cap
                * op.vdd
                * op.vdd
            )
            ledger.add("core.logic", logic)
            arrays = self.config.core_arrays
            ledger.add(
                "core.arrays.dynamic",
                arrays.dynamic_energy(
                    op,
                    instructions=summary.instructions,
                    memory_ops=summary.memory_ops,
                ),
            )
            ledger.add(
                "core.arrays.leakage", terms.core_arrays_leakage * seconds
            )
            ledger.add(
                "core.leakage", terms.core_logic_leakage * seconds
            )
            return ledger

    def _core_logic_leakage(self, op: OperatingPoint) -> float:
        from repro.cacti.components import gate_leakage

        return self.config.core_leak_gates * gate_leakage(
            op.vdd, self.config.core_arrays.cell.node
        )

    def _account_cache(
        self,
        ledger: EnergyLedger,
        label: str,
        terms: _CacheTerms,
        stats: CacheStats,
    ) -> None:
        probe_read = terms.probe_read
        probe_write = terms.probe_write
        ledger.add(f"{label}.dynamic", stats.reads * probe_read.array)
        ledger.add(f"{label}.edc", stats.reads * probe_read.edc)
        ledger.add(f"{label}.dynamic", stats.writes * probe_write.array)
        ledger.add(f"{label}.edc", stats.writes * probe_write.edc)

        for group_name, read_hit, write_hit, fill, writeback in terms.groups:
            read_hits = stats.group_read_hits.get(group_name, 0)
            write_hits = stats.group_write_hits.get(group_name, 0)
            fills = stats.group_fills.get(group_name, 0)
            writebacks = stats.group_writebacks.get(group_name, 0)
            events = (
                (read_hits, read_hit),
                (write_hits, write_hit),
                (fills, fill),
                (writebacks, writeback),
            )
            for count, access in events:
                if count:
                    ledger.add(f"{label}.dynamic", count * access.array)
                    ledger.add(f"{label}.edc", count * access.edc)
