"""Deterministic numeric featurization of exploration candidates.

The surrogate (:mod:`repro.explore.surrogate`) regresses simulated
campaign objectives against *cheap* candidate descriptions.  This module
turns a :class:`~repro.explore.candidates.Candidate` into a fixed-width
float vector built from two ingredient groups:

* **axis features** — the sweep point itself: numeric axes pass through
  as floats (sizes in log2, supplies in volts), categorical axes expand
  to one-hot columns over the values observed in the candidate set, so
  a schema is exactly as wide as the space under study;
* **analytic features** — quantities the methodology already computes
  without any simulation: cache area, ULE-way yield and the sized
  cell's area factor.  They carry most of the physics (a bigger cell
  means more energy per access) and cost nothing, which is what makes
  the surrogate sample-efficient.

Everything is deterministic: the column order is fixed by the schema
(sorted axis names, sorted category values), and the analytic features
are memoized by the candidate's *content digest* — the same canonical
config digests the engine's job keys use — so repeated featurization of
equal hardware is a dictionary hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cacti.model import CacheEnergyModel
from repro.explore.candidates import Candidate
from repro.util.memo import ValueMemo

#: Axes whose values are powers of two; featurized in log2 so one step
#: along the axis is one unit of feature space.
_LOG2_AXES = frozenset({"size_kb", "line_bytes", "ways", "ule_ways"})

#: Analytic (simulation-free) candidate metrics, memoized by the
#: candidate's hardware digest + its ULE operating point.
_FREE_METRIC_MEMO: ValueMemo[dict[str, float]] = ValueMemo(limit=4096)


def chip_cache_area_mm2(chip) -> float:
    """Total L1 silicon of a chip (IL1 + DL1), in mm^2."""
    il1 = CacheEnergyModel(chip.il1).area
    dl1 = (
        il1
        if chip.dl1 is chip.il1 or chip.dl1 == chip.il1
        else CacheEnergyModel(chip.dl1).area
    )
    return (il1 + dl1) * 1e6


def free_metrics(candidate: Candidate) -> dict[str, float]:
    """Candidate metrics known *without* simulating anything.

    ``area_mm2``, ``yield`` and ``ule_size_factor`` come straight from
    the sizing methodology and the area model; the campaign reduction
    reports them and the surrogate loop treats them as exact (only
    simulated metrics are ever predicted).  Memoized by the candidate's
    content digest, so equal hardware across rounds and campaigns pays
    the area model once.
    """
    metrics = _FREE_METRIC_MEMO.lookup(
        (candidate.digest, candidate.ule_point),
        lambda: {
            "area_mm2": chip_cache_area_mm2(candidate.chip),
            "yield": candidate.ule_design.yield_value,
            "ule_size_factor": candidate.ule_design.cell.size_factor,
        },
    )
    return dict(metrics)  # callers may mutate their copy


@dataclass(frozen=True)
class FeatureSchema:
    """A fixed, ordered mapping from candidates to feature vectors.

    Attributes:
        numeric_axes: axis names featurized as one float column each.
        categorical_axes: (axis name, ordered category values) pairs,
            each expanding to one one-hot column per value.
        analytic: analytic feature names appended after the axes.
    """

    numeric_axes: tuple[str, ...]
    categorical_axes: tuple[tuple[str, tuple[str, ...]], ...]
    analytic: tuple[str, ...]

    @classmethod
    def from_candidates(
        cls, candidates: Sequence[Candidate]
    ) -> "FeatureSchema":
        """Derive the schema covering a candidate set.

        Axis names sort alphabetically; categorical values sort by
        text.  Booleans count as numeric (0/1).  The schema depends
        only on the candidate *set*, never on its order, so serial and
        parallel campaigns featurize identically.
        """
        if not candidates:
            raise ValueError("a feature schema needs candidates")
        values_by_axis: dict[str, set] = {}
        for candidate in candidates:
            for axis, value in candidate.point:
                values_by_axis.setdefault(axis, set()).add(value)
        numeric: list[str] = []
        categorical: list[tuple[str, tuple[str, ...]]] = []
        for axis in sorted(values_by_axis):
            values = values_by_axis[axis]
            if all(
                isinstance(value, (int, float, bool))
                for value in values
            ):
                numeric.append(axis)
            else:
                categorical.append(
                    (axis, tuple(sorted(str(v) for v in values)))
                )
        return cls(
            numeric_axes=tuple(numeric),
            categorical_axes=tuple(categorical),
            analytic=("area_mm2", "yield", "ule_size_factor"),
        )

    @property
    def columns(self) -> tuple[str, ...]:
        """Ordered human-readable column labels."""
        labels = list(self.numeric_axes)
        for axis, values in self.categorical_axes:
            labels.extend(f"{axis}={value}" for value in values)
        labels.extend(self.analytic)
        return tuple(labels)

    def featurize(self, candidate: Candidate) -> np.ndarray:
        """The candidate's feature vector under this schema."""
        point = candidate.point_dict()
        analytic = free_metrics(candidate)
        row = np.zeros(len(self.columns), dtype=float)
        cursor = 0
        for axis in self.numeric_axes:
            value = float(point.get(axis, 0.0))
            if axis in _LOG2_AXES and value > 0.0:
                value = float(np.log2(value))
            row[cursor] = value
            cursor += 1
        for axis, values in self.categorical_axes:
            text = str(point.get(axis, ""))
            for value in values:
                if text == value:
                    row[cursor] = 1.0
                cursor += 1
        for name in self.analytic:
            value = analytic[name]
            # Yields live in (0, 1] and areas in mm^2; log-compress the
            # strictly positive ones so decades of area do not drown
            # the one-hot columns in the kNN distance.
            row[cursor] = float(np.log(value)) if value > 0.0 else 0.0
            cursor += 1
        return row

    def matrix(self, candidates: Sequence[Candidate]) -> np.ndarray:
        """Feature rows for a candidate sequence, in the given order."""
        if not candidates:
            return np.zeros((0, len(self.columns)), dtype=float)
        return np.stack(
            [self.featurize(candidate) for candidate in candidates]
        )
