"""Pareto-frontier and sensitivity reductions over sweep results.

Pure functions over rows of ``{metric: value}`` mappings — no
simulation, no I/O — so the CLI's ``pareto`` subcommand can re-reduce a
saved campaign without re-running anything.  Every frontier in the
package comes from one routine, :func:`nondominated_indices`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.util.tables import Table

#: Rows per comparison block of :func:`nondominated_indices`.
_BLOCK_ROWS = 256


@dataclass(frozen=True)
class Objective:
    """One optimization direction over a metric."""

    metric: str
    maximize: bool = False

    @classmethod
    def parse(cls, text: str) -> "Objective":
        """Parse ``"metric"``, ``"metric:min"`` or ``"metric:max"``."""
        name, _, direction = text.partition(":")
        direction = direction or "min"
        if direction not in ("min", "max"):
            raise ValueError(
                f"bad objective {text!r}; use metric[:min|:max]"
            )
        return cls(metric=name, maximize=direction == "max")

    def __str__(self) -> str:
        return f"{self.metric}:{'max' if self.maximize else 'min'}"


#: The standard exploration objectives: energy, speed, silicon, yield.
DEFAULT_OBJECTIVES = (
    Objective("epi_ule"),
    Objective("spi_ule"),
    Objective("area_mm2"),
    Objective("yield", maximize=True),
)


def dominates(
    a: Mapping[str, float],
    b: Mapping[str, float],
    objectives: Sequence[Objective],
) -> bool:
    """Whether ``a`` is at least as good as ``b`` everywhere and
    strictly better somewhere."""
    strictly_better = False
    for objective in objectives:
        va, vb = a[objective.metric], b[objective.metric]
        if objective.maximize:
            va, vb = -va, -vb
        if va > vb:
            return False
        if va < vb:
            strictly_better = True
    return strictly_better


def objective_matrix(
    rows: Sequence[Mapping[str, float]],
    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
) -> np.ndarray:
    """Rows as a float matrix in *minimization* orientation: column
    ``j`` is objective ``j``'s metric, negated when it maximizes."""
    matrix = np.empty((len(rows), len(objectives)), dtype=float)
    for j, objective in enumerate(objectives):
        sign = -1.0 if objective.maximize else 1.0
        matrix[:, j] = [sign * row[objective.metric] for row in rows]
    return matrix


def nondominated_indices(matrix: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated rows of a minimization matrix.

    Row ``j`` dominates row ``i`` as in :func:`dominates`: no column
    larger, some column smaller.  Indices come back in input order;
    exact duplicates never dominate each other, so every copy stays.
    """
    n = len(matrix)
    keep = np.empty(n, dtype=bool)
    for start in range(0, n, _BLOCK_ROWS):
        block = matrix[start : start + _BLOCK_ROWS]
        # better[b, j]: row j beats block row b in some column.
        better = np.zeros((len(block), n), dtype=bool)
        worse = np.zeros_like(better)
        for column, own in zip(matrix.T, block.T):
            better |= column < own[:, None]
            worse |= column > own[:, None]
        keep[start : start + _BLOCK_ROWS] = ~(better & ~worse).any(axis=1)
    return np.flatnonzero(keep)


def pareto_indices(
    rows: Sequence[Mapping[str, float]],
    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
) -> list[int]:
    """Indices of the non-dominated rows, in input order."""
    return nondominated_indices(objective_matrix(rows, objectives)).tolist()


def sensitivity(
    rows: Sequence[Mapping[str, float]],
    axis_values: Sequence[object],
    metric: str,
) -> dict[object, float]:
    """Mean of ``metric`` per distinct axis value (insertion order).

    ``axis_values[i]`` is row ``i``'s assignment on the axis under
    study; the result quantifies how much moving along that axis alone
    shifts the metric on average — the per-axis sensitivity table of
    the exploration report.
    """
    if len(rows) != len(axis_values):
        raise ValueError("rows and axis_values must align")
    sums: dict[object, float] = {}
    counts: dict[object, int] = {}
    for row, value in zip(rows, axis_values):
        sums[value] = sums.get(value, 0.0) + row[metric]
        counts[value] = counts.get(value, 0) + 1
    return {value: sums[value] / counts[value] for value in sums}


def rank_rows(
    rows: Sequence[Mapping[str, float]],
    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
    frontier: set[int] | None = None,
) -> list[int]:
    """Row indices ranked: frontier first, then by the first objective.

    Within each tier (non-dominated / dominated) rows order by the
    primary objective's value, direction-adjusted — a stable, total
    order for the ranked report.  Pass a precomputed ``frontier`` to
    avoid repeating the quadratic dominance scan.
    """
    if frontier is None:
        frontier = set(pareto_indices(rows, objectives))
    primary = objectives[0]

    def key(index: int):
        value = rows[index][primary.metric]
        if primary.maximize:
            value = -value
        return (0 if index in frontier else 1, value, index)

    return sorted(range(len(rows)), key=key)


def render_saved_campaign(
    payload: Mapping,
    objectives: Sequence[Objective] | None = None,
    top: int = 20,
) -> str:
    """Re-reduce and render a campaign saved by ``sweep --save-json``.

    ``objectives=None`` re-uses the objectives recorded in the payload
    (falling back to :data:`DEFAULT_OBJECTIVES`); passing a different
    set re-ranks the same measurements along new axes — the whole point
    of persisting the campaign.
    """
    if objectives is None:
        recorded = payload.get("objectives") or []
        objectives = (
            tuple(Objective.parse(text) for text in recorded)
            or DEFAULT_OBJECTIVES
        )
    candidates = list(payload.get("candidates", []))
    rows = [candidate["metrics"] for candidate in candidates]
    frontier = set(pareto_indices(rows, objectives))
    objective_text = ", ".join(str(o) for o in objectives)
    table = Table(
        ["rank", "candidate", "pareto"]
        + [objective.metric for objective in objectives],
        title=(
            f"Pareto re-reduction — {len(rows)} candidates, "
            f"{len(frontier)} on the frontier [{objective_text}]"
        ),
    )
    ranked = rank_rows(rows, objectives, frontier=frontier)
    for rank, index in enumerate(ranked[:top], 1):
        table.add_row(
            [
                rank,
                candidates[index]["name"],
                "*" if index in frontier else "",
            ]
            + [
                rows[index][objective.metric]
                for objective in objectives
            ]
        )
    return table.render()
