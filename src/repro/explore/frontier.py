"""Frontier quality metrics: hypervolume, knee points, convergence.

Pure numpy reductions over rows of ``{metric: value}`` mappings — the
same row shape :mod:`repro.explore.pareto` consumes — so saved campaigns
re-reduce without any simulation:

* :func:`hypervolume` — the exact dominated volume between a frontier
  and a reference point (WFG-style exclusive-volume recursion), the
  scalar that lets two frontiers be compared as "how much of the
  objective space does each cover";
* :func:`reference_point` — a deterministic reference derived from the
  worst observed value per objective plus a margin, so a surrogate
  campaign and its exhaustive comparator score against the same corner;
* :func:`knee_index` — the frontier row closest to the normalized ideal
  point, the "best compromise" a ranked report can headline;
* :class:`ConvergenceTracker` — the stopping rule of the surrogate
  loop: rounds stop when the relative hypervolume gain stays below a
  tolerance for a configured number of consecutive rounds.

All directions are handled through :class:`~repro.explore.pareto.
Objective`: maximized metrics are negated into minimization space once,
in :func:`objective_matrix`, and every function here works on that
orientation.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.explore.pareto import (
    DEFAULT_OBJECTIVES,
    Objective,
    nondominated_indices,
    objective_matrix,
)

#: Fractional margin :func:`reference_point` adds beyond the worst
#: observed value per objective, so boundary rows still enclose volume.
REFERENCE_MARGIN = 0.1


def reference_point(
    rows: Sequence[Mapping[str, float]],
    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
    margin: float = REFERENCE_MARGIN,
) -> np.ndarray:
    """A deterministic hypervolume reference for these observations.

    Per objective (minimization orientation): the worst observed value
    plus ``margin`` times the observed span (or ``margin`` times the
    magnitude when the objective is constant), so every observed row
    strictly dominates the reference and boundary rows still contribute
    volume.  Two frontiers compared by hypervolume must score against
    the same reference — derive it from the *union* of their rows.
    """
    if not rows:
        raise ValueError("reference_point needs at least one row")
    matrix = objective_matrix(rows, objectives)
    worst = matrix.max(axis=0)
    span = worst - matrix.min(axis=0)
    pad = np.where(span > 0.0, span, np.maximum(np.abs(worst), 1.0))
    return worst + margin * pad


def _front(points: np.ndarray) -> np.ndarray:
    """The non-dominated points, each duplicate's first copy only.

    Dropping duplicates after the scan keeps the same points as before
    it (copies share their fate) while comparing far fewer pairs.
    """
    front = points[nondominated_indices(points)]
    same = (front[:, None, :] == front[None, :, :]).all(axis=2)
    return front[~np.tril(same, k=-1).any(axis=1)]


def _wfg(points: np.ndarray, reference: np.ndarray) -> float:
    """Exact hypervolume of a non-dominated set (WFG recursion).

    ``hv(S) = sum_i exclhv(p_i, S[i+1:])`` where the exclusive volume
    of a point is its inclusive box minus the volume of the remaining
    points clipped into that box.  Exponential in the worst case but
    the limit-and-prune step keeps campaign-sized frontiers (tens of
    points, a handful of objectives) well inside milliseconds.
    """
    total = 0.0
    for i in range(len(points)):
        point = points[i]
        inclusive = float(np.prod(reference - point))
        rest = points[i + 1 :]
        if len(rest):
            inclusive -= _wfg(_front(np.maximum(rest, point)), reference)
        total += inclusive
    return total


def hypervolume(
    rows: Sequence[Mapping[str, float]],
    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
    reference: np.ndarray | Sequence[float] | None = None,
) -> float:
    """Dominated hypervolume of ``rows`` against ``reference``.

    Rows that do not strictly dominate the reference contribute
    nothing (their clipped box is empty); dominated rows are pruned
    before the recursion, so passing a whole campaign or just its
    frontier yields the same value.  ``reference=None`` derives one
    from the rows themselves (:func:`reference_point`) — fine for a
    standalone score, wrong for comparing two frontiers (share one
    reference instead).
    """
    if not rows:
        return 0.0
    matrix = objective_matrix(rows, objectives)
    if reference is None:
        ref = reference_point(rows, objectives)
    else:
        ref = np.asarray(reference, dtype=float)
        if ref.shape != (len(objectives),):
            raise ValueError(
                f"reference has shape {ref.shape}; expected "
                f"({len(objectives)},)"
            )
    inside = matrix[np.all(matrix < ref, axis=1)]
    # Lexicographic sort: deterministic recursion order and better
    # pruning than submission order.
    order = np.lexsort(inside.T[::-1])
    return _wfg(_front(inside[order]), ref)


def knee_index(
    rows: Sequence[Mapping[str, float]],
    objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
) -> int:
    """The row closest to the normalized ideal point.

    Objectives are min-max normalized over the rows (constant
    objectives collapse to zero and carry no weight), and the row with
    the smallest Euclidean distance to the all-best corner wins — the
    classic "knee" compromise a ranked report can headline.  Ties break
    to the lowest index.
    """
    if not rows:
        raise ValueError("knee_index needs at least one row")
    matrix = objective_matrix(rows, objectives)
    low = matrix.min(axis=0)
    span = matrix.max(axis=0) - low
    span = np.where(span > 0.0, span, 1.0)
    normalized = (matrix - low) / span
    distances = np.sqrt((normalized**2).sum(axis=1))
    return int(np.argmin(distances))


class ConvergenceTracker:
    """Hypervolume-based stopping rule for iterative exploration.

    Feed each round's observed rows to :meth:`update`; the tracker
    re-derives a shared reference from *everything* it has seen, scores
    the previous and current frontiers against it, and records the
    relative gain.  :attr:`converged` turns true once the gain has
    stayed below ``rel_tol`` for ``patience`` consecutive updates —
    the "frontier stopped moving" signal the surrogate loop stops on.

    Parameters
    ----------
    objectives : tuple of Objective
        The frontier's optimization directions.
    rel_tol : float
        Relative hypervolume gain under which a round counts as quiet.
    patience : int
        Consecutive quiet rounds required before :attr:`converged`.
    """

    def __init__(
        self,
        objectives: Sequence[Objective] = DEFAULT_OBJECTIVES,
        rel_tol: float = 1e-3,
        patience: int = 2,
    ) -> None:
        if rel_tol < 0.0:
            raise ValueError("rel_tol must be non-negative")
        if patience < 1:
            raise ValueError("patience must be at least 1")
        self.objectives = tuple(objectives)
        self.rel_tol = float(rel_tol)
        self.patience = int(patience)
        self.history: list[float] = []
        self.gains: list[float] = []
        self._seen: list[Mapping[str, float]] = []
        self._previous: list[Mapping[str, float]] | None = None
        self._quiet = 0

    def update(self, rows: Sequence[Mapping[str, float]]) -> float:
        """Record one round's observed rows; return the relative gain.

        The first update has nothing to compare against and reports a
        gain of infinity (never quiet).
        """
        rows = list(rows)
        if not rows:
            raise ValueError("update needs at least one row")
        self._seen.extend(rows)
        reference = reference_point(self._seen, self.objectives)
        current = hypervolume(rows, self.objectives, reference)
        self.history.append(current)
        if self._previous is None:
            gain = float("inf")
        else:
            previous = hypervolume(
                self._previous, self.objectives, reference
            )
            gain = (current - previous) / max(current, 1e-300)
        self.gains.append(gain)
        self._previous = rows
        if gain < self.rel_tol:
            self._quiet += 1
        else:
            self._quiet = 0
        return gain

    @property
    def converged(self) -> bool:
        """Whether the frontier has been quiet for ``patience`` rounds."""
        return self._quiet >= self.patience
