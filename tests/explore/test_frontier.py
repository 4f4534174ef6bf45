"""Frontier metrics: hypervolume, reference points, knees, convergence."""

import numpy as np
import pytest

from repro.explore.frontier import (
    ConvergenceTracker,
    hypervolume,
    knee_index,
    objective_matrix,
    reference_point,
)
from repro.explore.pareto import Objective

MIN_BOTH = (Objective("cost"), Objective("delay"))


class TestObjectiveMatrix:
    def test_minimize_passes_through(self):
        rows = [{"cost": 1.0, "delay": 2.0}]
        matrix = objective_matrix(rows, MIN_BOTH)
        assert matrix.tolist() == [[1.0, 2.0]]

    def test_maximize_negates(self):
        objectives = (Objective("yield", maximize=True),)
        matrix = objective_matrix([{"yield": 0.9}], objectives)
        assert matrix.tolist() == [[-0.9]]


class TestReferencePoint:
    def test_margin_beyond_worst(self):
        rows = [{"cost": 0.0, "delay": 0.0}, {"cost": 2.0, "delay": 4.0}]
        ref = reference_point(rows, MIN_BOTH, margin=0.5)
        assert ref.tolist() == [3.0, 6.0]

    def test_constant_objective_still_padded(self):
        rows = [{"cost": 2.0, "delay": 1.0}, {"cost": 2.0, "delay": 3.0}]
        ref = reference_point(rows, MIN_BOTH, margin=0.1)
        assert ref[0] > 2.0
        assert ref[1] == pytest.approx(3.2)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            reference_point([], MIN_BOTH)


class TestHypervolume:
    def test_single_point_is_its_box(self):
        rows = [{"cost": 1.0, "delay": 1.0}]
        assert hypervolume(rows, MIN_BOTH, reference=[3.0, 2.0]) == (
            pytest.approx(2.0)
        )

    def test_staircase_union_not_sum(self):
        # Two overlapping boxes: 2x1 + 1x2 - 1x1 overlap = 3.
        rows = [
            {"cost": 1.0, "delay": 2.0},
            {"cost": 2.0, "delay": 1.0},
        ]
        assert hypervolume(rows, MIN_BOTH, reference=[3.0, 3.0]) == (
            pytest.approx(3.0)
        )

    def test_dominated_rows_add_nothing(self):
        frontier = [
            {"cost": 1.0, "delay": 2.0},
            {"cost": 2.0, "delay": 1.0},
        ]
        everything = frontier + [
            {"cost": 2.5, "delay": 2.5},
            {"cost": 2.0, "delay": 2.0},
        ]
        ref = [3.0, 3.0]
        assert hypervolume(everything, MIN_BOTH, ref) == (
            pytest.approx(hypervolume(frontier, MIN_BOTH, ref))
        )

    def test_rows_outside_reference_contribute_nothing(self):
        rows = [{"cost": 5.0, "delay": 5.0}]
        assert hypervolume(rows, MIN_BOTH, reference=[3.0, 3.0]) == 0.0

    def test_three_objectives_exact(self):
        objectives = MIN_BOTH + (Objective("area"),)
        rows = [{"cost": 0.0, "delay": 0.0, "area": 0.0}]
        value = hypervolume(rows, objectives, reference=[2.0, 3.0, 4.0])
        assert value == pytest.approx(24.0)

    def test_maximize_objective_counts_upward(self):
        objectives = (Objective("yield", maximize=True),)
        rows = [{"yield": 0.9}]
        # Minimization orientation: point -0.9 against reference -0.5.
        assert hypervolume(rows, objectives, reference=[-0.5]) == (
            pytest.approx(0.4)
        )

    def test_duplicate_points_count_once(self):
        rows = [{"cost": 1.0, "delay": 1.0}] * 3
        assert hypervolume(rows, MIN_BOTH, reference=[2.0, 2.0]) == (
            pytest.approx(1.0)
        )

    def test_submission_order_invariant(self):
        rows = [
            {"cost": 1.0, "delay": 4.0},
            {"cost": 2.0, "delay": 2.0},
            {"cost": 4.0, "delay": 1.0},
        ]
        ref = [5.0, 5.0]
        forward = hypervolume(rows, MIN_BOTH, ref)
        backward = hypervolume(rows[::-1], MIN_BOTH, ref)
        assert forward == backward

    def test_empty_rows_score_zero(self):
        assert hypervolume([], MIN_BOTH, reference=[1.0, 1.0]) == 0.0

    def test_bad_reference_shape_rejected(self):
        with pytest.raises(ValueError):
            hypervolume(
                [{"cost": 1.0, "delay": 1.0}], MIN_BOTH,
                reference=[1.0],
            )

    def test_default_reference_derived_from_rows(self):
        rows = [
            {"cost": 1.0, "delay": 2.0},
            {"cost": 2.0, "delay": 1.0},
        ]
        assert hypervolume(rows, MIN_BOTH) > 0.0


class TestKneeIndex:
    def test_balanced_row_wins(self):
        rows = [
            {"cost": 0.0, "delay": 1.0},
            {"cost": 0.2, "delay": 0.2},
            {"cost": 1.0, "delay": 0.0},
        ]
        assert knee_index(rows, MIN_BOTH) == 1

    def test_tie_breaks_to_lowest_index(self):
        rows = [
            {"cost": 0.0, "delay": 1.0},
            {"cost": 1.0, "delay": 0.0},
        ]
        assert knee_index(rows, MIN_BOTH) == 0

    def test_constant_objective_carries_no_weight(self):
        rows = [
            {"cost": 1.0, "delay": 5.0},
            {"cost": 1.0, "delay": 2.0},
        ]
        assert knee_index(rows, MIN_BOTH) == 1

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            knee_index([], MIN_BOTH)


class TestConvergenceTracker:
    def test_first_update_never_quiet(self):
        tracker = ConvergenceTracker(MIN_BOTH, rel_tol=1.0, patience=1)
        gain = tracker.update([{"cost": 1.0, "delay": 1.0}])
        assert gain == float("inf")
        assert not tracker.converged

    def test_converges_after_patience_quiet_rounds(self):
        tracker = ConvergenceTracker(MIN_BOTH, rel_tol=1e-3, patience=2)
        rows = [
            {"cost": 1.0, "delay": 3.0},
            {"cost": 3.0, "delay": 1.0},
        ]
        tracker.update(rows)
        tracker.update(rows)
        assert not tracker.converged
        tracker.update(rows)
        assert tracker.converged

    def test_improvement_resets_patience(self):
        tracker = ConvergenceTracker(MIN_BOTH, rel_tol=1e-3, patience=2)
        base = [{"cost": 2.0, "delay": 2.0}, {"cost": 3.0, "delay": 3.0}]
        tracker.update(base)
        tracker.update(base)
        better = base + [{"cost": 1.0, "delay": 1.0}]
        gain = tracker.update(better)
        assert gain > 1e-3
        assert not tracker.converged

    def test_gain_history_recorded(self):
        tracker = ConvergenceTracker(MIN_BOTH)
        rows = [{"cost": 1.0, "delay": 1.0}]
        tracker.update(rows)
        tracker.update(rows)
        assert len(tracker.history) == 2
        assert len(tracker.gains) == 2
        assert tracker.gains[1] == pytest.approx(0.0)

    def test_reference_inflation_is_not_improvement(self):
        # New *worse* rows grow the shared reference; the frontier did
        # not move, so the round must count as quiet.
        tracker = ConvergenceTracker(MIN_BOTH, rel_tol=1e-3, patience=1)
        frontier = [{"cost": 1.0, "delay": 1.0}]
        tracker.update(frontier)
        gain = tracker.update(
            frontier + [{"cost": 50.0, "delay": 50.0}]
        )
        assert gain == pytest.approx(0.0, abs=1e-9)
        assert tracker.converged

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ConvergenceTracker(MIN_BOTH, rel_tol=-0.1)
        with pytest.raises(ValueError):
            ConvergenceTracker(MIN_BOTH, patience=0)
        tracker = ConvergenceTracker(MIN_BOTH)
        with pytest.raises(ValueError):
            tracker.update([])


class TestDeterminism:
    def test_hypervolume_bit_stable(self):
        rng = np.random.default_rng(5)
        rows = [
            {"cost": float(c), "delay": float(d)}
            for c, d in rng.random((40, 2))
        ]
        ref = reference_point(rows, MIN_BOTH)
        first = hypervolume(rows, MIN_BOTH, ref)
        again = hypervolume(list(reversed(rows)), MIN_BOTH, ref)
        assert first == again


class TestHypervolumePins:
    """Exact ``float.hex`` values, recorded before the non-domination
    scan was shared with :mod:`repro.explore.pareto`: the recursion's
    point order — and so its summation order — must not move."""

    MIN2 = (Objective("a"), Objective("b"))
    MIX3 = (
        Objective("a"),
        Objective("b", maximize=True),
        Objective("c"),
    )
    MIX4 = (
        Objective("a"),
        Objective("b"),
        Objective("c"),
        Objective("d", maximize=True),
    )

    @staticmethod
    def lattice(n, mods, scale):
        """Deterministic rows on a coarse grid: many ties and
        duplicates, non-dyadic values (``scale`` 3.0) included."""
        return [
            {
                name: ((i * (7 + 4 * j) + 3 * j * j) % mods[j]) / scale
                for j, name in enumerate("abcd"[: len(mods)])
            }
            for i in range(n)
        ]

    def test_duplicates(self):
        rows = [
            {"a": 1.0, "b": 4.0}, {"a": 2.0, "b": 2.0},
            {"a": 1.0, "b": 4.0}, {"a": 4.0, "b": 1.0},
            {"a": 2.0, "b": 2.0}, {"a": 3.0, "b": 3.0},
        ]
        value = hypervolume(rows, self.MIN2, (5.0, 5.0))
        assert value.hex() == "0x1.6000000000000p+3"

    def test_rows_outside_the_reference(self):
        rows = [
            {"a": 0.5, "b": 6.0}, {"a": 1.5, "b": 3.5},
            {"a": 5.0, "b": 0.25}, {"a": 1.5, "b": 3.5},
            {"a": 2.5, "b": 2.0}, {"a": 4.0, "b": 5.0},
        ]
        value = hypervolume(rows, self.MIN2, (5.0, 5.0))
        assert value.hex() == "0x1.2000000000000p+3"

    @pytest.mark.parametrize(
        "reference, expected",
        [
            (None, "0x1.02ff9ee8dd7cdp+5"),
            ((3.0, -0.5, 2.0), "0x1.225ed097b425ep+4"),
        ],
    )
    def test_three_mixed_objectives(self, reference, expected):
        rows = self.lattice(40, (11, 13, 7), 3.0)
        assert hypervolume(rows, self.MIX3, reference).hex() == expected

    def test_four_objectives_every_row_twice(self):
        rows = self.lattice(60, (9, 11, 13, 5), 2.0) * 2
        value = hypervolume(rows, self.MIX4)
        assert value.hex() == "0x1.161a36e2eb1c2p+3"

    def test_four_objectives_partly_outside(self):
        rows = self.lattice(60, (9, 11, 13, 5), 2.0)
        value = hypervolume(rows, self.MIX4, (4.0, 4.5, 5.5, 0.5))
        assert value.hex() == "0x1.2480000000000p+7"
