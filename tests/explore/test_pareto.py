"""Pareto reductions: dominance, frontier, sensitivity, ranking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore.pareto import (
    Objective,
    dominates,
    pareto_indices,
    rank_rows,
    render_saved_campaign,
    sensitivity,
)

MIN_BOTH = (Objective("cost"), Objective("delay"))


class TestObjective:
    def test_parse_defaults_to_min(self):
        objective = Objective.parse("epi_ule")
        assert objective.metric == "epi_ule"
        assert not objective.maximize

    def test_parse_directions(self):
        assert Objective.parse("yield:max").maximize
        assert not Objective.parse("area:min").maximize

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Objective.parse("epi:upwards")

    def test_str_round_trips(self):
        for text in ("a:min", "b:max"):
            assert str(Objective.parse(text)) == text


class TestDominance:
    def test_strictly_better_everywhere(self):
        assert dominates(
            {"cost": 1, "delay": 1}, {"cost": 2, "delay": 2}, MIN_BOTH
        )

    def test_equal_rows_do_not_dominate(self):
        row = {"cost": 1, "delay": 1}
        assert not dominates(row, dict(row), MIN_BOTH)

    def test_tradeoff_does_not_dominate(self):
        a = {"cost": 1, "delay": 2}
        b = {"cost": 2, "delay": 1}
        assert not dominates(a, b, MIN_BOTH)
        assert not dominates(b, a, MIN_BOTH)

    def test_maximize_flips_direction(self):
        objectives = (Objective("yield", maximize=True),)
        assert dominates({"yield": 0.99}, {"yield": 0.9}, objectives)


class TestFrontier:
    def test_frontier_of_tradeoffs(self):
        rows = [
            {"cost": 1, "delay": 3},
            {"cost": 2, "delay": 2},
            {"cost": 3, "delay": 1},
            {"cost": 3, "delay": 3},  # dominated by the middle row
        ]
        assert pareto_indices(rows, MIN_BOTH) == [0, 1, 2]

    def test_single_row_is_frontier(self):
        assert pareto_indices([{"cost": 5, "delay": 5}], MIN_BOTH) == [0]

    def test_duplicate_rows_both_survive(self):
        rows = [{"cost": 1, "delay": 1}, {"cost": 1, "delay": 1}]
        assert pareto_indices(rows, MIN_BOTH) == [0, 1]

    def test_duplicate_metric_candidates_share_frontier_fate(self):
        # Duplicates of a *dominated* point are all dominated;
        # duplicates of a frontier point all stay on the frontier.
        rows = [
            {"cost": 1, "delay": 1},
            {"cost": 1, "delay": 1},
            {"cost": 2, "delay": 2},
            {"cost": 2, "delay": 2},
        ]
        assert pareto_indices(rows, MIN_BOTH) == [0, 1]

    def test_one_objective_ties_all_survive(self):
        # Under a single objective, every row tied at the optimum is
        # non-dominated — ties never dominate each other.
        objectives = (Objective("cost"),)
        rows = [
            {"cost": 1.0},
            {"cost": 2.0},
            {"cost": 1.0},
            {"cost": 1.0},
        ]
        assert pareto_indices(rows, objectives) == [0, 2, 3]

    def test_tie_on_one_axis_strict_on_another(self):
        # Equal cost, strictly better delay: dominance must fire off
        # the tied axis alone.
        rows = [
            {"cost": 1, "delay": 2},
            {"cost": 1, "delay": 1},
        ]
        assert pareto_indices(rows, MIN_BOTH) == [1]

    def test_empty_rows_empty_frontier(self):
        assert pareto_indices([], MIN_BOTH) == []


class TestFrontierProperties:
    """Property tests: the frontier is a set-level invariant."""

    ROWS = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=1,
        max_size=12,
    )

    @given(rows=ROWS, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_frontier_invariant_to_submission_order(self, rows, seed):
        import random

        table = [{"cost": c, "delay": d} for c, d in rows]
        order = list(range(len(table)))
        random.Random(seed).shuffle(order)
        shuffled = [table[i] for i in order]
        baseline = {
            (table[i]["cost"], table[i]["delay"])
            for i in pareto_indices(table, MIN_BOTH)
        }
        permuted = {
            (shuffled[i]["cost"], shuffled[i]["delay"])
            for i in pareto_indices(shuffled, MIN_BOTH)
        }
        assert baseline == permuted

    @given(rows=ROWS)
    @settings(max_examples=60, deadline=None)
    def test_frontier_rows_are_mutually_nondominated(self, rows):
        from repro.explore.pareto import dominates

        table = [{"cost": c, "delay": d} for c, d in rows]
        frontier = [table[i] for i in pareto_indices(table, MIN_BOTH)]
        assert frontier  # non-empty input always yields a frontier
        for a in frontier:
            for b in frontier:
                assert not dominates(a, b, MIN_BOTH)

    @given(rows=ROWS)
    @settings(max_examples=60, deadline=None)
    def test_dominated_rows_have_a_frontier_witness(self, rows):
        from repro.explore.pareto import dominates

        table = [{"cost": c, "delay": d} for c, d in rows]
        on_frontier = set(pareto_indices(table, MIN_BOTH))
        for i, row in enumerate(table):
            if i in on_frontier:
                continue
            assert any(
                dominates(table[j], row, MIN_BOTH)
                for j in on_frontier
            )


class TestRanking:
    def test_frontier_first_then_primary_metric(self):
        rows = [
            {"cost": 3, "delay": 3},  # dominated
            {"cost": 2, "delay": 2},
            {"cost": 1, "delay": 3},
        ]
        assert rank_rows(rows, MIN_BOTH) == [2, 1, 0]

    def test_maximize_primary_ranks_descending(self):
        objectives = (Objective("yield", maximize=True),)
        rows = [{"yield": 0.8}, {"yield": 0.99}, {"yield": 0.9}]
        assert rank_rows(rows, objectives) == [1, 2, 0]


class TestSensitivity:
    def test_means_per_axis_value(self):
        rows = [{"epi": 1.0}, {"epi": 3.0}, {"epi": 10.0}]
        values = ["a", "a", "b"]
        assert sensitivity(rows, values, "epi") == {"a": 2.0, "b": 10.0}

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            sensitivity([{"epi": 1.0}], ["a", "b"], "epi")


class TestRenderSavedCampaign:
    PAYLOAD = {
        "objectives": ["cost:min", "delay:min"],
        "candidates": [
            {"name": "small", "metrics": {"cost": 1.0, "delay": 3.0}},
            {"name": "fat", "metrics": {"cost": 3.0, "delay": 3.0}},
            {"name": "fast", "metrics": {"cost": 3.0, "delay": 1.0}},
        ],
    }

    def test_uses_recorded_objectives(self):
        text = render_saved_campaign(self.PAYLOAD)
        assert "2 on the frontier" in text
        assert "cost:min, delay:min" in text

    def test_override_objectives_rerank(self):
        text = render_saved_campaign(
            self.PAYLOAD, (Objective("delay"),), top=2
        )
        lines = text.splitlines()
        assert "fast" in lines[3]  # first ranked row
        assert "fat" not in text  # cut by top=2


class TestMatchesDominatesScan:
    """``pareto_indices`` is a vectorized non-domination scan; its
    reference is the pairwise definition built on :func:`dominates`."""

    #: A small value pool, so ties, duplicates, signed zeros,
    #: infinities and NaN all turn up often.
    VALUES = st.one_of(
        st.sampled_from(
            [-2.5, -0.0, 0.0, 0.5, 1.0, 3.0, float("inf"), float("nan")]
        ),
        st.floats(-1e6, 1e6),
    )

    @staticmethod
    def brute_force(rows, objectives):
        return [
            i
            for i, row in enumerate(rows)
            if not any(
                dominates(other, row, objectives)
                for j, other in enumerate(rows)
                if j != i
            )
        ]

    @given(
        pool=st.lists(
            st.tuples(VALUES, VALUES, VALUES), min_size=1, max_size=8
        ),
        maximize=st.lists(st.booleans(), min_size=1, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_brute_force(self, pool, maximize, data):
        picks = data.draw(
            st.lists(
                st.integers(0, len(pool) - 1), min_size=0, max_size=16
            )
        )
        rows = [
            {f"m{j}": value for j, value in enumerate(pool[pick])}
            for pick in picks
        ]
        objectives = tuple(
            Objective(f"m{j}", maximize=flag)
            for j, flag in enumerate(maximize)
        )
        assert pareto_indices(rows, objectives) == self.brute_force(
            rows, objectives
        )
