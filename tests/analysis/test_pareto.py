"""Pareto-frontier extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.pareto import (
    ParetoPoint,
    dominated_by,
    frontier_indices,
    pareto_frontier,
)
from tests.analysis.reference import reference_frontier_indices


def _p(label, latency, power) -> ParetoPoint:
    return ParetoPoint(label=label, latency_s=latency, power_w=power)


class TestDominance:
    def test_strictly_better_dominates(self):
        assert _p("a", 1, 1).dominates(_p("b", 2, 2))

    def test_better_on_one_axis_equal_other(self):
        assert _p("a", 1, 2).dominates(_p("b", 2, 2))

    def test_tradeoff_does_not_dominate(self):
        fast_hungry = _p("a", 1, 10)
        slow_frugal = _p("b", 10, 1)
        assert not fast_hungry.dominates(slow_frugal)
        assert not slow_frugal.dominates(fast_hungry)

    def test_identical_points_do_not_dominate(self):
        assert not _p("a", 1, 1).dominates(_p("b", 1, 1))


class TestFrontier:
    def test_extracts_non_dominated(self):
        points = [_p("fast", 1, 10), _p("frugal", 10, 1),
                  _p("dominated", 5, 5), _p("middle", 3, 3)]
        frontier = pareto_frontier(points)
        labels = [p.label for p in frontier]
        assert labels == ["fast", "middle", "frugal"]

    def test_sorted_by_latency(self):
        points = [_p("b", 2, 2), _p("a", 1, 3)]
        frontier = pareto_frontier(points)
        assert [p.label for p in frontier] == ["a", "b"]

    def test_single_point(self):
        assert pareto_frontier([_p("only", 1, 1)]) == [_p("only", 1, 1)]

    def test_empty(self):
        assert pareto_frontier([]) == []

    def test_all_identical_all_kept(self):
        points = [_p("a", 1, 1), _p("b", 1, 1)]
        assert len(pareto_frontier(points)) == 2


class TestDominatedBy:
    def test_explanation(self):
        points = [_p("fast", 1, 1), _p("slow", 5, 5)]
        explainers = dominated_by(points[1], points)
        assert explainers == [points[0]]

    def test_frontier_point_has_no_explainers(self):
        points = [_p("fast", 1, 10), _p("frugal", 10, 1)]
        assert dominated_by(points[0], points) == []


class TestNDimensionalFrontier:
    """The generic (latency, energy, cost) machinery the placement
    optimizer ranks deployments with."""

    def test_dominates_requires_all_leq_and_any_lt(self):
        from repro.analysis.pareto import dominates

        assert dominates((1.0, 1.0, 1.0), (2.0, 2.0, 2.0))
        assert dominates((1.0, 2.0, 2.0), (2.0, 2.0, 2.0))
        assert not dominates((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
        assert not dominates((1.0, 3.0), (2.0, 2.0))

    def test_dominates_rejects_mixed_arity(self):
        import pytest

        from repro.analysis.pareto import dominates

        with pytest.raises(ValueError):
            dominates((1.0, 2.0), (1.0, 2.0, 3.0))

    def test_frontier_indices_keep_input_order(self):
        from repro.analysis.pareto import frontier_indices

        objectives = [(2.0, 1.0), (1.0, 2.0), (3.0, 3.0), (1.0, 2.0)]
        assert frontier_indices(objectives) == [0, 1, 3]

    def test_frontier_indices_of_empty_is_empty(self):
        from repro.analysis.pareto import frontier_indices

        assert frontier_indices([]) == []

    def test_frontier_points_sorted_unique_view(self):
        from repro.analysis.pareto import frontier_points

        objectives = [(2.0, 1.0), (1.0, 2.0), (3.0, 3.0)]
        assert frontier_points(objectives) == [(1.0, 2.0), (2.0, 1.0)]


#: Few distinct values make ties and duplicate rows common; NaN compares
#: false both ways.
_AXIS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, math.inf, math.nan]),
                  st.floats(-1e3, 1e3))


class TestFrontierMatchesPairwiseLoop:
    """The dominance-matrix frontier equals the pairwise loop it replaced
    (``tests/analysis/reference.py``)."""

    @given(arity=st.integers(0, 4), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_rows(self, arity, data):
        rows = data.draw(st.lists(st.tuples(*[_AXIS] * arity), max_size=80))
        if rows and data.draw(st.booleans()):
            rows += data.draw(st.lists(st.sampled_from(rows), max_size=20))
        assert frontier_indices(rows) == reference_frontier_indices(rows)

    def test_five_thousand_rows_span_many_blocks(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 40, size=(5000, 3)).astype(float)
        rows[::97, 1] = np.nan
        rows = [tuple(row) for row in rows.tolist()]
        rows[4000:4010] = rows[:10]  # duplicates far apart
        kept = frontier_indices(rows)
        assert kept == reference_frontier_indices(rows)
        assert 0 < len(kept) < len(rows)

    @pytest.mark.parametrize("rows", [
        [(1.0, 2.0), (1.0, 2.0, 3.0)],
        [(1.0, 2.0, 3.0), (0.0, 1.0)],
        [(1.0,), (2.0,), ()],
    ])
    def test_mixed_arity_raises(self, rows):
        with pytest.raises(ValueError, match="arity mismatch"):
            frontier_indices(rows)
