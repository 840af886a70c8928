"""Tests for the Pareto-front analysis."""

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.core import dominates, pareto_front


@dataclass(frozen=True)
class Point:
    label: str
    speedup: float
    error: float


class TestDominates:
    def test_faster_and_more_accurate_dominates(self):
        assert dominates(Point("a", 2.0, 0.01), Point("b", 1.5, 0.05))

    def test_equal_points_do_not_dominate(self):
        a = Point("a", 2.0, 0.01)
        b = Point("b", 2.0, 0.01)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_tradeoff_points_do_not_dominate(self):
        fast_inaccurate = Point("a", 3.0, 0.10)
        slow_accurate = Point("b", 1.2, 0.01)
        assert not dominates(fast_inaccurate, slow_accurate)
        assert not dominates(slow_accurate, fast_inaccurate)


class TestParetoFront:
    def test_front_excludes_dominated_points(self):
        points = [
            Point("accurate", 1.0, 0.0),
            Point("ours", 2.0, 0.01),
            Point("paraprox", 1.8, 0.07),
            Point("bad", 0.9, 0.10),
        ]
        front = pareto_front(points)
        labels = {p.label for p in front}
        assert labels == {"accurate", "ours"}

    def test_front_sorted_by_speedup(self):
        points = [Point("a", 2.0, 0.02), Point("b", 1.0, 0.0), Point("c", 3.0, 0.08)]
        front = pareto_front(points)
        speedups = [p.speedup for p in front]
        assert speedups == sorted(speedups)

    def test_duplicates_collapse(self):
        points = [Point("a", 2.0, 0.02), Point("a2", 2.0, 0.02)]
        assert len(pareto_front(points)) == 1

    def test_duplicate_witness_is_first_in_input(self):
        """The documented tie rule: one witness per duplicated pair — the
        earliest occurrence in the input sequence."""
        a, b = Point("a", 2.0, 0.02), Point("b", 2.0, 0.02)
        assert [p.label for p in pareto_front([a, b])] == ["a"]
        assert [p.label for p in pareto_front([b, a])] == ["b"]
        # A third copy anywhere in the sequence changes nothing.
        assert [p.label for p in pareto_front([a, b, Point("c", 2.0, 0.02)])] == ["a"]

    def test_duplicates_never_co_survive_or_co_drop(self):
        """Non-dominated duplicates yield exactly one front entry in any
        input order; dominated duplicates all drop."""
        dup1, dup2 = Point("d1", 2.0, 0.02), Point("d2", 2.0, 0.02)
        other = Point("o", 1.0, 0.0)
        for ordering in ([dup1, dup2, other], [dup2, other, dup1], [other, dup1, dup2]):
            front = pareto_front(ordering)
            assert sorted({(p.speedup, p.error) for p in front}) == [(1.0, 0.0), (2.0, 0.02)]
            assert len(front) == 2  # exactly one duplicate witness
        dominator = Point("x", 3.0, 0.0)
        front = pareto_front([dup1, dup2, dominator])
        assert [p.label for p in front] == ["x"]

    def test_front_value_set_is_input_order_invariant(self):
        points = [
            Point("a", 2.0, 0.02),
            Point("a2", 2.0, 0.02),
            Point("b", 1.0, 0.0),
            Point("c", 3.0, 0.08),
            Point("dominated", 0.9, 0.2),
        ]
        expected = [(p.speedup, p.error) for p in pareto_front(points)]
        assert [(p.speedup, p.error) for p in pareto_front(points[::-1])] == expected
        rotated = points[2:] + points[:2]
        assert [(p.speedup, p.error) for p in pareto_front(rotated)] == expected

    def test_near_ties_are_not_collapsed(self):
        """No rounding: points differing only in the last decimals are
        distinct (and mutually non-dominating when the trade-off holds)."""
        a = Point("a", 2.0, 0.02)
        b = Point("b", 2.0 + 1e-13, 0.02 + 1e-15)
        front = pareto_front([a, b])
        assert {p.label for p in front} == {"a", "b"}

    def test_empty_input(self):
        assert pareto_front([]) == []

    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_front_members_are_mutually_non_dominating(self, data):
        points = [Point(f"p{i}", s, e) for i, (s, e) in enumerate(data)]
        front = pareto_front(points)
        assert front  # at least one point always survives
        for a in front:
            for b in front:
                if a is not b:
                    assert not dominates(a, b)

    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_every_point_dominated_by_or_on_front(self, data):
        points = [Point(f"p{i}", s, e) for i, (s, e) in enumerate(data)]
        front = pareto_front(points)
        for point in points:
            on_front = any(
                f.speedup == point.speedup and f.error == point.error for f in front
            )
            dominated = any(dominates(f, point) for f in front)
            assert on_front or dominated

