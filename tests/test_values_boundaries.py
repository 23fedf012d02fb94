"""Boundary cases of the value model that bit us during development."""

import pytest

from repro.core.oracle import check_result
from repro.engine.binding import ResultSet
from repro.gdb import EngineOptions, create_engine
from repro.graph import values as V
from repro.graph.model import PropertyGraph


class TestFloatBoundaries:
    def test_infinities_compare(self):
        assert V.ternary_compare(float("inf"), 1e308) == 1
        assert V.ternary_compare(float("-inf"), -1e308) == -1
        assert V.ternary_equals(float("inf"), float("inf")) is True

    def test_infinity_ordering(self):
        ordered = V.sort_values([1.0, float("inf"), float("-inf"), 0])
        assert ordered == [float("-inf"), 0, 1.0, float("inf")]

    def test_negative_zero_equals_zero(self):
        assert V.ternary_equals(-0.0, 0.0) is True
        assert V.equivalent(-0.0, 0.0)

    def test_large_int_vs_float(self):
        assert V.ternary_equals(2**53, float(2**53)) is True

    def test_equivalence_key_of_infinity_hashable(self):
        hash(V.equivalence_key(float("inf")))
        hash(V.equivalence_key([float("-inf"), None]))


class TestDeepNesting:
    def test_deep_list_equality(self):
        deep_a = deep_b = 1
        for _ in range(50):
            deep_a = [deep_a]
            deep_b = [deep_b]
        assert V.ternary_equals(deep_a, deep_b) is True
        assert V.equivalent(deep_a, deep_b)

    def test_deep_list_ordering(self):
        shallow = [[1]]
        deep = [[[1]]]
        V.sort_values([shallow, deep])  # must not raise


class TestEmptyContainers:
    def test_empty_list_equality(self):
        assert V.ternary_equals([], []) is True
        assert V.ternary_equals([], [None]) is False

    def test_empty_map_equality(self):
        assert V.ternary_equals({}, {}) is True
        assert V.ternary_equals({}, {"a": None}) is False

    def test_empty_list_sorts_first_among_lists(self):
        assert V.sort_values([[1], [], [0]]) == [[], [0], [1]]


class TestMixedMapSemantics:
    def test_map_with_null_value_undecided(self):
        assert V.ternary_equals({"a": None}, {"a": None}) is None

    def test_map_key_mismatch_decides_before_null(self):
        assert V.ternary_equals({"a": None}, {"b": 1}) is False

    def test_map_ordering_by_sorted_keys(self):
        ordered = V.sort_values([{"b": 1}, {"a": 9}])
        assert ordered == [{"a": 9}, {"b": 1}]

    def test_map_equivalence_ignores_insertion_order(self):
        assert V.equivalent({"a": 1, "b": 2}, {"b": 2, "a": 1})


class TestStringEdgeCases:
    def test_empty_string_comparisons(self):
        assert V.ternary_compare("", "a") == -1
        assert V.ternary_equals("", "") is True

    def test_unicode_strings(self):
        assert V.ternary_equals("héllo", "héllo") is True
        assert V.ternary_compare("a", "é") == -1


class TestLargeIntegerEquivalence:
    """Integers above 2**53 that ``=`` tells apart stay apart in DISTINCT,
    grouping and the oracle's bag comparison (keying them through
    ``float`` merged them)."""

    BIG = 2**53
    DISTINCT = "UNWIND [9007199254740992, 9007199254740993] AS x RETURN DISTINCT x"
    GROUPED = ("UNWIND [9007199254740992, 9007199254740993, 9007199254740993] "
               "AS x RETURN x, count(*) AS n")

    def test_keys_follow_equality(self):
        assert V.ternary_equals(self.BIG, self.BIG + 1) is False
        assert not V.equivalent(self.BIG, self.BIG + 1)
        assert not V.equivalent(float(self.BIG), self.BIG + 1)
        assert V.equivalent(float(self.BIG), self.BIG)
        assert not V.equivalent([self.BIG], [self.BIG + 1])

    def test_merges_and_separations_are_kept(self):
        assert V.equivalent(1, 1.0)
        assert V.equivalent(0.0, -0.0)
        assert V.equivalent(-3, -3.0)
        assert V.equivalent(float("nan"), float("nan"))
        assert not V.equivalent(True, 1)
        assert not V.equivalent(False, 0.0)
        assert not V.equivalent(float("nan"), 0)
        assert not V.equivalent(1.5, 1)
        assert not V.equivalent(float("inf"), float("-inf"))
        assert V.equivalent(float("inf"), float("inf"))
        assert V.equivalent({"a": 1}, {"a": 1.0})

    @pytest.mark.parametrize("mode", ["interpreted", "compiled"])
    def test_distinct_keeps_both(self, mode):
        rows = _engine(mode).execute(self.DISTINCT).rows
        assert rows == [(self.BIG,), (self.BIG + 1,)]

    @pytest.mark.parametrize("mode", ["interpreted", "compiled"])
    def test_grouping_keeps_both(self, mode):
        rows = _engine(mode).execute(self.GROUPED).rows
        assert sorted(rows) == [(self.BIG, 1), (self.BIG + 1, 2)]

    @pytest.mark.parametrize("mode", ["interpreted", "compiled"])
    def test_union_keeps_both(self, mode):
        rows = _engine(mode).execute(
            "RETURN 9007199254740992 AS x UNION RETURN 9007199254740993 AS x"
        ).rows
        assert sorted(rows) == [(self.BIG,), (self.BIG + 1,)]

    def test_oracle_flags_a_perturbed_large_integer(self):
        expected = ResultSet(["v"], [(2**60,)])
        assert not check_result(expected, ResultSet(["v"], [(2**60 + 3,)])).passed
        assert check_result(expected, ResultSet(["v"], [(2**60,)])).passed
        assert check_result(expected, ResultSet(["v"], [(float(2**60),)])).passed


def _engine(mode):
    engine = create_engine("neo4j", options=EngineOptions(
        execution_mode=mode, faults_enabled=False))
    engine.load_graph(PropertyGraph())
    return engine
