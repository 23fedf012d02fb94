"""Tests for query feature extraction and the fault model."""

import pytest

from repro.cypher.parser import parse_query
from repro.engine.binding import ResultSet
from repro.engine.errors import CypherRuntimeError, DatabaseCrash, ResourceExhausted
from repro.gdb.catalog import all_faults, faults_for, gqs_scope_faults
from repro.gdb.faults import FaultEffect, extract_features


def features_of(text):
    query = parse_query(text)
    return extract_features(query)


class TestFeatureExtraction:
    def test_clause_counters(self):
        f = features_of(
            "MATCH (a)-[r]->(b) OPTIONAL MATCH (c) UNWIND [1] AS x "
            "WITH a, x RETURN x"
        )
        assert f.match_count == 1
        assert f.optional_match_count == 1
        assert f.unwind_count == 1
        assert f.with_count == 1

    def test_unwind_positions(self):
        before = features_of("UNWIND [1] AS x MATCH (n) RETURN x")
        assert before.starts_with_unwind
        assert before.unwind_before_match
        between = features_of(
            "MATCH (a) UNWIND [1] AS x MATCH (b) RETURN x"
        )
        assert between.unwind_between_matches
        assert not between.starts_with_unwind

    def test_pattern_features(self):
        f = features_of("MATCH (a:L1:L2)-[r]-(b), (c:L3) RETURN a")
        assert f.undirected_rels == 1
        assert f.multi_label_nodes == 1
        assert f.patterns == 2

    def test_predicate_operators(self):
        f = features_of(
            "MATCH (n) WHERE n.a STARTS WITH 'x' AND n.b % 2 = 0 AND "
            "(n.c XOR true) AND n.d / 3 > 1 RETURN n"
        )
        assert f.string_predicates == 1
        assert f.modulo_ops == 1
        assert f.xor_ops == 1
        assert f.division_ops == 1

    def test_rel_inequality(self):
        f = features_of("MATCH (a)-[r1]->(b)-[r2]->(c) WHERE r1 <> r2 RETURN a")
        assert f.rel_inequality_predicates == 1

    def test_replace_with_empty_detected(self):
        f = features_of("WITH replace('x', '', 'y') AS a RETURN a")
        assert f.replace_with_empty
        f2 = features_of("WITH replace('x', 'q', 'y') AS a RETURN a")
        assert not f2.replace_with_empty

    def test_aggregates_counted_including_count_star(self):
        f = features_of("MATCH (n) RETURN count(*) AS c, collect(n.x) AS xs")
        assert f.aggregate_count == 2

    def test_union_and_call(self):
        f = features_of(
            "CALL db.labels() YIELD label RETURN label UNION RETURN 'x' AS label"
        )
        assert f.has_union
        assert f.has_call

    def test_order_flags(self):
        f = features_of("MATCH (n) RETURN n.x ORDER BY n.x DESC LIMIT 2")
        assert f.has_order_by and f.has_desc_order and f.has_limit

    def test_signature_hash_stable(self):
        f1 = features_of("MATCH (n) WHERE n.x = 1 RETURN n.y AS out")
        f2 = features_of("MATCH (m) WHERE m.x = 1 RETURN m.y AS out")
        # Same structure, different variable names: same signature.
        assert f1.signature_hash == f2.signature_hash

    def test_signature_hash_sensitive_to_structure(self):
        f1 = features_of("MATCH (n) RETURN n")
        f2 = features_of("MATCH (n) MATCH (m) RETURN n")
        f3 = features_of("MATCH (n) WHERE n.x = 1 RETURN n")
        assert f1.signature_hash != f2.signature_hash
        assert f1.signature_hash != f3.signature_hash


class TestCatalog:
    def test_scope_is_36_faults(self):
        """The paper's Table 3 total: 36 bugs."""
        assert len(gqs_scope_faults()) == 36

    def test_per_engine_breakdown(self):
        """Neo4j 2+3, Memgraph 6+1, Kùzu 5+2, FalkorDB 13+4 (Table 3)."""
        expected = {
            "neo4j": (2, 3),
            "memgraph": (6, 1),
            "kuzu": (5, 2),
            "falkordb": (13, 4),
        }
        for engine, (logic, other) in expected.items():
            # Table-3 scope: session-only and state-corruption faults are
            # outside the paper's read-only catalog (gqs_scope_faults).
            scope = [
                f for f in faults_for(engine)
                if not f.session_queries_required and not f.is_state
            ]
            assert sum(1 for f in scope if f.is_logic) == logic
            assert sum(1 for f in scope if not f.is_logic) == other

    def test_session_only_faults(self):
        session = [f for f in all_faults() if f.session_queries_required]
        assert len(session) == 2
        assert all(f.gdb == "falkordb" for f in session)

    def test_fault_ids_unique(self):
        ids = [f.fault_id for f in all_faults()]
        assert len(ids) == len(set(ids))

    def test_latency_shape(self):
        """Table 4: FalkorDB latencies up to 5 years; Neo4j max 2.7."""
        falkor_years = [f.introduced_year for f in faults_for("falkordb")]
        neo_years = [f.introduced_year for f in faults_for("neo4j")]
        assert max(falkor_years) == 5.0
        assert max(neo_years) == 2.7

    def test_triggers_are_deterministic(self):
        f = features_of("MATCH (n) WHERE n.x = 1 RETURN n.y AS out")
        for fault in all_faults():
            assert fault.triggers(f) == fault.triggers(f)

    def test_gate_scaling_monotone(self):
        """Scaling gates down can only add trigger opportunities."""
        texts = [
            "MATCH (a)-[r1]-(b), (c)-[r2]->(d) WHERE a.id = 1 AND b.id % 7 = 0 "
            "UNWIND [1,2] AS x WITH a, x, b RETURN a.id AS v ORDER BY v DESC",
            "MATCH (n:L1:L2) WHERE n.k STARTS WITH 'ab' RETURN n.k AS k",
        ]
        for text in texts:
            f = features_of(text)
            for fault in all_faults():
                if fault.triggers(f, session_queries=10**6):
                    assert fault.triggers(
                        f, session_queries=10**6, gate_scale=0.0001
                    )

    def test_session_faults_need_long_sessions(self):
        session_fault = next(f for f in all_faults() if f.session_queries_required)
        f = features_of("MATCH (n) WHERE n.x = 1 RETURN n")
        assert not session_fault.triggers(f, session_queries=10)
        assert session_fault.triggers(
            f, session_queries=session_fault.session_queries_required + 1
        )


class TestEffects:
    def _result(self):
        return ResultSet(["a", "b"], [(1, "x"), (2, "y")])

    def test_empty_result(self):
        out = FaultEffect.empty_result(self._result(), 0)
        assert len(out) == 0
        assert out.columns == ["a", "b"]

    def test_keep_first_row(self):
        out = FaultEffect.keep_first_row(self._result(), 0)
        assert out.rows == [(1, "x")]

    def test_drop_last_row(self):
        out = FaultEffect.drop_last_row(self._result(), 0)
        assert out.rows == [(1, "x")]

    def test_duplicate_rows(self):
        out = FaultEffect.duplicate_rows(self._result(), 0)
        assert len(out) == 3

    def test_extra_null_row(self):
        out = FaultEffect.extra_null_row(self._result(), 0)
        assert out.rows[-1] == (None, None)

    def test_wrong_value_changes_exactly_one_cell(self):
        base = self._result()
        out = FaultEffect.wrong_value(base, 3)
        diffs = [
            (i, j)
            for i in range(2)
            for j in range(2)
            if out.rows[i][j] != base.rows[i][j]
        ]
        assert len(diffs) == 1

    def test_wrong_value_deterministic(self):
        a = FaultEffect.wrong_value(self._result(), 42)
        b = FaultEffect.wrong_value(self._result(), 42)
        assert a.rows == b.rows

    def test_wrong_value_on_empty_is_noop(self):
        empty = ResultSet(["a"], [])
        assert FaultEffect.wrong_value(empty, 1).rows == []

    def test_null_value_nullifies_column(self):
        out = FaultEffect.null_value(self._result(), 0)
        assert all(row[0] is None for row in out.rows)

    def test_perturb_covers_types(self):
        assert FaultEffect._perturb(None, 0) == 0
        assert FaultEffect._perturb(True, 0) is False
        assert FaultEffect._perturb(5, 0) != 5
        assert FaultEffect._perturb(1.5, 0) != 1.5
        assert FaultEffect._perturb("ab", 0) == "ba"
        assert FaultEffect._perturb([1, 2], 0) == [1]

    def test_error_effects_raise(self):
        empty = ResultSet([], [])
        with pytest.raises(DatabaseCrash):
            FaultEffect.crash(empty, 0)
        with pytest.raises(ResourceExhausted):
            FaultEffect.hang(empty, 0)
        with pytest.raises(CypherRuntimeError):
            FaultEffect.exception(empty, 0)
