"""End-to-end reproductions of the paper's figure bugs on the simulators."""

import pytest

from repro.core.oracle import check_result
from repro.cypher.parser import parse_query
from repro.gdb import EngineOptions, ReferenceGDB, create_engine, faults_for
from repro.graph.generator import GraphGenerator


def engine_with_only(name, fault_id):
    engine = create_engine(name, options=EngineOptions(gate_scale=0.0))
    engine.faults = [f for f in faults_for(name) if f.fault_id == fault_id]
    return engine


class TestFigure1:
    """FalkorDB: wrong value with undirected patterns + UNWIND + WITH."""

    QUERY = (
        "MATCH (n2)<-[r1]->(n0), (n3)-[r2]->(n4) "
        "UNWIND [n4.id, false] AS a1 "
        "WITH DISTINCT n2, n3, n4, n0 "
        "MATCH (n2)<-[r4]->(n0) "
        "RETURN n2.id AS a3 LIMIT 1"
    )

    def test_wrong_value_effect(self):
        graph = GraphGenerator(seed=31).generate()
        reference = ReferenceGDB()
        reference.load_graph(graph, None)
        try:
            correct = reference.execute(parse_query(self.QUERY))
        except Exception:
            pytest.skip("graph shape does not satisfy the figure pattern")
        if len(correct) == 0:
            pytest.skip("no match on this seed")

        engine = engine_with_only("falkordb", "falkordb-L1")
        engine.load_graph(graph, None)
        actual = engine.execute(parse_query(self.QUERY))
        assert engine.last_fired_fault is not None
        # Same shape, wrong value — exactly the Figure 1 symptom.
        assert len(actual) == len(correct)
        assert not check_result(correct, actual).passed


class TestFigure8:
    """Memgraph: empty result from Cartesian-product optimization."""

    # The paper's Figure 8 shape: two MATCH clauses separated by UNWINDs,
    # five clauses total, with a filter and a descending ORDER BY.
    QUERY = (
        "MATCH (n0)<-[r0]-(n1) WHERE n0.id >= 0 "
        "UNWIND [-1465465557] AS a0 "
        "MATCH (n4)<-[r2]-(n5) "
        "UNWIND [n0.id] AS a1 "
        "RETURN r2.id AS a2, n5.id AS a3 ORDER BY a3 DESC"
    )

    def test_empty_result_effect(self):
        graph = GraphGenerator(seed=32).generate()
        reference = ReferenceGDB()
        reference.load_graph(graph, None)
        correct = reference.execute(parse_query(self.QUERY))
        if len(correct) == 0:
            pytest.skip("no match on this seed")

        engine = engine_with_only("memgraph", "memgraph-L1")
        engine.load_graph(graph, None)
        actual = engine.execute(parse_query(self.QUERY))
        assert engine.last_fired_fault is not None
        assert len(actual) == 0
        assert not check_result(correct, actual).passed


class TestFigure9:
    """Memgraph: replace('', ...) hang — the exact query from the paper."""

    QUERY = "WITH replace('ts15G', '', 'U11sWFvRw') AS a0 RETURN a0"

    def test_reference_returns_original_string(self):
        graph = GraphGenerator(seed=33).generate()
        reference = ReferenceGDB()
        reference.load_graph(graph, None)
        result = reference.execute(parse_query(self.QUERY))
        assert result.rows == [("ts15G",)]

    def test_memgraph_hangs(self):
        from repro.engine.errors import ResourceExhausted

        graph = GraphGenerator(seed=33).generate()
        engine = engine_with_only("memgraph", "memgraph-O1")
        engine.load_graph(graph, None)
        with pytest.raises(ResourceExhausted):
            engine.execute(parse_query(self.QUERY))


class TestFigure17:
    """FalkorDB: UNWIND before MATCH fetches only the first record."""

    QUERY = "UNWIND [1,2,3] AS a0 MATCH (n2)-[r1]-(n3) WHERE r1.id = 0 RETURN a0"

    def test_row_loss(self):
        graph = GraphGenerator(seed=34).generate()
        reference = ReferenceGDB()
        reference.load_graph(graph, None)
        correct = reference.execute(parse_query(self.QUERY))
        if len(correct) == 0:
            pytest.skip("no relationship with id 0 on this seed")

        engine = engine_with_only("falkordb", "falkordb-L2")
        engine.load_graph(graph, None)
        actual = engine.execute(parse_query(self.QUERY))
        assert engine.last_fired_fault is not None
        assert len(actual) == 1
        assert len(correct) > 1
