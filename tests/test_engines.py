"""Tests for the simulated GDB engines and their dialects."""

import pytest

from repro.cypher.parser import parse_query
from repro.engine.errors import (
    CypherRuntimeError,
    DatabaseCrash,
    ResourceExhausted,
)
from repro.gdb import (
    ALL_ENGINE_NAMES,
    EngineOptions,
    ReferenceGDB,
    create_engine,
    faults_for,
)
from repro.graph.generator import GraphGenerator


@pytest.fixture
def loaded():
    """All four engines, faults disabled, loaded with the same graph."""
    generator = GraphGenerator(seed=3)
    schema, graph = generator.generate_with_schema()
    engines = {}
    for name in ALL_ENGINE_NAMES:
        engine = create_engine(name,
                               options=EngineOptions(faults_enabled=False))
        engine.load_graph(graph, schema)
        engines[name] = engine
    return graph, schema, engines


class TestLifecycle:
    def test_execute_without_graph_raises(self):
        engine = create_engine("neo4j")
        with pytest.raises(CypherRuntimeError):
            engine.execute("MATCH (n) RETURN n")

    def test_kuzu_requires_schema(self):
        generator = GraphGenerator(seed=1)
        schema, graph = generator.generate_with_schema()
        engine = create_engine("kuzu")
        with pytest.raises(CypherRuntimeError):
            engine.load_graph(graph)  # no schema
        engine.load_graph(graph, schema)  # fine with schema

    def test_other_engines_accept_schemaless_load(self):
        graph = GraphGenerator(seed=1).generate()
        for name in ("neo4j", "memgraph", "falkordb"):
            create_engine(name).load_graph(graph)

    def test_restart_resets_session_counter(self, loaded):
        _graph, _schema, engines = loaded
        engine = engines["neo4j"]
        engine.execute("MATCH (n) RETURN n")
        assert engine.queries_since_restart == 1
        engine.restart()
        assert engine.queries_since_restart == 0

    def test_load_without_restart_keeps_counter(self, loaded):
        graph, schema, engines = loaded
        engine = engines["falkordb"]
        engine.execute("MATCH (n) RETURN n")
        engine.load_graph(graph, schema, restart=False)
        assert engine.queries_since_restart == 1

    def test_engine_copies_graph(self, loaded):
        graph, _schema, engines = loaded
        engine = engines["neo4j"]
        before = engine.execute("MATCH (n) RETURN count(*) AS c").rows[0][0]
        graph.add_node(["EXTRA"])
        after = engine.execute("MATCH (n) RETURN count(*) AS c").rows[0][0]
        assert before == after


class TestDialects:
    def test_text_and_ast_agree(self, loaded):
        _graph, _schema, engines = loaded
        engine = engines["neo4j"]
        text = "MATCH (n) RETURN count(*) AS c"
        via_text = engine.execute(text)
        via_ast = engine.execute(parse_query(text))
        assert via_text.same_rows(via_ast)

    def test_call_procedures_support(self, loaded):
        _graph, _schema, engines = loaded
        query = "CALL db.labels() YIELD label RETURN label"
        engines["neo4j"].execute(query)
        engines["falkordb"].execute(query)
        for name in ("memgraph", "kuzu"):
            with pytest.raises(CypherRuntimeError):
                engines[name].execute(query)

    def test_rel_uniqueness_dialect_difference(self, loaded):
        _graph, _schema, engines = loaded
        query = "MATCH (a)-[r1]-(b)-[r2]-(c) RETURN count(*) AS c"
        strict = engines["neo4j"].execute(query).rows[0][0]
        loose = engines["kuzu"].execute(query).rows[0][0]
        assert loose >= strict

    def test_unsupported_functions_rejected(self, loaded):
        _graph, _schema, engines = loaded
        with pytest.raises(CypherRuntimeError):
            engines["memgraph"].execute("RETURN cot(1.0) AS x")
        engines["neo4j"].execute("RETURN cot(1.0) AS x")  # fine on Neo4j

    def test_lenient_type_errors_on_memgraph(self, loaded):
        _graph, _schema, engines = loaded
        query = "RETURN 'a' * 2 AS x"
        result = engines["memgraph"].execute(query)
        assert len(result) == 0  # coerced to an empty result
        from repro.engine.errors import CypherTypeError

        with pytest.raises(CypherTypeError):
            engines["neo4j"].execute(query)

    def test_float_formatting_differs(self, loaded):
        _graph, _schema, engines = loaded
        result = engines["neo4j"].execute("RETURN 0.1234567890123 AS x")
        neo_text = engines["neo4j"].format_result(result)
        falkor_text = engines["falkordb"].format_result(result)
        assert neo_text != falkor_text

    def test_cost_model_shape(self):
        """The §5.3 throughput facts: 9-step queries ~6.6x slower than
        3-step; Memgraph ~6 q/s and Neo4j ~3 q/s at 9 steps."""
        from repro.gdb import DIALECTS

        for dialect in DIALECTS.values():
            ratio = dialect.cost_of_steps(9) / dialect.cost_of_steps(3)
            assert ratio == pytest.approx(6.6, rel=1e-6)
        assert 1 / DIALECTS["memgraph"].cost_of_steps(9) == pytest.approx(6.0)
        assert 1 / DIALECTS["neo4j"].cost_of_steps(9) == pytest.approx(3.0)

    def test_cost_of_query_counts_clauses(self, loaded):
        _graph, _schema, engines = loaded
        engine = engines["neo4j"]
        short = engine.cost_of("MATCH (n) RETURN n")
        long = engine.cost_of(
            "MATCH (n) WITH n WITH n WITH n WITH n WITH n RETURN n"
        )
        assert long > short


class TestFaultInjection:
    def test_reference_engine_has_no_faults(self):
        engine = ReferenceGDB()
        assert engine.faults == []

    def test_fault_fires_and_perturbs(self):
        """Figure 17's UNWIND-before-MATCH fault on FalkorDB."""
        generator = GraphGenerator(seed=6)
        schema, graph = generator.generate_with_schema()
        engine = create_engine("falkordb")
        engine.load_graph(graph, schema)
        reference = ReferenceGDB()
        reference.load_graph(graph, schema)

        query = "UNWIND [1,2,3] AS a0 MATCH (n) WHERE n.id = 0 RETURN a0"
        correct = reference.execute(query)
        assert len(correct) == 3
        actual = engine.execute(query)
        if engine.last_fired_fault is not None:
            assert engine.last_fired_fault.fault_id == "falkordb-L2"
            assert len(actual) == 1  # only the first record fetched
        else:
            # Gated out for this particular query signature; the unfaulted
            # result must then be correct.
            assert actual.same_rows(correct)

    def test_faults_disabled_engine_is_correct(self):
        generator = GraphGenerator(seed=6)
        schema, graph = generator.generate_with_schema()
        clean = create_engine("falkordb",
                              options=EngineOptions(faults_enabled=False))
        clean.load_graph(graph, schema)
        query = "UNWIND [1,2,3] AS a0 MATCH (n) WHERE n.id = 0 RETURN a0"
        assert len(clean.execute(query)) == 3
        assert clean.last_fired_fault is None

    def test_crash_requires_restart(self):
        generator = GraphGenerator(seed=2)
        schema, graph = generator.generate_with_schema()
        # Every gate open.
        engine = create_engine("falkordb",
                               options=EngineOptions(gate_scale=0.0))
        engine.load_graph(graph, schema)
        engine.queries_since_restart = 10**6  # long session
        query = "MATCH (n) WHERE n.id = 0 RETURN n.id AS v"
        with pytest.raises(DatabaseCrash):
            engine.execute(query)
        # Instance down until restarted.
        with pytest.raises(DatabaseCrash):
            engine.execute("RETURN 1 AS x")
        engine.restart()
        engine.load_graph(graph, schema)
        engine.execute("RETURN 1 AS x")

    def test_memgraph_replace_empty_hang(self):
        """Figure 9: replace with an empty search string."""
        generator = GraphGenerator(seed=2)
        schema, graph = generator.generate_with_schema()
        engine = create_engine("memgraph",
                               options=EngineOptions(gate_scale=0.0))
        engine.load_graph(graph, schema)
        with pytest.raises(ResourceExhausted):
            engine.execute("WITH replace('ts15G', '', 'U11sWFvRw') AS a0 RETURN a0")

    def test_same_query_same_result(self):
        """Reproducibility: a faulty engine answers deterministically."""
        generator = GraphGenerator(seed=9)
        schema, graph = generator.generate_with_schema()
        engine = create_engine("falkordb",
                               options=EngineOptions(gate_scale=0.2))
        engine.load_graph(graph, schema)
        query = (
            "MATCH (a)-[r]-(b) WHERE a.id = 0 "
            "UNWIND [1, 2] AS x WITH a, b, x MATCH (c) WHERE c.id = 1 "
            "RETURN a.id AS v"
        )
        first = engine.execute(query)
        second = engine.execute(query)
        assert first.same_rows(second)

    def test_catalog_assignment(self):
        for name in ALL_ENGINE_NAMES:
            engine = create_engine(name)
            assert engine.faults == faults_for(name)
