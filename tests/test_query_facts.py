"""QueryFacts: one walk per tree in place of six.

The reference functions below are copies of the separate walks that
``QueryFacts`` replaced — ``analyze``, ``clause_types_in`` and
``functions_in`` from :mod:`repro.cypher.analysis`, the operator and
pattern-shape walks of :mod:`repro.obs.coverage`, and the fault features'
predicate scan (``_scan_predicate`` of :mod:`repro.gdb.faults`).  Over
synthesized, baseline-generated and write queries the one walk must agree
with every one of them, repeats and order included.
"""

import random
from typing import List, Set

import pytest

from repro.baselines import (
    GameraTester, GDBMeterTester, GDsmithTester, GQTTester, GRevTester,
    RandomQueryGenerator,
)
from repro.core import QuerySynthesizer, SynthesizerConfig
from repro.cypher import ast
from repro.cypher.analysis import QueryFacts, QueryMetrics, analyze
from repro.cypher.parser import parse_query
from repro.cypher.printer import print_query
from repro.gdb.faults import QueryFeatures, extract_features
from repro.graph.generator import GraphGenerator
from repro.synth.state.model import StateModel
from repro.synth.state.statements import build_statement


# -- the walks QueryFacts replaced ------------------------------------------


def _flatten(query):
    if isinstance(query, ast.UnionQuery):
        return _flatten(query.left) + [query.right]
    return [query]


def _clause_bound_variables(clause) -> Set[str]:
    bound: Set[str] = set()
    if isinstance(clause, (ast.Match, ast.Create)):
        for pattern in clause.patterns:
            bound.update(pattern.variables())
    elif isinstance(clause, ast.Merge):
        bound.update(clause.pattern.variables())
    elif isinstance(clause, ast.Unwind):
        bound.add(clause.alias)
    elif isinstance(clause, (ast.With, ast.Return)):
        for item in clause.items:
            bound.add(item.column)
    elif isinstance(clause, ast.Call):
        for name, alias in clause.yield_items:
            bound.add(alias or name)
    return bound


def _clause_variable_uses(clause):
    for expr in ast.walk_expressions(clause):
        yield from expr.variables()
    if isinstance(clause, (ast.Match, ast.Create)):
        for pattern in clause.patterns:
            yield from pattern.variables()
    elif isinstance(clause, ast.Merge):
        yield from clause.pattern.variables()


def reference_analyze(query) -> QueryMetrics:
    patterns = 0
    depth = 0
    clause_count = 0
    dependencies = 0
    for sub in _flatten(query):
        seen: Set[str] = set()
        for clause in sub.clauses:
            clause_count += 1
            if isinstance(clause, ast.Match):
                patterns += len(clause.patterns)
            elif isinstance(clause, (ast.Create,)):
                patterns += len(clause.patterns)
            elif isinstance(clause, ast.Merge):
                patterns += 1
            for expr in ast.walk_expressions(clause):
                depth = max(depth, expr.depth())
            for name in _clause_variable_uses(clause):
                if name in seen:
                    dependencies += 1
            seen.update(_clause_bound_variables(clause))
    return QueryMetrics(patterns, depth, clause_count, dependencies)


def reference_clause_types_in(query) -> List[str]:
    names: List[str] = []
    for sub in _flatten(query):
        for clause in sub.clauses:
            if isinstance(clause, ast.Match):
                names.append("OPTIONAL MATCH" if clause.optional else "MATCH")
                if clause.where is not None:
                    names.append("WHERE")
            elif isinstance(clause, ast.Unwind):
                names.append("UNWIND")
            elif isinstance(clause, ast.With):
                names.append("WITH")
                if clause.distinct:
                    names.append("DISTINCT")
                if clause.order_by:
                    names.append("ORDER BY")
                if clause.skip is not None:
                    names.append("SKIP")
                if clause.limit is not None:
                    names.append("LIMIT")
                if clause.where is not None:
                    names.append("WHERE")
            elif isinstance(clause, ast.Return):
                names.append("RETURN")
                if clause.distinct:
                    names.append("DISTINCT")
                if clause.order_by:
                    names.append("ORDER BY")
                if clause.skip is not None:
                    names.append("SKIP")
                if clause.limit is not None:
                    names.append("LIMIT")
            elif isinstance(clause, ast.Call):
                names.append("CALL")
            elif isinstance(clause, ast.Create):
                names.append("CREATE")
            elif isinstance(clause, ast.SetClause):
                names.append("SET")
            elif isinstance(clause, ast.Delete):
                names.append("DETACH DELETE" if clause.detach else "DELETE")
            elif isinstance(clause, ast.Remove):
                names.append("REMOVE")
            elif isinstance(clause, ast.Merge):
                names.append("MERGE")
    if isinstance(query, ast.UnionQuery):
        names.append("UNION")
    return names


def _visit_all(query, visit):
    for sub in _flatten(query):
        for clause in sub.clauses:
            for expr in ast.walk_expressions(clause):
                visit(expr)


def reference_functions_in(query) -> List[str]:
    names: List[str] = []

    def visit(expr):
        if isinstance(expr, ast.FunctionCall):
            names.append(expr.name.lower())
        for child in expr.children():
            visit(child)

    _visit_all(query, visit)
    return names


def reference_operators_in(query) -> List[str]:
    names: List[str] = []

    def visit(expr):
        if isinstance(expr, ast.Binary):
            names.append(expr.op)
        elif isinstance(expr, ast.Unary):
            names.append(expr.op)
        elif isinstance(expr, ast.IsNull):
            names.append("IS NOT NULL" if expr.negated else "IS NULL")
        elif isinstance(expr, ast.CaseExpression):
            names.append("CASE")
        elif isinstance(expr, ast.ListIndex):
            names.append("[]")
        elif isinstance(expr, ast.ListSlice):
            names.append("[..]")
        elif isinstance(expr, ast.ListComprehension):
            names.append("list-comprehension")
        elif isinstance(expr, ast.PatternPredicate):
            names.append("pattern-predicate")
        elif isinstance(expr, ast.CountStar):
            names.append("count(*)")
        for child in expr.children():
            visit(child)

    _visit_all(query, visit)
    return names


def reference_pattern_shapes_in(query) -> List[str]:
    shapes: List[str] = []

    def scan_pattern(pattern):
        length = len(pattern.relationships)
        if length >= 3:
            shapes.append("path-3+")
        else:
            shapes.append(f"path-{length}")
        if pattern.path_variable:
            shapes.append("named-path")
        for rel in pattern.relationships:
            if rel.direction == ast.BOTH:
                shapes.append("undirected-rel")
            if rel.types:
                shapes.append("typed-rel")
        for node in pattern.nodes:
            if len(node.labels) >= 2:
                shapes.append("multi-label-node")
            elif node.labels:
                shapes.append("labeled-node")

    for sub in _flatten(query):
        for clause in sub.clauses:
            if isinstance(clause, (ast.Match, ast.Create)):
                for pattern in clause.patterns:
                    scan_pattern(pattern)
            elif isinstance(clause, ast.Merge):
                scan_pattern(clause.pattern)
    return shapes


def _scan_predicate(expr: ast.Expression, features: QueryFeatures) -> None:
    """Accumulate operator/function statistics from an expression tree."""
    if isinstance(expr, ast.Binary):
        if expr.op in ("STARTS WITH", "ENDS WITH", "CONTAINS"):
            features.string_predicates += 1
        elif expr.op == "%":
            features.modulo_ops += 1
        elif expr.op == "/":
            features.division_ops += 1
        elif expr.op == "XOR":
            features.xor_ops += 1
        elif expr.op == "<>":
            if isinstance(expr.left, ast.Variable) and isinstance(
                expr.right, ast.Variable
            ):
                features.rel_inequality_predicates += 1
    elif isinstance(expr, ast.CaseExpression):
        features.case_count += 1
    elif isinstance(expr, ast.CountStar):
        features.aggregate_count += 1
    elif isinstance(expr, ast.ListIndex):
        features.list_index_count += 1
    elif isinstance(expr, ast.FunctionCall):
        if expr.name.lower() == "replace" and len(expr.args) == 3:
            search = expr.args[1]
            if isinstance(search, ast.Literal) and search.value == "":
                features.replace_with_empty = True
    for child in expr.children():
        _scan_predicate(child, features)


#: The QueryFeatures fields the predicate scan fills.
SCANNED_FIELDS = (
    "string_predicates", "modulo_ops", "division_ops", "xor_ops",
    "rel_inequality_predicates", "case_count", "aggregate_count",
    "list_index_count", "replace_with_empty",
)

_AGGREGATES = {"count", "sum", "avg", "min", "max", "collect", "stdev", "stdevp"}


def reference_scanned_features(query):
    """The predicate counters as ``extract_features`` computed them with
    ``_scan_predicate``, scanning the same positions it scanned."""
    features = QueryFeatures(metrics=None, clause_names=[], functions=[])
    features.aggregate_count = sum(
        1 for name in reference_functions_in(query) if name in _AGGREGATES
    )
    for sub in _flatten(query):
        for clause in sub.clauses:
            if isinstance(clause, ast.Match):
                if clause.where is not None:
                    _scan_predicate(clause.where, features)
            elif isinstance(clause, ast.Unwind):
                _scan_predicate(clause.expression, features)
            elif isinstance(clause, (ast.With, ast.Return)):
                if isinstance(clause, ast.With) and clause.where is not None:
                    _scan_predicate(clause.where, features)
                for item in clause.items:
                    _scan_predicate(item.expression, features)
            elif isinstance(clause, ast.SetClause):
                for item in clause.items:
                    _scan_predicate(item.value, features)
    return {name: getattr(features, name) for name in SCANNED_FIELDS}


# -- the query population ------------------------------------------------------

# Constructs the generators rarely or never emit: comprehension scoping
# (shadowing, nesting), pattern predicates, slices, null tests, named
# paths, count(*), chained UNIONs and every write clause.
HANDWRITTEN = [
    "MATCH (n) WITH n, [n IN [1, 2] | n + 1] AS l RETURN l, n",
    "MATCH (a)-[r]->(b) WITH a, b MATCH (a)-[s]-(c) "
    "WHERE [x IN [a.id, b.id] WHERE x > c.id | [y IN [x] | y + a.id]] <> [] "
    "RETURN count(*) AS k",
    "MATCH p = (a:A:B)-[r:T]->(b)-[s]-(c)<-[t]-(d) WHERE (a)-[:T]->(:A {id: d.id}) "
    "RETURN p, a.list[1..2], a.x IS NULL, b.y IS NOT NULL",
    "UNWIND [1, 2, 3] AS x WITH x WHERE x % 2 = 1 RETURN "
    "CASE x WHEN 1 THEN 'a' ELSE 'b' END AS c ORDER BY c DESC SKIP 0 LIMIT 5",
    "MATCH (a) RETURN a.id UNION MATCH (b) RETURN b.id "
    "UNION ALL MATCH (c) RETURN c.id",
    "CALL db.labels() YIELD label AS l WITH l RETURN DISTINCT l",
    "MATCH (a {id: 1}) CREATE (a)-[:T {w: a.id}]->(b:New {id: 9}) RETURN b",
    "MERGE (a:A {id: 3}) SET a.x = a.id + 1 REMOVE a.y, a:A RETURN a",
    "MATCH (a)-[r]->(b) DELETE r DETACH DELETE a",
]

# Every counted construct at positions the predicate scan skips (pattern
# property maps, ORDER BY, SKIP, LIMIT, CALL arguments, DELETE targets)
# beside the positions it counts.
SCAN_POSITIONS = [
    "MATCH (a {id: 5 % 2})-[r {w: 1 / 2}]->(b) WITH a, b "
    "ORDER BY CASE WHEN a.id > 1 THEN a.x / 2 END SKIP 1 % 1 LIMIT [1][0] "
    "WHERE a.name STARTS WITH 'x' RETURN a <> b AS c, count(*) AS k, "
    "replace(a.s, '', 'y') AS z ORDER BY k % 2, c XOR true",
    "CALL db.labels(1 % 2, count(*)) YIELD label RETURN label",
    "MATCH (a) WHERE a.s ENDS WITH 'q' DETACH DELETE [a][0]",
    "MERGE (a {id: 1 % 2}) CREATE (b {x: CASE WHEN true THEN 1 END}) "
    "SET a.x = CASE WHEN a.id <> 1 THEN [1][0] END, a.y = a.s CONTAINS 'q'",
    "UNWIND [1 % 2, 3 / 4, replace('a', '', 'b')] AS x "
    "WITH x, count(*) AS n ORDER BY x XOR false RETURN x",
]


def _population():
    queries = [parse_query(text) for text in HANDWRITTEN]
    for seed in range(110):
        _schema, graph = GraphGenerator(seed=seed).generate_with_schema()
        rng = random.Random(seed)
        config = SynthesizerConfig(
            needs_uniqueness_predicates=seed % 2 == 1,
            supports_call_procedures=seed % 3 != 0,
            union_probability=0.3,
        )
        synthesizer = QuerySynthesizer(graph, rng=rng, config=config)
        queries.extend(synthesizer.synthesize().query for _ in range(3))
        for tester in (GDsmithTester, GDBMeterTester, GameraTester,
                       GQTTester, GRevTester):
            generator = RandomQueryGenerator(graph, rng, tester.profile)
            queries.append(generator.generate())
        model = StateModel(graph)
        for kind in ("create", "merge", "set", "delete", "remove"):
            statement = build_statement(kind, model, rng)
            if statement is not None:
                queries.append(statement)
    return queries


@pytest.fixture(scope="module")
def population():
    queries = _population()
    assert len(queries) >= 500
    return queries


class TestQueryFactsEquivalence:
    def test_one_walk_matches_every_replaced_walk(self, population):
        for query in population:
            facts = QueryFacts.of(query)
            text = print_query(query)
            assert facts.metrics == reference_analyze(query), text
            assert list(facts.clause_names) == reference_clause_types_in(query), text
            assert list(facts.functions) == reference_functions_in(query), text
            assert list(facts.operators) == reference_operators_in(query), text
            assert list(facts.shapes) == reference_pattern_shapes_in(query), text

    def test_predicate_counters_match_the_predicate_scan(self, population):
        for query in population + [parse_query(t) for t in SCAN_POSITIONS]:
            text = print_query(query)
            features = extract_features(query)
            folded = {name: getattr(features, name) for name in SCANNED_FIELDS}
            assert folded == reference_scanned_features(query), text

    def test_facts_are_walked_once_per_tree(self):
        query = parse_query(HANDWRITTEN[1])
        assert query.facts is query.facts
        assert analyze(query) is query.facts.metrics
        # Facts ride on the tree object, not in its value: equal trees
        # stay equal and hash alike whether or not one was analyzed.
        fresh = parse_query(HANDWRITTEN[1])
        assert fresh == query and hash(fresh) == hash(query)
