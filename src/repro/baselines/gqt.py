"""GQT: injective and surjective graph query transformation (Jiang et al.,
ICSE '24).

Three transformation families are implemented:

* **Equality (injective + surjective)**: appending a tautological conjunct
  (``AND true``) to a WHERE must preserve the result exactly.
* **Surjective (superset)**: removing the WHERE of a MATCH can only grow
  the result: ``R(Q) ⊆ R(Q')``.
* **Injective (subset)**: adding a random label to an unlabeled pattern
  node can only shrink the result: ``R(Q') ⊆ R(Q)``.  The label is drawn
  randomly from the graph — the source of the "infinitely many
  transformations" the paper notes make GQT's missed-bug count impossible
  to quantify exactly (§5.4.3).

Monotonic relations require the absence of OPTIONAL MATCH, aggregation,
DISTINCT and LIMIT/SKIP; the applicability guard enforces this.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from repro.baselines.common import (
    BaselineTester,
    GeneratorProfile,
    run_and_observe,
)
from repro.runtime.results import BugReport, CampaignResult
from repro.cypher import ast
from repro.gdb.engines import GraphDatabase
from repro.graph.model import PropertyGraph
from repro.runtime.protocol import SessionPolicy

__all__ = [
    "GQTTester",
    "add_tautology",
    "drop_where",
    "add_random_label",
]

AnyQuery = Union[ast.Query, ast.UnionQuery]


def _monotonicity_applicable(query: AnyQuery) -> bool:
    if isinstance(query, ast.UnionQuery):
        return False
    for clause in query.clauses:
        if isinstance(clause, ast.Match) and clause.optional:
            return False
        if isinstance(clause, (ast.With, ast.Return)):
            if clause.limit is not None or clause.skip is not None:
                return False
            if clause.distinct:
                return False
            if any(item.aggregated for item in clause.items):
                return False
    return True


def add_tautology(query: AnyQuery) -> Optional[AnyQuery]:
    """Equality transformation: ``WHERE P`` becomes ``WHERE P AND true``."""
    if isinstance(query, ast.UnionQuery):
        return None
    clauses = list(query.clauses)
    for index, clause in enumerate(clauses):
        if isinstance(clause, ast.Match) and clause.where is not None:
            clauses[index] = ast.Match(
                clause.patterns,
                clause.optional,
                ast.Binary("AND", clause.where, ast.Literal(True)),
            )
            return ast.Query(tuple(clauses))
    return None


def drop_where(query: AnyQuery) -> Optional[AnyQuery]:
    """Surjective transformation: remove a MATCH's WHERE (superset)."""
    if not _monotonicity_applicable(query):
        return None
    assert isinstance(query, ast.Query)
    clauses = list(query.clauses)
    for index, clause in enumerate(clauses):
        if isinstance(clause, ast.Match) and clause.where is not None:
            clauses[index] = ast.Match(clause.patterns, clause.optional, None)
            return ast.Query(tuple(clauses))
    return None


def add_random_label(
    query: AnyQuery, graph: Optional[PropertyGraph], rng: random.Random
) -> Optional[AnyQuery]:
    """Injective transformation: constrain an unlabeled node (subset)."""
    if not _monotonicity_applicable(query):
        return None
    assert isinstance(query, ast.Query)
    labels = graph.labels() if graph is not None else []
    if not labels:
        return None
    clauses = list(query.clauses)
    for clause_index, clause in enumerate(clauses):
        if not isinstance(clause, ast.Match):
            continue
        patterns = list(clause.patterns)
        for pattern_index, pattern in enumerate(patterns):
            nodes = list(pattern.nodes)
            for node_index, node in enumerate(nodes):
                if node.labels:
                    continue
                nodes[node_index] = ast.NodePattern(
                    node.variable, (rng.choice(labels),), node.properties
                )
                patterns[pattern_index] = ast.PathPattern(
                    tuple(nodes), pattern.relationships
                )
                clauses[clause_index] = ast.Match(
                    tuple(patterns), clause.optional, clause.where
                )
                return ast.Query(tuple(clauses))
    return None


class GQTTester(BaselineTester):
    """Injective/surjective transformation tester."""

    name = "GQT"
    # Declared explicitly (new policy-object API): one long-lived session.
    session = SessionPolicy.long_session()
    # Table 5: 1.03 patterns, depth 2.87, 3.39 clauses, 3.43 dependencies.
    profile = GeneratorProfile(
        name="GQT",
        min_clauses=2,
        max_clauses=4,
        max_patterns_per_match=1,
        max_path_length=1,
        expression_depth=3,
        reuse_probability=0.3,
        where_probability=0.8,
        with_probability=0.25,
        label_probability=0.4,
        order_by_probability=0.35,
        distinct_probability=0.0,
    )
    supported_engines = ("neo4j", "falkordb", "kuzu")  # no Memgraph support

    def check_query(
        self,
        engine: GraphDatabase,
        query: AnyQuery,
        rng: random.Random,
        result: CampaignResult,
    ) -> Optional[BugReport]:
        result.sim_seconds += engine.cost_of(query)
        base, exc, fired = run_and_observe(engine, query)
        if exc is not None:
            if self._is_hard_failure(exc):
                return self._error_report(
                    engine, query.text, exc, result.sim_seconds
                )
            return None

        checks = [
            (add_tautology(query), "equal",
             "equality violated by tautological conjunct"),
            (drop_where(query), "superset",
             "surjective transformation shrank the result"),
            (add_random_label(query, engine.graph, rng), "subset",
             "injective transformation grew the result"),
        ]
        for variant, relation, detail in checks:
            if variant is None:
                continue
            result.sim_seconds += engine.cost_of(variant)
            res, var_exc, var_fault = run_and_observe(engine, variant)
            fired = fired or var_fault
            if var_exc is not None:
                if self._is_hard_failure(var_exc):
                    return self._error_report(
                        engine, variant.text, var_exc, result.sim_seconds
                    )
                continue
            violated = False
            if relation == "equal":
                violated = not base.same_rows(res)
            elif relation == "superset":
                violated = not base.is_sub_bag_of(res)
            else:  # subset
                violated = not res.is_sub_bag_of(base)
            if violated:
                return BugReport(
                    tester=self.name,
                    engine=engine.name,
                    kind="logic",
                    detail=detail,
                    query_text=query.text,
                    fault_id=fired.fault_id if fired else None,
                    sim_time=result.sim_seconds,
                )
        return None
