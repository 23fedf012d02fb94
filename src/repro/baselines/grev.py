"""GRev: testing GDBs via equivalent query rewriting (Mang et al., ICSE '24).

GRev rewrites a query into semantically equivalent forms and checks result
equality.  The rewrites implemented here preserve openCypher semantics:

* reversing path patterns (``(a)-[r]->(b)`` ≡ ``(b)<-[r]-(a)``) — this is
  the class of rewrites that steers engines into different query plans
  (paper §3.4 footnote);
* permuting comma-separated patterns within a MATCH;
* commuting AND conjuncts inside WHERE;
* double-negating a WHERE predicate (``P`` ≡ ``NOT (NOT P)``).

Queries containing LIMIT/SKIP are skipped: with ties, truncation makes even
equivalent queries legitimately nondeterministic, and GRev's oracle must not
raise false alarms.
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
from repro.runtime.protocol import SessionPolicy

__all__ = [
    "GRevTester",
    "reverse_patterns",
    "permute_patterns",
    "double_negate_where",
    "rewrite_applicable",
]

AnyQuery = Union[ast.Query, ast.UnionQuery]


def rewrite_applicable(query: AnyQuery) -> bool:
    """Equivalence checking is unsound under truncation with ties."""
    if isinstance(query, ast.UnionQuery):
        return rewrite_applicable(query.left) and rewrite_applicable(query.right)
    for clause in query.clauses:
        if isinstance(clause, (ast.With, ast.Return)):
            if clause.limit is not None or clause.skip is not None:
                return False
    return True


def _reverse_path(pattern: ast.PathPattern) -> ast.PathPattern:
    flipped = {ast.OUT: ast.IN, ast.IN: ast.OUT, ast.BOTH: ast.BOTH}
    nodes = tuple(reversed(pattern.nodes))
    rels = tuple(
        ast.RelationshipPattern(
            rel.variable, rel.types, flipped[rel.direction], rel.properties
        )
        for rel in reversed(pattern.relationships)
    )
    return ast.PathPattern(nodes, rels)


def reverse_patterns(query: AnyQuery) -> Optional[AnyQuery]:
    """Rewrite every path pattern into its reverse orientation."""
    if isinstance(query, ast.UnionQuery) or not rewrite_applicable(query):
        return None
    changed = False
    clauses = []
    for clause in query.clauses:
        if isinstance(clause, ast.Match) and any(
            len(p.relationships) > 0 for p in clause.patterns
        ):
            clauses.append(
                ast.Match(
                    tuple(_reverse_path(p) for p in clause.patterns),
                    clause.optional,
                    clause.where,
                )
            )
            changed = True
        else:
            clauses.append(clause)
    if not changed:
        return None
    return ast.Query(tuple(clauses))


def permute_patterns(query: AnyQuery, rng: random.Random) -> Optional[AnyQuery]:
    """Shuffle the comma-separated patterns of each multi-pattern MATCH."""
    if isinstance(query, ast.UnionQuery) or not rewrite_applicable(query):
        return None
    changed = False
    clauses = []
    for clause in query.clauses:
        if isinstance(clause, ast.Match) and len(clause.patterns) > 1:
            patterns = list(clause.patterns)
            rng.shuffle(patterns)
            if tuple(patterns) != clause.patterns:
                changed = True
            clauses.append(
                ast.Match(tuple(patterns), clause.optional, clause.where)
            )
        else:
            clauses.append(clause)
    if not changed:
        return None
    return ast.Query(tuple(clauses))


def double_negate_where(query: AnyQuery) -> Optional[AnyQuery]:
    """``WHERE P`` becomes ``WHERE NOT (NOT P)`` (ternary-logic safe)."""
    if isinstance(query, ast.UnionQuery) or not rewrite_applicable(query):
        return None
    clauses = list(query.clauses)
    for index, clause in enumerate(clauses):
        if isinstance(clause, ast.Match) and clause.where is not None:
            clauses[index] = ast.Match(
                clause.patterns,
                clause.optional,
                ast.Unary("NOT", ast.Unary("NOT", clause.where)),
            )
            return ast.Query(tuple(clauses))
    return None


class GRevTester(BaselineTester):
    """Equivalent-query-rewriting tester."""

    name = "GRev"
    # Declared explicitly (new policy-object API): one long-lived session.
    session = SessionPolicy.long_session()
    # Table 5: 6.69 patterns, depth 5.26, 6.49 clauses, 28.41 dependencies.
    profile = GeneratorProfile(
        name="GRev",
        min_clauses=5,
        max_clauses=8,
        max_patterns_per_match=2,
        max_path_length=3,
        expression_depth=4,
        reuse_probability=0.5,
        where_probability=0.85,
        unwind_probability=0.05,
        with_probability=0.3,
        order_by_probability=0.1,
        distinct_probability=0.05,
    )
    supported_engines = ("neo4j", "memgraph", "falkordb")

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

        rewrites = [
            reverse_patterns(query),
            permute_patterns(query, rng),
            double_negate_where(query),
        ]
        for variant in rewrites:
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
            if not base.same_rows(res):
                return BugReport(
                    tester=self.name,
                    engine=engine.name,
                    kind="logic",
                    detail="equivalent rewrite produced a different result",
                    query_text=query.text,
                    fault_id=fired.fault_id if fired else None,
                    sim_time=result.sim_seconds,
                )
        return None
