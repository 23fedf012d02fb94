"""GDBMeter: ternary-logic query partitioning (Kamm et al., ISSTA '23).

GDBMeter generates a query whose MATCH carries a predicate ``P`` and checks
the TLP metamorphic relation:

    R(P)  ∪  R(NOT P)  ∪  R(P IS NULL)   ==   R(TRUE)

Any violation indicates a bug.  The oracle "can be used only to filter
clauses like WHERE" (paper §1), which bounds both the generator's complexity
and the detectable bug classes: a fault that perturbs all four partitions
identically — like the Memgraph WITH-projection bug of Figure 16 — passes
the union check and goes unnoticed.
"""

from __future__ import annotations

import random
from typing import List, Optional, Union

from repro.baselines.common import (
    BaselineTester,
    GeneratorProfile,
    run_and_observe,
    run_query_guarded,
)
from repro.runtime.results import BugReport, CampaignResult
from repro.cypher import ast
from repro.cypher.printer import print_query
from repro.engine.binding import ResultSet
from repro.gdb.engines import GraphDatabase
from repro.runtime.protocol import SessionPolicy

__all__ = ["GDBMeterTester", "partition_query"]

AnyQuery = Union[ast.Query, ast.UnionQuery]


def partition_query(query: AnyQuery) -> Optional[List[AnyQuery]]:
    """Build the TLP partitions [Q(P), Q(NOT P), Q(P IS NULL), Q(TRUE)].

    Partitions the predicate of the first ``MATCH ... WHERE`` clause; returns
    None when the query carries no partitionable predicate (UNION queries
    and WHERE-less queries are out of scope for TLP).
    """
    if isinstance(query, ast.UnionQuery):
        return None
    target_index: Optional[int] = None
    for index, clause in enumerate(query.clauses):
        if (
            isinstance(clause, ast.Match)
            and clause.where is not None
            and not clause.optional
        ):
            target_index = index
            break
    if target_index is None:
        return None

    # The partition-union relation is row-wise: it breaks under anything
    # that observes the whole row set downstream of the partitioned MATCH
    # (DISTINCT, LIMIT/SKIP, aggregation) and under OPTIONAL matching.
    # GDBMeter's generator avoids those constructs; when replaying foreign
    # queries the oracle is simply inapplicable.
    from repro.engine.evaluator import has_aggregate

    for clause in query.clauses[target_index:]:
        if isinstance(clause, (ast.With, ast.Return)):
            if clause.distinct or clause.limit is not None or clause.skip is not None:
                return None
            if any(has_aggregate(item.expression) for item in clause.items):
                return None

    def replace_where(predicate: ast.Expression) -> ast.Query:
        clauses = list(query.clauses)
        original = clauses[target_index]
        clauses[target_index] = ast.Match(
            original.patterns, original.optional, predicate
        )
        return ast.Query(tuple(clauses))

    predicate = query.clauses[target_index].where
    return [
        query,
        replace_where(ast.Unary("NOT", predicate)),
        replace_where(ast.IsNull(predicate)),
        replace_where(ast.Literal(True)),
    ]


class GDBMeterTester(BaselineTester):
    """TLP-based metamorphic tester."""

    name = "GDBMeter"
    # Declared explicitly (new policy-object API): one long-lived session.
    session = SessionPolicy.long_session()
    # Single MATCH-WHERE-RETURN queries (Table 5: 0.86 patterns, depth 2.24,
    # 1.94 clauses, 1.97 dependencies).
    profile = GeneratorProfile(
        name="GDBMeter",
        min_clauses=2,
        max_clauses=2,
        max_patterns_per_match=1,
        max_path_length=1,
        expression_depth=2,
        reuse_probability=0.25,
        where_probability=0.95,
        order_by_probability=0.05,
        distinct_probability=0.05,
    )
    supported_engines = ("neo4j", "falkordb", "kuzu")  # no Memgraph support

    def check_query(
        self,
        engine: GraphDatabase,
        query: AnyQuery,
        rng: random.Random,
        result: CampaignResult,
    ) -> Optional[BugReport]:
        partitions = partition_query(query)
        if partitions is None:
            # Execute once anyway (hard failures are still bugs).
            result.sim_seconds += engine.cost_of(query)
            _res, exc = run_query_guarded(engine, query)
            if exc is not None and self._is_hard_failure(exc):
                return self._error_report(
                    engine, print_query(query), exc, result.sim_seconds
                )
            return None

        outputs: List[ResultSet] = []
        fired = None
        for variant in partitions:
            result.sim_seconds += engine.cost_of(variant)
            res, exc, fault = run_and_observe(engine, variant)
            fired = fired or fault
            if exc is not None:
                if self._is_hard_failure(exc):
                    return self._error_report(
                        engine, print_query(variant), exc, result.sim_seconds
                    )
                return None  # plain errors void the metamorphic relation
            outputs.append(res)

        union = ResultSet.union_all(outputs[:3])
        reference = outputs[3]
        if union.same_rows(reference):
            return None
        fault = fired
        return BugReport(
            tester=self.name,
            engine=engine.name,
            kind="logic",
            detail="TLP violation: R(P) U R(NOT P) U R(P IS NULL) != R(TRUE)",
            query_text=print_query(query),
            fault_id=fault.fault_id if fault else None,
            sim_time=result.sim_seconds,
        )
