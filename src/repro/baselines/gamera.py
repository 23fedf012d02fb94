"""Gamera: graph-aware metamorphic relations (Zhuang et al., VLDB '24).

Two representative relations are implemented:

* **MR-A (graph augmentation)**: adding an isolated node with a fresh label
  must leave the result unchanged.  Applicable only when every node pattern
  carries a label (otherwise the new node genuinely matches) and the query
  calls no procedures.
* **MR-B (direction relaxation)**: relaxing one directed relationship
  pattern to undirected can only *grow* the result: ``R(Q) ⊆ R(Q')``.
  Applicable only without OPTIONAL MATCH, aggregation, or LIMIT/SKIP, all
  of which break monotonicity.

Both relations are insensitive to bugs whose behaviour is identical across
the original and transformed runs — e.g. faults rooted in UNWIND handling
(paper Figure 17) — which is exactly the blind spot §5.4.3 describes.
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

__all__ = ["GameraTester", "relax_one_direction", "augmentation_applicable"]

AnyQuery = Union[ast.Query, ast.UnionQuery]


def augmentation_applicable(query: AnyQuery) -> bool:
    """Whether MR-A (isolated-node augmentation) preserves the result."""
    if isinstance(query, ast.UnionQuery):
        return augmentation_applicable(query.left) and augmentation_applicable(
            query.right
        )
    for clause in query.clauses:
        if isinstance(clause, ast.Call):
            return False
        if isinstance(clause, ast.Match):
            for pattern in clause.patterns:
                for node in pattern.nodes:
                    if not node.labels:
                        return False
    return True


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


def relax_one_direction(query: AnyQuery) -> Optional[AnyQuery]:
    """MR-B: make the first directed relationship pattern undirected."""
    if not _monotonicity_applicable(query):
        return None
    assert isinstance(query, ast.Query)
    clauses = list(query.clauses)
    for clause_index, clause in enumerate(clauses):
        if not isinstance(clause, ast.Match):
            continue
        patterns = list(clause.patterns)
        for pattern_index, pattern in enumerate(patterns):
            rels = list(pattern.relationships)
            for rel_index, rel in enumerate(rels):
                if rel.direction == ast.BOTH:
                    continue
                rels[rel_index] = ast.RelationshipPattern(
                    rel.variable, rel.types, ast.BOTH, rel.properties
                )
                patterns[pattern_index] = ast.PathPattern(
                    pattern.nodes, tuple(rels)
                )
                clauses[clause_index] = ast.Match(
                    tuple(patterns), clause.optional, clause.where
                )
                return ast.Query(tuple(clauses))
    return None


class GameraTester(BaselineTester):
    """Graph-aware metamorphic tester."""

    name = "Gamera"
    # Declared explicitly (new policy-object API): one long-lived session.
    session = SessionPolicy.long_session()
    # Small queries (Table 5: 0.83 patterns, depth 1.39, 1.92 clauses).
    profile = GeneratorProfile(
        name="Gamera",
        min_clauses=2,
        max_clauses=2,
        max_patterns_per_match=1,
        max_path_length=1,
        expression_depth=1,
        reuse_probability=0.2,
        where_probability=0.6,
        label_probability=0.9,          # labeled patterns keep MR-A applicable
        order_by_probability=0.05,
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

        # MR-A: isolated-node augmentation.
        if augmentation_applicable(query) and engine.graph is not None:
            augmented = engine.graph.copy()
            augmented.add_node([f"GameraAug{augmented.node_count}"], {})
            original_graph, original_schema = engine.graph, engine.schema
            engine.load_graph(augmented, original_schema, restart=False)
            result.sim_seconds += engine.cost_of(query)
            aug_result, aug_exc, aug_fault = run_and_observe(engine, query)
            engine.load_graph(original_graph, original_schema, restart=False)
            fired = fired or aug_fault
            if aug_exc is not None:
                if self._is_hard_failure(aug_exc):
                    return self._error_report(
                        engine, query.text, aug_exc, result.sim_seconds
                    )
            elif not base.same_rows(aug_result):
                return self._violation(engine, query, fired, result,
                                       "MR-A: result changed after adding an "
                                       "isolated node")

        # MR-B: direction relaxation (superset check).
        relaxed = relax_one_direction(query)
        if relaxed is not None:
            result.sim_seconds += engine.cost_of(relaxed)
            sup_result, sup_exc, sup_fault = run_and_observe(engine, relaxed)
            fired = fired or sup_fault
            if sup_exc is not None:
                if self._is_hard_failure(sup_exc):
                    return self._error_report(
                        engine, relaxed.text, sup_exc, result.sim_seconds
                    )
            elif not base.is_sub_bag_of(sup_result):
                return self._violation(engine, query, fired, result,
                                       "MR-B: relaxing a direction shrank "
                                       "the result")
        return None

    def _violation(self, engine, query, fault, result, detail) -> BugReport:
        return BugReport(
            tester=self.name,
            engine=engine.name,
            kind="logic",
            detail=detail,
            query_text=query.text,
            fault_id=fault.fault_id if fault else None,
            sim_time=result.sim_seconds,
        )
