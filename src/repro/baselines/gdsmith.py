"""GDsmith: randomized differential testing of Cypher engines (Hua et al.,
ISSTA '23).

GDsmith runs the same generated query on several GDBs and reports any
discrepancy between their (driver-formatted) outputs.  Two organic weaknesses
the paper quantifies (§5.4.3) are modeled faithfully:

* **False positives** (~98 % in the paper's 24-hour Neo4j/Memgraph run):
  GDsmith's generator is not dialect-aware, so queries hit engine-specific
  behaviour that is *intended* — runtime type leniency, unsupported
  functions, relationship-uniqueness deviations, driver float formatting —
  and every such difference surfaces as a bug report.
* **Shared-codebase blindness**: discrepancies only appear when exactly one
  engine misbehaves; our engines share no faults, so replayed GQS queries
  are all detected (matching §5.4.3's "no missed bugs" finding for GDsmith).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.baselines.common import (
    BaselineTester,
    GeneratorProfile,
    run_and_observe,
)
from repro.cypher import ast
from repro.gdb.engines import GraphDatabase
from repro.runtime.protocol import Judgement, SessionPolicy
from repro.runtime.results import BugReport, CampaignResult

__all__ = ["GDsmithTester"]

AnyQuery = Union[ast.Query, ast.UnionQuery]


class GDsmithTester(BaselineTester):
    """Differential tester across several engines."""

    name = "GDsmith"
    # Declared explicitly (new policy-object API): one long-lived session.
    session = SessionPolicy.long_session()
    # GDsmith's skeleton-based generation yields fairly complex queries
    # (Table 5: 4.96 patterns, depth 3.68, 6.39 clauses, 21.75 deps).
    profile = GeneratorProfile(
        name="GDsmith",
        min_clauses=4,
        max_clauses=8,
        max_patterns_per_match=2,
        max_path_length=3,
        expression_depth=3,
        reuse_probability=0.45,
        where_probability=0.8,
        unwind_probability=0.1,
        with_probability=0.25,
        order_by_probability=0.15,
        distinct_probability=0.1,
        type_safe=False,               # emits runtime-type-unsafe expressions
    )
    supported_engines = ("neo4j", "memgraph", "falkordb")

    def __init__(self, comparison_engines: Sequence[GraphDatabase], **kwargs):
        super().__init__(**kwargs)
        self.comparison_engines = list(comparison_engines)

    # -- multi-engine session: all engines hold the same graph ------------

    def _session_engines(self, engine: GraphDatabase) -> list:
        return [engine] + [
            other for other in self.comparison_engines if other is not engine
        ]

    def session_engines(self, engine: GraphDatabase) -> list:
        # Kernel-facing alias (bug attribution / flight recording).
        return self._session_engines(engine)

    def load_graph(self, engine, graph, schema, restart) -> None:
        for gdb in self._session_engines(engine):
            gdb.load_graph(graph, schema, restart=restart)

    def judge(self, engine, query, graph, rng, result):
        report = self._check_differential(
            self._session_engines(engine), query, result
        )
        return Judgement(report=report)

    def recover(self, engine, graph, schema) -> bool:
        restarted = False
        for gdb in self._session_engines(engine):
            if gdb.crashed:
                gdb.restart()
                gdb.load_graph(graph, schema, restart=True)
                restarted = True
        return restarted

    # -- differential oracle --------------------------------------------------

    def _check_differential(
        self,
        engines: Sequence[GraphDatabase],
        query: AnyQuery,
        result: CampaignResult,
    ) -> Optional[BugReport]:
        outcomes = []
        fired = None
        fired_engine = None
        for gdb in engines:
            result.sim_seconds += gdb.cost_of(query)
            res, exc, fault = run_and_observe(gdb, query)
            if fault is not None and fired is None:
                fired = fault
                fired_engine = gdb
            if exc is not None and self._is_hard_failure(exc):
                return self._error_report(
                    gdb, query.text, exc, result.sim_seconds
                )
            outcomes.append((gdb, res, exc))

        # Compare driver-formatted outputs (or error/no-error status).
        rendered = []
        for gdb, res, exc in outcomes:
            if exc is not None:
                rendered.append(("error",))
            else:
                rows = res.to_table(gdb.dialect)
                rendered.append(tuple(sorted(map(tuple, rows))))
        if all(item == rendered[0] for item in rendered[1:]):
            return None

        report_engine = fired_engine or engines[0]
        return BugReport(
            tester=self.name,
            engine=report_engine.name,
            kind="logic",
            detail="differential discrepancy across engines",
            query_text=query.text,
            fault_id=fired.fault_id if fired else None,
            sim_time=result.sim_seconds,
        )

    # -- replay (§5.4.3) -----------------------------------------------------

    def check_query(self, engine, query, rng, result):
        engines = [engine] + [
            other for other in self.comparison_engines if other is not engine
        ]
        # The comparison engines must hold the same graph as the target.
        if engine.graph is not None:
            for other in engines[1:]:
                other.load_graph(engine.graph, engine.schema, restart=True)
        return self._check_differential(engines, query, result)
