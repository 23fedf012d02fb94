"""The GQS tester (paper §3.1 workflow, steps 1-4, iterated).

One iteration: generate a random graph, load it into the GDB under test
(with a restart, for reproducibility), select an expected result set,
synthesize a query, execute it, and compare against the ground truth.
Subsequent iterations randomly either synthesize another query for the same
ground truth, select a new ground truth over the same graph, or start over
with a fresh graph — exactly the three continuation choices the paper
describes.

The campaign loop itself lives in :class:`repro.runtime.CampaignKernel`;
this module contributes GQS's side of the :class:`TesterProtocol`: the
restart-per-graph session policy, the ground-truth-driven proposal stream,
and the zero-false-positive oracle judgement.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, Optional

from repro.core.ground_truth import select_ground_truth
from repro.core.oracle import check_result
from repro.core.synthesizer import QuerySynthesizer, SynthesizerConfig
from repro.engine.errors import CypherError, DatabaseCrash, ResourceExhausted
from repro.gdb.engines import GraphDatabase
from repro.graph.generator import GeneratorConfig
from repro.runtime.protocol import Judgement, SessionPolicy, TesterProtocol
from repro.runtime.results import BugReport, CampaignResult

__all__ = ["GQSTester", "synthesizer_config_for"]


def synthesizer_config_for(engine: GraphDatabase, **overrides) -> SynthesizerConfig:
    """Dialect-aware synthesizer configuration (paper §4)."""
    config = SynthesizerConfig(
        supports_call_procedures=engine.dialect.supports_call_procedures,
        needs_uniqueness_predicates=not engine.dialect.enforces_rel_uniqueness,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


class GQSTester(TesterProtocol):
    """The GQS approach packaged as a campaign-running tester."""

    name = "GQS"
    # Restart per graph: reproducible instances, at the cost of never
    # reaching the long-session accumulation crashes (§5.4.4).
    session = SessionPolicy.restart_each_graph()

    def __init__(
        self,
        generator_config: Optional[GeneratorConfig] = None,
        synthesizer_overrides: Optional[Dict[str, Any]] = None,
        queries_per_ground_truth: int = 4,
        ground_truths_per_graph: int = 3,
    ):
        self.generator_config = generator_config or GeneratorConfig()
        self.synthesizer_overrides = synthesizer_overrides or {}
        self.queries_per_ground_truth = queries_per_ground_truth
        self.ground_truths_per_graph = ground_truths_per_graph
        self._synthesizer_config: Optional[SynthesizerConfig] = None

    # -- TesterProtocol ---------------------------------------------------

    def campaign_begin(self, engine: GraphDatabase, rng: random.Random) -> None:
        self._synthesizer_config = synthesizer_config_for(
            engine, **self.synthesizer_overrides
        )

    def proposals(
        self, engine: GraphDatabase, graph, schema, rng: random.Random
    ) -> Iterator[Any]:
        """Step 2 + 3: ground truths over this graph, then queries for each."""
        synthesizer = QuerySynthesizer(
            graph, rng=rng, config=self._synthesizer_config
        )
        for _gt in range(rng.randint(1, self.ground_truths_per_graph)):
            ground_truth = select_ground_truth(
                graph, rng, synthesizer.config.max_ground_truth
            )
            for _q in range(rng.randint(1, self.queries_per_ground_truth)):
                yield synthesizer.synthesize(ground_truth)

    def judge(
        self,
        engine: GraphDatabase,
        synthesis,
        graph,
        rng: random.Random,
        result: CampaignResult,
    ) -> Judgement:
        """Step 4: execute and validate against the established ground truth.

        The query is printed only when a report needs its text.
        """
        result.sim_seconds += engine.cost_of(synthesis.query)

        report: Optional[BugReport] = None
        try:
            actual = engine.execute(synthesis.query)
        except (DatabaseCrash, ResourceExhausted, CypherError) as exc:
            # Step 4 (error case): crashes/hangs/exceptions are detected at
            # no extra oracle cost.
            fault = engine.last_fired_fault
            report = BugReport(
                tester=self.name,
                engine=engine.name,
                kind="error",
                detail=f"{type(exc).__name__}: {exc}",
                query_text=synthesis.query.text,
                fault_id=fault.fault_id if fault else None,
                sim_time=result.sim_seconds,
                n_steps=synthesis.n_steps,
            )
        else:
            verdict = check_result(synthesis.expected, actual)
            if not verdict.passed:
                fault = engine.last_fired_fault
                report = BugReport(
                    tester=self.name,
                    engine=engine.name,
                    kind="logic",
                    detail=verdict.reason,
                    query_text=synthesis.query.text,
                    fault_id=fault.fault_id if fault else None,
                    sim_time=result.sim_seconds,
                    n_steps=synthesis.n_steps,
                )

        if report is None:
            return Judgement()

        def make_trigger_record() -> Dict[str, Any]:
            facts = synthesis.query.facts
            metrics = facts.metrics
            return {
                "fault_id": report.fault_id,
                "engine": engine.name,
                "query_text": report.query_text,
                "n_steps": synthesis.n_steps,
                "patterns": metrics.patterns,
                "depth": metrics.expression_depth,
                "clauses": metrics.clauses,
                "dependencies": metrics.dependencies,
                "clause_names": list(facts.clause_names),
                "kind": report.kind,
                # §5.1: the paper observes all bugs trigger on small
                # graphs and small expected result sets.
                "graph_nodes": graph.node_count if graph else None,
                "graph_relationships": (
                    graph.relationship_count if graph else None
                ),
                "ground_truth_size": len(synthesis.ground_truth),
            }

        return Judgement(report=report, trigger_record=make_trigger_record)
