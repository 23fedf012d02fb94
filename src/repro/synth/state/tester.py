"""The stateful GQS tester: write workloads under the campaign kernel.

``StatefulGQSTester`` keeps the GQS name (grids, support matrices, and
triage keys stay stable) and the restart-per-graph session policy, but
replaces the per-graph proposal stream with a deterministic statement
sequence from :class:`StatefulSynthesizer`:

* **reads** are judged exactly like read-only GQS — constructive expected
  result, zero-false-positive comparison;
* **writes** are judged by the state-tracking oracle: the statement is
  applied to the shadow graph, and a divergent engine state (deterministic
  digest, :mod:`repro.synth.state.oracle`) becomes a ``kind="state"``
  report.

After any error or state report the round is *poisoned*: the engine's
state can no longer be trusted to match the shadow, so the proposal stream
ends and the next graph round starts from a fresh pair.  That keeps every
recorded sequence a straight prefix-closed replay: initial graph plus the
statements executed, the last one being the discrepant statement — exactly
what a gqs-bundle v2 stores.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.core.oracle import check_result
from repro.core.runner import GQSTester
from repro.engine.errors import CypherError, DatabaseCrash, ResourceExhausted
from repro.gdb.engines import GraphDatabase
from repro.runtime.protocol import Judgement
from repro.runtime.results import BugReport, CampaignResult
from repro.synth.state.model import StateModel
from repro.synth.state.oracle import compare_states
from repro.synth.state.synthesizer import StatefulSynthesizer, StatementProposal

__all__ = ["StatefulGQSTester"]


@dataclass
class _Round:
    """Book-keeping for one graph round of a stateful session."""

    model: StateModel
    initial_graph: Any                       # pristine PropertyGraph
    # The trees executed so far; printed only when a bundle records them.
    statements: List[Any] = field(default_factory=list)
    poisoned: bool = False


class StatefulGQSTester(GQSTester):
    """GQS extended with state-aware write workloads (Dinkel direction)."""

    def __init__(
        self,
        stateful_ratio: float = 0.5,
        statements_per_graph: int = 12,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.stateful_ratio = float(stateful_ratio)
        self.statements_per_graph = statements_per_graph
        self._round: Optional[_Round] = None

    # -- TesterProtocol ---------------------------------------------------

    def proposals(
        self, engine: GraphDatabase, graph, schema, rng: random.Random
    ) -> Iterator[StatementProposal]:
        model = StateModel(
            graph,
            enforce_rel_uniqueness=engine.dialect.enforces_rel_uniqueness,
            supports_call_procedures=engine.dialect.supports_call_procedures,
        )
        synthesizer = StatefulSynthesizer(
            model,
            rng,
            config=self._synthesizer_config,
            stateful_ratio=self.stateful_ratio,
        )
        self._round = _Round(model=model, initial_graph=graph)
        count = rng.randint(
            max(2, self.statements_per_graph // 2), self.statements_per_graph
        )
        for _statement in range(count):
            if self._round.poisoned:
                return
            yield synthesizer.propose()

    def judge(
        self,
        engine: GraphDatabase,
        synthesis: StatementProposal,
        graph,
        rng: random.Random,
        result: CampaignResult,
    ) -> Judgement:
        round_ = self._round
        result.sim_seconds += engine.cost_of(synthesis.query)
        round_.statements.append(synthesis.query)

        report: Optional[BugReport] = None
        try:
            actual = engine.execute(synthesis.query)
        except (DatabaseCrash, ResourceExhausted, CypherError) as exc:
            # Engine state after an aborted statement is unknowable; end
            # the round so the shadow never drifts silently.
            round_.poisoned = True
            fault = engine.last_fired_fault
            report = BugReport(
                tester=self.name,
                engine=engine.name,
                kind="error",
                detail=f"{type(exc).__name__}: {exc}",
                query_text=synthesis.text,
                fault_id=fault.fault_id if fault else None,
                sim_time=result.sim_seconds,
                n_steps=synthesis.n_steps,
            )
        except BaseException:
            # Harness conditions (blown evaluation budget) interrupt the
            # lockstep protocol mid-statement; poison before re-raising.
            round_.poisoned = True
            raise
        else:
            if synthesis.is_write:
                round_.model.apply(synthesis.query)
                divergence = compare_states(engine.graph, round_.model.shadow)
                if divergence is not None:
                    # The differential stops being meaningful once the
                    # engine's state is corrupt; end the round here too.
                    round_.poisoned = True
                    fault = engine.last_fired_fault
                    report = BugReport(
                        tester=self.name,
                        engine=engine.name,
                        kind="state",
                        detail=divergence,
                        query_text=synthesis.text,
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
                        query_text=synthesis.text,
                        fault_id=fault.fault_id if fault else None,
                        sim_time=result.sim_seconds,
                        n_steps=synthesis.n_steps,
                    )

        if report is None:
            return Judgement()

        statement_index = len(round_.statements) - 1
        statement_kind = synthesis.statement_kind

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
                "graph_nodes": graph.node_count if graph else None,
                "graph_relationships": (
                    graph.relationship_count if graph else None
                ),
                "ground_truth_size": len(synthesis.ground_truth),
                # Stateful-session extras.
                "statement_index": statement_index,
                "statement_kind": statement_kind,
            }

        return Judgement(report=report, trigger_record=make_trigger_record)

    def sequence_context(self, engine: GraphDatabase) -> Optional[Dict[str, Any]]:
        """The v2 bundle payload for the current round's sequence."""
        round_ = self._round
        if round_ is None or not round_.statements:
            return None
        return {
            "statements": [query.text for query in round_.statements],
            "graph": round_.initial_graph,
        }
