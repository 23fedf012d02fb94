"""The single campaign loop shared by all six testers (paper §3.1 / §5.4).

One kernel iteration: draw a graph seed, generate a random graph, load it
under the tester's session policy, then pull query proposals from the
tester and judge them until the graph is exhausted or the budget runs out.
The kernel owns the simulated clock bookkeeping, budget/query-cap
accounting, crash/restart handling, fault deduplication, trigger-record
collection, and the event stream — everything that used to be duplicated
across ``GQSTester.run``, ``BaselineTester.run`` and ``GDsmithTester.run``.

Campaigns advance a *simulated* wall clock driven by the engines' cost
model, which is how the 24-hour experiments (§5.4.4) are reproduced without
24 real hours.

Observability (:mod:`repro.obs`): when the process-wide probe is on, the
kernel traces each stage as a span — ``campaign`` → ``graph`` →
``propose``/``judge`` — over both the real and the simulated clock, counts
queries/faults/graphs per (tester, engine), and attributes per-judgement
simulated time to a fixed-bucket histogram.  At campaign end the finished
spans and a metrics snapshot are emitted into the event stream (``span`` /
``metrics`` events).

The second observability tier is opt-in per kernel: ``record_coverage``
folds every proposal's query into a :class:`repro.obs.coverage.
CellCoverage` accumulator (emitted as one ``coverage`` event at campaign
end), ``record_triage`` deduplicates the discrepancy stream into bug
signatures (:class:`repro.obs.triage.CellTriage`, one ``triage`` event),
and a :class:`repro.obs.recorder.FlightRecorder` writes one replayable
repro ``bundle`` the first time a signature is seen.  None of this touches
the RNG stream: results are byte-identical with observability on or off.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.engine.envelope import evaluation_budget
from repro.engine.errors import EvaluationBudgetExceeded
from repro.graph.generator import GraphGenerator
from repro.obs import PROBE
from repro.runtime.events import EventLog
from repro.runtime.protocol import Judgement, TesterProtocol
from repro.runtime.results import CampaignResult

__all__ = ["CampaignKernel"]

_DONE = object()


class CampaignKernel:
    """Budget-driven campaign executor for any :class:`TesterProtocol`."""

    def __init__(
        self,
        events: Optional[EventLog] = None,
        *,
        record_coverage: bool = False,
        record_triage: bool = False,
        recorder=None,
        step_budget: Optional[int] = None,
    ):
        self.events = events if events is not None else EventLog()
        self.record_coverage = record_coverage
        self.record_triage = record_triage
        self.recorder = recorder
        # Per-judgement evaluation step budget (resource envelope).  A
        # blown budget costs one judgement — recorded as harness_error,
        # never a bug — instead of the campaign.
        self.step_budget = step_budget

    def run(
        self,
        tester: TesterProtocol,
        engine,
        budget_seconds: float,
        seed: int = 0,
        max_queries: Optional[int] = None,
    ) -> CampaignResult:
        """Run one (simulated-time-budgeted) campaign of *tester* on *engine*."""
        rng = random.Random(seed)
        result = CampaignResult(tester.name, engine.name)
        seen_faults: set = set()

        policy = tester.session
        coverage = triage = None
        if self.record_coverage:
            from repro.obs.coverage import CellCoverage

            coverage = CellCoverage(tester.name, engine.name, seed)
        if self.record_triage or self.recorder is not None:
            # The recorder needs the signature stream even when triage
            # events themselves were not requested.
            from repro.obs.triage import CellTriage

            triage = CellTriage(tester.name, engine.name, seed)

        tester.campaign_begin(engine, rng)
        self.events.emit(
            "campaign_start",
            tester=tester.name,
            engine=engine.name,
            seed=seed,
            budget_seconds=budget_seconds,
            max_queries=max_queries,
            restart_per_graph=policy.restart_per_graph,
        )

        observing = PROBE.on
        tracer = PROBE.tracer
        metrics = PROBE.metrics
        if observing:
            # Spans sample both clocks; bind the simulated one to this
            # campaign's accumulator.
            tracer.sim_clock = lambda: result.sim_seconds
        labels = {"tester": tester.name, "engine": engine.name}

        with tracer.span("campaign"):
            first_load = True
            while self._within_budget(result, budget_seconds, max_queries):
                with tracer.span("graph"):
                    # A fresh random graph per outer iteration; the restart
                    # decision is the tester's declared session policy
                    # (§5.4.4).
                    generator = GraphGenerator(
                        seed=rng.randrange(2**32),
                        config=tester.generator_config,
                    )
                    schema, graph = generator.generate_with_schema()
                    restart = policy.restart_per_graph or first_load
                    tester.load_graph(engine, graph, schema, restart)
                    first_load = False
                    # ``queries`` is the cumulative campaign counter at
                    # round start: ``repro watch`` reads progress and rate
                    # from it without needing per-query events.
                    self.events.emit(
                        "graph",
                        nodes=graph.node_count,
                        relationships=graph.relationship_count,
                        restart=restart,
                        sim_time=result.sim_seconds,
                        queries=result.queries_run,
                    )
                    if observing:
                        metrics.counter("campaign.graphs", **labels).inc()

                    proposals = tester.proposals(engine, graph, schema, rng)
                    while self._within_budget(
                        result, budget_seconds, max_queries
                    ):
                        with tracer.span("propose"):
                            proposal = next(proposals, _DONE)
                        if proposal is _DONE:
                            break
                        if coverage is not None:
                            coverage.observe(proposal)
                        sim_before = result.sim_seconds
                        with tracer.span("judge"):
                            judgement = self._judge(
                                tester, engine, proposal, graph, rng,
                                result, observing=observing,
                                metrics=metrics, labels=labels,
                            )
                        result.queries_run += 1
                        self.events.emit(
                            "query",
                            n=result.queries_run,
                            sim_time=result.sim_seconds,
                        )
                        if observing:
                            metrics.counter(
                                "campaign.queries", **labels
                            ).inc()
                            metrics.histogram(
                                "stage.sim_seconds", stage="judge"
                            ).observe(result.sim_seconds - sim_before)
                        self._record(
                            result, judgement, seen_faults,
                            triage=triage, tester=tester, engine=engine,
                            seed=seed,
                        )
                        if tester.recover(engine, graph, schema):
                            self.events.emit(
                                "crash",
                                engine=engine.name,
                                sim_time=result.sim_seconds,
                            )
                            if observing:
                                metrics.counter(
                                    "campaign.crashes", **labels
                                ).inc()

        self.events.emit(
            "campaign_end",
            tester=tester.name,
            engine=engine.name,
            queries_run=result.queries_run,
            sim_seconds=result.sim_seconds,
            detected_faults=result.detected_faults,
            false_positives=result.false_positive_count,
        )
        if observing:
            metrics.counter("campaign.faults", **labels).inc(
                len(result.detected_faults)
            )
            metrics.gauge("campaign.sim_seconds", **labels).set(
                result.sim_seconds
            )
            cell = f"{tester.name}/{engine.name}/{seed}"
            for span in tracer.drain():
                self.events.emit("span", cell=cell, **span)
            self.events.emit(
                "metrics",
                scope="campaign",
                tester=tester.name,
                engine=engine.name,
                seed=seed,
                snapshot=metrics.snapshot(),
            )
        if coverage is not None:
            self.events.emit(
                "coverage",
                scope="campaign",
                tester=tester.name,
                engine=engine.name,
                seed=seed,
                snapshot=coverage.snapshot(),
            )
        if triage is not None and self.record_triage:
            self.events.emit(
                "triage",
                scope="campaign",
                tester=tester.name,
                engine=engine.name,
                seed=seed,
                snapshot=triage.snapshot(),
            )
        return result

    # -- internals --------------------------------------------------------

    def _judge(
        self,
        tester: TesterProtocol,
        engine,
        proposal,
        graph,
        rng,
        result: CampaignResult,
        *,
        observing: bool,
        metrics,
        labels,
    ) -> Judgement:
        """One judgement under the evaluation resource envelope.

        A blown step budget (or an exhausted recursion limit surfaced by
        the engines as the same typed error) is a *harness* condition:
        the proposal is consumed, the judgement is empty, and the event
        stream records a ``harness_error`` — never a false bug.  The
        outcome is deterministic (the envelope draws no randomness), so
        budgeted campaigns stay byte-identical across job counts.
        """
        try:
            with evaluation_budget(self.step_budget):
                return tester.judge(engine, proposal, graph, rng, result)
        except EvaluationBudgetExceeded as exc:
            result.harness_errors += 1
            self.events.emit(
                "harness_error",
                tester=tester.name,
                engine=engine.name,
                error=f"{type(exc).__name__}: {exc}",
                query=result.queries_run + 1,
                sim_time=result.sim_seconds,
            )
            if observing:
                metrics.counter(
                    "campaign.harness_errors", **labels
                ).inc()
            return Judgement()

    @staticmethod
    def _within_budget(
        result: CampaignResult,
        budget_seconds: float,
        max_queries: Optional[int],
    ) -> bool:
        if result.sim_seconds >= budget_seconds:
            return False
        if max_queries is not None and result.queries_run >= max_queries:
            return False
        return True

    def _record(
        self,
        result: CampaignResult,
        judgement: Judgement,
        seen_faults: set,
        *,
        triage=None,
        tester: Optional[TesterProtocol] = None,
        engine=None,
        seed: int = 0,
    ) -> None:
        """Record one judgement's report, if any."""
        report = judgement.report
        if report is None:
            return
        result.reports.append(report)
        if triage is not None:
            signature, is_new = triage.add(report, result.queries_run)
            if is_new and self.recorder is not None:
                self._record_bundle(
                    signature, report, tester, engine, seed,
                    query_index=result.queries_run,
                )
        if report.fault_id and report.fault_id not in seen_faults:
            seen_faults.add(report.fault_id)
            result.timeline.append((report.sim_time, report.fault_id))
            if judgement.trigger_record is not None:
                result.trigger_records.append(judgement.trigger_record())
            self.events.emit(
                "fault",
                fault_id=report.fault_id,
                kind=report.kind,
                sim_time=report.sim_time,
                engine=report.engine,
            )

    def _record_bundle(
        self,
        signature: str,
        report,
        tester: TesterProtocol,
        engine,
        seed: int,
        *,
        query_index: int,
    ) -> None:
        """Write a flight-recorder bundle for a newly-seen bug signature.

        The bundle snapshots the *attributed* engine's current graph copy
        (session mutations included) and, for session-gated faults, the
        query counter at fire time — everything the deterministic replay
        needs (:mod:`repro.obs.recorder`).
        """
        target = engine
        for gdb in tester.session_engines(engine):
            if gdb.name == report.engine:
                target = gdb
                break
        if target.graph is None:
            return
        session_queries = None
        if report.fault_id:
            session_queries = (
                target.last_fault_session_queries
                or target.queries_since_restart
            )
        # Stateful testers expose the round's statement sequence plus the
        # pristine initial graph; the recorder then writes a v2 sequence
        # bundle instead of the single-query v1 snapshot.
        context = tester.sequence_context(target)
        bundle_graph = target.graph
        statements = None
        if context is not None:
            statements = context["statements"]
            bundle_graph = context["graph"]
        path = self.recorder.record(
            signature=signature,
            tester=tester.name,
            seed=seed,
            report=report,
            graph=bundle_graph,
            schema=target.schema,
            engine_spec=target.spec(),
            session_queries=session_queries,
            query_index=query_index,
            statements=statements,
        )
        self.events.emit(
            "bundle",
            tester=tester.name,
            engine=report.engine,
            seed=seed,
            signature=signature,
            path=str(path),
        )
        if self.recorder.auto_reduce and self.recorder.reductions:
            # The recorder minimized the bundle inline; surface the shrink
            # stats on the event stream so reports/resume can see them.
            stats = self.recorder.reductions[-1]
            self.events.emit(
                "reduction",
                tester=tester.name,
                engine=report.engine,
                seed=seed,
                signature=signature,
                path=str(path),
                min_path=stats.get("min_path"),
                stats=stats,
            )
