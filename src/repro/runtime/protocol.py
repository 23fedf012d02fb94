"""The tester protocol: what a campaign-runnable tester must provide.

The paper's evaluation runs six testers (GQS plus five baselines) whose
campaign loops used to be three hand-rolled copies differing in exactly two
declared policies:

* **session policy** — GQS restarts the engine per graph (reproducibility);
  the baselines keep one long-lived session so engine state accumulates
  (§5.4.4's crash-bug trade-off);
* **oracle** — how a proposed query is judged (ground-truth comparison,
  metamorphic relations, differential execution).

:class:`TesterProtocol` factors both out.  A tester declares its
:class:`SessionPolicy`, proposes queries for each generated graph
(:meth:`proposals`), and judges one proposal at a time (:meth:`judge`);
:class:`repro.runtime.CampaignKernel` owns everything else — the simulated
clock, budget and query accounting, crash/restart handling, fault
deduplication, trigger-record collection, and the event stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, Optional

from repro.runtime.results import BugReport, CampaignResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gdb.engines import GraphDatabase
    from repro.graph.generator import GeneratorConfig
    from repro.graph.model import PropertyGraph
    from repro.graph.schema import GraphSchema

__all__ = ["SessionPolicy", "Judgement", "TesterProtocol"]


@dataclass(frozen=True)
class SessionPolicy:
    """How a tester runs its campaign sessions (§5.4.4).

    ``restart_per_graph=True`` is GQS's reproducibility-first policy: every
    graph is loaded into a freshly restarted instance.  ``False`` models the
    baselines' long-lived session, where only the very first load restarts —
    which is why they can reach the accumulation crashes GQS misses.
    """

    restart_per_graph: bool = False

    @classmethod
    def restart_each_graph(cls) -> "SessionPolicy":
        """GQS's policy: a freshly restarted instance per graph."""
        return cls(restart_per_graph=True)

    @classmethod
    def long_session(cls) -> "SessionPolicy":
        """The baselines' policy: one long-lived session, state accumulates."""
        return cls(restart_per_graph=False)


@dataclass
class Judgement:
    """Outcome of judging one proposal.

    ``trigger_record`` is an optional thunk producing the §5.3 per-bug
    metadata dict; the kernel calls it only when the report's fault is new,
    mirroring the lazy analysis the original GQS loop performed.
    """

    report: Optional[BugReport] = None
    trigger_record: Optional[Callable[[], Dict[str, Any]]] = None


class TesterProtocol:
    """Base class every campaign-runnable tester implements.

    Subclasses must provide :attr:`name`, :attr:`generator_config`,
    :meth:`proposals` and :meth:`judge`; the remaining hooks have defaults
    that suit single-engine testers.
    """

    name: str = "tester"
    session: SessionPolicy = SessionPolicy()

    # Populated by subclass __init__ (the random-graph recipe, §5.1 setup).
    generator_config: "GeneratorConfig"

    # -- campaign lifecycle hooks ----------------------------------------

    def campaign_begin(self, engine: "GraphDatabase", rng: random.Random) -> None:
        """Called once before the first graph (e.g. dialect-aware setup)."""

    def load_graph(
        self,
        engine: "GraphDatabase",
        graph: "PropertyGraph",
        schema: Optional["GraphSchema"],
        restart: bool,
    ) -> None:
        """Load a freshly generated graph (multi-engine testers override)."""
        engine.load_graph(graph, schema, restart=restart)

    def proposals(
        self,
        engine: "GraphDatabase",
        graph: "PropertyGraph",
        schema: Optional["GraphSchema"],
        rng: random.Random,
    ) -> Iterator[Any]:
        """Yield test-query proposals for the current graph, lazily.

        The kernel pulls one proposal at a time and stops pulling when the
        budget or query cap is exhausted, so generation cost is only paid
        for queries that actually run.
        """
        raise NotImplementedError

    def judge(
        self,
        engine: "GraphDatabase",
        proposal: Any,
        graph: "PropertyGraph",
        rng: random.Random,
        result: CampaignResult,
    ) -> Judgement:
        """Run one proposal through the tester's oracle.

        Implementations advance the simulated clock (``result.sim_seconds``)
        by the engine cost of every query they execute.
        """
        raise NotImplementedError

    def session_engines(self, engine: "GraphDatabase") -> list:
        """Every engine instance live in the current session.

        Single-engine testers run against *engine* alone; differential
        testers (GDsmith) override this to expose their comparison engines,
        so the kernel can attribute bug reports — and flight-recorder
        bundles — to the engine instance that actually misbehaved.
        """
        return [engine]

    def sequence_context(self, engine: "GraphDatabase") -> Optional[dict]:
        """The current round's statement sequence, for v2 repro bundles.

        Stateful testers (:mod:`repro.synth.state`) return ``{"statements":
        [...], "graph": <initial PropertyGraph>}`` so the flight recorder
        can store a replayable sequence bundle; read-only testers return
        None and keep the single-query v1 format.
        """
        return None

    def recover(
        self,
        engine: "GraphDatabase",
        graph: "PropertyGraph",
        schema: Optional["GraphSchema"],
    ) -> bool:
        """Restart crashed instances; returns True when a restart happened."""
        if engine.crashed:
            engine.restart()
            engine.load_graph(graph, schema, restart=True)
            return True
        return False

    # -- convenience ------------------------------------------------------

    def run(
        self,
        engine: "GraphDatabase",
        budget_seconds: float,
        seed: int = 0,
        max_queries: Optional[int] = None,
    ) -> CampaignResult:
        """Run one campaign through the shared kernel."""
        from repro.runtime.kernel import CampaignKernel

        return CampaignKernel().run(
            self, engine, budget_seconds, seed=seed, max_queries=max_queries
        )
