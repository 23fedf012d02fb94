"""The stateful synthesizer: writes interleaved with reads.

Each call to :meth:`StatefulSynthesizer.propose` flips a weighted coin
(``stateful_ratio``) between a write statement — built by
:mod:`repro.synth.state.statements` against the current shadow state — and
a read query, synthesized by the unchanged read-only
:class:`repro.core.synthesizer.QuerySynthesizer` *over the shadow graph*.
Reads therefore arrive with a constructively-established expected result
that is correct for the current state, so the read-only differential
oracle applies verbatim inside a stateful session.

The write mix is governed by the ``stateful_*_weight`` knobs on
:class:`SynthesizerConfig`, renormalized over the kinds valid for the
current state (an empty shadow can only CREATE/MERGE).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Optional, Union

from repro.core.ground_truth import select_ground_truth
from repro.core.synthesizer import (
    QuerySynthesizer,
    SynthesisResult,
    SynthesizerConfig,
)
from repro.cypher import ast
from repro.synth.state.model import StateModel
from repro.synth.state.statements import build_statement, valid_kinds

__all__ = ["StatementProposal", "StatefulSynthesizer"]


@dataclass
class StatementProposal:
    """One statement of a stateful session, write or read.

    Duck-type compatible with :class:`SynthesisResult` where the campaign
    plumbing cares (``query`` for coverage tagging, ``n_steps`` for
    reports); writes carry no expected rows — their oracle is the
    post-write state digest.
    """

    query: Union[ast.Query, ast.UnionQuery]
    kind: str                       # "write" | "read"
    statement_kind: str             # "create" | ... | "read"
    expected: Any = None            # ResultSet for reads, None for writes
    ground_truth: List[Any] = field(default_factory=list)
    n_steps: int = 1
    scheduled_steps: int = 0

    @property
    def is_write(self) -> bool:
        return self.kind == "write"

    @property
    def text(self) -> str:
        return self.query.text


class StatefulSynthesizer:
    """Generates a deterministic statement stream over an evolving state."""

    def __init__(
        self,
        model: StateModel,
        rng: random.Random,
        config: Optional[SynthesizerConfig] = None,
        stateful_ratio: float = 0.5,
    ):
        self.model = model
        self.rng = rng
        self.config = config or SynthesizerConfig()
        self.stateful_ratio = max(0.0, min(1.0, stateful_ratio))

    # ------------------------------------------------------------------

    def propose(self) -> StatementProposal:
        """The next statement, valid against the current shadow state."""
        if self.model.shadow.node_count == 0 or (
            self.rng.random() < self.stateful_ratio
        ):
            return self._propose_write()
        return self._propose_read()

    # -- writes ---------------------------------------------------------

    def _write_kind(self) -> str:
        kinds = valid_kinds(self.model)
        weights = [
            getattr(self.config, f"stateful_{kind}_weight") for kind in kinds
        ]
        total = sum(weights)
        if total <= 0:
            return kinds[0]
        roll = self.rng.random() * total
        for kind, weight in zip(kinds, weights):
            roll -= weight
            if roll <= 0:
                return kind
        return kinds[-1]

    def _propose_write(self) -> StatementProposal:
        tree = None
        kind = "create"
        for _attempt in range(4):
            kind = self._write_kind()
            tree = build_statement(kind, self.model, self.rng)
            if tree is not None:
                break
        if tree is None:
            # Builders only decline on an empty state; CREATE never does.
            kind = "create"
            tree = build_statement("create", self.model, self.rng)
        return StatementProposal(
            query=tree,
            kind="write",
            statement_kind=kind,
            n_steps=len(tree.clauses),
        )

    # -- reads ----------------------------------------------------------

    def _propose_read(self) -> StatementProposal:
        # A fresh synthesizer per read keeps its pattern/expression caches
        # honest against the evolving shadow graph.
        synthesizer = QuerySynthesizer(
            self.model.shadow, rng=self.rng, config=self.config
        )
        ground_truth = select_ground_truth(
            self.model.shadow, self.rng, synthesizer.config.max_ground_truth
        )
        synthesis: SynthesisResult = synthesizer.synthesize(ground_truth)
        return StatementProposal(
            query=synthesis.query,
            kind="read",
            statement_kind="read",
            expected=synthesis.expected,
            ground_truth=synthesis.ground_truth,
            n_steps=synthesis.n_steps,
            scheduled_steps=synthesis.scheduled_steps,
        )
