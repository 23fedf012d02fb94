"""Coverage-guided adaptive synthesis: the greybox campaign feedback loop.

PR 3 built per-query feature vectors (:func:`repro.obs.coverage.
query_feature_tags`) and triage signatures, but synthesis stayed blind
random.  This module closes the loop, in the spirit of greybox fuzzing and
the graph-aware-fuzzing direction (PAPERS.md): the kernel feeds each judged
query's feature tags and *signature novelty* back into an
:class:`AdaptiveSchedule`, which runs a multi-armed bandit over *feature
arms* — families of synthesis knobs (clause families, nesting depth, list
shapes, pattern sizes) each tied to the feature tags they are expected to
express.  Before every graph round the schedule selects a few arms
(explore/exploit: epsilon-decay greedy or UCB1) and composes their
:class:`WeightProfile` overrides, which the tester applies to its
``SynthesizerConfig``/``GeneratorConfig`` for that round.

Determinism contract (the same one the whole runtime keeps):

* The schedule's randomness comes from its **own** :class:`random.Random`,
  seeded via SHA-256 from the cell seed (:func:`derive_policy_seed`) —
  never from the campaign RNG.  The campaign RNG stream is therefore
  byte-identical with adaptation on or off; adaptation changes *configs*,
  not draws.
* Arm selection breaks every tie by lowest arm index, so trajectories are
  reproducible across platforms and ``--jobs`` counts.
* A blind :class:`repro.runtime.protocol.SessionPolicy` returns no weights
  and observes nothing, so non-adaptive campaigns are byte-identical to
  the pre-adaptation kernel.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.runtime.protocol import SessionPolicy

__all__ = [
    "ADAPTIVE_STRATEGIES",
    "AdaptivePolicy",
    "AdaptiveSchedule",
    "FeatureArm",
    "WeightProfile",
    "attach_adaptive_policy",
    "default_arms",
    "derive_policy_seed",
    "merge_adaptation_snapshots",
]

#: Supported explore/exploit strategies for ``--adaptive[=STRATEGY]``.
ADAPTIVE_STRATEGIES: Tuple[str, ...] = ("epsilon", "ucb")

#: Probability-style knobs are clamped here after scaling so a boosted
#: clause family never becomes mandatory (which would collapse diversity).
_PROBABILITY_CAP = 0.95


def derive_policy_seed(seed: int) -> int:
    """Policy RNG seed, decorrelated from (but determined by) the cell seed.

    SHA-256 with a domain tag, mirroring :func:`repro.runtime.parallel.
    derive_cell_seed`: never Python's salted ``hash``, never the campaign
    RNG itself.
    """
    digest = hashlib.sha256(f"adapt|{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class WeightProfile:
    """First-class weight overrides for synthesis and graph generation.

    A profile is a small declarative delta: multiplicative ``scales`` for
    probability-style float knobs (clamped to ``0.95``), additive ``bumps``
    for integer knobs, and ``graph_bumps`` applied to the graph
    :class:`~repro.graph.generator.GeneratorConfig` rather than the
    synthesizer config.  Profiles are frozen and stored as sorted tuples so
    they hash, compare, and serialize deterministically.

    Application is duck-typed ``dataclasses.replace`` over whichever config
    object is passed in — unknown attribute names are a programming error
    and raise, so arms cannot silently rot when a knob is renamed.
    """

    scales: Tuple[Tuple[str, float], ...] = ()
    bumps: Tuple[Tuple[str, int], ...] = ()
    graph_bumps: Tuple[Tuple[str, int], ...] = ()

    @classmethod
    def build(
        cls,
        scales: Optional[Dict[str, float]] = None,
        bumps: Optional[Dict[str, int]] = None,
        graph_bumps: Optional[Dict[str, int]] = None,
    ) -> "WeightProfile":
        return cls(
            scales=tuple(sorted((scales or {}).items())),
            bumps=tuple(sorted((bumps or {}).items())),
            graph_bumps=tuple(sorted((graph_bumps or {}).items())),
        )

    @classmethod
    def merge(cls, profiles: Sequence["WeightProfile"]) -> "WeightProfile":
        """Compose profiles: scales multiply, bumps add."""
        scales: Dict[str, float] = {}
        bumps: Dict[str, int] = {}
        graph_bumps: Dict[str, int] = {}
        for profile in profiles:
            for name, factor in profile.scales:
                scales[name] = scales.get(name, 1.0) * factor
            for name, delta in profile.bumps:
                bumps[name] = bumps.get(name, 0) + delta
            for name, delta in profile.graph_bumps:
                graph_bumps[name] = graph_bumps.get(name, 0) + delta
        return cls.build(scales, bumps, graph_bumps)

    def _apply(self, config: Any, entries: Sequence[Tuple[str, Any]],
               multiplicative: bool) -> Any:
        updates: Dict[str, Any] = {}
        for name, value in entries:
            current = getattr(config, name)  # raises on renamed knobs
            if multiplicative:
                updates[name] = min(_PROBABILITY_CAP, current * value)
            else:
                updates[name] = current + value
        return replace(config, **updates) if updates else config

    def apply_synthesizer(self, config: Any) -> Any:
        """A new synthesizer config with this profile's overrides applied."""
        config = self._apply(config, self.scales, multiplicative=True)
        return self._apply(config, self.bumps, multiplicative=False)

    def apply_generator(self, config: Any) -> Any:
        """A new graph generator config with ``graph_bumps`` applied."""
        return self._apply(config, self.graph_bumps, multiplicative=False)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe form (sorted keys) for events and snapshots."""
        return {
            "bumps": {name: delta for name, delta in self.bumps},
            "graph_bumps": {name: delta for name, delta in self.graph_bumps},
            "scales": {name: factor for name, factor in self.scales},
        }

    def __bool__(self) -> bool:
        return bool(self.scales or self.bumps or self.graph_bumps)


@dataclass(frozen=True)
class FeatureArm:
    """One bandit arm: a weight profile tied to the feature tags it buys.

    ``tags`` is an any-of match set against a query's feature tags; a
    judged query *expresses* the arm when they intersect, and rewards the
    arm when it also produced a never-seen triage signature.
    """

    name: str
    tags: FrozenSet[str]
    profile: WeightProfile

    @classmethod
    def build(
        cls,
        name: str,
        tags: Sequence[str],
        scales: Optional[Dict[str, float]] = None,
        bumps: Optional[Dict[str, int]] = None,
        graph_bumps: Optional[Dict[str, int]] = None,
    ) -> "FeatureArm":
        return cls(
            name=name,
            tags=frozenset(tags),
            profile=WeightProfile.build(scales, bumps, graph_bumps),
        )


def default_arms(stateful: bool = False) -> Tuple[FeatureArm, ...]:
    """The standard arm set, one per steerable synthesis feature family.

    Each arm boosts the :class:`~repro.core.synthesizer.SynthesizerConfig`
    (or graph :class:`~repro.graph.generator.GeneratorConfig`) knobs that
    make its tag family more frequent.  The families mirror the clause /
    shape / depth dimensions of :func:`repro.obs.coverage.
    query_feature_tags`, which in turn span the trigger predicates of the
    simulated fault catalogs.

    With ``stateful=True`` the set is extended with one arm per write
    statement family (lowercase ``clause:create`` … tags, scaling the
    ``stateful_*_weight`` knobs the state-aware synthesizer draws from) —
    only the stateful tester has those knobs expressed in its proposals,
    so read-only campaigns keep the original arm set byte-for-byte.
    """
    write_arms = (
        FeatureArm.build(
            "write-create", ["clause:create"],
            scales={"stateful_create_weight": 2.0},
        ),
        FeatureArm.build(
            "write-merge", ["clause:merge"],
            scales={"stateful_merge_weight": 2.5},
        ),
        FeatureArm.build(
            "write-set", ["clause:set"],
            scales={"stateful_set_weight": 2.5},
        ),
        FeatureArm.build(
            "write-delete", ["clause:delete"],
            scales={"stateful_delete_weight": 2.5},
        ),
        FeatureArm.build(
            "write-remove", ["clause:remove"],
            scales={"stateful_remove_weight": 3.0},
        ),
    ) if stateful else ()
    return (
        FeatureArm.build(
            "optional-match", ["clause:OPTIONAL MATCH"],
            scales={"optional_match_probability": 3.2},
        ),
        FeatureArm.build(
            "procedure-call", ["clause:CALL"],
            scales={"call_probability": 4.0},
        ),
        FeatureArm.build(
            "union", ["clause:UNION"],
            scales={"union_probability": 6.0},
        ),
        FeatureArm.build(
            "distinct", ["clause:DISTINCT"],
            scales={"distinct_probability": 3.0},
        ),
        FeatureArm.build(
            "order-by", ["clause:ORDER BY"],
            scales={"order_by_probability": 2.4},
        ),
        FeatureArm.build(
            "limit", ["clause:LIMIT", "clause:SKIP"],
            scales={"limit_probability": 3.5},
        ),
        FeatureArm.build(
            "where", ["clause:WHERE"],
            scales={"where_with_probability": 1.7},
        ),
        FeatureArm.build(
            "deep-nesting", ["depth:4", "depth:5+"],
            bumps={"expression_depth": 3},
        ),
        FeatureArm.build(
            "list-expansion", ["clause:UNWIND", "clause:WITH"],
            bumps={"extra_lists": 2, "max_list_length": 2},
        ),
        FeatureArm.build(
            "aggregation",
            ["function:count", "function:collect", "operator:count(*)"],
            scales={"count_star_alias_probability": 3.0},
        ),
        FeatureArm.build(
            "long-pattern",
            ["shape:path-3+", "shape:undirected-rel",
             "shape:multi-label-node"],
            bumps={"extra_elements": 3},
            graph_bumps={"max_nodes": 4, "max_relationships": 20},
        ),
    ) + write_arms


@dataclass
class _ArmState:
    """Mutable per-campaign bandit statistics for one arm."""

    selected: int = 0   # rounds this arm's profile was active
    pulls: int = 0      # judged queries that expressed the arm's tags
    reward: int = 0     # of those, how many yielded a novel signature


class AdaptiveSchedule:
    """Deterministic explore/exploit schedule over feature arms.

    ``epsilon``: epsilon-decay greedy — with probability ``epsilon *
    decay**round`` a slot explores (uniform over remaining arms, policy
    RNG), otherwise it exploits the arm with the best Laplace-smoothed
    novelty rate ``(reward + 1) / (pulls + 2)``.  The +1/+2 prior scores
    never-expressed arms above well-tried mediocre ones, so uncovered
    feature families are probed first.

    ``ucb``: UCB1 — ``reward/pulls + c * sqrt(ln(total) / pulls)`` with
    unexpressed arms ranked infinitely urgent.  Draws no randomness at all.

    Both strategies pick ``arms_per_round`` arms each round and break all
    ties by lowest arm index.
    """

    def __init__(
        self,
        strategy: str = "epsilon",
        arms: Optional[Sequence[FeatureArm]] = None,
        *,
        arms_per_round: int = 3,
        epsilon: float = 0.45,
        epsilon_decay: float = 0.985,
        ucb_exploration: float = 1.2,
    ):
        if strategy not in ADAPTIVE_STRATEGIES:
            raise ValueError(
                f"unknown adaptive strategy {strategy!r}; "
                f"expected one of {ADAPTIVE_STRATEGIES}"
            )
        self.strategy = strategy
        self.arms: Tuple[FeatureArm, ...] = tuple(
            arms if arms is not None else default_arms()
        )
        self.arms_per_round = max(1, min(arms_per_round, len(self.arms)))
        self.epsilon = epsilon
        self.epsilon_decay = epsilon_decay
        self.ucb_exploration = ucb_exploration
        self.begin(0)

    def begin(self, seed: int) -> None:
        """Reset all bandit state; reseed the policy RNG from *seed*."""
        self._rng = random.Random(derive_policy_seed(seed))
        self.rounds = 0
        self.observed = 0
        self.novel = 0
        self.states = [_ArmState() for _ in self.arms]
        self.history: List[List[str]] = []

    # -- selection ---------------------------------------------------------

    def _laplace(self, index: int) -> float:
        state = self.states[index]
        return (state.reward + 1.0) / (state.pulls + 2.0)

    def _select_epsilon(self) -> List[int]:
        eps = self.epsilon * (self.epsilon_decay ** (self.rounds - 1))
        remaining = list(range(len(self.arms)))
        chosen: List[int] = []
        for _ in range(self.arms_per_round):
            if self._rng.random() < eps:
                pick = remaining.pop(self._rng.randrange(len(remaining)))
            else:
                # max() keeps the first (lowest-index) best — deterministic.
                pick = max(remaining, key=lambda i: (self._laplace(i), -i))
                remaining.remove(pick)
            chosen.append(pick)
        return chosen

    def _select_ucb(self) -> List[int]:
        total = sum(state.pulls for state in self.states)
        log_total = math.log(total + 1.0)

        def urgency(index: int) -> float:
            state = self.states[index]
            if state.pulls == 0:
                return math.inf
            mean = state.reward / state.pulls
            return mean + self.ucb_exploration * math.sqrt(
                log_total / state.pulls
            )

        ranked = sorted(
            range(len(self.arms)), key=lambda i: (-urgency(i), i)
        )
        return ranked[: self.arms_per_round]

    def next_weights(self) -> WeightProfile:
        """Select this round's arms and compose their weight profile."""
        self.rounds += 1
        if self.strategy == "epsilon":
            chosen = self._select_epsilon()
        else:
            chosen = self._select_ucb()
        for index in chosen:
            self.states[index].selected += 1
        self.history.append([self.arms[index].name for index in chosen])
        return WeightProfile.merge(
            [self.arms[index].profile for index in chosen]
        )

    # -- feedback ----------------------------------------------------------

    def observe(self, tags: Sequence[str], *, novel: bool = False) -> None:
        """Credit every arm whose tag family this judged query expressed."""
        self.observed += 1
        if novel:
            self.novel += 1
        tagset = set(tags)
        for index, arm in enumerate(self.arms):
            if arm.tags & tagset:
                state = self.states[index]
                state.pulls += 1
                if novel:
                    state.reward += 1

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe adaptation counters plus the selection trajectory."""
        return {
            "arms": {
                arm.name: {
                    "pulls": state.pulls,
                    "reward": state.reward,
                    "selected": state.selected,
                }
                for arm, state in zip(self.arms, self.states)
            },
            "history": [list(round_) for round_ in self.history],
            "novel": self.novel,
            "observed": self.observed,
            "rounds": self.rounds,
            "strategy": self.strategy,
        }


class AdaptivePolicy(SessionPolicy):
    """A :class:`SessionPolicy` that steers synthesis via a bandit schedule.

    Wraps an :class:`AdaptiveSchedule` behind the policy feedback hooks;
    the restart decision is inherited unchanged from the blind policy.
    """

    adaptive = True

    def __init__(
        self,
        strategy: str = "epsilon",
        *,
        restart_per_graph: bool = False,
        schedule: Optional[AdaptiveSchedule] = None,
    ):
        super().__init__(restart_per_graph=restart_per_graph)
        self.schedule = (
            schedule if schedule is not None
            else AdaptiveSchedule(strategy)
        )
        self.strategy = self.schedule.strategy

    def begin(self, seed: int) -> None:
        self.schedule.begin(seed)

    def next_weights(self) -> WeightProfile:
        return self.schedule.next_weights()

    def observe(
        self,
        proposal: Any,
        judgement: Any,
        tags: List[str],
        *,
        novel: bool = False,
        signature: Optional[str] = None,
    ) -> None:
        self.schedule.observe(tags, novel=novel)

    def snapshot(self) -> Dict[str, Any]:
        return self.schedule.snapshot()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(strategy={self.strategy!r}, "
            f"restart_per_graph={self.restart_per_graph})"
        )

    def __eq__(self, other: Any) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.restart_per_graph == other.restart_per_graph
            and self.strategy == other.strategy
        )

    def __hash__(self) -> int:
        return hash((type(self), self.restart_per_graph, self.strategy))


def attach_adaptive_policy(
    tester: Any, strategy: str = "epsilon"
) -> AdaptivePolicy:
    """Swap *tester*'s session policy for an adaptive one, preserving its
    declared restart behavior.  Returns the new policy.

    A state-aware tester (one exposing a ``stateful_ratio``) gets the
    extended arm set with the write-family arms; read-only testers keep
    the original arms, so their adaptive trajectories are unchanged.
    """
    stateful = getattr(tester, "stateful_ratio", None) is not None
    schedule = AdaptiveSchedule(strategy, arms=default_arms(stateful=stateful))
    policy = AdaptivePolicy(
        strategy,
        restart_per_graph=tester.session.restart_per_graph,
        schedule=schedule,
    )
    tester.session = policy
    return policy


def merge_adaptation_snapshots(
    snapshots: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """Fold per-cell adaptation snapshots into one grid-level summary.

    The merge only sums integers and unions strategy names, so it is the
    same for any snapshot order.
    """
    merged: Dict[str, Any] = {
        "arms": {},
        "cells": 0,
        "novel": 0,
        "observed": 0,
        "rounds": 0,
        "strategies": [],
    }
    strategies = set()
    for snap in snapshots:
        merged["cells"] += 1
        merged["novel"] += int(snap.get("novel", 0))
        merged["observed"] += int(snap.get("observed", 0))
        merged["rounds"] += int(snap.get("rounds", 0))
        strategies.add(str(snap.get("strategy", "")))
        for name, counters in snap.get("arms", {}).items():
            into = merged["arms"].setdefault(
                name, {"pulls": 0, "reward": 0, "selected": 0}
            )
            for key in ("pulls", "reward", "selected"):
                into[key] += int(counters.get(key, 0))
    merged["arms"] = {
        name: merged["arms"][name] for name in sorted(merged["arms"])
    }
    merged["strategies"] = sorted(s for s in strategies if s)
    return merged
