"""Fault model for the simulated GDBs.

The paper tests four production databases and finds 36 real bugs.  We cannot
run those binaries here, so each simulated engine carries a catalog of
*injected faults* modeled on the paper's findings (see
:mod:`repro.gdb.catalog`).  A fault is:

* a **trigger**: a deterministic predicate over syntactic/semantic features
  of the query (plus, for session-accumulation bugs, engine state).  Trigger
  conditions reference exactly the kinds of complexity the paper's §5.3
  analysis highlights — clause combinations, pattern counts, nesting depth,
  cross-clause dependencies — so the distribution of bug-triggering queries
  across those dimensions (Figures 10-15) *emerges* from which queries
  trigger which faults rather than being hard-coded;
* an **effect**: a deterministic perturbation of the correct result (wrong
  value, dropped/duplicated rows, empty result, …) or a raised error
  (crash / hang / exception for the "other bugs" of Table 3).

Determinism matters: the same query on the same engine yields the same
answer, which is what makes the paper's bug reports reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, List, Union

from repro.cypher import ast
from repro.cypher.analysis import QueryMetrics
from repro.engine.binding import ResultSet
from repro.engine.errors import CypherRuntimeError, DatabaseCrash, ResourceExhausted

__all__ = ["QueryFeatures", "extract_features", "Fault", "FaultEffect", "stable_hash"]

AnyQuery = Union[ast.Query, ast.UnionQuery]


def stable_hash(text: str) -> int:
    """A process-independent 64-bit hash (Python's hash() is salted)."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class QueryFeatures:
    """Everything fault triggers may inspect about a query."""

    metrics: QueryMetrics
    clause_names: List[str]
    functions: List[str]
    match_count: int = 0
    optional_match_count: int = 0
    unwind_count: int = 0
    with_count: int = 0
    has_union: bool = False
    has_call: bool = False
    has_order_by: bool = False
    has_desc_order: bool = False
    has_distinct: bool = False
    has_limit: bool = False
    has_skip: bool = False
    has_where: bool = False
    undirected_rels: int = 0
    multi_label_nodes: int = 0
    starts_with_unwind: bool = False
    unwind_before_match: bool = False
    unwind_between_matches: bool = False
    string_predicates: int = 0        # STARTS WITH / ENDS WITH / CONTAINS
    modulo_ops: int = 0
    division_ops: int = 0
    xor_ops: int = 0
    case_count: int = 0
    list_index_count: int = 0
    rel_inequality_predicates: int = 0
    replace_with_empty: bool = False
    conversion_functions: int = 0     # toInteger/toFloat/... calls
    aggregate_count: int = 0
    # Write-clause features (state-aware workloads, repro.synth.state).
    create_count: int = 0
    merge_count: int = 0
    set_count: int = 0                # SET items, not clauses
    delete_count: int = 0             # plain DELETE clauses
    detach_delete_count: int = 0
    remove_count: int = 0             # REMOVE property items
    remove_label_count: int = 0       # REMOVE label items

    @cached_property
    def signature_hash(self) -> int:
        """A hash over structural features (stable under textual noise).

        Fault gates key on this rather than the raw text hash so that a
        metamorphic rewrite flips a gate verdict only when it genuinely
        changes the query's structure — which is what makes the §5.4.3
        oracle-replay comparison meaningful.  Every gated fault and the
        fired effect read it, so it is computed on first read and kept:
        the fields are final once :func:`extract_features` returns, and
        must not be changed after that.
        """
        signature = (
            self.metrics.patterns,
            self.metrics.expression_depth,
            self.metrics.clauses,
            self.metrics.dependencies,
            self.match_count,
            self.optional_match_count,
            self.unwind_count,
            self.with_count,
            self.has_union,
            self.has_call,
            self.has_order_by,
            self.has_desc_order,
            self.has_distinct,
            self.has_limit,
            self.undirected_rels,
            self.multi_label_nodes,
            self.string_predicates,
            self.modulo_ops,
            self.division_ops,
            self.xor_ops,
            self.case_count,
            tuple(sorted(set(self.functions))),
        )
        # Write counters join the signature only when a write clause is
        # present, so every read-only query hashes exactly as it did before
        # the stateful tier existed — gate decisions on existing campaigns
        # are untouched.
        if self.has_write:
            signature = signature + (
                self.create_count,
                self.merge_count,
                self.set_count,
                self.delete_count,
                self.detach_delete_count,
                self.remove_count,
                self.remove_label_count,
            )
        return stable_hash(repr(signature))

    @property
    def has_write(self) -> bool:
        """Whether any write clause (CREATE/MERGE/SET/DELETE/REMOVE) occurs."""
        return bool(
            self.create_count
            or self.merge_count
            or self.set_count
            or self.delete_count
            or self.detach_delete_count
            or self.remove_count
            or self.remove_label_count
        )

    @property
    def clauses(self) -> int:
        return self.metrics.clauses

    @property
    def patterns(self) -> int:
        return self.metrics.patterns

    @property
    def depth(self) -> int:
        return self.metrics.expression_depth

    @property
    def dependencies(self) -> int:
        return self.metrics.dependencies


def _flatten(query: AnyQuery) -> List[ast.Query]:
    if isinstance(query, ast.UnionQuery):
        return _flatten(query.left) + [query.right]
    return [query]


_CONVERSIONS = frozenset({
    "tointeger", "tofloat", "toboolean", "tostring",
    "tointegerornull", "tofloatornull", "tobooleanornull", "tostringornull",
})
_AGGREGATES = frozenset(
    {"count", "sum", "avg", "min", "max", "collect", "stdev", "stdevp"}
)


def extract_features(query: AnyQuery) -> QueryFeatures:
    """Compute the trigger-relevant features of *query*."""
    facts = query.facts
    funcs = facts.functions
    features = QueryFeatures(
        metrics=facts.metrics,
        clause_names=list(facts.clause_names),
        functions=list(funcs),
        has_union=isinstance(query, ast.UnionQuery),
        **facts.counts,
    )

    features.conversion_functions = sum(1 for f in funcs if f in _CONVERSIONS)
    features.aggregate_count += sum(1 for f in funcs if f in _AGGREGATES)

    for sub in _flatten(query):
        saw_match = False
        saw_unwind_after_match = False
        for index, clause in enumerate(sub.clauses):
            if isinstance(clause, ast.Match):
                if clause.optional:
                    features.optional_match_count += 1
                else:
                    features.match_count += 1
                if saw_unwind_after_match:
                    features.unwind_between_matches = True
                if not saw_match and features.unwind_count:
                    features.unwind_before_match = True
                saw_match = True
                for pattern in clause.patterns:
                    for rel in pattern.relationships:
                        if rel.direction == ast.BOTH:
                            features.undirected_rels += 1
                    for node in pattern.nodes:
                        if len(node.labels) >= 2:
                            features.multi_label_nodes += 1
                if clause.where is not None:
                    features.has_where = True
            elif isinstance(clause, ast.Unwind):
                features.unwind_count += 1
                if index == 0:
                    features.starts_with_unwind = True
                    features.unwind_before_match = True
                if saw_match:
                    saw_unwind_after_match = True
            elif isinstance(clause, ast.With):
                features.with_count += 1
                features.has_distinct |= clause.distinct
                features.has_order_by |= bool(clause.order_by)
                features.has_desc_order |= any(o.descending for o in clause.order_by)
                features.has_limit |= clause.limit is not None
                features.has_skip |= clause.skip is not None
                if clause.where is not None:
                    features.has_where = True
            elif isinstance(clause, ast.Return):
                features.has_distinct |= clause.distinct
                features.has_order_by |= bool(clause.order_by)
                features.has_desc_order |= any(o.descending for o in clause.order_by)
                features.has_limit |= clause.limit is not None
                features.has_skip |= clause.skip is not None
            elif isinstance(clause, ast.Call):
                features.has_call = True
            elif isinstance(clause, ast.Create):
                features.create_count += 1
            elif isinstance(clause, ast.Merge):
                features.merge_count += 1
            elif isinstance(clause, ast.SetClause):
                features.set_count += len(clause.items)
            elif isinstance(clause, ast.Delete):
                if clause.detach:
                    features.detach_delete_count += 1
                else:
                    features.delete_count += 1
            elif isinstance(clause, ast.Remove):
                for item in clause.items:
                    if item.key is not None:
                        features.remove_count += 1
                    else:
                        features.remove_label_count += 1
    return features


# ---------------------------------------------------------------------------
# Effects
# ---------------------------------------------------------------------------

class FaultEffect:
    """Deterministic result perturbations and error raisers."""

    @staticmethod
    def empty_result(result: ResultSet, seed: int) -> ResultSet:
        """The query silently returns nothing (paper Figures 8 and 16)."""
        return ResultSet(result.columns, [], ordered=result.ordered)

    @staticmethod
    def keep_first_row(result: ResultSet, seed: int) -> ResultSet:
        """Only the first record is fetched (paper Figure 17)."""
        return ResultSet(result.columns, result.rows[:1], ordered=result.ordered)

    @staticmethod
    def drop_last_row(result: ResultSet, seed: int) -> ResultSet:
        return ResultSet(result.columns, result.rows[:-1], ordered=result.ordered)

    @staticmethod
    def duplicate_rows(result: ResultSet, seed: int) -> ResultSet:
        """DISTINCT/uniqueness handling fails: rows appear twice."""
        rows = list(result.rows) + list(result.rows[:1])
        return ResultSet(result.columns, rows, ordered=result.ordered)

    @staticmethod
    def extra_null_row(result: ResultSet, seed: int) -> ResultSet:
        """A spurious all-null record is emitted (bad OPTIONAL MATCH)."""
        if not result.columns:
            return result
        rows = list(result.rows) + [tuple(None for _ in result.columns)]
        return ResultSet(result.columns, rows, ordered=result.ordered)

    @staticmethod
    def wrong_value(result: ResultSet, seed: int) -> ResultSet:
        """One returned value is wrong (paper Figures 1 and 7)."""
        if not result.rows or not result.columns:
            return result
        row_index = seed % len(result.rows)
        col_index = (seed // 7) % len(result.columns)
        rows = [list(row) for row in result.rows]
        rows[row_index][col_index] = FaultEffect._perturb(
            rows[row_index][col_index], seed
        )
        return ResultSet(
            result.columns, [tuple(row) for row in rows], ordered=result.ordered
        )

    @staticmethod
    def null_value(result: ResultSet, seed: int) -> ResultSet:
        """One returned value silently becomes null."""
        if not result.rows or not result.columns:
            return result
        col_index = seed % len(result.columns)
        rows = [list(row) for row in result.rows]
        for row in rows:
            row[col_index] = None
        return ResultSet(
            result.columns, [tuple(row) for row in rows], ordered=result.ordered
        )

    @staticmethod
    def _perturb(value: Any, seed: int) -> Any:
        if value is None:
            return 0
        if isinstance(value, bool):
            return not value
        if isinstance(value, int):
            return value + 1 + (seed % 5)
        if isinstance(value, float):
            return value * 2.0 + 1.0
        if isinstance(value, str):
            return value[::-1] if len(value) > 1 else value + "x"
        if isinstance(value, list):
            return value[:-1] if value else [0]
        return 0

    @staticmethod
    def identity(result: ResultSet, seed: int) -> ResultSet:
        """The result is untouched (state faults corrupt the graph instead)."""
        return result

    # -- error raisers ---------------------------------------------------

    @staticmethod
    def crash(result: ResultSet, seed: int) -> ResultSet:
        raise DatabaseCrash("simulated engine crash (memory corruption)")

    @staticmethod
    def hang(result: ResultSet, seed: int) -> ResultSet:
        raise ResourceExhausted(
            "simulated hang: query never completes and memory grows unboundedly"
        )

    @staticmethod
    def exception(result: ResultSet, seed: int) -> ResultSet:
        raise CypherRuntimeError("simulated unexpected internal exception")


@dataclass
class Fault:
    """One injected bug, calibrated to a bug class from the paper."""

    fault_id: str
    gdb: str
    description: str
    category: str                      # "logic" | "crash" | "hang" | "exception" | "memory" | "state"
    introduced_year: float             # years of latency before discovery (Table 4)
    trigger: Callable[[QueryFeatures], bool]
    effect: Callable[[ResultSet, int], ResultSet]
    confirmed: bool = True
    fixed: bool = False
    gate: int = 1                      # fire on 1/gate of the matching queries
    session_queries_required: int = 0  # >0: needs a long-running session
    #: State-corruption faults perturb the engine's *graph* after the write
    #: executes (repro.gdb.state_effects); the result set stays correct.
    #: Signature: (graph, before, tree, seed) -> None, mutating *graph*.
    state_effect: Any = None

    @property
    def is_logic(self) -> bool:
        return self.category == "logic"

    @property
    def is_state(self) -> bool:
        """Whether this fault corrupts post-write graph state, not results."""
        return self.category == "state"

    @cached_property
    def _id_hash(self) -> int:
        """The fault id's gate salt, hashed once per fault."""
        return stable_hash(self.fault_id)

    def triggers(
        self,
        features: QueryFeatures,
        session_queries: int = 0,
        gate_scale: float = 1.0,
    ) -> bool:
        """Whether this fault fires for the given query (deterministic).

        ``gate_scale`` < 1 makes gated faults proportionally easier to hit;
        the experiment harness uses it to compress the paper's months-long
        full campaign into a benchmark-sized run (see Table 3).
        """
        if self.session_queries_required and session_queries < self.session_queries_required:
            return False
        if not self.trigger(features):
            return False
        effective_gate = max(1, int(self.gate * gate_scale))
        if effective_gate > 1:
            # The gate hash mixes in the fault id so different faults gate
            # independent subsets of the matching queries.
            mixed = features.signature_hash ^ self._id_hash
            if mixed % effective_gate != 0:
                return False
        return True
