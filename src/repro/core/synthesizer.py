"""Stepwise query synthesis (paper §3, step 3 of the workflow).

Given a graph and an expected result set, the synthesizer:

1. seeds the operation DAG (:mod:`repro.core.ground_truth`),
2. schedules operations into steps (:mod:`repro.core.scheduler`, Algorithm 1),
3. realizes each step as a concrete clause — MATCH/OPTIONAL MATCH via the
   pattern builder (§3.4), UNWIND/CALL for list expansion, WITH/RETURN for
   projections — threading cross-step variable references throughout,
4. emits the final query plus the expected :class:`ResultSet`.

Soundness invariant: at every step the synthesizer knows the exact bag of
rows the intermediate table holds, represented as

    rows = {uniform env} x cartesian(varying alias lists) x multiplier

MATCH clauses are pinned to a unique assignment, so only UNWIND (and the
CALL expansion) introduce per-row variation, and only DISTINCT / WHERE /
LIMIT refinements change the multiplier.  The expected result therefore
never requires executing the query — it is established constructively, which
is exactly the paper's ground-truth argument.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.core.expressions import ExpressionFactory
from repro.core.ground_truth import (
    GroundTruth,
    PlanSeed,
    build_constraint_graph,
    select_ground_truth,
)
from repro.core.operations import OpKind, Operation
from repro.core.patterns import PatternBuilder
from repro.core.scheduler import ScheduledStep, schedule
from repro.cypher import ast
from repro.engine.binding import ResultSet
from repro.engine.errors import CypherError
from repro.engine.evaluator import Evaluator
from repro.obs import DEFAULT_COUNT_EDGES, PROBE
from repro.graph import values as V
from repro.graph.model import Node, PropertyGraph, Relationship

__all__ = ["SynthesizerConfig", "SynthesisResult", "QuerySynthesizer"]


@dataclass
class SynthesizerConfig:
    """Tuning knobs of the synthesizer (paper §5.1 defaults)."""

    max_ground_truth: int = 6
    include_probability: float = 0.7       # Algorithm 1 rand()
    expression_depth: int = 3              # nesting depth D of §3.5
    extra_elements: int = 5
    extra_aliases: int = 4
    extra_lists: int = 1
    optional_match_probability: float = 0.25
    call_probability: float = 0.15
    union_probability: float = 0.08
    distinct_probability: float = 0.2
    order_by_probability: float = 0.35
    limit_probability: float = 0.15
    where_with_probability: float = 0.5
    plain_truncation_probability: float = 0.2  # leave multiplicity in place
    count_star_alias_probability: float = 0.15
    max_list_length: int = 4
    # Dialect switches (see repro.gdb.dialects).
    supports_call_procedures: bool = True
    needs_uniqueness_predicates: bool = False
    # Write-statement mix for stateful sessions (repro.synth.state); the
    # weights are relative and renormalized over the kinds that are valid
    # against the current shadow state.
    stateful_create_weight: float = 0.35
    stateful_merge_weight: float = 0.2
    stateful_set_weight: float = 0.2
    stateful_delete_weight: float = 0.15
    stateful_remove_weight: float = 0.1


@dataclass
class SynthesisResult:
    """A synthesized query together with its established ground truth."""

    query: Union[ast.Query, ast.UnionQuery]
    expected: ResultSet
    ground_truth: GroundTruth
    n_steps: int                      # number of clauses emitted
    scheduled_steps: int              # number of Algorithm 1 steps


def _is_literal_value(value: Any) -> bool:
    """Whether *value* can be spelled as a Cypher literal (no elements)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, list):
        return all(_is_literal_value(item) for item in value)
    if isinstance(value, dict):
        return all(_is_literal_value(item) for item in value.values())
    return False


class _TableModel:
    """Symbolic model of the intermediate table (see module docstring)."""

    def __init__(self) -> None:
        self.env: Dict[str, Any] = {}
        self.varying: Dict[str, List[Any]] = {}
        self.multiplier: int = 1
        self.zombies: Set[str] = set()    # columns present but unplanned
        self.helpers: Set[str] = set()    # pattern helper variables

    def columns(self) -> List[str]:
        return list(self.env) + list(self.varying)

    def graph_scope(self) -> Dict[str, Any]:
        """Uniform columns bound to graph elements (for the matcher)."""
        return {
            name: value
            for name, value in self.env.items()
            if isinstance(value, (Node, Relationship))
        }

    def row_count(self) -> int:
        count = self.multiplier
        for items in self.varying.values():
            count *= len(items)
        return count


class QuerySynthesizer:
    """Synthesizes complex Cypher queries from an expected result set."""

    def __init__(
        self,
        graph: PropertyGraph,
        rng: Optional[random.Random] = None,
        config: Optional[SynthesizerConfig] = None,
    ):
        self.graph = graph
        self.rng = rng or random.Random()
        self.config = config or SynthesizerConfig()
        self.expressions = ExpressionFactory(graph, self.rng)
        self.evaluator = Evaluator(graph)
        self.builder = PatternBuilder(
            graph,
            self.rng,
            expressions=self.expressions,
            obfuscation_depth=self.config.expression_depth,
        )

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def synthesize(
        self, ground_truth: Optional[GroundTruth] = None
    ) -> SynthesisResult:
        """Synthesize one query; optionally reuse an existing ground truth."""
        if not PROBE.on:
            return self._synthesize(ground_truth)
        with PROBE.tracer.span("synthesize"):
            result = self._synthesize(ground_truth)
        PROBE.metrics.counter("synth.queries").inc()
        PROBE.metrics.histogram(
            "synth.steps", edges=DEFAULT_COUNT_EDGES
        ).observe(result.n_steps)
        return result

    def _synthesize(
        self, ground_truth: Optional[GroundTruth]
    ) -> SynthesisResult:
        rng = self.rng
        if ground_truth is None:
            ground_truth = select_ground_truth(
                self.graph, rng, self.config.max_ground_truth
            )
        result = self._synthesize_single(ground_truth)
        if rng.random() < self.config.union_probability:
            other = self._synthesize_single(ground_truth)
            union_all = rng.random() < 0.5
            query = ast.UnionQuery(result.query, other.query, all=union_all)
            if union_all:
                rows = list(result.expected.rows) + list(other.expected.rows)
                expected = ResultSet(result.expected.columns, rows)
            else:
                expected = ResultSet(
                    result.expected.columns, [ground_truth.row()]
                )
            return SynthesisResult(
                query=query,
                expected=expected,
                ground_truth=ground_truth,
                n_steps=result.n_steps + other.n_steps,
                scheduled_steps=result.scheduled_steps + other.scheduled_steps,
            )
        return result

    # ------------------------------------------------------------------
    # Single-query synthesis
    # ------------------------------------------------------------------

    def _synthesize_single(self, ground_truth: GroundTruth) -> SynthesisResult:
        rng = self.rng
        cfg = self.config
        seed = build_constraint_graph(
            self.graph,
            ground_truth,
            rng,
            extra_elements=cfg.extra_elements,
            extra_aliases=cfg.extra_aliases,
            extra_lists=cfg.extra_lists,
        )
        steps = schedule(seed.graph, rng, cfg.include_probability)

        model = _TableModel()
        clauses: List[ast.Clause] = []
        previous_paths: List = []
        helper_counter = itertools.count(0)
        accessed: Dict[int, str] = {}  # ground-truth index -> alias in env

        for index, step in enumerate(steps):
            is_last = index == len(steps) - 1
            family = self._clause_family(step)
            if family == "MATCH":
                clause = self._realize_match(step, seed, model, previous_paths, helper_counter)
                clauses.append(clause)
            elif family == "UNWIND":
                clauses.extend(self._realize_expansions(step, seed, model))
            else:
                clause = self._realize_projection(
                    step, seed, model, accessed, as_return=is_last
                )
                if clause is not None:
                    clauses.append(clause)

        if not clauses or not isinstance(clauses[-1], ast.Return):
            clauses.append(self._final_return(ground_truth, model, accessed))

        expected_rows = [ground_truth.row()] * max(model.multiplier, 0)
        expected = ResultSet(ground_truth.columns(), expected_rows)
        query = ast.Query(tuple(clauses))
        return SynthesisResult(
            query=query,
            expected=expected,
            ground_truth=ground_truth,
            n_steps=len(clauses),
            scheduled_steps=len(steps),
        )

    @staticmethod
    def _clause_family(step: ScheduledStep) -> str:
        kinds = step.clause_kinds
        if "MATCH" in kinds or "OPTIONAL MATCH" in kinds:
            return "MATCH"
        if "UNWIND" in kinds or "CALL" in kinds:
            return "UNWIND"
        return "PROJECTION"

    # ------------------------------------------------------------------
    # MATCH steps
    # ------------------------------------------------------------------

    def _realize_match(
        self,
        step: ScheduledStep,
        seed: PlanSeed,
        model: _TableModel,
        previous_paths: List,
        helper_counter,
    ) -> ast.Match:
        rng = self.rng
        introduce = [
            (op.variable, op.element)
            for op in step.ops_of_kind(OpKind.ELEMENT_ADD)
        ]
        helper_start = next(helper_counter)
        synthesized = self.builder.build_match(
            introduce,
            scope=model.graph_scope(),
            previous_paths=previous_paths,
            helper_start=helper_start,
            add_uniqueness_predicates=self.config.needs_uniqueness_predicates,
        )
        # Reserve helper numbers actually consumed.
        consumed = sum(
            1
            for var in synthesized.new_variables
            if var.startswith(("m", "e")) and var[1:].isdigit()
        )
        for _ in range(consumed):
            next(helper_counter)

        planned_vars = {var for var, _elem in introduce}
        for var, value in synthesized.bindings.items():
            model.env[var] = value
            if var not in planned_vars and var in synthesized.new_variables:
                model.helpers.add(var)
        previous_paths.extend(synthesized.paths)

        optional = rng.random() < self.config.optional_match_probability
        return ast.Match(
            synthesized.patterns, optional=optional, where=synthesized.where
        )

    # ------------------------------------------------------------------
    # UNWIND / CALL steps
    # ------------------------------------------------------------------

    def _realize_expansions(
        self, step: ScheduledStep, seed: PlanSeed, model: _TableModel
    ) -> List[ast.Clause]:
        clauses: List[ast.Clause] = []
        for op in step.ops_of_kind(OpKind.LIST_EXPAND):
            clauses.append(self._realize_one_expansion(op, seed, model))
        return clauses

    def _realize_one_expansion(
        self, op: Operation, seed: PlanSeed, model: _TableModel
    ) -> ast.Clause:
        rng = self.rng
        cfg = self.config
        use_call = (
            cfg.supports_call_procedures
            and rng.random() < cfg.call_probability
            and self.graph.labels()
        )
        if use_call:
            items = [[label] for label in self.graph.labels()]
            model.varying[op.variable] = [label for [label] in items]
            return ast.Call(
                "db.labels", (), ((("label"), op.variable),)
            )

        length = rng.randint(1, cfg.max_list_length)
        item_exprs: List[ast.Expression] = []
        item_values: List[Any] = []
        source_var = seed.list_sources.get(op.variable)
        for position in range(length):
            expr, value = self._list_item(source_var, model, position == 0)
            item_exprs.append(expr)
            item_values.append(value)
        model.varying[op.variable] = item_values
        return ast.Unwind(ast.ListLiteral(tuple(item_exprs)), op.variable)

    def _list_item(
        self, source_var: Optional[str], model: _TableModel, prefer_source: bool
    ) -> Tuple[ast.Expression, Any]:
        """One UNWIND list item: an expression plus its known value."""
        rng = self.rng
        env = model.env
        if (
            source_var
            and source_var in env
            and (prefer_source or rng.random() < 0.5)
        ):
            expr = self._env_expression(source_var, model.env)
            if expr is not None:
                return expr
        value = self.expressions._random_literal()
        depth = rng.randint(0, self.config.expression_depth)
        return self.expressions.constant_expression(value, depth), value

    def _env_expression(
        self, var: str, env: Dict[str, Any]
    ) -> Optional[Tuple[ast.Expression, Any]]:
        """An expression over an in-scope element variable, with its value."""
        rng = self.rng
        bound = env.get(var)
        if not isinstance(bound, (Node, Relationship)):
            return None
        names = [k for k, v in bound.properties.items() if v is not None]
        if not names:
            return None
        name = rng.choice(names)
        expr: ast.Expression = ast.PropertyAccess(ast.Variable(var), name)
        value = bound.properties[name]
        if rng.random() < 0.6:
            expr, value = self.expressions.obfuscate_property_access(
                expr, value, [], self.builder._draw_depth()
            )
        # Occasionally compare against another in-scope property, like the
        # paper's `[n5.k2 <> r3.id, false]` example.
        if rng.random() < 0.3:
            other_vars = [
                other
                for other, val in env.items()
                if other != var and isinstance(val, (Node, Relationship))
            ]
            if other_vars:
                other = rng.choice(other_vars)
                other_el = env[other]
                other_names = [
                    k for k, v in other_el.properties.items() if v is not None
                ]
                if other_names:
                    other_name = rng.choice(other_names)
                    comparison = ast.Binary(
                        "<>",
                        expr,
                        ast.PropertyAccess(ast.Variable(other), other_name),
                    )
                    try:
                        value = self.evaluator.evaluate(comparison, env)
                        return comparison, value
                    except CypherError:
                        pass
        try:
            checked = self.evaluator.evaluate(expr, env)
        except CypherError:
            return None
        return expr, checked

    # ------------------------------------------------------------------
    # WITH / RETURN steps
    # ------------------------------------------------------------------

    def _realize_projection(
        self,
        step: ScheduledStep,
        seed: PlanSeed,
        model: _TableModel,
        accessed: Dict[int, str],
        as_return: bool,
    ) -> Optional[ast.Clause]:
        rng = self.rng
        cfg = self.config

        removed = {
            op.variable
            for op in step.operations
            if op.kind in (OpKind.ELEMENT_REMOVE, OpKind.ALIAS_REMOVE)
        }
        truncations = step.ops_of_kind(OpKind.LIST_TRUNCATE)
        accesses = step.ops_of_kind(OpKind.PROP_ACCESS)
        alias_adds = step.ops_of_kind(OpKind.ALIAS_ADD)

        if as_return:
            return self._realize_return(
                step, seed, model, accessed, removed, truncations, accesses
            )

        # ---- choose truncation modes ----------------------------------
        distinct = False
        where_terms: List[ast.Expression] = []
        plain_truncated: List[str] = []
        must_keep: Set[str] = set()
        for op in truncations:
            alias = op.variable
            items = model.varying.pop(alias, None)
            if items is None:
                # Expansion fell back or already truncated; nothing to do.
                removed.add(alias)
                continue
            mode = self._truncation_mode(items, model)
            if mode == "distinct":
                distinct = True
                removed.add(alias)
            elif mode == "where":
                keep = rng.choice(items)
                where_terms.append(
                    ast.Binary(
                        "=",
                        ast.Variable(alias),
                        self.expressions.constant_expression(
                            keep, rng.randint(0, cfg.expression_depth)
                        ),
                    )
                )
                # The alias survives this clause as a uniform zombie column;
                # it must be projected *now* because the WHERE references it.
                model.env[alias] = keep
                model.zombies.add(alias)
                must_keep.add(alias)
            else:  # plain: drop the column, keep the duplicate rows
                model.multiplier *= len(items)
                plain_truncated.append(alias)
                removed.add(alias)

        # ---- assemble projection items -----------------------------------
        items: List[ast.ProjectionItem] = []
        kept_columns: List[str] = []
        for column in list(model.env):
            if column in removed:
                model.env.pop(column, None)
                model.zombies.discard(column)
                continue
            if column in model.helpers:
                # Helper variables may ride along as extra uniform columns
                # (building further cross-clause references) or die here.
                if rng.random() < 0.5:
                    model.env.pop(column)
                    model.helpers.discard(column)
                    continue
            elif (
                column in model.zombies
                and column not in must_keep
                and rng.random() < 0.5
            ):
                model.env.pop(column)
                model.zombies.discard(column)
                continue
            items.append(ast.ProjectionItem(ast.Variable(column)))
            kept_columns.append(column)
        # Varying aliases not truncated this step must stay projected.
        for alias in model.varying:
            items.append(ast.ProjectionItem(ast.Variable(alias)))
            kept_columns.append(alias)

        # Snapshot the referenceable environment before this clause adds any
        # aliases: WITH items cannot reference sibling aliases created in
        # the same clause.
        pre_clause_env = dict(model.env)

        for op in accesses:
            expr, value, alias = self._access_item(op, seed)
            items.append(ast.ProjectionItem(expr, alias))
            model.env[alias] = value
            accessed[op.ground_truth_index] = alias
            kept_columns.append(alias)

        # Aggregate aliases (count(*)/collect) are only sound when this step
        # did not also expand or truncate lists (the aggregation would then
        # count pre-filter rows); see _alias_expression.  All aggregates in
        # one clause see the same input table, so they share the clause's
        # input multiplier and the collapse to one row happens once.
        aggregation_safe = not truncations and not model.varying and not distinct
        input_multiplier = model.multiplier
        used_aggregate = False
        for op in alias_adds:
            expr, value, is_aggregate = self._alias_expression(
                op.variable, seed, model, aggregation_safe,
                reference_env=pre_clause_env,
                input_multiplier=input_multiplier,
            )
            used_aggregate = used_aggregate or is_aggregate
            items.append(ast.ProjectionItem(expr, op.variable))
            model.env[op.variable] = value
            kept_columns.append(op.variable)
        if used_aggregate:
            model.multiplier = 1

        if not items:
            # WITH requires at least one item; keep a constant zombie.
            filler = f"f{len(model.zombies)}"
            value = rng.randint(0, 9)
            items.append(
                ast.ProjectionItem(
                    self.expressions.constant_expression(value, 1), filler
                )
            )
            model.env[filler] = value
            model.zombies.add(filler)
            kept_columns.append(filler)

        # ---- random refinements ------------------------------------------
        if not distinct and rng.random() < cfg.distinct_probability:
            distinct = True
        if distinct:
            # DISTINCT dedups the projected rows: uniform columns collapse
            # the multiplier; varying aliases keep one row per distinct item.
            model.multiplier = 1
            for alias, values in list(model.varying.items()):
                unique: List[Any] = []
                seen = set()
                for item in values:
                    key = V.equivalence_key(item)
                    if key not in seen:
                        seen.add(key)
                        unique.append(item)
                model.varying[alias] = unique

        order_by: Tuple[ast.OrderItem, ...] = ()
        if kept_columns and rng.random() < cfg.order_by_probability:
            n_keys = min(len(kept_columns), rng.randint(1, 3))
            chosen = rng.sample(kept_columns, n_keys)
            order_by = tuple(
                ast.OrderItem(ast.Variable(column), rng.random() < 0.5)
                for column in chosen
            )

        skip = None
        limit = None
        # LIMIT applies *before* the WHERE subclause, so it is only sound
        # when the projected rows are already uniform — i.e. no varying
        # aliases remain and no WHERE-based truncation happens this step
        # (its rows still differ until the WHERE filters them).
        if (
            not model.varying
            and not must_keep
            and rng.random() < cfg.limit_probability
            and model.multiplier > 0
        ):
            keep = rng.randint(1, model.multiplier)
            limit = ast.Literal(keep)
            model.multiplier = keep

        if rng.random() < cfg.where_with_probability:
            for _ in range(rng.randint(1, 3)):
                term = self._truthful_env_predicate(model, kept_columns)
                if term is not None:
                    where_terms.append(term)

        where = None
        if where_terms:
            where = where_terms[0]
            for term in where_terms[1:]:
                where = ast.Binary("AND", where, term)

        return ast.With(
            tuple(items),
            distinct=distinct,
            order_by=order_by,
            skip=skip,
            limit=limit,
            where=where,
        )

    def _truncation_mode(self, items: List[Any], model: _TableModel) -> str:
        """Pick a sound truncation realization for an expanded list."""
        rng = self.rng
        cfg = self.config
        if rng.random() < cfg.plain_truncation_probability:
            return "plain"
        keys = [V.equivalence_key(item) for item in items]
        items_distinct = len(set(keys)) == len(keys)
        # WHERE-based truncation compares `alias = item`, which requires the
        # kept item to be reflexively equal (no nulls/NaN anywhere).
        no_nulls = all(V.ternary_equals(item, item) is True for item in items)
        if items_distinct and no_nulls and rng.random() < 0.5:
            return "where"
        return "distinct"

    def _access_item(
        self, op: Operation, seed: PlanSeed
    ) -> Tuple[ast.Expression, Any, str]:
        """Realize a ground-truth property access."""
        kind, element_id = op.element
        var = seed.element_vars[op.element]
        expr = ast.PropertyAccess(ast.Variable(var), op.property_name)
        if kind == "node":
            value = self.graph.node(element_id).properties.get(op.property_name)
        else:
            value = self.graph.relationship(element_id).properties.get(
                op.property_name
            )
        return expr, value, op.variable

    def _alias_expression(
        self,
        alias: str,
        seed: PlanSeed,
        model: _TableModel,
        aggregation_safe: bool = False,
        reference_env: Optional[Dict[str, Any]] = None,
        input_multiplier: int = 1,
    ) -> Tuple[ast.Expression, Any, bool]:
        """Realize a supplementary alias (A+).

        ``reference_env`` restricts which variables the alias expression may
        reference; WITH items cannot see sibling aliases created in the same
        clause, so projection steps pass a pre-clause snapshot.  Returns
        ``(expression, value, is_aggregate)``; when an aggregate is used the
        caller collapses the table multiplier to 1 after the clause.
        """
        rng = self.rng
        cfg = self.config
        env = reference_env if reference_env is not None else model.env
        source = seed.alias_sources.get(alias)
        if source is not None and source not in env:
            source = None

        if (
            aggregation_safe
            and cfg.count_star_alias_probability > rng.random()
        ):
            # Aggregation over a table of identical rows: count(*) yields
            # the multiplier, collect(col) yields multiplier copies.
            if rng.random() < 0.6:
                return ast.CountStar(), input_multiplier, True
            uniform = [
                name for name, val in env.items()
                if name not in model.varying
            ]
            if uniform:
                column = rng.choice(uniform)
                return (
                    ast.FunctionCall("collect", (ast.Variable(column),)),
                    [env[column]] * input_multiplier,
                    True,
                )
            return ast.CountStar(), input_multiplier, True

        bound = env.get(source) if source else None
        if isinstance(bound, Relationship) and rng.random() < 0.4:
            roll = rng.random()
            if roll < 0.5:
                name = rng.choice(["startNode", "endNode"])
                node_id = bound.start if name == "startNode" else bound.end
                return (
                    ast.FunctionCall(name, (ast.Variable(source),)),
                    self.graph.node(node_id),
                    False,
                )
            if roll < 0.75:
                return (
                    ast.FunctionCall("type", (ast.Variable(source),)),
                    bound.type,
                    False,
                )
            return (
                ast.FunctionCall("id", (ast.Variable(source),)),
                bound.id,
                False,
            )
        if isinstance(bound, Node) and rng.random() < 0.3:
            roll = rng.random()
            if roll < 0.4:
                return (
                    ast.FunctionCall("labels", (ast.Variable(source),)),
                    sorted(bound.labels),
                    False,
                )
            if roll < 0.7:
                return (
                    ast.FunctionCall("properties", (ast.Variable(source),)),
                    dict(bound.properties),
                    False,
                )
            return (
                ast.FunctionCall("keys", (ast.Variable(source),)),
                sorted(bound.properties.keys()),
                False,
            )
        if isinstance(bound, (Node, Relationship)):
            result = self._env_expression(source, env)
            if result is not None:
                return result[0], result[1], False
        value = self.expressions._random_literal()
        depth = rng.randint(0, cfg.expression_depth)
        return self.expressions.constant_expression(value, depth), value, False

    def _truthful_env_predicate(
        self, model: _TableModel, columns: List[str]
    ) -> Optional[ast.Expression]:
        """A WHERE term over projected columns, true on every row."""
        rng = self.rng
        uniform = [
            column
            for column in columns
            if column in model.env and column not in model.varying
        ]
        if not uniform:
            return None
        column = rng.choice(uniform)
        value = model.env[column]
        if isinstance(value, (Node, Relationship)):
            names = [k for k, v in value.properties.items() if v is not None]
            if not names:
                return None
            name = rng.choice(names)
            subject: ast.Expression = ast.PropertyAccess(
                ast.Variable(column), name
            )
            target = value.properties[name]
        else:
            subject = ast.Variable(column)
            target = value
        if target is None:
            return ast.IsNull(subject)
        if not _is_literal_value(target):
            # Values embedding graph elements (e.g. collect(n) aliases)
            # cannot be expressed as literal constants.
            return None
        rhs = self.expressions.constant_expression(
            target, rng.randint(0, self.config.expression_depth)
        )
        candidate = ast.Binary("=", subject, rhs)
        try:
            verdict = self.evaluator.evaluate(candidate, model.env)
        except CypherError:
            return None
        return candidate if verdict is True else None

    # ------------------------------------------------------------------
    # Final RETURN
    # ------------------------------------------------------------------

    def _realize_return(
        self,
        step: ScheduledStep,
        seed: PlanSeed,
        model: _TableModel,
        accessed: Dict[int, str],
        removed: Set[str],
        truncations: List[Operation],
        accesses: List[Operation],
    ) -> ast.Return:
        """Realize the last scheduled step directly as RETURN."""
        rng = self.rng
        cfg = self.config
        distinct = False

        for op in truncations:
            items = model.varying.pop(op.variable, None)
            if items is None:
                continue
            if (
                all(
                    V.equivalence_key(a) != V.equivalence_key(b)
                    for a, b in itertools.combinations(items, 2)
                )
                and rng.random() >= cfg.plain_truncation_probability
            ):
                distinct = True
            else:
                model.multiplier *= len(items)
        # Any varying alias still alive is simply not projected (plain drop).
        for alias, items in list(model.varying.items()):
            model.multiplier *= len(items)
            model.varying.pop(alias)

        for op in accesses:
            _expr, value, alias = self._access_item(op, seed)
            accessed[op.ground_truth_index] = alias
            model.env[alias] = value

        items: List[ast.ProjectionItem] = []
        for index, entry in enumerate(seed.ground_truth.entries):
            alias = accessed.get(index)
            direct = next(
                (op for op in accesses if op.ground_truth_index == index), None
            )
            if direct is not None:
                expr, _value, alias = self._access_item(direct, seed)
                items.append(ast.ProjectionItem(expr, alias))
            elif alias is not None:
                items.append(ast.ProjectionItem(ast.Variable(alias)))
            else:  # pragma: no cover - scheduling guarantees access happened
                raise RuntimeError(f"ground-truth column {index} never accessed")

        if distinct:
            model.multiplier = 1
        if not distinct and rng.random() < cfg.distinct_probability:
            distinct = True
            model.multiplier = 1

        order_by: Tuple[ast.OrderItem, ...] = ()
        if rng.random() < cfg.order_by_probability:
            item = rng.choice(items)
            column = item.column
            order_by = (ast.OrderItem(ast.Variable(column), rng.random() < 0.5),)

        limit = None
        if rng.random() < cfg.limit_probability and model.multiplier > 0:
            keep = rng.randint(1, model.multiplier)
            limit = ast.Literal(keep)
            model.multiplier = keep

        return ast.Return(
            tuple(items), distinct=distinct, order_by=order_by, limit=limit
        )

    def _final_return(
        self,
        ground_truth: GroundTruth,
        model: _TableModel,
        accessed: Dict[int, str],
    ) -> ast.Return:
        """Append the closing RETURN when the last step was not one."""
        rng = self.rng
        cfg = self.config
        # Drop any leftover varying aliases (plain multiplicity).
        for alias, items in list(model.varying.items()):
            model.multiplier *= len(items)
            model.varying.pop(alias)

        items = []
        for index, entry in enumerate(ground_truth.entries):
            alias = accessed.get(index)
            if alias is None:  # pragma: no cover - scheduling guarantees this
                raise RuntimeError(f"ground-truth column {index} never accessed")
            items.append(ast.ProjectionItem(ast.Variable(alias)))

        distinct = rng.random() < cfg.distinct_probability
        if distinct:
            model.multiplier = 1
        order_by: Tuple[ast.OrderItem, ...] = ()
        if rng.random() < cfg.order_by_probability:
            item = rng.choice(items)
            order_by = (
                ast.OrderItem(ast.Variable(item.column), rng.random() < 0.5),
            )
        limit = None
        if rng.random() < cfg.limit_probability and model.multiplier > 0:
            keep = rng.randint(1, model.multiplier)
            limit = ast.Literal(keep)
            model.multiplier = keep
        return ast.Return(
            tuple(items), distinct=distinct, order_by=order_by, limit=limit
        )
