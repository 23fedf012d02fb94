"""Composable pipeline operators for compiled query execution.

A compiled plan is a list of operators, each mapping ``(columns, rows)`` to
a new ``(columns, rows)`` — the same clause-by-clause table flow the
reference :class:`~repro.engine.executor.Executor` implements, with all
per-row AST dispatch replaced by closures compiled once at plan-build time
(:mod:`repro.engine.plan.compiler`).

Operator catalog (see ``docs/execution.md``):

* :class:`MatchOp` — fused scan → expand → filter for one MATCH clause,
  including OPTIONAL padding and the WHERE filter.  Candidate enumeration
  order replicates the matcher exactly (id-sorted scans, outgoing before
  incoming, self-loop dedup for undirected steps) so row order — not just
  row bags — matches interpreted execution.
* :class:`UnwindOp` — list explosion.
* :class:`ProjectOp` — WITH/RETURN projection, aggregation, DISTINCT,
  ORDER BY, SKIP/LIMIT, and the WITH ... WHERE filter.
* :class:`CallOp` — procedure invocation.

Each operator charges the evaluation resource envelope one step per unit of
work (per chain extension, per row) so budgeted campaigns stay bounded in
compiled mode, and tallies rows into ``ctx.profile`` when observability is
on (flushed as ``plan.rows`` counters by the owning engine).
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cypher import ast
from repro.cypher.functions import is_aggregate
from repro.engine.envelope import ENVELOPE
from repro.engine.errors import CypherRuntimeError, CypherSyntaxError, CypherTypeError
from repro.engine.evaluator import Evaluator, has_aggregate
from repro.engine.executor import _as_literal
from repro.engine.plan.compiler import compile_expr
from repro.graph import values as V
from repro.graph.model import Node, Path, PropertyGraph, Relationship

__all__ = [
    "ExecutionContext",
    "NodeSpec",
    "RelSpec",
    "ChainSpec",
    "MatchOp",
    "UnwindOp",
    "ProjectOp",
    "CallOp",
    "compile_aggregate",
]

Row = Dict[str, Any]
CompiledExpr = Callable[[Row, "ExecutionContext"], Any]


class ExecutionContext:
    """Per-execution runtime state threaded through compiled operators.

    Plans are graph-independent: they resolve the graph (and the dialect's
    procedure registry) through this context at run time, so a cached plan
    survives ``load_graph``.  ``profile`` is either ``None`` (observability
    off, or dual mode where the compiled leg must stay invisible) or a
    plain dict of per-operator row tallies the engine flushes per query.
    ``op_profile`` (same gating) is the boundary-level operator profiler —
    an :class:`repro.obs.profile.OperatorProfile` accumulating wall time,
    invocations, and evaluation steps per operator.

    ``evaluator`` is a plan-private tree-walking evaluator used only by the
    cold aggregate-recombination path; its probe tallies are deliberately
    never flushed, so compiled execution adds nothing to the interpreter's
    ``evaluator.calls`` metric.
    """

    __slots__ = ("graph", "procedures", "evaluator", "profile", "op_profile")

    def __init__(
        self,
        graph: PropertyGraph,
        procedures: Optional[Dict[str, Any]] = None,
        profile: Optional[Dict[str, int]] = None,
        op_profile: Optional[Any] = None,
    ):
        self.graph = graph
        self.procedures = procedures if procedures is not None else {}
        self.evaluator = Evaluator(graph)
        self.profile = profile
        self.op_profile = op_profile


def _tally(ctx: ExecutionContext, operator: str, rows: int) -> None:
    profile = ctx.profile
    if profile is not None and rows:
        profile[operator] = profile.get(operator, 0) + rows


# -- MATCH -----------------------------------------------------------------


class NodeSpec:
    """One node pattern element, compiled.

    ``scan`` (first-chain-node only) yields candidate nodes in the exact
    order the matcher would enumerate them; index-backed scans may yield a
    subset, but every candidate is still checked against the full pattern
    (labels + property map + binding), so narrowing is only ever a skip of
    work, never a semantic change.
    """

    __slots__ = ("variable", "labels", "prop_checks", "scan", "filters")

    def __init__(
        self,
        variable: Optional[str],
        labels: Tuple[str, ...],
        prop_checks: Optional[Tuple[Tuple[str, CompiledExpr], ...]],
        scan: Optional[Callable[[ExecutionContext, Row], Sequence[Node]]] = None,
        filters: Optional[Tuple[CompiledExpr, ...]] = None,
    ):
        self.variable = variable
        self.labels = labels
        self.prop_checks = prop_checks
        self.scan = scan
        # Pushed-down WHERE conjuncts, evaluated the moment this element's
        # bindings exist.  Only provably-total conjuncts are ever placed
        # here (see the planner), so early evaluation cannot raise anything
        # the completion-time WHERE would not have raised.
        self.filters = filters


class RelSpec:
    """One relationship pattern element, compiled.

    ``direction``/``adjacency_type`` parameterize the graph's cached
    ``expand_pairs`` view of ``(relationship, far node id)`` pairs from the
    current node.  When the planner pushed the (single) relationship type
    into typed adjacency (``adjacency_type``), ``check_types`` is False —
    the type test already happened in the index, in the same position the
    matcher would have applied it (types are checked before properties).
    """

    __slots__ = (
        "variable",
        "types",
        "check_types",
        "prop_checks",
        "direction",
        "adjacency_type",
    )

    def __init__(
        self,
        variable: Optional[str],
        types: Tuple[str, ...],
        check_types: bool,
        prop_checks: Optional[Tuple[Tuple[str, CompiledExpr], ...]],
        direction: str,
        adjacency_type: Optional[str] = None,
    ):
        self.variable = variable
        self.types = types
        self.check_types = check_types
        self.prop_checks = prop_checks
        self.direction = direction
        self.adjacency_type = adjacency_type


class ChainSpec:
    """A compiled path pattern: first node plus (rel, node) steps."""

    __slots__ = ("first", "steps", "path_variable", "end_filters")

    def __init__(
        self,
        first: NodeSpec,
        steps: Tuple[Tuple[RelSpec, NodeSpec], ...],
        path_variable: Optional[str],
        end_filters: Optional[Tuple[CompiledExpr, ...]] = None,
    ):
        self.first = first
        self.steps = steps
        self.path_variable = path_variable
        # Conjuncts that need this chain's path variable (or completed
        # bindings) — checked once the chain is fully matched.
        self.end_filters = end_filters


def _filters_pass(
    filters: Tuple[CompiledExpr, ...], env: Row, ctx: ExecutionContext
) -> bool:
    """All pushed-down conjuncts True?  (False/null both prune, like AND.)

    Pushed conjuncts are total (see ``planner._safe_conjunct``) but their
    verdicts are still ternary; the inline check keeps the prune path
    call-free while non-boolean verdicts raise through coerce_to_boolean.
    """
    for fn in filters:
        verdict = fn(env, ctx)
        if verdict is not True:
            if verdict is not None and verdict.__class__ is not bool:
                V.coerce_to_boolean(verdict)
            return False
    return True


def _props_ok(
    prop_checks: Tuple[Tuple[str, CompiledExpr], ...],
    element: Any,
    env: Row,
    ctx: ExecutionContext,
) -> bool:
    for key, value_fn in prop_checks:
        expected = value_fn(env, ctx)
        if V.ternary_equals(element.properties.get(key), expected) is not True:
            return False
    return True


def _node_ok(
    spec: NodeSpec, node: Node, env: Row, ctx: ExecutionContext
) -> bool:
    """Full node check *including* the binding constraint (chain interior)."""
    variable = spec.variable
    if variable is not None and variable in env:
        bound = env[variable]
        if not isinstance(bound, Node) or bound.id != node.id:
            return False
    for label in spec.labels:
        if label not in node.labels:
            return False
    if spec.prop_checks is not None:
        if not _props_ok(spec.prop_checks, node, env, ctx):
            return False
    return True


def _node_ok_nobind(
    spec: NodeSpec, node: Node, env: Row, ctx: ExecutionContext
) -> bool:
    """Node check without the binding constraint (first-node candidates)."""
    for label in spec.labels:
        if label not in node.labels:
            return False
    if spec.prop_checks is not None:
        if not _props_ok(spec.prop_checks, node, env, ctx):
            return False
    return True


def _rel_ok(
    spec: RelSpec, rel: Relationship, env: Row, ctx: ExecutionContext
) -> bool:
    if spec.check_types and spec.types and rel.type not in spec.types:
        return False
    if spec.prop_checks is not None:
        if not _props_ok(spec.prop_checks, rel, env, ctx):
            return False
    return True


class MatchOp:
    """Fused scan → expand → filter for one MATCH clause.

    Like the reference matcher, this operator mutates a single environment
    dict in place and undoes each binding on backtrack; unlike it, the
    scan, expand and filter steps are specialised per clause at plan
    time.  Enumeration order is bit-for-bit the matcher's.
    """

    label = "match"

    def __init__(
        self,
        chains: Tuple[ChainSpec, ...],
        new_vars: List[str],
        where_fn: Optional[CompiledExpr],
        optional: bool,
        enforce_rel_uniqueness: bool,
        pre_filters: Optional[Tuple[CompiledExpr, ...]] = None,
    ):
        self.chains = chains
        self.new_vars = new_vars
        self.where_fn = where_fn
        self.optional = optional
        self.enforce_rel_uniqueness = enforce_rel_uniqueness
        # Conjuncts over pre-existing columns only: one check per input
        # row, before any scan.  A failing pre-filter prunes the whole
        # exploration (but OPTIONAL padding still applies, exactly as if
        # every candidate had failed the completion-time WHERE).
        self.pre_filters = pre_filters
        # Per-run recursion state, populated by run() (see there).
        self._ctx = self._env = self._used = self._out = None

    def run(
        self, columns: List[str], rows: List[Row], ctx: ExecutionContext
    ) -> Tuple[List[str], List[Row]]:
        out_columns = columns + self.new_vars
        out_rows: List[Row] = []
        used: set = set()
        pre_filters = self.pre_filters
        # Run-constant recursion state lives on the instance for the
        # duration of the call: plan execution is strictly sequential per
        # engine, and trimming four arguments off _chain/_extend is a
        # measurable win on deep backtracking.
        self._ctx = ctx
        self._used = used
        self._out = out_rows
        for row in rows:
            before = len(out_rows)
            if pre_filters is None or _filters_pass(pre_filters, row, ctx):
                self._env = dict(row)
                self._chain(0)
            if len(out_rows) == before and self.optional:
                padded = dict(row)
                for name in self.new_vars:
                    padded.setdefault(name, None)
                out_rows.append(padded)
        self._ctx = self._env = self._used = self._out = None
        _tally(ctx, "match", len(out_rows))
        return out_columns, out_rows

    def _chain(self, chain_index: int) -> None:
        chains = self.chains
        env = self._env
        ctx = self._ctx
        if chain_index == len(chains):
            # Every pattern matched: apply WHERE, then snapshot the env.
            # The verdict check is inlined: True passes, False/None prune,
            # anything else still raises through coerce_to_boolean with
            # the exact interpreter message.
            where_fn = self.where_fn
            if where_fn is not None:
                verdict = where_fn(env, ctx)
                if verdict is not True:
                    if verdict is not None and verdict.__class__ is not bool:
                        V.coerce_to_boolean(verdict)
                    return
            self._out.append(dict(env))
            return

        chain = chains[chain_index]
        first = chain.first
        variable = first.variable

        filters = first.filters
        if variable is not None and variable in env:
            bound = env[variable]
            if bound is None:
                return  # null from OPTIONAL MATCH never re-matches
            if not isinstance(bound, Node):
                raise CypherTypeError(f"variable `{variable}` is not a node")
            if _node_ok_nobind(first, bound, env, ctx):
                if filters is None or _filters_pass(filters, env, ctx):
                    self._extend(chain, chain_index, 0, bound, [bound], [])
            return

        profile = ctx.profile
        scan = first.scan
        for node in scan(ctx, env):  # type: ignore[misc]
            if not _node_ok_nobind(first, node, env, ctx):
                continue
            if profile is not None:
                profile["scan"] = profile.get("scan", 0) + 1
            if variable is not None:
                env[variable] = node
            if filters is None or _filters_pass(filters, env, ctx):
                self._extend(chain, chain_index, 0, node, [node], [])
            if variable is not None:
                del env[variable]

    def _extend(
        self,
        chain: ChainSpec,
        chain_index: int,
        step_index: int,
        current: Node,
        chain_nodes: List[Node],
        chain_rels: List[Relationship],
    ) -> None:
        if ENVELOPE.limit is not None:
            # One step per partial-chain extension, mirroring the matcher:
            # variable-length blowup is metered here in compiled mode too.
            ENVELOPE.charge()
        env = self._env
        ctx = self._ctx
        steps = chain.steps
        if step_index == len(steps):
            path_variable = chain.path_variable
            end_filters = chain.end_filters
            if path_variable is not None:
                had = path_variable in env
                old = env.get(path_variable)
                env[path_variable] = Path(tuple(chain_nodes), tuple(chain_rels))
                if end_filters is None or _filters_pass(end_filters, env, ctx):
                    self._chain(chain_index + 1)
                if had:
                    env[path_variable] = old
                else:
                    del env[path_variable]
            else:
                if end_filters is None or _filters_pass(end_filters, env, ctx):
                    self._chain(chain_index + 1)
            return

        rel_spec, node_spec = steps[step_index]
        enforce = self.enforce_rel_uniqueness
        used = self._used
        rel_variable = rel_spec.variable
        node_variable = node_spec.variable
        graph = ctx.graph
        profile = ctx.profile

        bound_rel = None
        if rel_variable is not None and rel_variable in env:
            bound_rel = env[rel_variable]
            if bound_rel is None:
                return
            if not isinstance(bound_rel, Relationship):
                raise CypherTypeError(
                    f"variable `{rel_variable}` is not a relationship"
                )

        # _rel_ok/_node_ok inlined: this loop runs once per candidate edge
        # and the call overhead is measurable on variable-heavy chains.
        check_types = rel_spec.check_types and rel_spec.types
        rel_types = rel_spec.types
        rel_props = rel_spec.prop_checks
        node_labels = node_spec.labels
        node_props = node_spec.prop_checks
        node_by_id = graph._nodes

        for rel, far in graph.expand_pairs(
            current.id, rel_spec.direction, rel_spec.adjacency_type
        ):
            # Check order replicates the matcher: bound-id filter, then
            # type/property match, then uniqueness, then the target node.
            if bound_rel is not None and rel.id != bound_rel.id:
                continue
            if check_types and rel.type not in rel_types:
                continue
            if rel_props is not None and not _props_ok(rel_props, rel, env, ctx):
                continue
            if enforce and rel.id in used:
                continue
            target = node_by_id[far]
            if node_variable is not None and node_variable in env:
                bound = env[node_variable]
                if not isinstance(bound, Node) or bound.id != target.id:
                    continue
            if node_labels:
                ok = True
                for label in node_labels:
                    if label not in target.labels:
                        ok = False
                        break
                if not ok:
                    continue
            if node_props is not None and not _props_ok(node_props, target, env, ctx):
                continue
            if profile is not None:
                profile["expand"] = profile.get("expand", 0) + 1

            if rel_variable is not None:
                rel_had = rel_variable in env
                rel_old = env.get(rel_variable)
                env[rel_variable] = rel
            if node_variable is not None:
                node_had = node_variable in env
                node_old = env.get(node_variable)
                env[node_variable] = target
            filters = node_spec.filters
            if filters is None or _filters_pass(filters, env, ctx):
                if enforce:
                    # rel.id is guaranteed absent (the uniqueness check
                    # above skipped duplicates), so add/discard is an exact
                    # undo.
                    used.add(rel.id)
                chain_nodes.append(target)
                chain_rels.append(rel)

                self._extend(
                    chain, chain_index, step_index + 1, target,
                    chain_nodes, chain_rels,
                )

                chain_rels.pop()
                chain_nodes.pop()
                if enforce:
                    used.discard(rel.id)
            if node_variable is not None:
                if node_had:
                    env[node_variable] = node_old
                else:
                    del env[node_variable]
            if rel_variable is not None:
                if rel_had:
                    env[rel_variable] = rel_old
                else:
                    del env[rel_variable]


# -- UNWIND ----------------------------------------------------------------


class UnwindOp:
    """``UNWIND expr AS alias``: list explosion with null skipping."""

    label = "unwind"

    def __init__(self, expr_fn: CompiledExpr, alias: str):
        self.expr_fn = expr_fn
        self.alias = alias

    def run(
        self, columns: List[str], rows: List[Row], ctx: ExecutionContext
    ) -> Tuple[List[str], List[Row]]:
        alias = self.alias
        expr_fn = self.expr_fn
        out_columns = columns + ([alias] if alias not in columns else [])
        out_rows: List[Row] = []
        for row in rows:
            if ENVELOPE.limit is not None:
                ENVELOPE.charge()
            value = expr_fn(row, ctx)
            if value is None:
                continue
            items = value if isinstance(value, list) else [value]
            for item in items:
                new_row = dict(row)
                new_row[alias] = item
                out_rows.append(new_row)
        _tally(ctx, "unwind", len(out_rows))
        return out_columns, out_rows


# -- WITH / RETURN ---------------------------------------------------------


def _distinct_rows(columns: List[str], rows: List[Row]) -> List[Row]:
    seen = set()
    out: List[Row] = []
    for row in rows:
        key = tuple(V.equivalence_key(row.get(col)) for col in columns)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


class ProjectOp:
    """WITH/RETURN: projection, aggregation, DISTINCT, ORDER BY, SKIP/LIMIT.

    Replicates ``Executor._project`` stage for stage, including the exact
    ORDER BY environment rules (aggregated projections sort over projected
    rows; non-distinct plain projections sort over original-plus-projected
    merged environments) and the stable right-to-left multi-key sort.
    """

    def __init__(
        self,
        columns: List[str],
        plain_items: List[Tuple[str, CompiledExpr]],
        agg_items: Optional[List[Tuple[str, Optional[Callable]]]],
        distinct: bool,
        order_fns: List[Tuple[CompiledExpr, bool]],
        skip_fn: Optional[CompiledExpr],
        limit_fn: Optional[CompiledExpr],
        where_fn: Optional[CompiledExpr],
    ):
        self.columns = columns
        self.plain_items = plain_items
        # agg_items is None for plain projections; otherwise a per-column
        # list where group keys carry None and aggregates carry their
        # fold closure (rows, ctx) -> value.
        self.agg_items = agg_items
        self.aggregated = agg_items is not None
        self.label = "aggregate" if self.aggregated else "project"
        self.distinct = distinct
        self.order_fns = order_fns
        self.skip_fn = skip_fn
        self.limit_fn = limit_fn
        self.where_fn = where_fn

    def run(
        self, columns: List[str], rows: List[Row], ctx: ExecutionContext
    ) -> Tuple[List[str], List[Row]]:
        out_columns = self.columns
        if self.aggregated:
            projected = self._project_aggregated(rows, ctx)
            if self.distinct:
                projected = _distinct_rows(out_columns, projected)
        else:
            plain_items = self.plain_items
            projected = []
            for row in rows:
                if ENVELOPE.limit is not None:
                    ENVELOPE.charge()
                projected.append(
                    {col: fn(row, ctx) for col, fn in plain_items}
                )
            if self.distinct:
                projected = _distinct_rows(out_columns, projected)

        if self.order_fns:
            projected = self._order(rows, projected, ctx)

        if self.skip_fn is not None:
            projected = projected[self._count(self.skip_fn, "SKIP", ctx):]
        if self.limit_fn is not None:
            projected = projected[: self._count(self.limit_fn, "LIMIT", ctx)]

        where_fn = self.where_fn
        if where_fn is not None:
            projected = [
                row
                for row in projected
                if V.coerce_to_boolean(where_fn(row, ctx)) is True
            ]
        _tally(ctx, "aggregate" if self.aggregated else "project", len(projected))
        return out_columns, projected

    def _project_aggregated(
        self, rows: List[Row], ctx: ExecutionContext
    ) -> List[Row]:
        group_items = [
            (col, fn)
            for (col, fn), (_col, agg_fn) in zip(self.plain_items, self.agg_items)
            if agg_fn is None
        ]
        groups: Dict[tuple, Dict[str, Any]] = {}
        for row in rows:
            if ENVELOPE.limit is not None:
                ENVELOPE.charge()
            key_values = {col: fn(row, ctx) for col, fn in group_items}
            key = tuple(
                V.equivalence_key(key_values[col]) for col, _fn in group_items
            )
            bucket = groups.get(key)
            if bucket is None:
                bucket = groups[key] = {"key_values": key_values, "rows": []}
            bucket["rows"].append(row)

        if not groups and not group_items:
            # Aggregation over zero rows with no grouping keys: one row.
            groups[()] = {"key_values": {}, "rows": []}

        out_rows: List[Row] = []
        for bucket in groups.values():
            out_row: Row = {}
            for col, agg_fn in self.agg_items:
                if agg_fn is not None:
                    out_row[col] = agg_fn(bucket["rows"], ctx)
                else:
                    out_row[col] = bucket["key_values"][col]
            out_rows.append(out_row)
        return out_rows

    def _order(
        self, original_rows: List[Row], projected: List[Row], ctx: ExecutionContext
    ) -> List[Row]:
        if self.aggregated:
            envs = [dict(row) for row in projected]
        else:
            source = original_rows if not self.distinct else None
            if source is not None and len(source) == len(projected):
                envs = []
                for orig, proj in zip(source, projected):
                    env = dict(orig)
                    env.update(proj)
                    envs.append(env)
            else:
                envs = [dict(row) for row in projected]
        indexed = list(zip(projected, envs))
        # Stable multi-key sort: apply keys right-to-left.
        for order_fn, descending in reversed(self.order_fns):
            indexed.sort(
                key=lambda pair, fn=order_fn: V.order_key(fn(pair[1], ctx)),
                reverse=descending,
            )
        return [row for row, _env in indexed]

    def _count(
        self, fn: CompiledExpr, keyword: str, ctx: ExecutionContext
    ) -> int:
        value = fn({}, ctx)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise CypherSyntaxError(
                f"{keyword} requires a non-negative integer literal"
            )
        return value


# -- CALL ------------------------------------------------------------------


class CallOp:
    """``CALL proc(args) YIELD ...``: cartesian product with procedure rows."""

    label = "call"

    def __init__(
        self,
        procedure: str,
        arg_fns: Tuple[CompiledExpr, ...],
        yield_items: Tuple[Tuple[str, Optional[str]], ...],
    ):
        self.procedure = procedure
        self.arg_fns = arg_fns
        self.yield_items = yield_items

    def run(
        self, columns: List[str], rows: List[Row], ctx: ExecutionContext
    ) -> Tuple[List[str], List[Row]]:
        proc = ctx.procedures.get(self.procedure)
        if proc is None:
            raise CypherRuntimeError(
                f"there is no procedure named `{self.procedure}`"
            )
        args = [fn({}, ctx) for fn in self.arg_fns]
        proc_columns, proc_rows = proc(ctx.graph, args)

        if self.yield_items:
            selected = []
            for name, alias in self.yield_items:
                if name not in proc_columns:
                    raise CypherSyntaxError(
                        f"procedure `{self.procedure}` does not yield `{name}`"
                    )
                selected.append((proc_columns.index(name), alias or name))
        else:
            selected = [(index, name) for index, name in enumerate(proc_columns)]

        out_columns = columns + [alias for _idx, alias in selected]
        out_rows: List[Row] = []
        for row in rows:
            for proc_row in proc_rows:
                new_row = dict(row)
                for index, alias in selected:
                    new_row[alias] = proc_row[index]
                out_rows.append(new_row)
        _tally(ctx, "call", len(out_rows))
        return out_columns, out_rows


# -- aggregate compilation -------------------------------------------------
#
# Mirrors Executor._eval_aggregate_expr / Executor._aggregate.  Every error
# the interpreter raises at evaluation time is raised at *run* time here too
# (via deferred closures), never at plan-build time — earlier clauses must
# get the chance to raise their own errors first.


def _fold_count(values: List[Any]) -> Any:
    return len(values)


def _fold_collect(values: List[Any]) -> Any:
    return values


def _fold_sum(values: List[Any]) -> Any:
    total: Any = 0
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CypherTypeError("sum() requires numbers")
        total = total + value
    return total


def _fold_avg(values: List[Any]) -> Any:
    if not values:
        return None
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CypherTypeError("avg() requires numbers")
    return sum(values) / len(values)


def _fold_min(values: List[Any]) -> Any:
    if not values:
        return None
    return sorted(values, key=V.order_key)[0]


def _fold_max(values: List[Any]) -> Any:
    if not values:
        return None
    return sorted(values, key=V.order_key)[-1]


def _make_stdev_fold(name: str, func: Callable[[List[float]], float]):
    def fold(values: List[Any]) -> Any:
        numbers = []
        for value in values:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise CypherTypeError(f"{name}() requires numbers")
            numbers.append(float(value))
        if len(numbers) < 2:
            return 0.0
        return func(numbers)

    return fold


_AGG_FOLDS: Dict[str, Callable[[List[Any]], Any]] = {
    "count": _fold_count,
    "collect": _fold_collect,
    "sum": _fold_sum,
    "avg": _fold_avg,
    "min": _fold_min,
    "max": _fold_max,
    "stdev": _make_stdev_fold("stdev", statistics.stdev),
    "stdevp": _make_stdev_fold("stdevp", statistics.pstdev),
}


def _compile_aggregate_call(call: ast.FunctionCall) -> Callable:
    name = call.name.lower()
    if name == "count" and not call.args:
        return lambda rows, ctx: len(rows)
    if len(call.args) != 1:
        message = f"{call.name}() takes exactly one argument"

        def run_arity(rows, ctx, _message=message):
            raise CypherSyntaxError(_message)

        return run_arity

    arg_fn = compile_expr(call.args[0])
    distinct = call.distinct
    fold = _AGG_FOLDS.get(name)
    unknown_message = f"unknown aggregate {call.name}()"

    def run(rows, ctx):
        values = []
        for row in rows:
            value = arg_fn(row, ctx)
            if value is not None:
                values.append(value)
        if distinct:
            seen = set()
            unique = []
            for value in values:
                key = V.equivalence_key(value)
                if key not in seen:
                    seen.add(key)
                    unique.append(value)
            values = unique
        if fold is None:
            # Defensive, like the interpreter's trailing raise: checked
            # after argument evaluation so errors surface in the same order.
            raise CypherSyntaxError(unknown_message)
        return fold(values)

    return run


def compile_aggregate(expr: ast.Expression) -> Callable:
    """Compile an aggregate-context projection item to ``(rows, ctx) -> value``.

    Aggregate recombination (``sum(x) + count(*)``) re-enters the plan's
    private tree-walking evaluator with literal-wrapped partial results —
    a cold path, executed once per group, where closure compilation would
    buy nothing.
    """
    if isinstance(expr, ast.CountStar):
        return lambda rows, ctx: len(rows)
    if isinstance(expr, ast.FunctionCall) and is_aggregate(expr.name):
        return _compile_aggregate_call(expr)
    if not has_aggregate(expr):
        fn = compile_expr(expr)

        def run_constant(rows, ctx):
            return fn(rows[0] if rows else {}, ctx)

        return run_constant
    if isinstance(expr, ast.Unary):
        inner = compile_aggregate(expr.operand)
        op = expr.op

        def run_unary(rows, ctx):
            value = inner(rows, ctx)
            return ctx.evaluator.evaluate(ast.Unary(op, ast.Literal(value)), {})

        return run_unary
    if isinstance(expr, ast.Binary):
        left = compile_aggregate(expr.left)
        right = compile_aggregate(expr.right)
        op = expr.op

        def run_binary(rows, ctx):
            lhs = left(rows, ctx)
            rhs = right(rows, ctx)
            return ctx.evaluator.evaluate(
                ast.Binary(op, _as_literal(lhs), _as_literal(rhs)), {}
            )

        return run_binary

    message = f"unsupported aggregate expression shape: {type(expr).__name__}"

    def run_unsupported(rows, ctx, _message=message):
        raise CypherSyntaxError(_message)

    return run_unsupported
