"""Query planner: one-shot compilation of a Cypher AST into an operator plan.

``build_plan`` walks the clause list once, compiling every expression into a
closure (:mod:`.compiler`) and every clause into an operator
(:mod:`.operators`).  Read-only queries compile; anything containing a write
clause — or a clause shape the pipeline does not model — yields a
:class:`FallbackPlan` and the engine runs the reference interpreter instead.

Two families of access-path optimisation are planned here, both proven to
preserve interpreter semantics *exactly* (results, row order, and raised
errors — see ``docs/execution.md`` for the full safety argument):

* **Scan narrowing.**  A chain's first node normally scans the label index
  (or all nodes).  When the node carries a literal property map, or the
  clause's WHERE contains a top-level ``n.key = literal`` conjunct that is
  provably total, the scan instead reads the lazily-built property index on
  :class:`~repro.graph.model.PropertyGraph`.  Every candidate still passes
  through the full label/property/binding checks, so narrowing can only
  skip work the interpreter would have rejected anyway.

* **Typed adjacency.**  A relationship element with exactly one type
  enumerates the per-type adjacency cache instead of filtering the full
  sorted adjacency, in the same position the interpreter applies its type
  check (before property evaluation).

Build-time never raises for a well-formed AST: even statically detectable
errors (duplicate projection columns) compile into an operator that raises
at run time, preserving the interpreter's clause-by-clause error order.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cypher import ast
from repro.engine.binding import ResultSet
from repro.engine.envelope import ENVELOPE
from repro.engine.errors import CypherSyntaxError
from repro.engine.plan.compiler import compile_expr
from repro.engine.plan.operators import (
    CallOp,
    ChainSpec,
    ExecutionContext,
    MatchOp,
    NodeSpec,
    ProjectOp,
    RelSpec,
    UnwindOp,
    _tally,
    compile_aggregate,
)
from repro.graph import values as V
from repro.graph.model import PropertyGraph

__all__ = ["CompiledPlan", "UnionPlan", "FallbackPlan", "build_plan"]


class CompiledPlan:
    """A straight-line pipeline of operators for one (non-union) query."""

    is_fallback = False

    def __init__(self, ops: List[Any], returning: bool, ordered: bool):
        self.ops = ops
        self.returning = returning
        self.ordered = ordered

    def execute(self, ctx: ExecutionContext) -> ResultSet:
        columns: List[str] = []
        rows: List[Dict[str, Any]] = [{}]
        op_profile = ctx.op_profile
        if op_profile is None:
            for op in self.ops:
                columns, rows = op.run(columns, rows, ctx)
        else:
            # Boundary-level operator profiling (repro.obs.profile): wall
            # time per operator plus the evaluation-step delta metered by
            # the resource envelope (the engine arms an unreachable ceiling
            # budget during profiled execution, so the counter always
            # ticks).  Pure observation — no randomness, no control-flow
            # change — so results stay byte-identical with profiling off.
            for op in self.ops:
                steps_before = ENVELOPE.steps
                started = perf_counter()
                columns, rows = op.run(columns, rows, ctx)
                op_profile.record(
                    op.label,
                    ENVELOPE.steps - steps_before,
                    perf_counter() - started,
                )
        if self.returning:
            return ResultSet(
                columns,
                [[row.get(col) for col in columns] for row in rows],
                ordered=self.ordered,
            )
        return ResultSet([], [])


class UnionPlan:
    """``UNION [ALL]``: both sides execute, then columns check and merge."""

    is_fallback = False

    def __init__(self, left: Any, right: Any, all: bool):
        self.left = left
        self.right = right
        self.all = all

    def execute(self, ctx: ExecutionContext) -> ResultSet:
        left = self.left.execute(ctx)
        right = self.right.execute(ctx)
        op_profile = ctx.op_profile
        if op_profile is None:
            return self._merge(left, right, ctx)
        steps_before = ENVELOPE.steps
        started = perf_counter()
        merged = self._merge(left, right, ctx)
        op_profile.record(
            "union", ENVELOPE.steps - steps_before, perf_counter() - started
        )
        return merged

    def _merge(
        self, left: ResultSet, right: ResultSet, ctx: ExecutionContext
    ) -> ResultSet:
        if left.columns != right.columns:
            raise CypherSyntaxError(
                "UNION requires identical column names on both sides"
            )
        combined = ResultSet.union_all([left, right])
        if self.all:
            _tally(ctx, "union", len(combined.rows))
            return combined
        seen = set()
        rows = []
        for row in combined.rows:
            key = tuple(V.equivalence_key(value) for value in row)
            if key not in seen:
                seen.add(key)
                rows.append(row)
        _tally(ctx, "union", len(rows))
        return ResultSet(left.columns, rows)


class FallbackPlan:
    """Marker plan: the engine must run the reference interpreter instead."""

    is_fallback = True

    def __init__(self, reason: str):
        self.reason = reason

    def execute(self, ctx: ExecutionContext) -> ResultSet:
        raise RuntimeError(f"fallback plan is not executable: {self.reason}")


class _RaiseOp:
    """Defers a statically detected clause error to its run-time position."""

    def __init__(self, exc_type: type, message: str):
        self.exc_type = exc_type
        self.message = message

    def run(self, columns, rows, ctx):
        raise self.exc_type(self.message)


_WRITE_CLAUSES = (ast.Create, ast.SetClause, ast.Delete, ast.Remove, ast.Merge)

_SAFE_COMPARISONS = {
    "=", "<>", "<", "<=", ">", ">=",
    "STARTS WITH", "ENDS WITH", "CONTAINS",
}


def _has_write_clause(query) -> bool:
    if isinstance(query, ast.UnionQuery):
        return _has_write_clause(query.left) or _has_write_clause(query.right)
    return any(isinstance(clause, _WRITE_CLAUSES) for clause in query.clauses)


def build_plan(query, *, enforce_rel_uniqueness: bool = True):
    """Compile *query* into an executable plan, or a FallbackPlan."""
    if isinstance(query, ast.UnionQuery):
        left = build_plan(query.left, enforce_rel_uniqueness=enforce_rel_uniqueness)
        right = build_plan(query.right, enforce_rel_uniqueness=enforce_rel_uniqueness)
        if left.is_fallback:
            return left
        if right.is_fallback:
            return right
        return UnionPlan(left, right, query.all)

    if _has_write_clause(query):
        return FallbackPlan("write clause")

    ops: List[Any] = []
    columns: List[str] = []
    # Static value-kind per column: "node" / "rel" / "path" / "any".  Used
    # only to prove pushdown safety; run-time checks remain authoritative.
    kinds: Dict[str, str] = {}

    for clause in query.clauses:
        if isinstance(clause, ast.Match):
            op, columns, kinds = _compile_match(
                clause, columns, kinds, enforce_rel_uniqueness
            )
            ops.append(op)
        elif isinstance(clause, ast.Unwind):
            ops.append(UnwindOp(compile_expr(clause.expression), clause.alias))
            if clause.alias not in columns:
                columns = columns + [clause.alias]
            kinds = dict(kinds)
            kinds[clause.alias] = "any"
        elif isinstance(clause, (ast.With, ast.Return)):
            compiled = _compile_project(
                clause, kinds, is_with=isinstance(clause, ast.With)
            )
            if compiled is None:
                # Duplicate projection columns: raise when execution reaches
                # this clause, after earlier clauses had their say.
                ops.append(
                    _RaiseOp(
                        CypherSyntaxError, "duplicate column name in projection"
                    )
                )
                break
            op, columns, kinds = compiled
            ops.append(op)
        elif isinstance(clause, ast.Call):
            if not clause.yield_items and clause is not query.clauses[-1]:
                # Bare CALL mid-query adds columns only known at run time,
                # which would invalidate the static analysis below.
                return FallbackPlan("CALL without YIELD before other clauses")
            aliases = [alias or name for name, alias in clause.yield_items]
            ops.append(
                CallOp(
                    clause.procedure,
                    tuple(compile_expr(arg) for arg in clause.args),
                    clause.yield_items,
                )
            )
            columns = columns + aliases
            kinds = dict(kinds)
            for alias in aliases:
                kinds[alias] = "any"
        else:
            return FallbackPlan(f"unsupported clause {type(clause).__name__}")

    last = query.clauses[-1] if query.clauses else None
    returning = isinstance(last, ast.Return) and not (
        ops and isinstance(ops[-1], _RaiseOp)
    )
    ordered = returning and bool(last.order_by)
    return CompiledPlan(ops, returning, ordered)


# -- WITH / RETURN compilation ---------------------------------------------


def _compile_project(
    clause, kinds: Dict[str, str], is_with: bool
) -> Optional[Tuple[ProjectOp, List[str], Dict[str, str]]]:
    """Compile a projection clause; None signals duplicate output columns."""
    items = clause.items
    aggregated = any(item.aggregated for item in items)
    out_columns = [item.column for item in items]
    if len(set(out_columns)) != len(out_columns):
        return None

    plain_items = [
        (col, compile_expr(item.expression))
        for col, item in zip(out_columns, items)
    ]
    agg_items = None
    if aggregated:
        agg_items = [
            (
                col,
                compile_aggregate(item.expression) if item.aggregated else None,
            )
            for col, item in zip(out_columns, items)
        ]
    order_fns = [
        (compile_expr(order.expression), order.descending)
        for order in clause.order_by
    ]
    skip_fn = compile_expr(clause.skip) if clause.skip is not None else None
    limit_fn = compile_expr(clause.limit) if clause.limit is not None else None
    where_fn = None
    if is_with and clause.where is not None:
        where_fn = compile_expr(clause.where)

    op = ProjectOp(
        out_columns,
        plain_items,
        agg_items,
        clause.distinct,
        order_fns,
        skip_fn,
        limit_fn,
        where_fn,
    )
    # Projections rebuild scope from scratch; plain variable pass-throughs
    # keep their source kind, everything else degrades to "any".
    new_kinds: Dict[str, str] = {}
    for col, item in zip(out_columns, items):
        expr = item.expression
        if isinstance(expr, ast.Variable):
            new_kinds[col] = kinds.get(expr.name, "any")
        else:
            new_kinds[col] = "any"
    return op, out_columns, new_kinds


# -- MATCH compilation -----------------------------------------------------


def _compile_match(
    clause: ast.Match,
    columns: List[str],
    kinds: Dict[str, str],
    enforce_rel_uniqueness: bool,
) -> Tuple[MatchOp, List[str], Dict[str, str]]:
    new_vars: List[str] = []
    for pattern in clause.patterns:
        for name in pattern.variables():
            if name not in columns and name not in new_vars:
                new_vars.append(name)

    # Static walk over the patterns: track the kind each variable will hold
    # and whether exploration can raise a bound-variable type error.  Both
    # feed the WHERE-pushdown safety proof; neither changes run-time checks.
    walk_kinds = dict(kinds)
    hazard = False
    all_maps_literal = True
    first_unbound: List[bool] = []
    for pattern in clause.patterns:
        first = pattern.nodes[0]
        if first.variable:
            if first.variable in walk_kinds:
                first_unbound.append(False)
                if walk_kinds[first.variable] != "node":
                    hazard = True  # chain-first non-node raises at run time
            else:
                first_unbound.append(True)
                walk_kinds[first.variable] = "node"
        else:
            first_unbound.append(True)
        for node in pattern.nodes:
            if node.properties is not None:
                for _key, value_expr in node.properties.items:
                    if not isinstance(value_expr, ast.Literal):
                        all_maps_literal = False
        for index, rel in enumerate(pattern.relationships):
            if rel.variable:
                if rel.variable in walk_kinds:
                    if walk_kinds[rel.variable] != "rel":
                        hazard = True  # bound non-relationship raises
                else:
                    walk_kinds[rel.variable] = "rel"
            if rel.properties is not None:
                for _key, value_expr in rel.properties.items:
                    if not isinstance(value_expr, ast.Literal):
                        all_maps_literal = False
            target = pattern.nodes[index + 1]
            # Interior bound nodes merely filter (no raise), so no hazard.
            if target.variable and target.variable not in walk_kinds:
                walk_kinds[target.variable] = "node"
        if pattern.path_variable:
            # The matcher overwrites the path variable unconditionally.
            walk_kinds[pattern.path_variable] = "path"

    # WHERE pushdown is only safe when skipping a candidate subtree cannot
    # hide an error: every conjunct total, every property map literal, no
    # bound-variable type hazards, every referenced variable in scope.
    where_safe = False
    conjuncts: List[ast.Expression] = []
    if clause.where is not None and all_maps_literal and not hazard:
        scope = set(walk_kinds)
        conjuncts = _conjuncts(clause.where)
        where_safe = all(_safe_conjunct(c, walk_kinds, scope) for c in conjuncts)

    index_conjuncts: List[Tuple[str, str, Any]] = []
    if where_safe:
        for conjunct in conjuncts:
            lookup = _eq_prop_literal(conjunct)
            if lookup is not None:
                index_conjuncts.append(lookup)

    # Binding-position map for conjunct placement.  Position 0 is "before
    # any scan" (pre-existing columns); each first node, each expansion
    # step, and each path-variable binding gets the next position.  A
    # conjunct is evaluated at the *latest* position any of its variables
    # is written — path variables are overwritten at chain end, so they pin
    # conjuncts there even when the name pre-existed.
    var_last_write = {name: 0 for name in columns}
    position = 0
    pattern_positions: List[Tuple[int, List[int], Optional[int]]] = []
    for pattern in clause.patterns:
        position += 1
        first_pos = position
        first = pattern.nodes[0]
        if first.variable and first.variable not in var_last_write:
            var_last_write[first.variable] = first_pos
        step_positions: List[int] = []
        for index, rel in enumerate(pattern.relationships):
            position += 1
            step_positions.append(position)
            if rel.variable and rel.variable not in var_last_write:
                var_last_write[rel.variable] = position
            target = pattern.nodes[index + 1]
            if target.variable and target.variable not in var_last_write:
                var_last_write[target.variable] = position
        end_pos: Optional[int] = None
        if pattern.path_variable:
            position += 1
            end_pos = position
            var_last_write[pattern.path_variable] = end_pos
        pattern_positions.append((first_pos, step_positions, end_pos))

    filter_buckets: Dict[int, List[Callable]] = {}
    if where_safe:
        for conjunct in conjuncts:
            names: set = set()
            _collect_conjunct_vars(conjunct, names)
            place_at = max(
                (var_last_write[name] for name in names), default=0
            )
            filter_buckets.setdefault(place_at, []).append(
                compile_expr(conjunct)
            )

    def bucket(pos: int) -> Optional[Tuple[Callable, ...]]:
        fns = filter_buckets.get(pos)
        return tuple(fns) if fns else None

    chains = []
    for pattern_index, pattern in enumerate(clause.patterns):
        unbound = first_unbound[pattern_index]
        first_pos, step_positions, end_pos = pattern_positions[pattern_index]
        first = pattern.nodes[0]
        index_lookup = _map_index_lookup(first)
        if index_lookup is None and unbound and first.variable:
            for var, key, value in index_conjuncts:
                if var == first.variable and walk_kinds.get(var) == "node":
                    index_lookup = (key, value)
                    break
        first_spec = NodeSpec(
            first.variable,
            first.labels,
            _compile_props(first.properties),
            scan=_build_scan(first, index_lookup),
            filters=bucket(first_pos),
        )
        steps = []
        for index, rel in enumerate(pattern.relationships):
            target = pattern.nodes[index + 1]
            typed = len(rel.types) == 1
            steps.append(
                (
                    RelSpec(
                        rel.variable,
                        rel.types,
                        check_types=not typed,
                        prop_checks=_compile_props(rel.properties),
                        direction=rel.direction,
                        adjacency_type=rel.types[0] if typed else None,
                    ),
                    NodeSpec(
                        target.variable,
                        target.labels,
                        _compile_props(target.properties),
                        filters=bucket(step_positions[index]),
                    ),
                )
            )
        chains.append(
            ChainSpec(
                first_spec,
                tuple(steps),
                pattern.path_variable,
                end_filters=bucket(end_pos) if end_pos is not None else None,
            )
        )

    if where_safe:
        # Every conjunct was placed at a binding position (or position 0);
        # the completion-time WHERE is fully decomposed.
        where_fn = None
    else:
        where_fn = (
            compile_expr(clause.where) if clause.where is not None else None
        )
    op = MatchOp(
        tuple(chains),
        new_vars,
        where_fn,
        clause.optional,
        enforce_rel_uniqueness,
        pre_filters=bucket(0),
    )
    return op, columns + new_vars, walk_kinds


def _compile_props(
    properties: Optional[ast.MapLiteral],
) -> Optional[Tuple[Tuple[str, Callable], ...]]:
    if properties is None:
        return None
    return tuple(
        (key, compile_expr(value)) for key, value in properties.items
    )


def _map_index_lookup(node: ast.NodePattern) -> Optional[Tuple[str, Any]]:
    """Property-index lookup derived from the node's own literal map.

    Only the *first* map entry is eligible: the matcher checks entries in
    order and stops at the first mismatch, so narrowing on the first entry
    can never skip evaluation the interpreter would have performed.
    """
    if node.properties is None or not node.properties.items:
        return None
    key, value_expr = node.properties.items[0]
    if not isinstance(value_expr, ast.Literal):
        return None
    if PropertyGraph.property_index_key(value_expr.value) is None:
        return None
    return key, value_expr.value


def _build_scan(
    node: ast.NodePattern, index_lookup: Optional[Tuple[str, Any]]
) -> Callable:
    if index_lookup is not None:
        key, value = index_lookup

        def scan_index(ctx, env):
            return ctx.graph.nodes_with_property_sorted(key, value)

        return scan_index
    if node.labels:
        label = node.labels[0]

        def scan_label(ctx, env):
            return ctx.graph.nodes_with_label_sorted(label)

        return scan_label

    def scan_all(ctx, env):
        return ctx.graph.nodes_sorted()

    return scan_all




# -- WHERE pushdown safety -------------------------------------------------


def _conjuncts(expr: ast.Expression) -> List[ast.Expression]:
    if isinstance(expr, ast.Binary) and expr.op == "AND":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _collect_conjunct_vars(expr: ast.Expression, out: set) -> None:
    """Variable names a *safe* conjunct reads (safe shapes only)."""
    if isinstance(expr, ast.Variable):
        out.add(expr.name)
    elif isinstance(expr, ast.PropertyAccess):
        if isinstance(expr.subject, ast.Variable):
            out.add(expr.subject.name)
    elif isinstance(expr, ast.Binary):
        _collect_conjunct_vars(expr.left, out)
        _collect_conjunct_vars(expr.right, out)
    elif isinstance(expr, ast.Unary):
        _collect_conjunct_vars(expr.operand, out)
    elif isinstance(expr, ast.IsNull):
        _collect_conjunct_vars(expr.operand, out)
    elif isinstance(expr, ast.LabelsPredicate):
        if isinstance(expr.subject, ast.Variable):
            out.add(expr.subject.name)
    # Literals and literal-only lists carry no variables.


def _safe_value(
    expr: ast.Expression, kinds: Dict[str, str], scope: set
) -> bool:
    """True when evaluating *expr* in any row environment cannot raise."""
    if isinstance(expr, ast.Literal):
        return True
    if isinstance(expr, ast.Variable):
        return expr.name in scope
    if isinstance(expr, ast.PropertyAccess):
        subject = expr.subject
        return (
            isinstance(subject, ast.Variable)
            and subject.name in scope
            and kinds.get(subject.name) in ("node", "rel")
        )
    return False


def _safe_conjunct(
    expr: ast.Expression, kinds: Dict[str, str], scope: set
) -> bool:
    """True when *expr* is total (never raises) over any row environment.

    Comparison and string operators over safe values are total because
    ``ternary_equals``/``ternary_compare`` and the string handlers return
    null for type mismatches instead of raising.  ``=~`` is excluded (a
    non-string pattern raises); so is any function call or arithmetic.
    """
    if isinstance(expr, ast.Literal):
        return isinstance(expr.value, bool) or expr.value is None
    if isinstance(expr, ast.Binary):
        if expr.op in ("AND", "OR", "XOR"):
            return _safe_conjunct(expr.left, kinds, scope) and _safe_conjunct(
                expr.right, kinds, scope
            )
        if expr.op in _SAFE_COMPARISONS:
            return _safe_value(expr.left, kinds, scope) and _safe_value(
                expr.right, kinds, scope
            )
        if expr.op == "IN":
            return (
                _safe_value(expr.left, kinds, scope)
                and isinstance(expr.right, ast.ListLiteral)
                and all(
                    isinstance(item, ast.Literal) for item in expr.right.items
                )
            )
        return False
    if isinstance(expr, ast.Unary):
        return expr.op == "NOT" and _safe_conjunct(expr.operand, kinds, scope)
    if isinstance(expr, ast.IsNull):
        return _safe_value(expr.operand, kinds, scope)
    if isinstance(expr, ast.LabelsPredicate):
        subject = expr.subject
        return (
            isinstance(subject, ast.Variable)
            and subject.name in scope
            and kinds.get(subject.name) == "node"
        )
    return False


def _eq_prop_literal(
    expr: ast.Expression,
) -> Optional[Tuple[str, str, Any]]:
    """Extract ``(var, key, literal)`` from ``var.key = literal`` (either way)."""
    if not (isinstance(expr, ast.Binary) and expr.op == "="):
        return None
    for prop, literal in ((expr.left, expr.right), (expr.right, expr.left)):
        if (
            isinstance(prop, ast.PropertyAccess)
            and isinstance(prop.subject, ast.Variable)
            and isinstance(literal, ast.Literal)
            and PropertyGraph.property_index_key(literal.value) is not None
        ):
            return prop.subject.name, prop.key, literal.value
    return None
