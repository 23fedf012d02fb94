"""Expression compilation: AST nodes to Python closures.

The tree-walking :class:`~repro.engine.evaluator.Evaluator` pays per-node
dispatch, envelope charging, and node-reference resolution on every
evaluation of every row.  Compiling an expression once into a closure tree
moves all of that to plan-build time: each closure does exactly the work of
the corresponding evaluator handler and nothing else.

Semantics are the evaluator's, verbatim — the closures share the evaluator's
own operator tables (``_BINOPS``, ``_CONNECTIVES``) and arithmetic helper
through a stateless module-level instance, so a semantic fix in the
interpreter is automatically a fix here.  The only behavioural difference is
cost accounting: the interpreter charges the resource envelope per AST node,
while compiled execution charges coarser per-row/per-extension steps in the
operators (see :mod:`repro.engine.plan.operators`).

The ``("__node_ref__", id)`` convention used by ``startNode``/``endNode`` is
resolved exactly where it can appear: immediately after a function call.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.cypher import ast
from repro.cypher.functions import (
    FunctionError,
    call_function,
    is_aggregate,
    lookup,
)
from repro.engine.errors import CypherRuntimeError, CypherTypeError
from repro.engine.evaluator import _BINOPS, _CONNECTIVES, Evaluator, _check_int64
from repro.engine.matcher import Matcher
from repro.graph import values as V
from repro.graph.model import Node, Relationship

__all__ = ["CompiledExpr", "compile_expr", "compile_predicate"]

# A compiled expression: (env, ctx) -> Cypher value.  ``env`` is the binding
# row (a plain dict) and ``ctx`` the ExecutionContext supplying the graph.
CompiledExpr = Callable[[Dict[str, Any], Any], Any]

# Stateless helper instance whose graph-independent methods (`_arithmetic`,
# `_in`, the `_op_*` comparison handlers) the closures reuse.  Its
# ``evaluate`` entry point is never called, so it never touches the graph,
# the envelope, or the probe tallies.
_OPS = Evaluator(None)  # type: ignore[arg-type]


_NOT_CONST = object()


def _fold_const(expr: ast.Expression) -> Any:
    """The constant value of a literal-only subtree, or ``_NOT_CONST``.

    Only shapes that can never raise fold: literals, and list/map literals
    whose elements all fold.  Folding shares one value object across
    evaluations; nothing in the value domain mutates operands in place, so
    the sharing is unobservable.
    """
    cls = expr.__class__
    if cls is ast.Literal:
        return expr.value
    if cls is ast.ListLiteral:
        items = []
        for item in expr.items:
            value = _fold_const(item)
            if value is _NOT_CONST:
                return _NOT_CONST
            items.append(value)
        return items
    if cls is ast.MapLiteral:
        pairs = {}
        for key, item in expr.items:
            value = _fold_const(item)
            if value is _NOT_CONST:
                return _NOT_CONST
            pairs[key] = value
        return pairs
    return _NOT_CONST


def compile_expr(expr: ast.Expression) -> CompiledExpr:
    """Compile *expr* into a closure with the evaluator's exact semantics."""
    constant = _fold_const(expr)
    if constant is not _NOT_CONST:
        return lambda env, ctx: constant
    handler = _COMPILERS.get(expr.__class__)
    if handler is not None:
        return handler(expr)
    # Unknown node kind: raise at evaluation time, like the interpreter.
    message = f"cannot evaluate {type(expr).__name__}"

    def unknown(env, ctx, _message=message):
        raise CypherRuntimeError(_message)

    return unknown


def compile_predicate(expr: ast.Expression) -> CompiledExpr:
    """Compile *expr* as a WHERE predicate yielding True/False/None."""
    fn = compile_expr(expr)

    def predicate(env, ctx):
        return V.coerce_to_boolean(fn(env, ctx))

    return predicate


# -- per-node compilers ----------------------------------------------------


def _c_literal(expr: ast.Literal) -> CompiledExpr:
    value = expr.value
    return lambda env, ctx: value


def _c_variable(expr: ast.Variable) -> CompiledExpr:
    name = expr.name

    def run(env, ctx):
        try:
            return env[name]
        except KeyError:
            raise CypherRuntimeError(f"variable `{name}` not defined")

    return run


def _c_property(expr: ast.PropertyAccess) -> CompiledExpr:
    key = expr.key

    # `var.key` — the overwhelmingly common shape — fuses the variable
    # lookup into the property closure: one call instead of two per access.
    if expr.subject.__class__ is ast.Variable:
        name = expr.subject.name

        def run_var(env, ctx):
            try:
                value = env[name]
            except KeyError:
                raise CypherRuntimeError(f"variable `{name}` not defined")
            cls = value.__class__
            if cls is Node or cls is Relationship:
                return value.properties.get(key)
            if value is None:
                return None
            if cls is dict or isinstance(value, dict):
                return value.get(key)
            if isinstance(value, (Node, Relationship)):
                return value.properties.get(key)
            raise CypherTypeError(
                f"cannot access property .{key} on {V.type_name(value)}"
            )

        return run_var

    subject = compile_expr(expr.subject)

    def run(env, ctx):
        value = subject(env, ctx)
        # Exact-class tests first: Node/Relationship are final in this
        # model, and graph elements dominate property access.
        cls = value.__class__
        if cls is Node or cls is Relationship:
            return value.properties.get(key)
        if value is None:
            return None
        if cls is dict or isinstance(value, dict):
            return value.get(key)
        if isinstance(value, (Node, Relationship)):
            return value.properties.get(key)
        raise CypherTypeError(
            f"cannot access property .{key} on {V.type_name(value)}"
        )

    return run


def _c_unary(expr: ast.Unary) -> CompiledExpr:
    operand = compile_expr(expr.operand)
    op = expr.op
    if op == "NOT":
        # ternary_not ∘ coerce_to_boolean inlined; non-boolean operands
        # still raise through coerce_to_boolean with the exact message.
        def run_not(env, ctx):
            value = operand(env, ctx)
            if value is None:
                return None
            if value.__class__ is not bool:
                V.coerce_to_boolean(value)
            return not value

        return run_not

    def run(env, ctx):
        value = operand(env, ctx)
        if value is None:
            return None
        if op == "-":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise CypherTypeError("unary minus requires a number")
            return _check_int64(-value)
        if op == "+":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise CypherTypeError("unary plus requires a number")
            return value
        raise CypherRuntimeError(f"unknown unary operator {op!r}")

    return run


def _c_binary(expr: ast.Binary) -> CompiledExpr:
    op = expr.op
    left = compile_expr(expr.left)
    right = compile_expr(expr.right)
    # Literal-only operands bind their value directly into the closure —
    # constants cannot raise, so skipping their "evaluation" is safe even
    # under Cypher's eager left-then-right order.
    lconst = _fold_const(expr.left)
    rconst = _fold_const(expr.right)

    connective = _CONNECTIVES.get(op)
    if connective is not None:
        # Cypher evaluates eagerly (observable through errors); both sides
        # always run, left first, exactly like the interpreter.
        if rconst is not _NOT_CONST:
            rbool = V.coerce_to_boolean(rconst)

            def run_connective_rc(env, ctx):
                return connective(V.coerce_to_boolean(left(env, ctx)), rbool)

            return run_connective_rc
        if lconst is not _NOT_CONST:
            lbool = V.coerce_to_boolean(lconst)

            def run_connective_lc(env, ctx):
                return connective(lbool, V.coerce_to_boolean(right(env, ctx)))

            return run_connective_lc

        # coerce_to_boolean inlined for the no-error case; non-boolean
        # operands still raise through it with the exact message.  AND/OR
        # additionally inline their Kleene tables (they dominate WHERE
        # clauses) so the hot path is closure + branches, zero calls.
        if op == "AND":
            def run_and(env, ctx):
                lhs = left(env, ctx)
                if lhs is not None and lhs.__class__ is not bool:
                    lhs = V.coerce_to_boolean(lhs)
                rhs = right(env, ctx)
                if rhs is not None and rhs.__class__ is not bool:
                    rhs = V.coerce_to_boolean(rhs)
                if lhs is False or rhs is False:
                    return False
                if lhs is None or rhs is None:
                    return None
                return True

            return run_and
        if op == "OR":
            def run_or(env, ctx):
                lhs = left(env, ctx)
                if lhs is not None and lhs.__class__ is not bool:
                    lhs = V.coerce_to_boolean(lhs)
                rhs = right(env, ctx)
                if rhs is not None and rhs.__class__ is not bool:
                    rhs = V.coerce_to_boolean(rhs)
                if lhs is True or rhs is True:
                    return True
                if lhs is None or rhs is None:
                    return None
                return False

            return run_or

        def run_connective(env, ctx):
            lhs = left(env, ctx)
            if lhs is not None and lhs.__class__ is not bool:
                lhs = V.coerce_to_boolean(lhs)
            rhs = right(env, ctx)
            if rhs is not None and rhs.__class__ is not bool:
                rhs = V.coerce_to_boolean(rhs)
            return connective(lhs, rhs)

        return run_connective

    # The hottest comparisons get direct closures over the values helpers —
    # one frame less than going through the evaluator's handler table, with
    # byte-identical semantics (these mirror Evaluator._op_* exactly).
    # Number/string/bool operands replicate ternary_equals' semantics
    # inline: exact-class checks (so bool-vs-int subclassing cannot slip
    # through), `x != x` as the NaN probe (ints are never NaN, and Cypher
    # says NaN equals nothing).  Everything else — lists, maps, graph
    # elements, mixed kinds — defers to the full helper.
    if op == "=":
        if rconst is not _NOT_CONST:
            rcls = None if rconst is None else rconst.__class__
            rnum = rcls is int or rcls is float
            rfast = rcls is str or rcls is bool

            def run_eq_rc(env, ctx):
                lhs = left(env, ctx)
                if lhs is None or rconst is None:
                    return None
                lcls = lhs.__class__
                if rnum and (lcls is int or lcls is float):
                    if lhs != lhs or rconst != rconst:
                        return False
                    return lhs == rconst
                if rfast and lcls is rcls:
                    return lhs == rconst
                return V.ternary_equals(lhs, rconst)

            return run_eq_rc

        def run_eq(env, ctx):
            lhs = left(env, ctx)
            rhs = right(env, ctx)
            if lhs is None or rhs is None:
                return None
            lcls = lhs.__class__
            rcls = rhs.__class__
            if (lcls is int or lcls is float) and (
                rcls is int or rcls is float
            ):
                if lhs != lhs or rhs != rhs:
                    return False
                return lhs == rhs
            if lcls is rcls:
                if lcls is str or lcls is bool:
                    return lhs == rhs
                if lcls is Node or lcls is Relationship:
                    # Graph elements compare by id (ternary_equals' rule);
                    # synthesized WHERE clauses lean on rel <> rel heavily.
                    return lhs.id == rhs.id
            return V.ternary_equals(lhs, rhs)

        return run_eq
    if op == "<>":
        if rconst is not _NOT_CONST:
            rcls = None if rconst is None else rconst.__class__
            rnum = rcls is int or rcls is float
            rfast = rcls is str or rcls is bool

            def run_neq_rc(env, ctx):
                lhs = left(env, ctx)
                if lhs is None or rconst is None:
                    return None
                lcls = lhs.__class__
                if rnum and (lcls is int or lcls is float):
                    if lhs != lhs or rconst != rconst:
                        return True
                    return lhs != rconst
                if rfast and lcls is rcls:
                    return lhs != rconst
                verdict = V.ternary_equals(lhs, rconst)
                return None if verdict is None else not verdict

            return run_neq_rc

        def run_neq(env, ctx):
            lhs = left(env, ctx)
            rhs = right(env, ctx)
            if lhs is None or rhs is None:
                return None
            lcls = lhs.__class__
            rcls = rhs.__class__
            if (lcls is int or lcls is float) and (
                rcls is int or rcls is float
            ):
                if lhs != lhs or rhs != rhs:
                    return True
                return lhs != rhs
            if lcls is rcls:
                if lcls is str or lcls is bool:
                    return lhs != rhs
                if lcls is Node or lcls is Relationship:
                    # Graph elements compare by id (ternary_equals' rule);
                    # synthesized WHERE clauses lean on rel <> rel heavily.
                    return lhs.id != rhs.id
            verdict = V.ternary_equals(lhs, rhs)
            return None if verdict is None else not verdict

        return run_neq
    if op in ("<", "<=", ">", ">="):
        import operator as _operator

        cmp = {
            "<": _operator.lt,
            "<=": _operator.le,
            ">": _operator.gt,
            ">=": _operator.ge,
        }[op]

        if rconst is not _NOT_CONST:
            def run_cmp_rc(env, ctx):
                verdict = V.ternary_compare(left(env, ctx), rconst)
                return None if verdict is None else cmp(verdict, 0)

            return run_cmp_rc

        def run_cmp(env, ctx):
            verdict = V.ternary_compare(left(env, ctx), right(env, ctx))
            return None if verdict is None else cmp(verdict, 0)

        return run_cmp

    handler = _BINOPS.get(op)
    if handler is not None:
        if rconst is not _NOT_CONST:
            def run_binop_rc(env, ctx):
                return handler(_OPS, left(env, ctx), rconst)

            return run_binop_rc

        def run_binop(env, ctx):
            return handler(_OPS, left(env, ctx), right(env, ctx))

        return run_binop

    if rconst is not _NOT_CONST:
        def run_arithmetic_rc(env, ctx):
            return _OPS._arithmetic(op, left(env, ctx), rconst)

        return run_arithmetic_rc

    def run_arithmetic(env, ctx):
        return _OPS._arithmetic(op, left(env, ctx), right(env, ctx))

    return run_arithmetic


def _c_is_null(expr: ast.IsNull) -> CompiledExpr:
    operand = compile_expr(expr.operand)
    negated = expr.negated

    def run(env, ctx):
        value = operand(env, ctx)
        return (value is not None) if negated else (value is None)

    return run


def _c_function(expr: ast.FunctionCall) -> CompiledExpr:
    name = expr.name
    if is_aggregate(name):
        def run_aggregate(env, ctx):
            raise CypherRuntimeError(
                f"aggregate {name}() not allowed in this context"
            )

        return run_aggregate

    arg_fns = tuple(compile_expr(arg) for arg in expr.args)

    # Resolve the function definition once at compile time.  Unknown names
    # stay on the dynamic call_function path so a function registered after
    # compilation still resolves, preserving the interpreter's behaviour.
    fdef = lookup(name)
    if fdef is None:
        def run_dynamic(env, ctx):
            value = call_function(name, [fn(env, ctx) for fn in arg_fns])
            if (
                value.__class__ is tuple
                and len(value) == 2
                and value[0] == "__node_ref__"
            ):
                return ctx.graph.node(value[1])
            return value

        return run_dynamic

    n_args = len(arg_fns)
    if n_args < fdef.arity_min or (
        fdef.arity_max is not None and n_args > fdef.arity_max
    ):
        # Arity is static; the error still fires at evaluation time (after
        # argument evaluation), exactly like the interpreter's.
        message = (
            f"{fdef.name}() called with {n_args} argument(s); expected "
            f"{fdef.arity_min}"
            + (f"..{fdef.arity_max}" if fdef.arity_max != fdef.arity_min else "")
        )

        def run_bad_arity(env, ctx):
            for fn in arg_fns:
                fn(env, ctx)
            raise FunctionError(message)

        return run_bad_arity

    impl = fdef.impl
    propagates_null = fdef.propagates_null
    # startNode/endNode return ("__node_ref__", id); they are the only
    # producers, so only their call sites need the resolution step.
    returns_node_ref = fdef.name.lower() in ("startnode", "endnode")

    # One- and two-argument calls (the bulk of synthesized workloads) get
    # closures without the args-list allocation; node-ref producers stay on
    # the generic path so the resolution step lives in exactly one place.
    if not returns_node_ref:
        if n_args == 1:
            arg0 = arg_fns[0]
            if propagates_null:
                def run_1(env, ctx):
                    value = arg0(env, ctx)
                    return None if value is None else impl(value)

                return run_1

            def run_1_total(env, ctx):
                return impl(arg0(env, ctx))

            return run_1_total
        if n_args == 2:
            arg0, arg1 = arg_fns
            if propagates_null:
                def run_2(env, ctx):
                    value0 = arg0(env, ctx)
                    value1 = arg1(env, ctx)
                    if value0 is None or value1 is None:
                        return None
                    return impl(value0, value1)

                return run_2

            def run_2_total(env, ctx):
                return impl(arg0(env, ctx), arg1(env, ctx))

            return run_2_total

    def run(env, ctx):
        args = [fn(env, ctx) for fn in arg_fns]
        if propagates_null and None in args:
            return None
        value = impl(*args)
        if returns_node_ref and value is not None:
            return ctx.graph.node(value[1])
        return value

    return run


def _c_count_star(expr: ast.CountStar) -> CompiledExpr:
    def run(env, ctx):
        raise CypherRuntimeError("count(*) not allowed in this context")

    return run


def _c_list_literal(expr: ast.ListLiteral) -> CompiledExpr:
    item_fns = tuple(compile_expr(item) for item in expr.items)

    def run(env, ctx):
        return [fn(env, ctx) for fn in item_fns]

    return run


def _c_map_literal(expr: ast.MapLiteral) -> CompiledExpr:
    item_fns = tuple((key, compile_expr(value)) for key, value in expr.items)

    def run(env, ctx):
        return {key: fn(env, ctx) for key, fn in item_fns}

    return run


def _c_comprehension(expr: ast.ListComprehension) -> CompiledExpr:
    source_fn = compile_expr(expr.source)
    where_fn = compile_expr(expr.where) if expr.where is not None else None
    proj_fn = (
        compile_expr(expr.projection) if expr.projection is not None else None
    )
    variable = expr.variable

    def run(env, ctx):
        source = source_fn(env, ctx)
        if source is None:
            return None
        if not isinstance(source, list):
            raise CypherTypeError(
                f"list comprehension requires a list, got {V.type_name(source)}"
            )
        out = []
        for item in source:
            inner = dict(env)
            inner[variable] = item
            if where_fn is not None:
                if V.coerce_to_boolean(where_fn(inner, ctx)) is not True:
                    continue
            out.append(proj_fn(inner, ctx) if proj_fn is not None else item)
        return out

    return run


def _c_index(expr: ast.ListIndex) -> CompiledExpr:
    subject_fn = compile_expr(expr.subject)
    index_fn = compile_expr(expr.index)

    def run(env, ctx):
        subject = subject_fn(env, ctx)
        index = index_fn(env, ctx)
        if subject is None or index is None:
            return None
        if isinstance(subject, dict):
            if not isinstance(index, str):
                raise CypherTypeError("map index must be a string")
            return subject.get(index)
        if isinstance(subject, (list, str)):
            if isinstance(index, bool) or not isinstance(index, int):
                raise CypherTypeError("list index must be an integer")
            if index < -len(subject) or index >= len(subject):
                return None
            return subject[index]
        raise CypherTypeError(f"cannot index {V.type_name(subject)}")

    return run


def _c_slice(expr: ast.ListSlice) -> CompiledExpr:
    subject_fn = compile_expr(expr.subject)
    has_start = expr.start is not None
    has_end = expr.end is not None
    start_fn = compile_expr(expr.start) if has_start else None
    end_fn = compile_expr(expr.end) if has_end else None

    def run(env, ctx):
        subject = subject_fn(env, ctx)
        if subject is None:
            return None
        if not isinstance(subject, (list, str)):
            raise CypherTypeError(f"cannot slice {V.type_name(subject)}")
        start = start_fn(env, ctx) if has_start else None
        end = end_fn(env, ctx) if has_end else None
        if (has_start and start is None) or (has_end and end is None):
            return None
        for bound in (start, end):
            if bound is not None and (
                isinstance(bound, bool) or not isinstance(bound, int)
            ):
                raise CypherTypeError("slice bounds must be integers")
        return subject[slice(start, end)]

    return run


def _c_case(expr: ast.CaseExpression) -> CompiledExpr:
    subject_fn = (
        compile_expr(expr.subject) if expr.subject is not None else None
    )
    alternatives = tuple(
        (compile_expr(alt.when), compile_expr(alt.then))
        for alt in expr.alternatives
    )
    default_fn = (
        compile_expr(expr.default) if expr.default is not None else None
    )

    if subject_fn is not None:
        def run_simple(env, ctx):
            subject = subject_fn(env, ctx)
            for when_fn, then_fn in alternatives:
                if V.ternary_equals(subject, when_fn(env, ctx)) is True:
                    return then_fn(env, ctx)
            return default_fn(env, ctx) if default_fn is not None else None

        return run_simple

    def run_generic(env, ctx):
        for when_fn, then_fn in alternatives:
            if V.coerce_to_boolean(when_fn(env, ctx)) is True:
                return then_fn(env, ctx)
        return default_fn(env, ctx) if default_fn is not None else None

    return run_generic


def _c_pattern_predicate(expr: ast.PatternPredicate) -> CompiledExpr:
    pattern = expr.pattern
    names = tuple(pattern.variables())

    def run(env, ctx):
        # Existential check, mirroring Evaluator._pattern_predicate: a
        # fresh matcher with default uniqueness, constrained by the row.
        for name in names:
            if name in env and env[name] is None:
                return False
        return Matcher(ctx.graph).exists((pattern,), env)

    return run


def _c_labels_predicate(expr: ast.LabelsPredicate) -> CompiledExpr:
    subject_fn = compile_expr(expr.subject)
    labels = expr.labels

    def run(env, ctx):
        subject = subject_fn(env, ctx)
        if subject is None:
            return None
        if not isinstance(subject, Node):
            raise CypherTypeError("label predicate requires a node")
        return all(label in subject.labels for label in labels)

    return run


_COMPILERS = {
    ast.Literal: _c_literal,
    ast.Variable: _c_variable,
    ast.PropertyAccess: _c_property,
    ast.Unary: _c_unary,
    ast.Binary: _c_binary,
    ast.IsNull: _c_is_null,
    ast.FunctionCall: _c_function,
    ast.CountStar: _c_count_star,
    ast.ListLiteral: _c_list_literal,
    ast.MapLiteral: _c_map_literal,
    ast.ListComprehension: _c_comprehension,
    ast.ListIndex: _c_index,
    ast.ListSlice: _c_slice,
    ast.CaseExpression: _c_case,
    ast.PatternPredicate: _c_pattern_predicate,
    ast.LabelsPredicate: _c_labels_predicate,
}
