"""Render Cypher ASTs to query text.

The printer produces openCypher-conformant text that the lexer/parser in this
package round-trips; it is also what the simulated GDB drivers receive, and
what the bug reports quote.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.cypher import ast

__all__ = ["print_expression", "print_pattern", "print_clause", "print_query"]


def _print_literal(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    if isinstance(value, float):
        # Cypher has no literal spelling for non-finite floats; emit an
        # expression that evaluates to them instead (as drivers do).
        if value != value:  # NaN
            return "((0.0) / (0.0))"
        if value == float("inf"):
            return "((1.0) / (0.0))"
        if value == float("-inf"):
            return "((-1.0) / (0.0))"
        # Keep finite floats round-trippable; repr() is the shortest exact form.
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, list):
        return "[" + ", ".join(_print_literal(v) for v in value) + "]"
    if isinstance(value, dict):
        inner = ", ".join(f"{k}: {_print_literal(v)}" for k, v in value.items())
        return "{" + inner + "}"
    raise TypeError(f"cannot print literal of type {type(value)!r}")


def print_expression(expr: ast.Expression) -> str:
    """Render an expression node to Cypher text."""
    try:
        printer = _EXPRESSIONS[expr.__class__]
    except KeyError:
        raise TypeError(f"cannot print expression of type {type(expr)!r}") from None
    return printer(expr)


# -- expressions: one printer per node class, in ``_EXPRESSIONS`` -----------


def _literal(expr: ast.Literal) -> str:
    return _print_literal(expr.value)


def _variable(expr: ast.Variable) -> str:
    return expr.name


def _property(expr: ast.PropertyAccess) -> str:
    subject = expr.subject
    text = print_expression(subject)
    if subject.__class__ is ast.Variable or subject.__class__ is ast.PropertyAccess:
        return f"{text}.{expr.key}"
    return f"({text}).{expr.key}"


def _unary(expr: ast.Unary) -> str:
    text = print_expression(expr.operand)
    if expr.op == "NOT":
        return f"(NOT ({text}))"
    return f"({expr.op}({text}))"


def _binary(expr: ast.Binary) -> str:
    left = print_expression(expr.left)
    right = print_expression(expr.right)
    return f"(({left}) {expr.op} ({right}))"


def _is_null(expr: ast.IsNull) -> str:
    keyword = "IS NOT NULL" if expr.negated else "IS NULL"
    return f"(({print_expression(expr.operand)}) {keyword})"


def _function(expr: ast.FunctionCall) -> str:
    args = ", ".join([print_expression(arg) for arg in expr.args])
    distinct = "DISTINCT " if expr.distinct else ""
    return f"{expr.name}({distinct}{args})"


def _count_star(expr: ast.CountStar) -> str:
    return "count(*)"


def _list(expr: ast.ListLiteral) -> str:
    return "[" + ", ".join([print_expression(item) for item in expr.items]) + "]"


def _map(expr: ast.MapLiteral) -> str:
    return "{" + ", ".join([
        f"{key}: {print_expression(value)}" for key, value in expr.items
    ]) + "}"


def _comprehension(expr: ast.ListComprehension) -> str:
    out = f"[{expr.variable} IN {print_expression(expr.source)}"
    if expr.where is not None:
        out += f" WHERE {print_expression(expr.where)}"
    if expr.projection is not None:
        out += f" | {print_expression(expr.projection)}"
    return out + "]"


def _index(expr: ast.ListIndex) -> str:
    return f"({print_expression(expr.subject)})[{print_expression(expr.index)}]"


def _slice(expr: ast.ListSlice) -> str:
    start = print_expression(expr.start) if expr.start is not None else ""
    end = print_expression(expr.end) if expr.end is not None else ""
    return f"({print_expression(expr.subject)})[{start}..{end}]"


def _case(expr: ast.CaseExpression) -> str:
    parts: List[str] = ["CASE"]
    if expr.subject is not None:
        parts.append(print_expression(expr.subject))
    for alt in expr.alternatives:
        parts.append(
            f"WHEN {print_expression(alt.when)} THEN {print_expression(alt.then)}"
        )
    if expr.default is not None:
        parts.append(f"ELSE {print_expression(expr.default)}")
    parts.append("END")
    return "(" + " ".join(parts) + ")"


def _pattern_predicate(expr: ast.PatternPredicate) -> str:
    return print_pattern(expr.pattern)


def _labels(expr: ast.LabelsPredicate) -> str:
    labels = "".join(f":{label}" for label in expr.labels)
    return f"({print_expression(expr.subject)}{labels})"


_EXPRESSIONS: Dict[type, Callable[[Any], str]] = {
    ast.Literal: _literal,
    ast.Variable: _variable,
    ast.PropertyAccess: _property,
    ast.Unary: _unary,
    ast.Binary: _binary,
    ast.IsNull: _is_null,
    ast.FunctionCall: _function,
    ast.CountStar: _count_star,
    ast.ListLiteral: _list,
    ast.MapLiteral: _map,
    ast.ListComprehension: _comprehension,
    ast.ListIndex: _index,
    ast.ListSlice: _slice,
    ast.CaseExpression: _case,
    ast.PatternPredicate: _pattern_predicate,
    ast.LabelsPredicate: _labels,
}


def _print_node_pattern(node: ast.NodePattern) -> str:
    parts = node.variable or ""
    parts += "".join(f":{label}" for label in node.labels)
    if node.properties is not None:
        props = print_expression(node.properties)
        parts = f"{parts} {props}" if parts else props
    return f"({parts})"


def _print_rel_pattern(rel: ast.RelationshipPattern) -> str:
    inner = rel.variable or ""
    if rel.types:
        inner += ":" + "|".join(rel.types)
    if rel.properties is not None:
        props = print_expression(rel.properties)
        inner = f"{inner} {props}" if inner else props
    body = f"[{inner}]" if inner else "[]"
    if rel.direction == ast.OUT:
        return f"-{body}->"
    if rel.direction == ast.IN:
        return f"<-{body}-"
    return f"-{body}-"


def print_pattern(pattern: ast.PathPattern) -> str:
    """Render a path pattern to Cypher text."""
    out = f"{pattern.path_variable} = " if pattern.path_variable else ""
    out += _print_node_pattern(pattern.nodes[0])
    for index, rel in enumerate(pattern.relationships):
        out += _print_rel_pattern(rel)
        out += _print_node_pattern(pattern.nodes[index + 1])
    return out


def _print_projection(items, distinct: bool) -> str:
    rendered = []
    for item in items:
        text = print_expression(item.expression)
        if item.alias:
            text += f" AS {item.alias}"
        rendered.append(text)
    prefix = "DISTINCT " if distinct else ""
    return prefix + ", ".join(rendered)


def _print_tail(clause) -> str:
    """ORDER BY / SKIP / LIMIT shared by WITH and RETURN."""
    parts: List[str] = []
    if clause.order_by:
        keys = ", ".join(
            print_expression(item.expression) + (" DESC" if item.descending else "")
            for item in clause.order_by
        )
        parts.append(f"ORDER BY {keys}")
    if clause.skip is not None:
        parts.append(f"SKIP {print_expression(clause.skip)}")
    if clause.limit is not None:
        parts.append(f"LIMIT {print_expression(clause.limit)}")
    return (" " + " ".join(parts)) if parts else ""


def print_clause(clause: ast.Clause) -> str:
    """Render a single clause to Cypher text."""
    try:
        printer = _CLAUSES[clause.__class__]
    except KeyError:
        raise TypeError(f"cannot print clause of type {type(clause)!r}") from None
    return printer(clause)


# -- clauses: one printer per clause class, in ``_CLAUSES`` ------------------


def _match(clause: ast.Match) -> str:
    keyword = "OPTIONAL MATCH" if clause.optional else "MATCH"
    patterns = ", ".join([print_pattern(p) for p in clause.patterns])
    if clause.where is not None:
        return f"{keyword} {patterns} WHERE {print_expression(clause.where)}"
    return f"{keyword} {patterns}"


def _unwind(clause: ast.Unwind) -> str:
    return f"UNWIND {print_expression(clause.expression)} AS {clause.alias}"


def _with(clause: ast.With) -> str:
    text = "WITH " + _print_projection(clause.items, clause.distinct)
    text += _print_tail(clause)
    if clause.where is not None:
        text += f" WHERE {print_expression(clause.where)}"
    return text


def _return(clause: ast.Return) -> str:
    return ("RETURN " + _print_projection(clause.items, clause.distinct)
            + _print_tail(clause))


def _call(clause: ast.Call) -> str:
    args = ", ".join([print_expression(a) for a in clause.args])
    text = f"CALL {clause.procedure}({args})"
    if clause.yield_items:
        yields = ", ".join(
            name + (f" AS {alias}" if alias else "")
            for name, alias in clause.yield_items
        )
        text += f" YIELD {yields}"
    return text


def _create(clause: ast.Create) -> str:
    return "CREATE " + ", ".join([print_pattern(p) for p in clause.patterns])


def _set(clause: ast.SetClause) -> str:
    return "SET " + ", ".join([
        f"{item.subject}.{item.key} = {print_expression(item.value)}"
        for item in clause.items
    ])


def _delete(clause: ast.Delete) -> str:
    keyword = "DETACH DELETE" if clause.detach else "DELETE"
    return f"{keyword} " + ", ".join([print_expression(e) for e in clause.expressions])


def _remove(clause: ast.Remove) -> str:
    return "REMOVE " + ", ".join([
        f"{item.subject}.{item.key}" if item.key is not None
        else f"{item.subject}:{item.label}"
        for item in clause.items
    ])


def _merge(clause: ast.Merge) -> str:
    return f"MERGE {print_pattern(clause.pattern)}"


_CLAUSES: Dict[type, Callable[[Any], str]] = {
    ast.Match: _match,
    ast.Unwind: _unwind,
    ast.With: _with,
    ast.Return: _return,
    ast.Call: _call,
    ast.Create: _create,
    ast.SetClause: _set,
    ast.Delete: _delete,
    ast.Remove: _remove,
    ast.Merge: _merge,
}


def print_query(query) -> str:
    """Render a :class:`Query` or :class:`UnionQuery` to Cypher text."""
    if isinstance(query, ast.UnionQuery):
        keyword = "UNION ALL" if query.all else "UNION"
        return f"{print_query(query.left)} {keyword} {print_query(query.right)}"
    return " ".join([print_clause(clause) for clause in query.clauses])
