"""Every walk over a Cypher tree has an entry for every node class.

Evaluation, plan compilation, the per-tree facts walk and the printer each
dispatch on a node's exact class through one table, with no isinstance
fallback.  A new expression or clause class must therefore be added to
every table; this test is where a missing entry fails, not a campaign.
"""

import pytest

from repro.cypher import analysis, ast, printer
from repro.engine import evaluator
from repro.engine.errors import CypherRuntimeError
from repro.engine.plan import compiler
from repro.graph.model import PropertyGraph


def _node_classes(base):
    """The subclasses of *base* that :mod:`repro.cypher.ast` defines."""
    found, stack = set(), [base]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__ == ast.__name__:
                found.add(cls)
    return found


EXPRESSIONS = _node_classes(ast.Expression)
CLAUSES = _node_classes(ast.Clause)


def test_the_ast_defines_the_expected_node_kinds():
    assert len(EXPRESSIONS) == 16
    assert len(CLAUSES) == 10


@pytest.mark.parametrize("table", [
    evaluator._DISPATCH,
    compiler._COMPILERS,
    analysis._EXPRESSIONS,
    printer._EXPRESSIONS,
], ids=["evaluate", "compile", "facts", "print"])
def test_every_expression_class_has_an_entry(table):
    assert set(table) == EXPRESSIONS


@pytest.mark.parametrize("table", [
    analysis._CLAUSES,
    printer._CLAUSES,
], ids=["facts", "print"])
def test_every_clause_class_has_an_entry(table):
    assert set(table) == CLAUSES


class _Unknown(ast.Expression):
    """An expression class no table knows."""


class _UnknownClause(ast.Clause):
    """A clause class no table knows."""


def test_an_unknown_expression_cannot_be_evaluated():
    with pytest.raises(CypherRuntimeError, match="cannot evaluate _Unknown"):
        evaluator.Evaluator(PropertyGraph()).evaluate(_Unknown(), {})


def test_an_unknown_expression_compiles_to_a_runtime_error():
    compiled = compiler.compile_expr(_Unknown())
    with pytest.raises(CypherRuntimeError, match="cannot evaluate _Unknown"):
        compiled({}, None)


def test_an_unknown_node_cannot_be_printed():
    with pytest.raises(TypeError, match="cannot print expression"):
        printer.print_expression(_Unknown())
    with pytest.raises(TypeError, match="cannot print clause"):
        printer.print_clause(_UnknownClause())
