"""Shared machinery for the five state-of-the-art baseline testers (§5.4).

Each baseline couples a *random query generator* (no ground truth — that is
precisely the gap GQS fills) with its own oracle.  The generator here is a
single implementation parameterized by a :class:`GeneratorProfile`; the
profiles are tuned per tool so that the complexity comparison of Table 5
(patterns / expression depth / clauses / dependencies) reproduces each
tool's characteristic scale.

The session shape mirrors how these tools actually run: a long-lived session
on one database instance (no restart between graphs — which is why they can
catch the accumulation crashes GQS misses, §5.4.4), periodically loading new
random graphs.  The campaign loop itself lives in
:class:`repro.runtime.CampaignKernel`; this module contributes the
baselines' side of the :class:`TesterProtocol` — the long-session policy,
the profile-driven random query stream, and the per-tool oracle hook
(:meth:`BaselineTester.check_query`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

from repro.cypher import ast
from repro.engine.binding import ResultSet
from repro.engine.errors import CypherError, DatabaseCrash, ResourceExhausted
from repro.gdb.engines import GraphDatabase
from repro.graph.generator import GeneratorConfig
from repro.graph.model import PropertyGraph
from repro.runtime.protocol import Judgement, SessionPolicy, TesterProtocol
from repro.runtime.results import BugReport, CampaignResult

__all__ = [
    "GeneratorProfile",
    "RandomQueryGenerator",
    "BaselineTester",
    "run_query_guarded",
]

AnyQuery = Union[ast.Query, ast.UnionQuery]


@dataclass
class GeneratorProfile:
    """Complexity knobs of a baseline's query generator."""

    name: str
    min_clauses: int = 2
    max_clauses: int = 3
    max_patterns_per_match: int = 1
    max_path_length: int = 2
    expression_depth: int = 2
    reuse_probability: float = 0.3      # reference earlier variables
    where_probability: float = 0.8
    unwind_probability: float = 0.0
    with_probability: float = 0.0
    order_by_probability: float = 0.1
    distinct_probability: float = 0.1
    label_probability: float = 0.5
    undirected_probability: float = 0.2
    type_safe: bool = True              # False: may emit runtime-type-unsafe exprs


_FUNCTION_POOL_SAFE = {
    "INTEGER": ["abs", "sign", "toInteger"],
    "FLOAT": ["abs", "round", "floor", "ceil", "toFloat"],
    "STRING": ["toUpper", "toLower", "trim", "reverse", "toString"],
    "ANY": ["coalesce"],
}

# Functions some engines reject — generators that are not dialect-aware
# (the differential baseline) occasionally emit them, which is one organic
# source of false alarms.
_FUNCTION_POOL_UNSAFE = ["cot", "isNaN", "valueType", "atan2", "toStringOrNull"]


class RandomQueryGenerator:
    """Profile-driven random Cypher generation over a concrete graph."""

    def __init__(self, graph: PropertyGraph, rng: random.Random, profile: GeneratorProfile):
        self.graph = graph
        self.rng = rng
        self.profile = profile
        self._var_counter = 0

    # -- public -----------------------------------------------------------

    def generate(self) -> ast.Query:
        """Generate one random query."""
        rng = self.rng
        profile = self.profile
        self._var_counter = 0
        scope: List[str] = []        # variables currently projectable
        element_vars: List[str] = [] # subset bound to nodes/relationships
        clauses: List[ast.Clause] = []

        n_clauses = rng.randint(profile.min_clauses, profile.max_clauses)
        # The last clause is always RETURN; the first is always MATCH.
        body = max(n_clauses - 1, 1)
        for index in range(body):
            roll = rng.random()
            if index == 0 or roll < 0.55 or not scope:
                clause = self._match(scope, element_vars)
            elif roll < 0.55 + profile.unwind_probability:
                clause = self._unwind(scope, element_vars)
            elif roll < 0.55 + profile.unwind_probability + profile.with_probability:
                clause = self._with(scope, element_vars)
            else:
                clause = self._match(scope, element_vars)
            clauses.append(clause)
        clauses.append(self._return(scope, element_vars))
        return ast.Query(tuple(clauses))

    # -- clause builders --------------------------------------------------

    def _fresh_var(self, prefix: str) -> str:
        name = f"{prefix}{self._var_counter}"
        self._var_counter += 1
        return name

    def _match(self, scope: List[str], element_vars: List[str]) -> ast.Match:
        rng = self.rng
        profile = self.profile
        n_patterns = rng.randint(1, profile.max_patterns_per_match)
        patterns = []
        for _ in range(n_patterns):
            patterns.append(self._pattern(scope, element_vars))
        where = None
        if rng.random() < profile.where_probability and element_vars:
            where = self._predicate(element_vars)
        optional = rng.random() < 0.1
        return ast.Match(tuple(patterns), optional=optional, where=where)

    def _pattern(self, scope: List[str], element_vars: List[str]) -> ast.PathPattern:
        """A path pattern following a random walk through the graph."""
        rng = self.rng
        profile = self.profile
        node_ids = list(self.graph.node_ids())
        if not node_ids:
            var = self._fresh_var("n")
            scope.append(var)
            element_vars.append(var)
            return ast.PathPattern((ast.NodePattern(var),))

        length = rng.randint(0, profile.max_path_length)
        current = rng.choice(node_ids)
        nodes = [self._node_pattern(current, scope, element_vars)]
        rels: List[ast.RelationshipPattern] = []
        for _ in range(length):
            touching = self.graph.touching(current)
            if not touching:
                break
            rel = rng.choice(touching)
            far = rel.other_end(current)
            rels.append(self._rel_pattern(rel, rel.start == current))
            nodes.append(self._node_pattern(far, scope, element_vars))
            current = far
        return ast.PathPattern(tuple(nodes), tuple(rels))

    def _node_pattern(self, node_id: int, scope: List[str], element_vars: List[str]) -> ast.NodePattern:
        rng = self.rng
        profile = self.profile
        if element_vars and rng.random() < profile.reuse_probability:
            var = rng.choice(element_vars)
        else:
            var = self._fresh_var("n")
            scope.append(var)
            element_vars.append(var)
        labels: Tuple[str, ...] = ()
        node = self.graph.node(node_id)
        if node.labels and rng.random() < profile.label_probability:
            labels = (rng.choice(sorted(node.labels)),)
        return ast.NodePattern(var, labels)

    def _rel_pattern(self, rel, forward: bool) -> ast.RelationshipPattern:
        rng = self.rng
        profile = self.profile
        var = self._fresh_var("r")
        types: Tuple[str, ...] = ()
        if rng.random() < profile.label_probability:
            types = (rel.type,)
        if rng.random() < profile.undirected_probability:
            direction = ast.BOTH
        else:
            direction = ast.OUT if forward else ast.IN
        return ast.RelationshipPattern(var, types, direction)

    def _unwind(self, scope: List[str], element_vars: List[str]) -> ast.Unwind:
        rng = self.rng
        alias = self._fresh_var("u")
        items = tuple(
            ast.Literal(rng.randint(-100, 100)) for _ in range(rng.randint(1, 3))
        )
        scope.append(alias)
        return ast.Unwind(ast.ListLiteral(items), alias)

    def _with(self, scope: List[str], element_vars: List[str]) -> ast.With:
        rng = self.rng
        keep = [var for var in scope if rng.random() < 0.8] or scope[:1]
        items = tuple(ast.ProjectionItem(ast.Variable(var)) for var in keep)
        scope[:] = list(keep)
        element_vars[:] = [var for var in element_vars if var in keep]
        where = None
        if element_vars and rng.random() < 0.3:
            where = self._predicate(element_vars)
        distinct = rng.random() < self.profile.distinct_probability
        return ast.With(items, distinct=distinct, where=where)

    def _return(self, scope: List[str], element_vars: List[str]) -> ast.Return:
        rng = self.rng
        profile = self.profile
        n_items = rng.randint(1, max(1, min(3, len(scope)) if scope else 1))
        items = []
        for index in range(n_items):
            expr = self._expression(element_vars, profile.expression_depth)
            items.append(ast.ProjectionItem(expr, f"c{index}"))
        order_by: Tuple[ast.OrderItem, ...] = ()
        if rng.random() < profile.order_by_probability:
            order_by = (
                ast.OrderItem(ast.Variable("c0"), rng.random() < 0.5),
            )
        distinct = rng.random() < profile.distinct_probability
        limit = None
        if rng.random() < 0.1:
            limit = ast.Literal(rng.randint(1, 10))
        return ast.Return(tuple(items), distinct=distinct, order_by=order_by, limit=limit)

    # -- expressions --------------------------------------------------------

    def _property_access(self, element_vars: List[str]) -> ast.Expression:
        rng = self.rng
        var = rng.choice(element_vars)
        # Property names are drawn from the graph's actual keys so accesses
        # frequently hit real values.
        names = self.graph.property_names()
        name = rng.choice(names) if names else "id"
        return ast.PropertyAccess(ast.Variable(var), name)

    def _expression(self, element_vars: List[str], depth: int) -> ast.Expression:
        rng = self.rng
        if depth <= 0 or not element_vars or rng.random() < 0.25:
            return self._leaf(element_vars)
        roll = rng.random()
        if roll < 0.4:
            op = rng.choice(["+", "-", "*", "%"])
            return ast.Binary(
                op,
                self._expression(element_vars, depth - 1),
                self._expression(element_vars, depth - 1),
            )
        if roll < 0.6:
            pools = _FUNCTION_POOL_SAFE["INTEGER"] + _FUNCTION_POOL_SAFE["STRING"]
            if not self.profile.type_safe and rng.random() < 0.1:
                name = rng.choice(_FUNCTION_POOL_UNSAFE)
            else:
                name = rng.choice(pools)
            return ast.FunctionCall(
                name, (self._expression(element_vars, depth - 1),)
            )
        if roll < 0.8:
            return ast.CaseExpression(
                None,
                (
                    ast.CaseAlternative(
                        self._comparison(element_vars, depth - 1),
                        self._expression(element_vars, depth - 1),
                    ),
                ),
                self._leaf(element_vars),
            )
        return self._comparison(element_vars, depth - 1)

    def _comparison(self, element_vars: List[str], depth: int) -> ast.Expression:
        rng = self.rng
        left = (
            self._property_access(element_vars)
            if element_vars
            else self._leaf(element_vars)
        )
        if rng.random() < 0.18:
            # String predicates appear in every tool's corpus.
            op = rng.choice(["STARTS WITH", "ENDS WITH", "CONTAINS"])
            alphabet = "abcdefgh"
            fragment = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(1, 3))
            )
            return ast.Binary(op, left, ast.Literal(fragment))
        op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
        right = self._expression(element_vars, max(depth - 1, 0))
        return ast.Binary(op, left, right)

    def _predicate(self, element_vars: List[str]) -> ast.Expression:
        rng = self.rng
        terms = [self._comparison(element_vars, self.profile.expression_depth - 1)]
        while rng.random() < 0.35:
            terms.append(
                self._comparison(element_vars, self.profile.expression_depth - 1)
            )
        expr = terms[0]
        for term in terms[1:]:
            connective = rng.choice(["AND", "OR"])
            expr = ast.Binary(connective, expr, term)
        if rng.random() < 0.15:
            expr = ast.Unary("NOT", expr)
        return expr

    def _leaf(self, element_vars: List[str]) -> ast.Expression:
        rng = self.rng
        roll = rng.random()
        if element_vars and roll < 0.5:
            return self._property_access(element_vars)
        if roll < 0.7:
            return ast.Literal(rng.randint(-1000, 1000))
        if roll < 0.8:
            return ast.Literal(rng.random() < 0.5)
        if roll < 0.95:
            alphabet = "abcdefgh123"
            return ast.Literal(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
            )
        return ast.Literal(None)


def run_query_guarded(
    engine: GraphDatabase, query: AnyQuery
) -> Tuple[Optional[ResultSet], Optional[Exception]]:
    """Execute, capturing engine errors instead of raising."""
    try:
        return engine.execute(query), None
    except (DatabaseCrash, ResourceExhausted, CypherError) as exc:
        return None, exc


def run_and_observe(engine: GraphDatabase, query: AnyQuery):
    """Execute and also report which fault (if any) fired.

    Returns ``(result, exception, fault)``.  Testers must collect the fault
    per variant: attribution via ``engine.last_fired_fault`` after the last
    variant would miss faults that fired only on earlier variants.
    """
    result, exc = run_query_guarded(engine, query)
    return result, exc, engine.last_fired_fault


class BaselineTester(TesterProtocol):
    """Common :class:`TesterProtocol` for the metamorphic/differential tools.

    Subclasses provide ``profile`` and :meth:`check_query`, which runs the
    tool's oracle for a single generated query and returns a report (or
    None).  Replay support (:meth:`replay_flags_bug`) drives the §5.4.3
    oracle-effectiveness comparison, where each baseline's oracle is fed
    GQS's bug-triggering queries.
    """

    name = "baseline"
    profile = GeneratorProfile(name="baseline")
    queries_per_graph = 20
    # Continuous session: only the very first load restarts (§5.4.4).
    session = SessionPolicy.long_session()

    def __init__(self, generator_config: Optional[GeneratorConfig] = None):
        self.generator_config = generator_config or GeneratorConfig()

    # -- TesterProtocol ------------------------------------------------------

    def proposals(
        self, engine: GraphDatabase, graph, schema, rng: random.Random
    ) -> Iterator[AnyQuery]:
        qgen = RandomQueryGenerator(graph, rng, self.profile)
        for _ in range(self.queries_per_graph):
            yield qgen.generate()

    def judge(
        self,
        engine: GraphDatabase,
        query: AnyQuery,
        graph,
        rng: random.Random,
        result: CampaignResult,
    ) -> Judgement:
        return Judgement(report=self.check_query(engine, query, rng, result))

    # -- per-query oracle (subclass responsibility) -------------------------

    def check_query(
        self,
        engine: GraphDatabase,
        query: AnyQuery,
        rng: random.Random,
        result: CampaignResult,
    ) -> Optional[BugReport]:
        raise NotImplementedError

    def replay_flags_bug(
        self, engine: GraphDatabase, query: AnyQuery, rng: random.Random
    ) -> bool:
        """Whether this tool's oracle flags *query* (§5.4.3 replay)."""
        scratch = CampaignResult(self.name, engine.name)
        report = self.check_query(engine, query, rng, scratch)
        return report is not None

    # -- shared helpers ------------------------------------------------------

    def _error_report(
        self,
        engine: GraphDatabase,
        query_text: str,
        exc: Exception,
        sim_time: float,
    ) -> BugReport:
        fault = engine.last_fired_fault
        return BugReport(
            tester=self.name,
            engine=engine.name,
            kind="error",
            detail=f"{type(exc).__name__}: {exc}",
            query_text=query_text,
            fault_id=fault.fault_id if fault else None,
            sim_time=sim_time,
        )

    @staticmethod
    def _is_hard_failure(exc: Exception) -> bool:
        """Crashes and hangs are bugs for every tool; plain query errors
        (syntax/type/unknown function) are not reported by metamorphic
        testers."""
        return isinstance(exc, (DatabaseCrash, ResourceExhausted))
