"""Pattern matching: finding subgraphs that satisfy MATCH patterns.

Implements openCypher matching semantics:

* comma-separated patterns within one MATCH are matched jointly (shared
  variables join them, otherwise they form a cartesian product);
* **relationship uniqueness**: within a single MATCH clause, distinct
  relationship pattern elements must bind to distinct relationships.  The
  paper (§4) notes Kùzu and FalkorDB deviate from this, so uniqueness is a
  flag the dialect layer controls;
* variables already bound by earlier clauses constrain the match;
* direction, label, type, and inline property-map constraints.

Matching is deterministic (candidates are enumerated in id order) so that
engine comparisons are reproducible.

Enumeration is one in-place backtracking search: a single bindings dict
and a single used-relationship set are extended before each recursive step
and restored after it, and a *visitor* is called at every full match.  The
visitor runs exactly where the search stands, so a caller's per-match work
(WHERE evaluation, budget charges, raised errors) interleaves with the
search; it returns true to stop the enumeration.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.cypher import ast
from repro.engine.envelope import ENVELOPE
from repro.engine.errors import CypherTypeError
from repro.engine.evaluator import Evaluator
from repro.graph import values as V
from repro.graph.model import Node, Path, PropertyGraph, Relationship
from repro.obs import PROBE

__all__ = ["Matcher"]

#: Called with the live bindings at each full match; true stops the search.
Visitor = Callable[[Dict[str, Any]], bool]

#: Marks a variable that was absent before a search step bound it.
_UNBOUND = object()


class Matcher:
    """Matches path patterns against a property graph."""

    def __init__(self, graph: PropertyGraph, enforce_rel_uniqueness: bool = True):
        self.graph = graph
        self.enforce_rel_uniqueness = enforce_rel_uniqueness
        self._evaluator = Evaluator(graph)
        # Per-call profiling tally; a plain int so the hot path stays cheap.
        # The owning engine flushes it into the metrics registry per query.
        self.profile_calls = 0

    # -- public API ---------------------------------------------------

    def match(
        self,
        patterns: Tuple[ast.PathPattern, ...],
        row: Dict[str, Any],
        visit: Visitor,
    ) -> bool:
        """Call *visit* with every extension of *row* satisfying *patterns*.

        The visitor receives the live bindings: *row*'s entries followed by
        the pattern variables, in binding order.  The dict is restored as
        the search backtracks, so a visitor that keeps a match copies it.
        A visitor returning true stops the enumeration; ``match`` returns
        whether one did.
        """
        if PROBE.on:
            self.profile_calls += 1
        return self._match_from(patterns, 0, dict(row), set(), visit)

    def exists(
        self, patterns: Tuple[ast.PathPattern, ...], row: Dict[str, Any]
    ) -> bool:
        """Whether any extension of *row* satisfies *patterns*."""
        return self.match(patterns, row, _stop)

    def collect(
        self,
        patterns: Tuple[ast.PathPattern, ...],
        row: Dict[str, Any],
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """The first *limit* matches (all of them by default), copied."""
        matches: List[Dict[str, Any]] = []

        def keep(bindings: Dict[str, Any]) -> bool:
            matches.append(dict(bindings))
            return len(matches) == limit

        self.match(patterns, row, keep)
        return matches

    # -- search ---------------------------------------------------------

    def _match_from(
        self,
        patterns: Tuple[ast.PathPattern, ...],
        index: int,
        bindings: Dict[str, Any],
        used_rels: Set[int],
        visit: Visitor,
    ) -> bool:
        if index == len(patterns):
            return visit(bindings)
        pattern = patterns[index]
        first = pattern.nodes[0]
        variable = first.variable
        if variable and variable in bindings:
            bound = bindings[variable]
            if bound is None:
                return False  # null from OPTIONAL MATCH never re-matches
            if not isinstance(bound, Node):
                raise CypherTypeError(f"variable `{variable}` is not a node")
            candidates: Any = (bound,)
        elif first.labels:
            # Label index lookup; intersect on the first label.
            candidates = self.graph.nodes_with_label_sorted(first.labels[0])
        else:
            candidates = self.graph.nodes_sorted()
        # The chain is kept only for a path variable to bind.
        chain = pattern.path_variable is not None
        labels = first.labels
        properties = first.properties
        for node in candidates:
            if labels and not node.labels.issuperset(labels):
                continue
            if properties is not None and not self._properties_match(
                properties, node, bindings
            ):
                continue
            if variable:
                previous = bindings.get(variable, _UNBOUND)
                bindings[variable] = node
            stop = self._extend(
                patterns, index, pattern, 0, node, bindings, used_rels,
                [node] if chain else None, [] if chain else None, visit,
            )
            if variable:
                _restore(bindings, variable, previous)
            if stop:
                return True
        return False

    def _extend(
        self,
        patterns: Tuple[ast.PathPattern, ...],
        index: int,
        pattern: ast.PathPattern,
        rel_index: int,
        current: Node,
        bindings: Dict[str, Any],
        used_rels: Set[int],
        chain_nodes: Optional[List[Node]],
        chain_rels: Optional[List[Relationship]],
        visit: Visitor,
    ) -> bool:
        if ENVELOPE.limit is not None:
            # One step per partial-chain extension: variable-length patterns
            # blow up here, not in the evaluator, so the resource envelope
            # must meter this loop too.
            ENVELOPE.charge()
        relationships = pattern.relationships
        if rel_index == len(relationships):
            path_variable = pattern.path_variable
            if path_variable is None:
                return self._match_from(
                    patterns, index + 1, bindings, used_rels, visit
                )
            previous = bindings.get(path_variable, _UNBOUND)
            bindings[path_variable] = Path(tuple(chain_nodes), tuple(chain_rels))
            stop = self._match_from(patterns, index + 1, bindings, used_rels, visit)
            _restore(bindings, path_variable, previous)
            return stop

        rel_pattern = relationships[rel_index]
        next_pattern = pattern.nodes[rel_index + 1]
        rel_variable = rel_pattern.variable
        node_variable = next_pattern.variable
        bound_id = None
        if rel_variable and rel_variable in bindings:
            bound = bindings[rel_variable]
            if bound is None:
                return False
            if not isinstance(bound, Relationship):
                raise CypherTypeError(
                    f"variable `{rel_variable}` is not a relationship"
                )
            bound_id = bound.id
        types = rel_pattern.types
        # One type reads the typed adjacency: the same pairs in the same
        # order, minus those the type check would reject first.
        pairs = self.graph.expand_pairs(
            current.id, rel_pattern.direction,
            types[0] if len(types) == 1 else None,
        )
        properties = rel_pattern.properties
        unique = self.enforce_rel_uniqueness
        node_by_id = self.graph._nodes
        node_labels = next_pattern.labels
        node_properties = next_pattern.properties
        for rel, far in pairs:
            if bound_id is not None and rel.id != bound_id:
                continue
            if types and rel.type not in types:
                continue
            if properties is not None and not self._properties_match(
                properties, rel, bindings
            ):
                continue
            if unique and rel.id in used_rels:
                continue
            target = node_by_id[far]
            if node_variable and node_variable in bindings:
                bound = bindings[node_variable]
                if not isinstance(bound, Node) or bound.id != target.id:
                    continue
            if node_labels and not target.labels.issuperset(node_labels):
                continue
            if node_properties is not None and not self._properties_match(
                node_properties, target, bindings
            ):
                continue
            if rel_variable:
                previous_rel = bindings.get(rel_variable, _UNBOUND)
                bindings[rel_variable] = rel
            if node_variable:
                previous_node = bindings.get(node_variable, _UNBOUND)
                bindings[node_variable] = target
            if unique:
                used_rels.add(rel.id)
            if chain_nodes is not None:
                chain_nodes.append(target)
                chain_rels.append(rel)
            stop = self._extend(
                patterns, index, pattern, rel_index + 1, target, bindings,
                used_rels, chain_nodes, chain_rels, visit,
            )
            if chain_nodes is not None:
                chain_nodes.pop()
                chain_rels.pop()
            if unique:
                used_rels.discard(rel.id)
            if node_variable:
                _restore(bindings, node_variable, previous_node)
            if rel_variable:
                _restore(bindings, rel_variable, previous_rel)
            if stop:
                return True
        return False

    # -- element checks -------------------------------------------------

    def _properties_match(
        self, props: ast.MapLiteral, element, bindings: Dict[str, Any]
    ) -> bool:
        for key, value_expr in props.items:
            expected = self._evaluator.evaluate(value_expr, bindings)
            actual = element.properties.get(key)
            if V.ternary_equals(actual, expected) is not True:
                return False
        return True


def _stop(bindings: Dict[str, Any]) -> bool:
    return True


def _restore(bindings: Dict[str, Any], variable: str, previous: Any) -> None:
    """Undo one search step's binding of *variable*."""
    if previous is _UNBOUND:
        del bindings[variable]
    else:
        bindings[variable] = previous
