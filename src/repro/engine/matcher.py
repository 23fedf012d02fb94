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
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.cypher import ast
from repro.engine.envelope import ENVELOPE
from repro.engine.errors import CypherTypeError
from repro.engine.evaluator import Evaluator
from repro.graph import values as V
from repro.graph.model import Node, Path, PropertyGraph, Relationship
from repro.obs import PROBE

__all__ = ["Matcher"]


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
    ) -> Iterator[Dict[str, Any]]:
        """Yield all extensions of *row* satisfying every pattern.

        Each yielded dict contains only the *new* bindings introduced by the
        patterns (the caller merges them into the row).
        """
        if PROBE.on:
            self.profile_calls += 1
        yield from self._match_from(patterns, 0, dict(row), set())

    def _match_from(
        self,
        patterns: Tuple[ast.PathPattern, ...],
        index: int,
        bindings: Dict[str, Any],
        used_rels: Set[int],
    ) -> Iterator[Dict[str, Any]]:
        if index == len(patterns):
            yield dict(bindings)
            return
        for extended, used in self._match_chain(patterns[index], bindings, used_rels):
            yield from self._match_from(patterns, index + 1, extended, used)

    # -- single chain ---------------------------------------------------

    def _match_chain(
        self,
        pattern: ast.PathPattern,
        bindings: Dict[str, Any],
        used_rels: Set[int],
    ) -> Iterator[Tuple[Dict[str, Any], Set[int]]]:
        first = pattern.nodes[0]
        for node in self._node_candidates(first, bindings):
            new_bindings = dict(bindings)
            if first.variable:
                new_bindings[first.variable] = node
            # The chain is kept only for a path variable to bind.
            chain = ([node], []) if pattern.path_variable else (None, None)
            yield from self._extend(
                pattern, 0, node, new_bindings, set(used_rels), *chain
            )

    def _extend(
        self,
        pattern: ast.PathPattern,
        rel_index: int,
        current: Node,
        bindings: Dict[str, Any],
        used_rels: Set[int],
        chain_nodes: Optional[List[Node]],
        chain_rels: Optional[List[Relationship]],
    ) -> Iterator[Tuple[Dict[str, Any], Set[int]]]:
        if ENVELOPE.limit is not None:
            # One step per partial-chain extension: variable-length patterns
            # blow up here, not in the evaluator, so the resource envelope
            # must meter this loop too.
            ENVELOPE.charge()
        if rel_index == len(pattern.relationships):
            if pattern.path_variable:
                bindings = dict(bindings)
                bindings[pattern.path_variable] = Path(
                    tuple(chain_nodes), tuple(chain_rels)
                )
            yield bindings, used_rels
            return

        rel_pattern = pattern.relationships[rel_index]
        next_node_pattern = pattern.nodes[rel_index + 1]

        for rel, target_id in self._rel_candidates(rel_pattern, current, bindings):
            if self.enforce_rel_uniqueness and rel.id in used_rels:
                continue
            target = self.graph.node(target_id)
            if not self._node_matches(next_node_pattern, target, bindings):
                continue
            new_bindings = dict(bindings)
            if rel_pattern.variable:
                new_bindings[rel_pattern.variable] = rel
            if next_node_pattern.variable:
                new_bindings[next_node_pattern.variable] = target
            new_used = set(used_rels)
            new_used.add(rel.id)
            if chain_nodes is not None:
                chain = (chain_nodes + [target], chain_rels + [rel])
            else:
                chain = (None, None)
            yield from self._extend(
                pattern, rel_index + 1, target, new_bindings, new_used, *chain
            )

    # -- candidates -----------------------------------------------------

    def _node_candidates(
        self, node_pattern: ast.NodePattern, bindings: Dict[str, Any]
    ) -> Iterator[Node]:
        if node_pattern.variable and node_pattern.variable in bindings:
            bound = bindings[node_pattern.variable]
            if bound is None:
                return  # null from OPTIONAL MATCH never re-matches
            if not isinstance(bound, Node):
                raise CypherTypeError(
                    f"variable `{node_pattern.variable}` is not a node"
                )
            if self._node_matches(node_pattern, bound, bindings, check_binding=False):
                yield bound
            return

        if node_pattern.labels:
            # Label index lookup; intersect on the first label.
            candidates = self.graph.nodes_with_label_sorted(node_pattern.labels[0])
        else:
            candidates = self.graph.nodes_sorted()

        for node in candidates:
            if self._node_matches(node_pattern, node, bindings, check_binding=False):
                yield node

    def _node_matches(
        self,
        node_pattern: ast.NodePattern,
        node: Node,
        bindings: Dict[str, Any],
        check_binding: bool = True,
    ) -> bool:
        if check_binding and node_pattern.variable and node_pattern.variable in bindings:
            bound = bindings[node_pattern.variable]
            if not isinstance(bound, Node) or bound.id != node.id:
                return False
        if any(label not in node.labels for label in node_pattern.labels):
            return False
        if node_pattern.properties is not None:
            if not self._properties_match(node_pattern.properties, node, bindings):
                return False
        return True

    def _rel_candidates(
        self,
        rel_pattern: ast.RelationshipPattern,
        current: Node,
        bindings: Dict[str, Any],
    ) -> Iterator[Tuple[Relationship, int]]:
        """Yield (relationship, far-end node id) pairs leaving *current*."""
        direction = rel_pattern.direction

        if rel_pattern.variable and rel_pattern.variable in bindings:
            bound = bindings[rel_pattern.variable]
            if bound is None:
                return
            if not isinstance(bound, Relationship):
                raise CypherTypeError(
                    f"variable `{rel_pattern.variable}` is not a relationship"
                )
            for rel, far in self._enumerate_rels(direction, current):
                if rel.id == bound.id and self._rel_matches(
                    rel_pattern, rel, bindings
                ):
                    yield rel, far
            return

        for rel, far in self._enumerate_rels(direction, current):
            if self._rel_matches(rel_pattern, rel, bindings):
                yield rel, far

    def _enumerate_rels(
        self, direction: str, current: Node
    ) -> Iterator[Tuple[Relationship, int]]:
        if direction in (ast.OUT, ast.BOTH):
            for rel in self.graph.outgoing_sorted(current.id):
                yield rel, rel.end
        if direction in (ast.IN, ast.BOTH):
            for rel in self.graph.incoming_sorted(current.id):
                # Skip self-loops already produced by the outgoing side.
                if direction == ast.BOTH and rel.start == rel.end:
                    continue
                yield rel, rel.start

    def _rel_matches(
        self,
        rel_pattern: ast.RelationshipPattern,
        rel: Relationship,
        bindings: Dict[str, Any],
    ) -> bool:
        if rel_pattern.types and rel.type not in rel_pattern.types:
            return False
        if rel_pattern.properties is not None:
            if not self._properties_match(rel_pattern.properties, rel, bindings):
                return False
        return True

    def _properties_match(
        self, props: ast.MapLiteral, element, bindings: Dict[str, Any]
    ) -> bool:
        for key, value_expr in props.items:
            expected = self._evaluator.evaluate(value_expr, bindings)
            actual = element.properties.get(key)
            if V.ternary_equals(actual, expected) is not True:
                return False
        return True
