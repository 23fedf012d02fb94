"""Labeled property graph (LPG) model.

The paper (§2.1) defines the data model as a graph ``G = <N, R>`` of nodes
and relations, each carrying labels/types and properties (key-value pairs
where the key is ``<element, name>``).  This module provides immutable-ish
:class:`Node` and :class:`Relationship` records and a mutable
:class:`PropertyGraph` container with the adjacency indexes the pattern
matcher needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

__all__ = ["Node", "Relationship", "Path", "PropertyKey", "PropertyGraph"]


@dataclass(frozen=True)
class PropertyKey:
    """A property key ``<element, name>`` per the paper's Definition in §2.1.

    ``element_kind`` is ``"node"`` or ``"rel"``; together with ``element_id``
    it identifies the graph element, and ``name`` is the property name.
    """

    element_kind: str
    element_id: int
    name: str

    def __str__(self) -> str:
        prefix = "N" if self.element_kind == "node" else "E"
        return f"<{prefix}{self.element_id}.{self.name}>"


class Node:
    """A graph node with an id, a set of labels, and properties."""

    __slots__ = ("id", "labels", "properties")

    def __init__(
        self,
        node_id: int,
        labels: Iterable[str] = (),
        properties: Optional[Dict[str, Any]] = None,
    ):
        self.id = node_id
        self.labels: FrozenSet[str] = frozenset(labels)
        self.properties: Dict[str, Any] = dict(properties or {})

    def __repr__(self) -> str:
        labels = ":".join(sorted(self.labels))
        return f"Node({self.id}{':' + labels if labels else ''})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("node", self.id))


class Relationship:
    """A directed relationship with an id, a type, endpoints, and properties."""

    __slots__ = ("id", "type", "start", "end", "properties")

    def __init__(
        self,
        rel_id: int,
        rel_type: str,
        start: int,
        end: int,
        properties: Optional[Dict[str, Any]] = None,
    ):
        self.id = rel_id
        self.type = rel_type
        self.start = start
        self.end = end
        self.properties: Dict[str, Any] = dict(properties or {})

    def other_end(self, node_id: int) -> int:
        """Return the endpoint opposite to *node_id*."""
        return self.end if node_id == self.start else self.start

    def __repr__(self) -> str:
        return f"Rel({self.id}:{self.type} {self.start}->{self.end})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relationship) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("rel", self.id))


@dataclass(frozen=True)
class Path:
    """An alternating node/relationship sequence produced by path patterns."""

    nodes: Tuple[Node, ...]
    relationships: Tuple[Relationship, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.relationships) + 1:
            raise ValueError(
                "a path must have exactly one more node than relationships"
            )

    def element_ids(self) -> Tuple[Tuple[str, int], ...]:
        """Interleaved (kind, id) pairs, usable as an equivalence key."""
        out: List[Tuple[str, int]] = []
        for index, node in enumerate(self.nodes):
            out.append(("node", node.id))
            if index < len(self.relationships):
                out.append(("rel", self.relationships[index].id))
        return tuple(out)

    def __len__(self) -> int:
        return len(self.relationships)


def _node_id(node: "Node") -> int:
    return node.id


def _rel_id(rel: "Relationship") -> int:
    return rel.id


class PropertyGraph:
    """A labeled property graph with adjacency and label indexes.

    The graph is the unit the paper's step 1 produces: nodes, relations,
    labels and properties, plus indexes over labels (the paper creates
    database indexes for the generated labels and properties; here the
    indexes serve the same role of accelerating lookups in the matcher).
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, Node] = {}
        self._relationships: Dict[int, Relationship] = {}
        self._outgoing: Dict[int, List[int]] = {}
        self._incoming: Dict[int, List[int]] = {}
        self._label_index: Dict[str, set] = {}
        self._type_index: Dict[str, set] = {}
        self._next_node_id = 0
        self._next_rel_id = 0
        # Lazily built sorted views used by the matcher's hot loops; any
        # structural mutation drops them (see _invalidate_sorted_views).
        self._sorted_out: Dict[int, List[Relationship]] = {}
        self._sorted_in: Dict[int, List[Relationship]] = {}
        self._sorted_label: Dict[str, List[Node]] = {}
        self._sorted_nodes: Optional[List[Node]] = None
        # Lazily built per-type adjacency and per-property-name value
        # indexes used by the compiled operator pipeline
        # (:mod:`repro.engine.plan`).  The property index additionally goes
        # stale when an element's properties mutate in place, so the
        # executor's write clauses call invalidate_property_index().
        self._sorted_out_by_type: Dict[Tuple[int, str], List[Relationship]] = {}
        self._sorted_in_by_type: Dict[Tuple[int, str], List[Relationship]] = {}
        self._property_index: Dict[str, Dict[tuple, List[Node]]] = {}
        # (node_id, direction, rel_type or None) -> [(rel, far node id)]
        # in the matcher's enumeration order; see expand_pairs().
        self._expand_pairs: Dict[tuple, List[tuple]] = {}
        # Lazily built property enumerations (all_property_keys() and
        # property_names()).  Like the property index they go stale on
        # in-place property writes, so both invalidation hooks drop them.
        self._property_keys: Optional[Tuple[PropertyKey, ...]] = None
        self._property_names: Optional[Tuple[str, ...]] = None

    def _invalidate_sorted_views(self) -> None:
        if self._sorted_out:
            self._sorted_out = {}
        if self._sorted_in:
            self._sorted_in = {}
        if self._sorted_label:
            self._sorted_label = {}
        self._sorted_nodes = None
        if self._sorted_out_by_type:
            self._sorted_out_by_type = {}
        if self._sorted_in_by_type:
            self._sorted_in_by_type = {}
        if self._property_index:
            self._property_index = {}
        if self._expand_pairs:
            self._expand_pairs = {}
        self._property_keys = None
        self._property_names = None

    def invalidate_property_index(self) -> None:
        """Drop the lazily-built views that read property contents.

        Structural mutations invalidate every cached view automatically;
        this hook covers in-place property mutation (``SET`` / ``REMOVE``),
        which leaves the structural views valid but can move nodes between
        property-index buckets and add or retire property keys and names.
        """
        if self._property_index:
            self._property_index = {}
        self._property_keys = None
        self._property_names = None

    # -- construction -------------------------------------------------

    def add_node(
        self,
        labels: Iterable[str] = (),
        properties: Optional[Dict[str, Any]] = None,
        node_id: Optional[int] = None,
    ) -> Node:
        """Create a node and register it in all indexes."""
        if node_id is None:
            node_id = self._next_node_id
        if node_id in self._nodes:
            raise ValueError(f"duplicate node id {node_id}")
        self._next_node_id = max(self._next_node_id, node_id + 1)
        node = Node(node_id, labels, properties)
        self._invalidate_sorted_views()
        self._nodes[node_id] = node
        self._outgoing.setdefault(node_id, [])
        self._incoming.setdefault(node_id, [])
        for label in node.labels:
            self._label_index.setdefault(label, set()).add(node_id)
        return node

    def add_relationship(
        self,
        start: int,
        end: int,
        rel_type: str,
        properties: Optional[Dict[str, Any]] = None,
        rel_id: Optional[int] = None,
    ) -> Relationship:
        """Create a directed relationship between two existing nodes."""
        if start not in self._nodes or end not in self._nodes:
            raise KeyError("both endpoints must exist before adding a relationship")
        if rel_id is None:
            rel_id = self._next_rel_id
        if rel_id in self._relationships:
            raise ValueError(f"duplicate relationship id {rel_id}")
        self._next_rel_id = max(self._next_rel_id, rel_id + 1)
        rel = Relationship(rel_id, rel_type, start, end, properties)
        self._invalidate_sorted_views()
        self._relationships[rel_id] = rel
        self._outgoing[start].append(rel_id)
        self._incoming[end].append(rel_id)
        self._type_index.setdefault(rel_type, set()).add(rel_id)
        return rel

    def set_node_labels(self, node_id: int, labels: Iterable[str]) -> None:
        """Replace a node's label set, keeping the label index in sync.

        ``REMOVE n:Label`` (and its fault-injected corruptions) must go
        through here: rebuilding ``node.labels`` in place would leave the
        node indexed under labels it no longer carries, which turns into a
        stale-entry KeyError once the node is deleted and a later label
        scan dereferences it.
        """
        node = self._nodes[node_id]
        new_labels = frozenset(labels)
        self._invalidate_sorted_views()
        for label in node.labels - new_labels:
            self._label_index.get(label, set()).discard(node_id)
        for label in new_labels - node.labels:
            self._label_index.setdefault(label, set()).add(node_id)
        node.labels = new_labels

    def remove_relationship(self, rel_id: int) -> None:
        """Delete a relationship (used by graph-update tests)."""
        rel = self._relationships.pop(rel_id)
        self._invalidate_sorted_views()
        self._outgoing[rel.start].remove(rel_id)
        self._incoming[rel.end].remove(rel_id)
        self._type_index[rel.type].discard(rel_id)

    def remove_node(self, node_id: int) -> None:
        """Delete a node; fails if relationships are still attached."""
        if self._outgoing.get(node_id) or self._incoming.get(node_id):
            raise ValueError(
                f"node {node_id} still has relationships (use detach_delete)"
            )
        node = self._nodes.pop(node_id)
        self._invalidate_sorted_views()
        for label in node.labels:
            self._label_index[label].discard(node_id)
        self._outgoing.pop(node_id, None)
        self._incoming.pop(node_id, None)

    def detach_delete_node(self, node_id: int) -> None:
        """Delete a node together with all attached relationships."""
        for rel_id in list(self._outgoing.get(node_id, ())):
            self.remove_relationship(rel_id)
        for rel_id in list(self._incoming.get(node_id, ())):
            self.remove_relationship(rel_id)
        self.remove_node(node_id)

    # -- lookup --------------------------------------------------------

    def node(self, node_id: int) -> Node:
        return self._nodes[node_id]

    def relationship(self, rel_id: int) -> Relationship:
        return self._relationships[rel_id]

    def has_node(self, node_id: int) -> bool:
        return node_id in self._nodes

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def relationships(self) -> Iterator[Relationship]:
        return iter(self._relationships.values())

    def node_ids(self) -> List[int]:
        return list(self._nodes)

    def relationship_ids(self) -> List[int]:
        return list(self._relationships)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def relationship_count(self) -> int:
        return len(self._relationships)

    def nodes_with_label(self, label: str) -> List[Node]:
        """Label-index lookup (the analogue of a database label index)."""
        return [self._nodes[nid] for nid in self._label_index.get(label, ())]

    def relationships_with_type(self, rel_type: str) -> List[Relationship]:
        return [
            self._relationships[rid] for rid in self._type_index.get(rel_type, ())
        ]

    def labels(self) -> List[str]:
        """All labels in use, sorted (mirrors ``CALL db.labels()``)."""
        return sorted(label for label, ids in self._label_index.items() if ids)

    def relationship_types(self) -> List[str]:
        return sorted(t for t, ids in self._type_index.items() if ids)

    # -- traversal -----------------------------------------------------

    def outgoing(self, node_id: int) -> List[Relationship]:
        return [self._relationships[rid] for rid in self._outgoing.get(node_id, ())]

    def incoming(self, node_id: int) -> List[Relationship]:
        return [self._relationships[rid] for rid in self._incoming.get(node_id, ())]

    def outgoing_sorted(self, node_id: int) -> List[Relationship]:
        """Outgoing relationships sorted by id (cached; see matcher)."""
        rels = self._sorted_out.get(node_id)
        if rels is None:
            rels = sorted(self.outgoing(node_id), key=_rel_id)
            self._sorted_out[node_id] = rels
        return rels

    def incoming_sorted(self, node_id: int) -> List[Relationship]:
        """Incoming relationships sorted by id (cached; see matcher)."""
        rels = self._sorted_in.get(node_id)
        if rels is None:
            rels = sorted(self.incoming(node_id), key=_rel_id)
            self._sorted_in[node_id] = rels
        return rels

    def nodes_with_label_sorted(self, label: str) -> List[Node]:
        """Label-index lookup sorted by node id (cached)."""
        nodes = self._sorted_label.get(label)
        if nodes is None:
            nodes = sorted(self.nodes_with_label(label), key=_node_id)
            self._sorted_label[label] = nodes
        return nodes

    def nodes_sorted(self) -> List[Node]:
        """All nodes sorted by id (cached)."""
        if self._sorted_nodes is None:
            self._sorted_nodes = sorted(self._nodes.values(), key=_node_id)
        return self._sorted_nodes

    def outgoing_sorted_by_type(self, node_id: int, rel_type: str) -> List[Relationship]:
        """Outgoing relationships of one type, sorted by id (cached).

        Typed adjacency lets the compiled expand operator skip candidates
        the matcher would reject on the (cheap, first) type check, while
        preserving the id-sorted enumeration order of
        :meth:`outgoing_sorted` restricted to that type.
        """
        key = (node_id, rel_type)
        rels = self._sorted_out_by_type.get(key)
        if rels is None:
            rels = [r for r in self.outgoing_sorted(node_id) if r.type == rel_type]
            self._sorted_out_by_type[key] = rels
        return rels

    def incoming_sorted_by_type(self, node_id: int, rel_type: str) -> List[Relationship]:
        """Incoming relationships of one type, sorted by id (cached)."""
        key = (node_id, rel_type)
        rels = self._sorted_in_by_type.get(key)
        if rels is None:
            rels = [r for r in self.incoming_sorted(node_id) if r.type == rel_type]
            self._sorted_in_by_type[key] = rels
        return rels

    def expand_pairs(
        self, node_id: int, direction: str, rel_type: Optional[str] = None
    ) -> List[tuple]:
        """``(relationship, far node id)`` pairs from one node (cached).

        Enumeration order is the matcher's: outgoing before incoming, each
        id-sorted, with self-loops suppressed on the incoming side of an
        undirected (``both``) step because the outgoing side already
        produced them.  The compiled expand operator iterates these lists
        directly, so a node visited many times while backtracking pays the
        pair construction once.
        """
        key = (node_id, direction, rel_type)
        pairs = self._expand_pairs.get(key)
        if pairs is None:
            if rel_type is None:
                out_rels = self.outgoing_sorted(node_id)
                in_rels = self.incoming_sorted(node_id)
            else:
                out_rels = self.outgoing_sorted_by_type(node_id, rel_type)
                in_rels = self.incoming_sorted_by_type(node_id, rel_type)
            if direction == "out":
                pairs = [(r, r.end) for r in out_rels]
            elif direction == "in":
                pairs = [(r, r.start) for r in in_rels]
            else:
                pairs = [(r, r.end) for r in out_rels] + [
                    (r, r.start) for r in in_rels if r.start != r.end
                ]
            self._expand_pairs[key] = pairs
        return pairs

    @staticmethod
    def property_index_key(value: Any) -> Optional[tuple]:
        """Bucket key for a scalar property value, or None if unindexable.

        Booleans, numbers and strings each get their own key family so that
        Cypher-distinguishable values (``true`` vs ``1``) never share a
        bucket, while Cypher-*equal* values always do: ints and floats are
        folded through ``float`` because Python's cross-type numeric ``==``
        is exact, so a ``("n", float(v))`` bucket can never miss a pair the
        engine considers equal.  Collisions are harmless — index scans
        re-check every candidate with the full node predicate.  Lists, maps
        and null are not indexed (literal pushdown is scalar-only).
        """
        if isinstance(value, bool):
            return ("b", value)
        if isinstance(value, (int, float)):
            return ("n", float(value))
        if isinstance(value, str):
            return ("s", value)
        return None

    def nodes_with_property_sorted(self, name: str, value: Any) -> List[Node]:
        """Property-index lookup: nodes where ``name`` equals *value*, id-sorted.

        The per-property-name index is built lazily on first lookup (the
        analogue of the database property indexes the paper creates in
        step 1) and dropped on any structural mutation or in-place property
        write.  *value* must have an indexable bucket key; callers gate on
        :meth:`property_index_key` before planning an index scan.
        """
        buckets = self._property_index.get(name)
        if buckets is None:
            buckets = {}
            for node in self.nodes_sorted():
                if name in node.properties:
                    key = self.property_index_key(node.properties[name])
                    if key is not None:
                        buckets.setdefault(key, []).append(node)
            self._property_index[name] = buckets
        key = self.property_index_key(value)
        if key is None:
            raise ValueError(f"value {value!r} is not indexable")
        return buckets.get(key, [])

    def touching(self, node_id: int) -> List[Relationship]:
        """All relationships attached to *node_id*, either direction."""
        return self.outgoing(node_id) + self.incoming(node_id)

    def degree(self, node_id: int) -> int:
        return len(self._outgoing.get(node_id, ())) + len(
            self._incoming.get(node_id, ())
        )

    def neighbours(self, node_id: int) -> List[int]:
        """Distinct neighbouring node ids (either direction)."""
        seen: Dict[int, None] = {}
        for rel in self.touching(node_id):
            seen.setdefault(rel.other_end(node_id), None)
        return list(seen)

    # -- properties ----------------------------------------------------

    def property_value(self, key: PropertyKey) -> Any:
        """Resolve a :class:`PropertyKey` to its current value."""
        if key.element_kind == "node":
            return self._nodes[key.element_id].properties.get(key.name)
        return self._relationships[key.element_id].properties.get(key.name)

    def all_property_keys(self) -> Tuple[PropertyKey, ...]:
        """Every property in the graph as a :class:`PropertyKey`.

        Nodes first, then relationships, each in insertion order.  Built
        lazily and cached until the next mutation.
        """
        if self._property_keys is None:
            keys: List[PropertyKey] = []
            for node in self._nodes.values():
                keys.extend(
                    PropertyKey("node", node.id, name) for name in node.properties
                )
            for rel in self._relationships.values():
                keys.extend(
                    PropertyKey("rel", rel.id, name) for name in rel.properties
                )
            self._property_keys = tuple(keys)
        return self._property_keys

    def property_names(self) -> Tuple[str, ...]:
        """The sorted distinct property names across nodes and relationships.

        The graph's property vocabulary, equal to
        ``sorted({k.name for k in self.all_property_keys()})``.  Built
        lazily from the element dicts and cached until the next mutation.
        """
        if self._property_names is None:
            names = set()
            for node in self._nodes.values():
                names.update(node.properties)
            for rel in self._relationships.values():
                names.update(rel.properties)
            self._property_names = tuple(sorted(names))
        return self._property_names

    # -- misc ------------------------------------------------------------

    def copy(self) -> "PropertyGraph":
        """Deep-enough copy: new containers, shared immutable values."""
        clone = PropertyGraph()
        for node in self._nodes.values():
            clone.add_node(node.labels, dict(node.properties), node_id=node.id)
        for rel in self._relationships.values():
            clone.add_relationship(
                rel.start, rel.end, rel.type, dict(rel.properties), rel_id=rel.id
            )
        return clone

    # -- persistence (the flight-recorder bundle format) ----------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot of the graph, stable under insertion order.

        Property values are already JSON-safe (int/float/str/bool/None and
        homogeneous string lists — the generator's value universe), so the
        round trip through :meth:`from_dict` is lossless.
        """
        return {
            "nodes": [
                {
                    "id": node.id,
                    "labels": sorted(node.labels),
                    "properties": dict(node.properties),
                }
                for node in sorted(self._nodes.values(), key=_node_id)
            ],
            "relationships": [
                {
                    "id": rel.id,
                    "type": rel.type,
                    "start": rel.start,
                    "end": rel.end,
                    "properties": dict(rel.properties),
                }
                for rel in sorted(self._relationships.values(), key=_rel_id)
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PropertyGraph":
        """Rebuild a graph previously serialized by :meth:`to_dict`."""
        graph = cls()
        for item in data.get("nodes", ()):
            graph.add_node(
                item.get("labels", ()),
                item.get("properties"),
                node_id=item["id"],
            )
        for item in data.get("relationships", ()):
            graph.add_relationship(
                item["start"],
                item["end"],
                item["type"],
                item.get("properties"),
                rel_id=item["id"],
            )
        return graph

    def __repr__(self) -> str:
        return (
            f"PropertyGraph(nodes={self.node_count}, "
            f"relationships={self.relationship_count})"
        )
