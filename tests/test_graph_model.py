"""Tests for the labeled property graph model."""

import pytest

from repro.cypher.parser import parse_query
from repro.engine.executor import Executor
from repro.gdb.state_effects import StateEffect
from repro.graph.model import Node, Path, PropertyGraph, PropertyKey, Relationship


@pytest.fixture
def small_graph():
    graph = PropertyGraph()
    a = graph.add_node(["USER"], {"name": "Alice", "id": 0})
    b = graph.add_node(["MOVIE"], {"name": "Longlegs", "id": 1})
    c = graph.add_node(["MOVIE", "CLASSIC"], {"name": "Notebook", "id": 2})
    graph.add_relationship(a.id, b.id, "LIKE", {"rating": 7, "id": 0})
    graph.add_relationship(a.id, c.id, "LIKE", {"rating": 10, "id": 1})
    graph.add_relationship(b.id, c.id, "SEQUEL_OF", {"id": 2})
    return graph


class TestConstruction:
    def test_counts(self, small_graph):
        assert small_graph.node_count == 3
        assert small_graph.relationship_count == 3

    def test_ids_are_sequential(self, small_graph):
        assert small_graph.node_ids() == [0, 1, 2]
        assert small_graph.relationship_ids() == [0, 1, 2]

    def test_explicit_ids_respected(self):
        graph = PropertyGraph()
        graph.add_node(node_id=10)
        node = graph.add_node()
        assert node.id == 11

    def test_duplicate_node_id_rejected(self):
        graph = PropertyGraph()
        graph.add_node(node_id=1)
        with pytest.raises(ValueError):
            graph.add_node(node_id=1)

    def test_relationship_requires_endpoints(self):
        graph = PropertyGraph()
        graph.add_node()
        with pytest.raises(KeyError):
            graph.add_relationship(0, 99, "T")

    def test_self_loop_allowed(self):
        graph = PropertyGraph()
        node = graph.add_node()
        rel = graph.add_relationship(node.id, node.id, "SELF")
        assert rel.other_end(node.id) == node.id


class TestIndexes:
    def test_label_index(self, small_graph):
        movies = small_graph.nodes_with_label("MOVIE")
        assert {n.id for n in movies} == {1, 2}
        assert small_graph.nodes_with_label("NOPE") == []

    def test_type_index(self, small_graph):
        likes = small_graph.relationships_with_type("LIKE")
        assert {r.id for r in likes} == {0, 1}

    def test_labels_listing(self, small_graph):
        assert small_graph.labels() == ["CLASSIC", "MOVIE", "USER"]

    def test_relationship_types_listing(self, small_graph):
        assert small_graph.relationship_types() == ["LIKE", "SEQUEL_OF"]


class TestTraversal:
    def test_outgoing_incoming(self, small_graph):
        assert {r.id for r in small_graph.outgoing(0)} == {0, 1}
        assert {r.id for r in small_graph.incoming(2)} == {1, 2}

    def test_touching(self, small_graph):
        assert {r.id for r in small_graph.touching(1)} == {0, 2}

    def test_degree(self, small_graph):
        assert small_graph.degree(0) == 2
        assert small_graph.degree(2) == 2

    def test_neighbours_deduplicated(self):
        graph = PropertyGraph()
        a = graph.add_node()
        b = graph.add_node()
        graph.add_relationship(a.id, b.id, "T")
        graph.add_relationship(b.id, a.id, "T")
        assert graph.neighbours(a.id) == [b.id]


class TestDeletion:
    def test_remove_relationship(self, small_graph):
        small_graph.remove_relationship(0)
        assert small_graph.relationship_count == 2
        assert {r.id for r in small_graph.outgoing(0)} == {1}

    def test_remove_node_with_rels_fails(self, small_graph):
        with pytest.raises(ValueError):
            small_graph.remove_node(0)

    def test_detach_delete(self, small_graph):
        small_graph.detach_delete_node(0)
        assert small_graph.node_count == 2
        assert small_graph.relationship_count == 1  # only SEQUEL_OF remains


class TestProperties:
    def test_property_key_resolution(self, small_graph):
        key = PropertyKey("node", 1, "name")
        assert small_graph.property_value(key) == "Longlegs"
        rel_key = PropertyKey("rel", 1, "rating")
        assert small_graph.property_value(rel_key) == 10

    def test_all_property_keys(self, small_graph):
        keys = small_graph.all_property_keys()
        assert PropertyKey("node", 0, "name") in keys
        assert PropertyKey("rel", 0, "rating") in keys
        # 3 nodes x 2 props + rel props (2 + 2 + 1).
        assert len(keys) == 11

    def test_missing_property_is_none(self, small_graph):
        assert small_graph.property_value(PropertyKey("node", 0, "ghost")) is None


def _fresh_keys(graph):
    """The property enumeration derived from the elements, bypassing caches."""
    nodes = [
        PropertyKey("node", n.id, name) for n in graph.nodes() for name in n.properties
    ]
    rels = [
        PropertyKey("rel", r.id, name)
        for r in graph.relationships()
        for name in r.properties
    ]
    return nodes + rels


def _assert_vocabulary_fresh(graph):
    keys = _fresh_keys(graph)
    assert list(graph.all_property_keys()) == keys
    assert list(graph.property_names()) == sorted({key.name for key in keys})


class TestPropertyVocabulary:
    """The cached key tuple and name vocabulary follow every mutation path."""

    def test_names_are_sorted_and_distinct(self, small_graph):
        assert small_graph.property_names() == ("id", "name", "rating")
        _assert_vocabulary_fresh(small_graph)

    def test_cached_and_immutable(self, small_graph):
        names = small_graph.property_names()
        keys = small_graph.all_property_keys()
        assert small_graph.property_names() is names
        assert small_graph.all_property_keys() is keys
        with pytest.raises((TypeError, AttributeError)):
            names[0] = "hijacked"
        with pytest.raises(AttributeError):
            names.append("hijacked")
        with pytest.raises(AttributeError):
            keys.append(PropertyKey("node", 0, "hijacked"))
        assert small_graph.property_names() == ("id", "name", "rating")

    def test_empty_graph(self):
        graph = PropertyGraph()
        assert graph.property_names() == ()
        assert graph.all_property_keys() == ()

    def test_add_node_with_new_key(self, small_graph):
        small_graph.property_names()
        small_graph.add_node(["USER"], {"age": 30})
        assert "age" in small_graph.property_names()
        _assert_vocabulary_fresh(small_graph)

    def test_add_relationship_with_new_key(self, small_graph):
        small_graph.property_names()
        small_graph.add_relationship(2, 0, "LIKE", {"since": 2020})
        assert "since" in small_graph.property_names()
        _assert_vocabulary_fresh(small_graph)

    def test_remove_relationship_drops_last_holder(self, small_graph):
        rel = small_graph.add_relationship(2, 0, "LIKE", {"since": 2020})
        assert "since" in small_graph.property_names()
        small_graph.remove_relationship(rel.id)
        assert "since" not in small_graph.property_names()
        _assert_vocabulary_fresh(small_graph)

    def test_detach_delete_drops_last_holder(self, small_graph):
        # Node 0 is the start of both LIKE relationships, the only holders
        # of "rating".
        assert "rating" in small_graph.property_names()
        small_graph.detach_delete_node(0)
        assert "rating" not in small_graph.property_names()
        _assert_vocabulary_fresh(small_graph)

    def test_executor_set_adds_key(self, small_graph):
        small_graph.property_names()
        Executor(small_graph).execute(
            parse_query("MATCH (n {id: 0}) SET n.fresh = 1")
        )
        assert "fresh" in small_graph.property_names()
        _assert_vocabulary_fresh(small_graph)

    def test_executor_remove_retires_key(self, small_graph):
        small_graph.property_names()
        Executor(small_graph).execute(parse_query("MATCH (n) REMOVE n.name"))
        assert "name" not in small_graph.property_names()
        _assert_vocabulary_fresh(small_graph)

    def test_lost_set_state_effect(self, small_graph):
        tree = parse_query("MATCH (n {id: 0}) SET n.fresh = 1")
        before = small_graph.copy()
        Executor(small_graph).execute(tree)
        assert "fresh" in small_graph.property_names()
        # The corrupted engine state loses the write: the key disappears.
        StateEffect.lost_set(small_graph, before, tree, 0)
        assert "fresh" not in small_graph.property_names()
        _assert_vocabulary_fresh(small_graph)

    def test_db_property_keys_procedure(self, small_graph):
        result = Executor(small_graph).execute(
            parse_query("CALL db.propertyKeys() YIELD propertyKey RETURN propertyKey")
        )
        assert [row[0] for row in result.rows] == ["id", "name", "rating"]


class TestCopy:
    def test_copy_is_deep_for_structure(self, small_graph):
        clone = small_graph.copy()
        clone.add_node(["NEW"])
        clone.node(0).properties["name"] = "Changed"
        assert small_graph.node_count == 3
        assert small_graph.node(0).properties["name"] == "Alice"

    def test_copy_preserves_everything(self, small_graph):
        clone = small_graph.copy()
        assert clone.node_count == small_graph.node_count
        assert clone.relationship_count == small_graph.relationship_count
        assert clone.labels() == small_graph.labels()


class TestPath:
    def test_arity_check(self):
        node = Node(0)
        with pytest.raises(ValueError):
            Path((node,), (Relationship(0, "T", 0, 0),))

    def test_element_ids_interleaved(self):
        a, b = Node(0), Node(1)
        rel = Relationship(7, "T", 0, 1)
        path = Path((a, b), (rel,))
        assert path.element_ids() == (("node", 0), ("rel", 7), ("node", 1))
        assert len(path) == 1


class TestElementSemantics:
    def test_node_equality_by_id(self):
        assert Node(1, ["A"]) == Node(1, ["B"])
        assert Node(1) != Node(2)
        assert hash(Node(1)) == hash(Node(1))

    def test_node_not_equal_relationship(self):
        assert Node(1) != Relationship(1, "T", 0, 0)

    def test_labels_frozen(self):
        node = Node(1, ["A", "B"])
        assert node.labels == frozenset({"A", "B"})
