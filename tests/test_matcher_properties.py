"""Property tests: every match the matcher emits satisfies its pattern."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher import ast
from repro.engine.matcher import Matcher
from repro.graph.generator import GraphGenerator
from repro.graph.model import Node, Relationship


def random_patterns(graph, rng, n_patterns=2, max_hops=2):
    """Random label/direction-constrained patterns over real graph vocab."""
    labels = graph.labels() or [""]
    types = graph.relationship_types() or [""]
    patterns = []
    counter = 0
    for _ in range(rng.randint(1, n_patterns)):
        length = rng.randint(0, max_hops)
        nodes = []
        rels = []
        for i in range(length + 1):
            node_labels = ()
            if rng.random() < 0.4 and labels[0]:
                node_labels = (rng.choice(labels),)
            nodes.append(ast.NodePattern(f"n{counter}", node_labels))
            counter += 1
        for _ in range(length):
            rel_types = ()
            if rng.random() < 0.4 and types[0]:
                rel_types = (rng.choice(types),)
            direction = rng.choice([ast.OUT, ast.IN, ast.BOTH])
            rels.append(ast.RelationshipPattern(f"r{counter}", rel_types, direction))
            counter += 1
        patterns.append(ast.PathPattern(tuple(nodes), tuple(rels)))
    return tuple(patterns)


def check_assignment(graph, patterns, match, enforce_uniqueness):
    """Verify a single match against every structural constraint."""
    used = []
    for pattern in patterns:
        for index, rel_pattern in enumerate(pattern.relationships):
            rel = match[rel_pattern.variable]
            assert isinstance(rel, Relationship)
            used.append(rel.id)
            left = match[pattern.nodes[index].variable]
            right = match[pattern.nodes[index + 1].variable]
            if rel_pattern.direction == ast.OUT:
                assert rel.start == left.id and rel.end == right.id
            elif rel_pattern.direction == ast.IN:
                assert rel.end == left.id and rel.start == right.id
            else:
                assert {rel.start, rel.end} == {left.id, right.id} or (
                    rel.start == rel.end == left.id
                )
            if rel_pattern.types:
                assert rel.type in rel_pattern.types
        for node_pattern in pattern.nodes:
            node = match[node_pattern.variable]
            assert isinstance(node, Node)
            assert set(node_pattern.labels) <= node.labels
    if enforce_uniqueness:
        assert len(used) == len(set(used))


@given(st.integers(min_value=0, max_value=3000))
@settings(max_examples=60, deadline=None)
def test_matches_satisfy_all_constraints(seed):
    rng = random.Random(seed)
    graph = GraphGenerator(seed=seed).generate()
    patterns = random_patterns(graph, rng)
    matcher = Matcher(graph)
    for match in matcher.collect(patterns, {}, 201):
        check_assignment(graph, patterns, match, enforce_uniqueness=True)


@given(st.integers(min_value=0, max_value=3000))
@settings(max_examples=40, deadline=None)
def test_loose_matching_is_superset(seed):
    """Disabling uniqueness can only add matches, never remove them."""
    rng = random.Random(seed)
    graph = GraphGenerator(seed=seed).generate()
    patterns = random_patterns(graph, rng, n_patterns=1, max_hops=2)

    def keys(matcher, limit):
        # Truncating BOTH enumerations at the same index would be wrong:
        # the first N loose matches need not contain all of the first N
        # strict matches (loose interleaves extra assignments), so the
        # loose side gets a much larger budget below.
        return {
            tuple(sorted(
                (name, type(v).__name__, v.id) for name, v in match.items()
            ))
            for match in matcher.collect(patterns, {}, limit + 1)
        }

    strict = keys(Matcher(graph, enforce_rel_uniqueness=True), 300)
    loose = keys(Matcher(graph, enforce_rel_uniqueness=False), 20000)
    assert strict <= loose


@given(st.integers(min_value=0, max_value=3000))
@settings(max_examples=40, deadline=None)
def test_bound_row_restricts_matches(seed):
    """Pre-binding a variable selects exactly the matches with that value."""
    rng = random.Random(seed)
    graph = GraphGenerator(seed=seed).generate()
    patterns = random_patterns(graph, rng, n_patterns=1, max_hops=1)
    matcher = Matcher(graph)
    all_matches = matcher.collect(patterns, {})
    if not all_matches:
        return
    target = all_matches[0]
    first_var = next(iter(target))
    bound = matcher.collect(patterns, {first_var: target[first_var]})
    assert bound  # the witnessing match survives
    for match in bound:
        assert match[first_var].id == target[first_var].id
