"""Tests for the synthesis-plan seed: constraints of Examples 3.1/3.2."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ground_truth import build_constraint_graph, select_ground_truth
from repro.core.operations import (
    MATCH_LIKE,
    PROJECTION_LIKE,
    UNWIND_LIKE,
    OpKind,
    Operation,
)
from repro.graph.generator import GraphGenerator
from repro.graph.model import PropertyGraph


def seed_plan(seed, **kwargs):
    graph = GraphGenerator(seed=seed).generate()
    rng = random.Random(seed)
    gt = select_ground_truth(graph, rng)
    return graph, gt, build_constraint_graph(graph, gt, rng, **kwargs)


class TestClauseFamilies:
    def test_table1_mapping(self):
        """The Table 1 operation → clause mapping."""
        assert Operation(OpKind.ELEMENT_ADD, "n0").clause_kinds == MATCH_LIKE
        assert Operation(OpKind.ELEMENT_REMOVE, "n0").clause_kinds == PROJECTION_LIKE
        assert Operation(OpKind.ALIAS_ADD, "a0").clause_kinds == PROJECTION_LIKE
        assert Operation(OpKind.ALIAS_REMOVE, "a0").clause_kinds == PROJECTION_LIKE
        assert Operation(OpKind.LIST_EXPAND, "a0").clause_kinds == UNWIND_LIKE
        assert Operation(OpKind.LIST_TRUNCATE, "a0").clause_kinds == PROJECTION_LIKE
        assert Operation(OpKind.PROP_ACCESS, "a0").clause_kinds == PROJECTION_LIKE

    def test_operation_str_forms(self):
        add = Operation(OpKind.ELEMENT_ADD, "n1")
        access = Operation(OpKind.PROP_ACCESS, "a0", property_name="name")
        assert str(add) == "n1+"
        assert "name" in str(access)


class TestExample32Constraints:
    """The eight-constraint structure of the paper's Example 3.2."""

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_access_strictly_after_add(self, seed):
        graph, gt, plan = seed_plan(seed)
        cg = plan.graph
        adds = {op.element: op for op in cg.operations
                if op.kind == OpKind.ELEMENT_ADD}
        for op in cg.operations:
            if op.kind == OpKind.PROP_ACCESS:
                # E+ ≺ (E.p)+ : the add is a predecessor of the access.
                assert adds[op.element] in cg.predecessors(op)

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_removal_weakly_after_access(self, seed):
        graph, gt, plan = seed_plan(seed)
        cg = plan.graph
        removes = {op.element: op for op in cg.operations
                   if op.kind == OpKind.ELEMENT_REMOVE}
        for op in cg.operations:
            if op.kind == OpKind.PROP_ACCESS:
                remove = removes[op.element]
                # (E.p)+ ⪯ E- : weak edge recorded both ways.
                assert remove in cg.weak_related[op]
                assert op in cg.predecessors(remove)

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_alias_add_strictly_before_remove(self, seed):
        graph, gt, plan = seed_plan(seed)
        cg = plan.graph
        alias_adds = {op.variable: op for op in cg.operations
                      if op.kind == OpKind.ALIAS_ADD}
        for op in cg.operations:
            if op.kind == OpKind.ALIAS_REMOVE:
                assert alias_adds[op.variable] in cg.predecessors(op)

    def test_shared_element_gets_single_add(self):
        """Two expected properties on one element share its E+/E- pair."""
        for seed in range(60):
            graph, gt, plan = seed_plan(seed)
            elements = [
                (e.key.element_kind, e.key.element_id) for e in gt.entries
            ]
            if len(set(elements)) < len(elements):
                adds = [op for op in plan.graph.operations
                        if op.kind == OpKind.ELEMENT_ADD and op.essential]
                add_elements = [op.element for op in adds]
                assert len(add_elements) == len(set(add_elements))
                return
        pytest.skip("no seed with a shared ground-truth element in range")


class TestSupplementaryKnobs:
    def test_zero_extras_gives_essential_only(self):
        graph, gt, plan = seed_plan(5, extra_elements=0, extra_aliases=0,
                                    extra_lists=0)
        assert not plan.supplementary_aliases
        assert not plan.list_aliases
        for op in plan.graph.operations:
            assert op.kind in (
                OpKind.ELEMENT_ADD, OpKind.ELEMENT_REMOVE, OpKind.PROP_ACCESS
            )

    def test_alias_namespace_continues_after_ground_truth(self):
        graph, gt, plan = seed_plan(6, extra_aliases=3)
        for alias in plan.supplementary_aliases:
            assert int(alias[1:]) >= len(gt)

    def test_alias_sources_are_element_variables(self):
        graph, gt, plan = seed_plan(7, extra_aliases=4)
        for alias, source in plan.alias_sources.items():
            if source is not None:
                assert source in plan.element_vars.values()


class TestCachedKeySelection:
    def test_selection_matches_a_fresh_key_list(self, monkeypatch):
        """Sampling the graph's cached key tuple draws what a fresh list did."""
        def select(seed):
            graph = GraphGenerator(seed=seed).generate()
            rng = random.Random(seed)
            return [
                [(e.key, e.value) for e in select_ground_truth(graph, rng).entries]
                for _ in range(5)
            ]

        cached = [select(seed) for seed in range(20)]
        all_keys = PropertyGraph.all_property_keys
        monkeypatch.setattr(
            PropertyGraph, "all_property_keys", lambda graph: list(all_keys(graph))
        )
        assert [select(seed) for seed in range(20)] == cached
