"""Feature-coverage tests: the synthesizer exercises the Cypher surface.

§5.3 of the paper reports that GQS-generated queries involve every data
retrieval clause and 32 functions.  These tests verify the generator's
coverage over a modest corpus — if a feature silently stops being emitted,
the corresponding fault classes become unreachable and Table 3 degrades.
"""

import random
from collections import Counter

import pytest

from repro.core import QuerySynthesizer
from repro.cypher.analysis import clause_types_in, functions_in
from repro.cypher.printer import print_query
from repro.gdb.faults import extract_features
from repro.graph import GraphGenerator


@pytest.fixture(scope="module")
def corpus():
    queries = []
    for seed in range(120):
        schema, graph = GraphGenerator(seed=seed).generate_with_schema()
        synthesizer = QuerySynthesizer(graph, rng=random.Random(seed))
        queries.append(synthesizer.synthesize().query)
    return queries


class TestClauseCoverage:
    def test_all_retrieval_clauses_emitted(self, corpus):
        counter = Counter()
        for query in corpus:
            counter.update(set(clause_types_in(query)))
        for clause in ("MATCH", "OPTIONAL MATCH", "UNWIND", "WITH", "RETURN",
                       "WHERE", "ORDER BY", "LIMIT", "DISTINCT", "UNION",
                       "CALL"):
            assert counter[clause] > 0, clause

    def test_majority_use_canonical_skeleton(self, corpus):
        skeleton = 0
        for query in corpus:
            names = set(clause_types_in(query))
            if {"MATCH", "WHERE", "RETURN"} <= names:
                skeleton += 1
        assert skeleton / len(corpus) > 0.8


class TestFunctionCoverage:
    def test_at_least_30_functions_used(self, corpus):
        """The paper: 32 functions appear in the bug-triggering queries;
        a 120-query corpus already covers ≥30 (300 queries reach 34)."""
        used = set()
        for query in corpus:
            used.update(functions_in(query))
        assert len(used) >= 30, sorted(used)

    def test_aggregates_appear(self, corpus):
        found_aggregate = False
        for query in corpus:
            features = extract_features(query)
            if features.aggregate_count:
                found_aggregate = True
                break
        assert found_aggregate


class TestOperatorCoverage:
    def test_operator_families(self, corpus):
        string_preds = modulo = division = comprehension = 0
        for query in corpus:
            text = print_query(query)
            features = extract_features(query)
            string_preds += features.string_predicates
            modulo += features.modulo_ops
            division += features.division_ops
            comprehension += " IN " in text and "|" in text
        assert string_preds > 0
        assert modulo > 0
        assert division > 0

    def test_undirected_and_multilabel_patterns(self, corpus):
        undirected = multilabel = 0
        for query in corpus:
            features = extract_features(query)
            undirected += features.undirected_rels
            multilabel += features.multi_label_nodes
        assert undirected > 0
        assert multilabel > 0

    def test_replace_with_empty_reachable(self):
        """Figure 9's trigger must be reachable (memgraph-O1)."""
        found = False
        for seed in range(400):
            schema, graph = GraphGenerator(seed=seed).generate_with_schema()
            synthesizer = QuerySynthesizer(graph, rng=random.Random(seed))
            result = synthesizer.synthesize()
            features = extract_features(result.query)
            if features.replace_with_empty:
                found = True
                break
        assert found
