"""Golden digest of the printed text and ``QueryFacts`` of non-GQS trees.

``test_synthesis_golden`` pins the printed text of synthesized queries
only.  This test pins both per-tree walks that every tester's trees go
through, the printer and the facts walk, over the trees no other golden
covers:

* the five baselines' random generator streams of
  ``test_interpreter_golden`` (2,000 queries), plus the trees their
  oracles derive from them (GDBMeter's partitions, GQT's transformations,
  Gamera's relaxation and GRev's rewrites);
* the stateful write/read statement stream of that corpus;
* a hand-written set of queries that between them use every expression
  and clause kind of :mod:`repro.cypher.ast`.

Per tree it hashes the :func:`print_query` text and every field of a
fresh :meth:`QueryFacts.of` walk.  The digest was recorded before the
printer and the facts walk moved to class-keyed dispatch tables.
"""

import hashlib
import random

from repro.baselines.gamera import relax_one_direction
from repro.baselines.gdbmeter import partition_query
from repro.baselines.gqt import add_random_label, add_tautology, drop_where
from repro.baselines.grev import (
    double_negate_where,
    permute_patterns,
    reverse_patterns,
)
from repro.cypher.analysis import QueryFacts
from repro.cypher.parser import parse_query
from repro.cypher.printer import print_query
from repro.graph.generator import GraphGenerator
from repro.synth.state.model import StateModel
from repro.synth.state.synthesizer import StatefulSynthesizer

from tests.test_interpreter_golden import (
    STATE_SEEDS,
    STATE_STATEMENTS,
    baseline_queries,
)

#: Between them these use every expression and clause class.
HANDWRITTEN = (
    "MATCH p = (a:L1:L2 {k: 1})-[r:T1|T2 {w: 2.5}]->(b)<-[s]-(c) "
    "WHERE a.x STARTS WITH 'a' AND b.y ENDS WITH 'z' OR c.z CONTAINS '' "
    "XOR NOT (a)-[:T1]-() AND a:L1 AND r <> s "
    "RETURN DISTINCT a, count(*) AS n, -a.x + 1 / 2 % 3 ^ 2 AS m "
    "ORDER BY n DESC SKIP 1 LIMIT 5",
    "OPTIONAL MATCH (a) WITH a, [x IN range(1, 3) WHERE x > 1 | x * 2] AS xs, "
    "{k: a.v, j: [1, 2.0, null, true]} AS m "
    "ORDER BY CASE WHEN a.v > 1 THEN [a.v][0] END SKIP 0 LIMIT 3 "
    "WHERE a.v IS NOT NULL AND a <> a "
    "UNWIND xs[0..2] AS y "
    "RETURN y, xs[1], m.k, CASE WHEN y IS NULL THEN 0 ELSE y END AS c1, "
    "CASE y WHEN 1 THEN 'one' END AS c2, replace(toString(y), '', 'x') AS c3, "
    "collect(DISTINCT y) AS c4",
    "MATCH (a) RETURN a.v AS v UNION MATCH (b) RETURN b.w AS v "
    "UNION ALL UNWIND [1, 2] AS v RETURN v",
    "CALL db.labels() YIELD label AS l RETURN l",
    "MATCH (a:L1) SET a.v = a.v + 1, a.w = 'x' REMOVE a.k, a:L2 "
    "CREATE (a)-[:T {k: 1}]->(b:L3 {v: 2}) "
    "MERGE (b)-[:U]->(c:L4 {v: a.v}) DETACH DELETE a",
    "MATCH (a)-[r]-(b) WHERE a.v IN [1, 2] AND b.v =~ 'a.*' "
    "AND (a.v / b.v) <> 0 DELETE r RETURN count(*)",
)

GOLDEN_DIGEST = (
    "fb10b9f2f7cfcd055d0286f41f7eaaefdcb1f6c6f5f69f5be09309c66414dcff"
)


def _derived(query, graph, rng):
    """The trees the baselines' oracles derive from *query*."""
    yield from partition_query(query) or ()
    yield add_tautology(query)
    yield drop_where(query)
    yield add_random_label(query, graph, rng)
    yield relax_one_direction(query)
    yield reverse_patterns(query)
    yield permute_patterns(query, rng)
    yield double_negate_where(query)


def trees():
    """Every tree of the corpus, in a fixed order."""
    rng = random.Random(0)
    for graph, query in baseline_queries():
        yield query
        for derived in _derived(query, graph, rng):
            if derived is not None:
                yield derived

    for seed in STATE_SEEDS:
        _schema, graph = GraphGenerator(seed=seed).generate_with_schema()
        model = StateModel(graph)
        synthesizer = StatefulSynthesizer(model, random.Random(seed))
        for _ in range(STATE_STATEMENTS):
            proposal = synthesizer.propose()
            yield proposal.query
            model.apply(proposal.query)

    for text in HANDWRITTEN:
        yield parse_query(text)


def tree_walk_digest():
    hasher = hashlib.sha256()
    count = 0
    for tree in trees():
        facts = QueryFacts.of(tree)
        hasher.update(print_query(tree).encode("utf-8"))
        hasher.update(b"\x1e")
        hasher.update(repr((
            facts.metrics,
            facts.clause_names,
            facts.functions,
            facts.operators,
            facts.shapes,
            sorted(facts.counts.items()),
        )).encode("utf-8"))
        hasher.update(b"\x1f")
        count += 1
    return hasher.hexdigest(), count


def test_printed_text_and_facts_match_golden_digest():
    digest, count = tree_walk_digest()
    assert count > 4000, count
    assert digest == GOLDEN_DIGEST, count
