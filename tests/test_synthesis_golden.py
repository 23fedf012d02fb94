"""Golden digest of GQS synthesis output.

Synthesis speed-ups must keep every RNG draw and every output byte
identical.  This test hashes the printed text and the expected rows of a
fixed set of synthesized queries, for pinned seeds under the four dialect
configurations (relationship uniqueness enforced or emulated with
``r1 <> r2`` predicates, with and without CALL), plus the generator state
after the last query.  The digest was recorded before Algorithm 2 and the
pin loop were made incremental; a change that moves any draw or any byte
of output changes it.
"""

import hashlib
import random

from repro.core import QuerySynthesizer, SynthesizerConfig
from repro.core.ground_truth import select_ground_truth
from repro.cypher.printer import print_query
from repro.graph.generator import GraphGenerator

#: (needs_uniqueness_predicates, supports_call_procedures) per dialect
#: family: Neo4j, Memgraph, Kùzu, FalkorDB.
DIALECT_CONFIGS = ((False, True), (False, False), (True, False), (True, True))
SEEDS = range(1, 11)
GROUND_TRUTHS = 2
QUERIES_PER_GROUND_TRUTH = 4

GOLDEN_DIGEST = (
    "a0263b1ab30617e2f409556f78b437c04c4e39e957e11227d19844e4b56a0f64"
)


def synthesis_digest() -> str:
    hasher = hashlib.sha256()
    for uniqueness, call in DIALECT_CONFIGS:
        config = SynthesizerConfig(
            needs_uniqueness_predicates=uniqueness,
            supports_call_procedures=call,
        )
        for seed in SEEDS:
            _schema, graph = GraphGenerator(seed=seed).generate_with_schema()
            rng = random.Random(seed * 7919 + uniqueness * 2 + call)
            synthesizer = QuerySynthesizer(graph, rng=rng, config=config)
            for _ in range(GROUND_TRUTHS):
                truth = select_ground_truth(
                    graph, rng, synthesizer.config.max_ground_truth
                )
                for _ in range(QUERIES_PER_GROUND_TRUTH):
                    result = synthesizer.synthesize(truth)
                    hasher.update(print_query(result.query).encode("utf-8"))
                    hasher.update(b"\x1e")
                    hasher.update(repr(result.expected.columns).encode())
                    hasher.update(repr(result.expected.rows).encode())
                    hasher.update(b"\x1f")
            hasher.update(repr(rng.getstate()).encode())
    return hasher.hexdigest()


def test_synthesis_output_matches_golden_digest():
    assert synthesis_digest() == GOLDEN_DIGEST
