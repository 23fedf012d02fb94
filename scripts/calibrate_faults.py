"""Fault-gate calibration harness.

The catalog's per-fault ``gate`` values (see ``repro/gdb/catalog.py``) were
chosen from the measurements this script produces: for each tool's query
generator, the fraction of generated queries whose *features* satisfy each
fault's trigger condition (before gating).  Given a target effective trigger
rate — roughly 1/400 queries for faults the paper reports as found within 24
hours, and roughly 1/8000 for the rest — the gate is simply

    gate = raw_rate / target_rate

Run:  python scripts/calibrate_faults.py [n_queries_per_tool]
"""

import random
import sys

from repro.baselines import (
    GDBMeterTester,
    GDsmithTester,
    GameraTester,
    GQTTester,
    GRevTester,
)
from repro.baselines.common import RandomQueryGenerator
from repro.core import QuerySynthesizer
from repro.core.runner import synthesizer_config_for
from repro.gdb import create_engine, faults_for
from repro.gdb.faults import extract_features
from repro.graph import GraphGenerator


def feature_pool_for_gqs(target: str, n: int):
    engine = create_engine(target)
    config = synthesizer_config_for(engine)
    pool = []
    for seed in range(n):
        schema, graph = GraphGenerator(seed=seed).generate_with_schema()
        synthesizer = QuerySynthesizer(graph, rng=random.Random(seed), config=config)
        result = synthesizer.synthesize()
        pool.append(extract_features(result.query))
    return pool


def feature_pool_for_baseline(tester, n: int):
    pool = []
    for seed in range(n):
        schema, graph = GraphGenerator(seed=seed).generate_with_schema()
        generator = RandomQueryGenerator(graph, random.Random(seed), tester.profile)
        query = generator.generate()
        pool.append(extract_features(query))
    return pool


def main(n: int = 400) -> None:
    pools = {}
    for target in ("neo4j", "memgraph", "kuzu", "falkordb"):
        pools[f"GQS@{target}"] = feature_pool_for_gqs(target, n)
    for tester in (GDBMeterTester(), GameraTester(), GQTTester(), GRevTester(),
                   GDsmithTester([])):
        pools[tester.name] = feature_pool_for_baseline(tester, n)

    header = f"{'fault':16s} {'gate':>6s} " + " ".join(
        f"{name:>12s}" for name in pools
    )
    print(header)
    print("-" * len(header))
    for gdb in ("neo4j", "memgraph", "kuzu", "falkordb"):
        for fault in faults_for(gdb):
            raw_rates = [
                sum(1 for f in pool if fault.trigger(f)) / len(pool)
                for pool in pools.values()
            ]
            print(
                f"{fault.fault_id:16s} {fault.gate:6d} "
                + " ".join(f"{rate:12.3f}" for rate in raw_rates)
            )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 400)
