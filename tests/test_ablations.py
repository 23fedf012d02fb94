"""§5.3 ablations: the full synthesizer beats each ablated variant.

Each ablation switches off one of GQS's complexity mechanisms and reruns
the same small campaign as the full synthesizer: GQS against the FalkorDB
simulator, seed 4, 120 queries, fault gates scaled by 0.04, every query
cut at 10^6 evaluation steps (a cartesian blow-up becomes a harness error
instead of minutes of matching).  The query-shape side of each ablation
averages one synthesized query over each of 60 generated graphs.

At this scale, stepwise synthesis, pattern mutation and nesting win on
most seeds; the adaptive bar (1.2x the blind run's distinct bugs) holds on
the pinned seed, not in general.
"""

import random

import pytest

import repro.core.runner as runner
from repro.core.runner import GQSTester
from repro.core.synthesizer import QuerySynthesizer, SynthesizerConfig
from repro.cypher.printer import print_query
from repro.gdb import EngineOptions, create_engine
from repro.gdb.faults import extract_features
from repro.graph import GraphGenerator
from repro.obs import distinct_signatures
from repro.runtime import CampaignKernel, attach_adaptive_policy

SEED = 4
QUERIES = 120
GATE_SCALE = 0.04
STEP_BUDGET = 10**6
SYNTHESES = 60

#: Plain MATCH-RETURN queries: no extra elements, aliases, subclauses.
MATCH_RETURN_ONLY = dict(
    extra_elements=0, extra_aliases=0, extra_lists=0,
    include_probability=1.0, union_probability=0.0,
    call_probability=0.0, where_with_probability=0.0,
    order_by_probability=0.0, limit_probability=0.0,
    distinct_probability=0.0, count_star_alias_probability=0.0,
)
#: Single linear walks: the pattern builder neither mutates nor splits.
NO_PATTERN_MUTATION = dict(
    mutation_probability=0.0, split_probability=0.0, max_hops=1,
    undirected_probability=0.0,
)
#: Plain property-access predicates: no Algorithm 2 nesting (the builder
#: takes its obfuscation depth from ``expression_depth``).
NO_NESTING = dict(expression_depth=0)


def _with_builder_knobs(knobs):
    """A synthesizer class whose pattern builder runs with *knobs*."""

    class Synthesizer(QuerySynthesizer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            for name, value in knobs.items():
                setattr(self.builder, name, value)

    return Synthesizer


def _campaign(synthesizer=None, builder=None, adaptive=False):
    tester = GQSTester(synthesizer_overrides=synthesizer)
    if adaptive:
        attach_adaptive_policy(tester, "epsilon")
    engine = create_engine("falkordb", options=EngineOptions(gate_scale=GATE_SCALE))
    with pytest.MonkeyPatch.context() as patch:
        if builder:
            patch.setattr(runner, "QuerySynthesizer", _with_builder_knobs(builder))
        return CampaignKernel(step_budget=STEP_BUDGET).run(
            tester, engine, float("inf"), seed=SEED, max_queries=QUERIES
        )


def _average(attribute, synthesizer=None, builder=None):
    """Mean fault-feature *attribute* of one query per generated graph."""
    cls = _with_builder_knobs(builder or {})
    total = 0
    for seed in range(SYNTHESES):
        _schema, graph = GraphGenerator(seed=seed).generate_with_schema()
        result = cls(
            graph, rng=random.Random(seed),
            config=SynthesizerConfig(**(synthesizer or {})),
        ).synthesize()
        total += getattr(extract_features(result.query, print_query(result.query)),
                         attribute)
    return total / SYNTHESES


@pytest.fixture(scope="module")
def full():
    """The full synthesizer's campaign, shared by every ablation."""
    result = _campaign()
    assert result.queries_run == QUERIES
    return result


def test_stepwise_synthesis_beats_match_return(full):
    ablated = _campaign(synthesizer=MATCH_RETURN_ONLY)
    assert len(full.detected_faults) > len(ablated.detected_faults)
    assert len(full.reports) > len(ablated.reports)


def test_adaptive_feedback_beats_blind(full):
    """Same tester, engine, seed and query budget; only the session policy
    differs, so the distinct-bug ratio is the per-query ratio."""
    adaptive = _campaign(adaptive=True)
    assert adaptive.queries_run == full.queries_run
    adaptive_bugs = len(distinct_signatures(adaptive.reports))
    assert adaptive_bugs >= 1.2 * len(distinct_signatures(full.reports))


def test_pattern_mutation_adds_patterns_and_failing_tests(full):
    assert _average("patterns") > _average("patterns", builder=NO_PATTERN_MUTATION)
    # Distinct-bug counts saturate at compressed gates; the trigger rate
    # (failing tests over the same query budget) is the robust signal.
    ablated = _campaign(builder=NO_PATTERN_MUTATION)
    assert len(full.reports) > len(ablated.reports)


def test_nested_expressions_add_depth_and_failing_tests(full):
    assert _average("depth") > _average("depth", synthesizer=NO_NESTING)
    ablated = _campaign(synthesizer=NO_NESTING)
    assert len(full.reports) > len(ablated.reports)
