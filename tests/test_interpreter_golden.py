"""Golden digest of the reference interpreter's observable behaviour.

Speed-ups to the matcher, evaluator or executor must keep every answer,
every raised error and every evaluation-budget charge identical.  This
test runs a fixed corpus through :class:`repro.engine.Executor` (faults
play no part: the engines' fault layers sit above it) and hashes, per
query:

* the result columns, rows and row order, or the raised error's type and
  message;
* ``ENVELOPE.steps`` under an unreachable budget, which counts every
  matcher extension and every evaluator call;
* whether, and with which message, the query blows a tight budget.

The corpus is the golden synthesis queries of ``test_synthesis_golden``
(all four dialect configurations), 2,000 queries from the five baselines'
random generators (the type-unsafe GDsmith profile makes some of them
raise), each run with relationship uniqueness enforced and not, and a
stateful write/read stream whose MERGE clauses exercise the matcher
against a mutating graph.  The digest was recorded before the matcher's
generator pipeline was replaced.

The same read queries also run through the compiled core
(:func:`repro.engine.plan.build_plan`), which must give the interpreter's
rows, row order and errors.
"""

import functools
import hashlib
import random

from repro.baselines import (
    GameraTester,
    GDBMeterTester,
    GDsmithTester,
    GQTTester,
    GRevTester,
    RandomQueryGenerator,
)
from repro.core import QuerySynthesizer, SynthesizerConfig
from repro.core.ground_truth import select_ground_truth
from repro.cypher.printer import print_query
from repro.engine import EvaluationBudgetExceeded, Executor, evaluation_budget
from repro.engine.envelope import ENVELOPE
from repro.engine.errors import CypherError
from repro.engine.executor import default_procedures
from repro.engine.plan import ExecutionContext, build_plan
from repro.graph.generator import GraphGenerator
from repro.synth.state.model import StateModel
from repro.synth.state.oracle import state_digest
from repro.synth.state.synthesizer import StatefulSynthesizer

#: The corpus of ``test_synthesis_golden``: (needs_uniqueness_predicates,
#: supports_call_procedures) for Neo4j, Memgraph, Kùzu and FalkorDB.
DIALECT_CONFIGS = ((False, True), (False, False), (True, False), (True, True))
SEEDS = range(1, 11)
GROUND_TRUTHS = 2
QUERIES_PER_GROUND_TRUTH = 4
#: An unreachable budget: turns the envelope's step counter on.
COUNTING_BUDGET = 10 ** 9
#: Small enough that a fair share of the corpus blows it.
TIGHT_BUDGET = 300
BASELINES = (GameraTester, GDBMeterTester, GDsmithTester, GQTTester, GRevTester)
BASELINE_SEEDS = range(1, 9)
BASELINE_QUERIES = 50
STATE_SEEDS = range(1, 5)
STATE_STATEMENTS = 25

GOLDEN_DIGEST = (
    "1526b2d0bf8da4927d8a1da987e309c284e89f3d9f86e76ddbc79fd7da8588a7"
)


def _outcome(executor, query, budget):
    """The observable outcome of one execution under *budget*."""
    with evaluation_budget(budget):
        try:
            result = executor.execute(query)
        except (CypherError, EvaluationBudgetExceeded) as exc:
            outcome = ("error", type(exc).__name__, str(exc))
        else:
            outcome = ("rows", result.columns, result.rows, result.ordered)
        return outcome, ENVELOPE.steps


def _record(hasher, counts, executor, query):
    outcome, steps = _outcome(executor, query, COUNTING_BUDGET)
    hasher.update(repr((outcome, steps)).encode("utf-8"))
    tight, _ = _outcome(executor, query, TIGHT_BUDGET)
    blown = tight[1] == "EvaluationBudgetExceeded"
    hasher.update(repr(tight[2] if blown else None).encode("utf-8"))
    hasher.update(b"\x1f")
    counts["queries"] += 1
    counts["errors"] += outcome[0] == "error"
    counts["blown"] += blown


def synthesis_queries():
    """(graph, enforce, call, query) for the golden synthesis corpus."""
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
                    query = synthesizer.synthesize(truth).query
                    yield graph, not uniqueness, call, query


def baseline_queries():
    """(graph, query) for the baselines' random generator streams."""
    for tester in BASELINES:
        for seed in BASELINE_SEEDS:
            _schema, graph = GraphGenerator(seed=seed).generate_with_schema()
            rng = random.Random(f"{tester.name}-{seed}")
            generator = RandomQueryGenerator(graph, rng, tester.profile)
            for _ in range(BASELINE_QUERIES):
                yield graph, generator.generate()


@functools.lru_cache(maxsize=None)
def read_corpus():
    """Every read query of the corpus with its executor, in digest order.

    Built once per session: the interpreter digest and the compiled-core
    check below share it.
    """
    corpus = []
    for graph, enforce, call, query in synthesis_queries():
        procedures = default_procedures() if call else {}
        corpus.append((Executor(graph, enforce, procedures), query))
    for graph, query in baseline_queries():
        for enforce in (True, False):
            corpus.append((Executor(graph, enforce), query))
    return tuple(corpus)


def interpreter_digest():
    hasher = hashlib.sha256()
    counts = {"queries": 0, "blown": 0, "errors": 0}

    for executor, query in read_corpus():
        _record(hasher, counts, executor, query)

    for seed in STATE_SEEDS:
        _schema, graph = GraphGenerator(seed=seed).generate_with_schema()
        model = StateModel(graph)
        rng = random.Random(seed)
        synthesizer = StatefulSynthesizer(model, rng)
        for _ in range(STATE_STATEMENTS):
            proposal = synthesizer.propose()
            counts["queries"] += 1
            # Writes mutate the shadow graph, so each runs exactly once.
            with evaluation_budget(COUNTING_BUDGET):
                result = model.apply(proposal.query)
                steps = ENVELOPE.steps
            hasher.update(repr((result.columns, result.rows, steps)).encode())
            hasher.update(state_digest(model.shadow).encode())
            hasher.update(b"\x1f")
    return hasher.hexdigest(), counts


def test_interpreter_behaviour_matches_golden_digest():
    digest, counts = interpreter_digest()
    # The corpus must keep exercising both failure paths.
    assert counts["blown"] > 100, counts
    assert counts["errors"] > 50, counts
    assert digest == GOLDEN_DIGEST, counts


def _compiled_outcome(executor, query):
    """The outcome of *query* on the compiled core, shaped like ``_outcome``."""
    try:
        plan = build_plan(
            query,
            enforce_rel_uniqueness=executor.matcher.enforce_rel_uniqueness,
        )
        result = plan.execute(
            ExecutionContext(executor.graph, procedures=executor.procedures)
        )
    except CypherError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("rows", result.columns, result.rows, result.ordered)


def test_compiled_core_matches_the_interpreter_on_the_read_corpus():
    corpus = read_corpus()
    assert len(corpus) == 4320
    fallbacks = 0
    for executor, query in corpus:
        enforce = executor.matcher.enforce_rel_uniqueness
        fallbacks += build_plan(query, enforce_rel_uniqueness=enforce).is_fallback
        expected, _steps = _outcome(executor, query, COUNTING_BUDGET)
        compiled = _compiled_outcome(executor, query)
        assert repr(compiled) == repr(expected), print_query(query)
    # A fallback plan runs no compiled code: the corpus must not hide in it.
    assert fallbacks == 0
