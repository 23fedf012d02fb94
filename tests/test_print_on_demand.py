"""Query trees are printed only where their Cypher text is read.

Interpreted engines take a tree's fault features from the facts the tree
caches, so running a tree never prints it.  Testers print a judged query
only to report it, and the flight recorder parses a bundle's text once for
both replay sides.  Compiled and dual engines still key plans by a tree's
text; the baselines grid below checks that all three modes agree.
"""

import json
from collections import Counter

import pytest

from repro.core.reporting import campaign_to_dict
from repro.cypher.parser import parse_query
from repro.experiments.campaign import (
    campaign_grid_cells,
    run_campaign_grid,
    run_cell,
)
from repro.gdb.engines import ALL_ENGINE_NAMES, EngineOptions, create_engine
from repro.graph.generator import GraphGenerator

BASELINES = ("GDsmith", "GDBMeter", "Gamera", "GQT", "GRev")

QUERIES = (
    "MATCH (a)-[r]->(b) WHERE a.id <> b.id RETURN a.id, count(r) AS n",
    "UNWIND [3, 1, 2] AS x RETURN x, x * 2 ORDER BY x DESC",
    "MATCH (a) RETURN DISTINCT labels(a) AS l UNION MATCH (b) RETURN [] AS l",
)


def _loaded(name, mode):
    engine = create_engine(name, EngineOptions(execution_mode=mode))
    schema, graph = GraphGenerator(seed=5).generate_with_schema()
    engine.load_graph(graph, schema)
    return engine


@pytest.mark.parametrize("name", ALL_ENGINE_NAMES)
def test_an_interpreted_engine_leaves_a_tree_unprinted(name):
    engine = _loaded(name, "interpreted")
    for text in QUERIES:
        tree = parse_query(text)
        for _ in range(2):
            try:
                engine.execute(tree)
            except Exception:
                engine.restart()
        assert "text" not in tree.__dict__, text


def test_a_compiled_engine_prints_a_tree_for_its_plan_key():
    engine = _loaded("neo4j", "compiled")
    tree = parse_query(QUERIES[0])
    engine.execute(tree)
    assert "text" in tree.__dict__


def _count_prints(monkeypatch):
    import repro.cypher.printer as printer

    printed = []
    original = printer.print_query

    def counting(query):
        text = original(query)
        printed.append(text)
        return text

    monkeypatch.setattr(printer, "print_query", counting)
    return printed


def test_a_baselines_cell_prints_only_what_it_reports(monkeypatch, tmp_path):
    printed = _count_prints(monkeypatch)
    reported = []
    for tester in BASELINES:
        cells = campaign_grid_cells(
            [tester], ["falkordb"], seeds=(3,), derive_seeds=True,
            budget_seconds=1e9, gate_scale=0.01, max_queries=60,
            record_coverage=True, record_triage=True,
        )
        result = run_cell(cells[0], bundle_dir=tmp_path / tester)
        reported += [report.query_text for report in result.reports]
    # The pinned cells report 17 queries: printed once each, nothing else.
    assert len(reported) == 17
    assert Counter(printed) == Counter(reported)


def test_a_recorded_bundle_parses_each_statement_once(monkeypatch, tmp_path):
    import repro.cypher.parser as parser
    import repro.gdb.engines as engines
    from repro.obs import recorder as recorder_module

    parses = []
    original = parser.parse_query

    def counting(text):
        parses.append(text)
        return original(text)

    monkeypatch.setattr(parser, "parse_query", counting)
    monkeypatch.setattr(engines, "parse_query", counting)
    per_bundle = []
    record = recorder_module.FlightRecorder.record

    def recording(self, **kwargs):
        before = len(parses)
        path = record(self, **kwargs)
        bundle = json.loads(path.read_text(encoding="utf-8"))
        statements = bundle.get("statements") or [bundle["query"]]
        per_bundle.append((len(parses) - before, len(statements)))
        return path

    monkeypatch.setattr(recorder_module.FlightRecorder, "record", recording)
    run_campaign_grid(
        ["GQS", "GDsmith"], ["falkordb"], seeds=(3,), derive_seeds=True,
        budget_seconds=1e9, gate_scale=0.01, max_queries=40, stateful=0.5,
        bundle_dir=tmp_path / "bundles", jobs=1,
    )
    assert any(statements > 1 for _parses, statements in per_bundle)
    assert all(parses == statements for parses, statements in per_bundle)


def _grid(mode):
    results = run_campaign_grid(
        BASELINES, ALL_ENGINE_NAMES, seeds=(3,), derive_seeds=True,
        budget_seconds=1e9, gate_scale=0.01, max_queries=100,
        execution_mode=mode, jobs=1,
    )
    return {
        "|".join(map(str, key)): json.dumps(
            campaign_to_dict(result), sort_keys=True
        )
        for key, result in results.items()
    }


def test_baselines_grid_is_identical_in_every_execution_mode():
    interpreted = _grid("interpreted")
    assert len(interpreted) == 15
    # Dual mode raises PlanDivergenceError (not a CypherError, so no
    # oracle swallows it) on the first query where the modes differ.
    assert _grid("dual") == interpreted
    assert _grid("compiled") == interpreted
