"""Regeneration of the paper's evaluation tables (§5).

Every function returns plain data structures; :mod:`repro.experiments.report`
renders them in the same row format the paper uses.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.baselines import GDBMeterTester, GDsmithTester, GRevTester
from repro.baselines.common import RandomQueryGenerator
from repro.cypher.analysis import analyze
from repro.cypher.parser import parse_query
from repro.cypher.printer import print_query
from repro.experiments.campaign import (
    DAY_EQUIVALENT_SECONDS,
    FULL_CAMPAIGN_GATE_SCALE,
    FULL_CAMPAIGN_MAX_QUERIES,
    make_tester,
    run_campaign_grid,
    split_fault_counts,
    tester_supports,
)
from repro.core import QuerySynthesizer
from repro.gdb import DIALECTS, create_engine, faults_for
from repro.graph.generator import GraphGenerator
from repro.runtime import (
    CampaignCell,
    CampaignResult,
    CellConfig,
    ParallelCampaignRunner,
)

__all__ = [
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "run_full_gqs_campaigns",
]

_PAPER_ENGINE_ORDER = ("neo4j", "memgraph", "kuzu", "falkordb")


# ---------------------------------------------------------------------------
# Table 2: summary of the tested GDBs
# ---------------------------------------------------------------------------

def table2() -> List[Dict[str, object]]:
    """Static engine metadata (paper Table 2)."""
    rows = []
    for name in _PAPER_ENGINE_ORDER:
        dialect = DIALECTS[name]
        rows.append(
            {
                "GDB": dialect.display_name,
                "GitHub stars": dialect.github_stars,
                "Initial release": dialect.initial_release,
                "Tested version": ", ".join(dialect.tested_versions),
                "LoC": dialect.loc,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 3: bugs detected by GQS (full campaign)
# ---------------------------------------------------------------------------

def run_full_gqs_campaigns(
    seed: int = 0,
    max_queries: int = FULL_CAMPAIGN_MAX_QUERIES,
    gate_scale: float = FULL_CAMPAIGN_GATE_SCALE,
    jobs: int = 1,
) -> Dict[str, CampaignResult]:
    """The compressed analogue of the paper's months-long campaign.

    One GQS cell per engine, fanned out over *jobs* workers; each engine
    keeps its historical per-engine seed (``seed + engine_index``) so the
    detected-fault record is independent of the worker count.
    """
    config = CellConfig(float("inf"), gate_scale=gate_scale,
                        max_queries=max_queries)
    cells = [
        CampaignCell("GQS", name, seed + index, config)
        for index, name in enumerate(_PAPER_ENGINE_ORDER)
    ]
    grid = ParallelCampaignRunner(jobs=jobs).run(cells)
    return {
        name: grid[("GQS", name, seed + index)]
        for index, name in enumerate(_PAPER_ENGINE_ORDER)
    }


def table3(
    campaigns: Optional[Dict[str, CampaignResult]] = None, seed: int = 0
) -> List[Dict[str, object]]:
    """Bugs detected by GQS per engine (paper Table 3).

    ``#detected`` comes from the campaign; ``#confirmed``/``#fixed`` come
    from the fault metadata (they encode developer responses, which are
    facts about the bugs rather than about detection).
    """
    campaigns = campaigns or run_full_gqs_campaigns(seed=seed)
    rows = []
    totals = {"ld": 0, "lc": 0, "lf": 0, "od": 0, "oc": 0, "of": 0}
    for name in _PAPER_ENGINE_ORDER:
        detected = set(campaigns[name].detected_faults)
        scope = [f for f in faults_for(name) if not f.session_queries_required]
        logic = [f for f in scope if f.is_logic and f.fault_id in detected]
        other = [f for f in scope if not f.is_logic and f.fault_id in detected]
        row = {
            "GDB": DIALECTS[name].display_name,
            "logic detected": len(logic),
            "logic confirmed": sum(1 for f in logic if f.confirmed),
            "logic fixed": sum(1 for f in logic if f.fixed),
            "other detected": len(other),
            "other confirmed": sum(1 for f in other if f.confirmed),
            "other fixed": sum(1 for f in other if f.fixed),
        }
        rows.append(row)
        totals["ld"] += row["logic detected"]
        totals["lc"] += row["logic confirmed"]
        totals["lf"] += row["logic fixed"]
        totals["od"] += row["other detected"]
        totals["oc"] += row["other confirmed"]
        totals["of"] += row["other fixed"]
    rows.append(
        {
            "GDB": "Total",
            "logic detected": totals["ld"],
            "logic confirmed": totals["lc"],
            "logic fixed": totals["lf"],
            "other detected": totals["od"],
            "other confirmed": totals["oc"],
            "other fixed": totals["of"],
        }
    )
    return rows


# ---------------------------------------------------------------------------
# Table 4: bugs missed by existing testers + latency
# ---------------------------------------------------------------------------

def table4(
    campaigns: Optional[Dict[str, CampaignResult]] = None, seed: int = 0
) -> Dict[str, object]:
    """Replay GQS's bug-triggering queries through each baseline oracle.

    The paper (Table 4 with §5.4.3) reports, per GDB, how many of GQS's bugs
    each tool misses, plus the average/maximum latency (years) of those
    missed bugs.  Kùzu is excluded (not supported by the existing tools);
    FalkorDB appears as "RedisGraph" since the tools tested its predecessor.
    """
    campaigns = campaigns or run_full_gqs_campaigns(seed=seed)
    rng = random.Random(seed + 999)
    engines_in_scope = ("neo4j", "memgraph", "falkordb")
    tool_names = ("GDsmith", "GDBMeter", "Gamera", "GQT", "GRev")

    missed: Dict[str, Dict[str, int]] = {
        tool: {engine: 0 for engine in engines_in_scope} for tool in tool_names
    }
    missed_faults: Dict[str, List[str]] = {e: [] for e in engines_in_scope}

    for engine_name in engines_in_scope:
        records = campaigns[engine_name].trigger_records
        for record in records:
            query = parse_query(record["query_text"])
            for tool in tool_names:
                if not tester_supports(tool, engine_name):
                    # Unsupported engine: the tool misses the bug trivially;
                    # the paper marks these cells "-" but still counts the
                    # bugs as missed in the total.
                    missed[tool][engine_name] += 1
                    continue
                tester = make_tester(tool, engine_name)
                engine = create_engine(engine_name)
                # Load the same graph state the bug was triggered on.
                generator_engine = create_engine(engine_name)
                flagged = _replay(tester, engine_name, query, rng, record)
                if not flagged:
                    missed[tool][engine_name] += 1
                    missed_faults[engine_name].append(record["fault_id"])

    # Latency analysis over the missed bugs (years since introduction).
    fault_years = {
        fault.fault_id: fault.introduced_year
        for name in engines_in_scope
        for fault in faults_for(name)
    }
    latency: Dict[str, Dict[str, float]] = {}
    for engine_name in engines_in_scope:
        years = [fault_years[fid] for fid in set(missed_faults[engine_name])]
        if not years:
            years = [0.0]
        latency[engine_name] = {
            "avg": sum(years) / len(years),
            "max": max(years),
        }

    table_rows = []
    for tool in tool_names:
        row: Dict[str, object] = {"Tester": tool}
        total = 0
        for engine_name in engines_in_scope:
            supported = tester_supports(tool, engine_name)
            count = missed[tool][engine_name]
            row[engine_name] = count if supported else "-"
            total += count
        row["Total"] = total
        table_rows.append(row)
    return {"missed": table_rows, "latency": latency}


def _replay(tester, engine_name: str, query, rng, record) -> bool:
    """Re-run one bug-triggering query through a baseline's oracle."""
    engine = create_engine(engine_name)
    # Replay needs *some* graph loaded; regenerate the graph used when the
    # bug fired is not recorded, so replay on a deterministic graph seeded
    # from the fault id — feature-based triggers fire independently of the
    # data, which is what the replay measures.
    generator = GraphGenerator(seed=len(record["query_text"]) % 1000)
    schema, graph = generator.generate_with_schema()
    engine.load_graph(graph, schema)
    try:
        return tester.replay_flags_bug(engine, query, rng)
    except Exception:
        return False


# ---------------------------------------------------------------------------
# Table 5: test query complexity
# ---------------------------------------------------------------------------

def table5(n_queries: int = 400, seed: int = 0) -> List[Dict[str, object]]:
    """Average complexity metrics per tool over *n_queries* queries.

    The paper samples 10 000 queries per tool; the default here is smaller
    so the benchmark stays fast — pass ``n_queries=10_000`` to match.
    Queries are printed and re-parsed through :mod:`repro.cypher.parser`
    before measurement, mirroring the paper's use of libcypher-parser.
    """
    rows = []
    tool_rows = [
        ("GDsmith", GDsmithTester([])),
        ("GDBMeter", GDBMeterTester()),
        ("Gamera", make_tester("Gamera", "neo4j")),
        ("GQT", make_tester("GQT", "neo4j")),
        ("GRev", GRevTester()),
    ]
    for tool_name, tester in tool_rows:
        metrics = _average_metrics_for_generator(tester.profile, n_queries, seed)
        rows.append({"Tester": tool_name, **metrics})
    rows.append({"Tester": "GQS", **_average_metrics_for_gqs(n_queries, seed)})
    return rows


def _average_metrics_for_generator(profile, n_queries: int, seed: int):
    totals = {"Pattern": 0.0, "Expression": 0.0, "Clause": 0.0, "Dependency": 0.0}
    for index in range(n_queries):
        generator = GraphGenerator(seed=seed + index)
        schema, graph = generator.generate_with_schema()
        qgen = RandomQueryGenerator(graph, random.Random(seed + index), profile)
        query = parse_query(print_query(qgen.generate()))
        metrics = analyze(query)
        totals["Pattern"] += metrics.patterns
        totals["Expression"] += metrics.expression_depth
        totals["Clause"] += metrics.clauses
        totals["Dependency"] += metrics.dependencies
    return {key: round(value / n_queries, 2) for key, value in totals.items()}


def _average_metrics_for_gqs(n_queries: int, seed: int):
    totals = {"Pattern": 0.0, "Expression": 0.0, "Clause": 0.0, "Dependency": 0.0}
    for index in range(n_queries):
        generator = GraphGenerator(seed=seed + index)
        schema, graph = generator.generate_with_schema()
        synthesizer = QuerySynthesizer(graph, rng=random.Random(seed + index))
        result = synthesizer.synthesize()
        query = parse_query(print_query(result.query))
        metrics = analyze(query)
        totals["Pattern"] += metrics.patterns
        totals["Expression"] += metrics.expression_depth
        totals["Clause"] += metrics.clauses
        totals["Dependency"] += metrics.dependencies
    return {key: round(value / n_queries, 2) for key, value in totals.items()}


# ---------------------------------------------------------------------------
# Table 6: bugs detected over a 24-hour testing campaign
# ---------------------------------------------------------------------------

def table6(
    seed: int = 0,
    budget_seconds: float = DAY_EQUIVALENT_SECONDS,
    jobs: int = 1,
    events_path=None,
    resume_path=None,
) -> Tuple[List[Dict[str, object]], Dict[Tuple[str, str], CampaignResult]]:
    """24-hour-equivalent campaign for every tool on Neo4j/Memgraph/FalkorDB.

    The full (tester × engine) grid runs through
    :class:`repro.runtime.ParallelCampaignRunner` — *jobs* workers, with an
    optional JSONL event log (*events_path*) and checkpoint resume
    (*resume_path*).  Returns the table rows plus the raw campaign results
    (reused by Figure 18); the rows are identical for any *jobs* value.
    """
    engines_in_scope = ("neo4j", "memgraph", "falkordb")
    tool_order = ("GDsmith", "GDBMeter", "Gamera", "GQT", "GRev", "GQS")
    grid = run_campaign_grid(
        tool_order,
        engines_in_scope,
        seeds=(seed,),
        budget_seconds=budget_seconds,
        jobs=jobs,
        events_path=events_path,
        resume_path=resume_path,
    )
    campaigns: Dict[Tuple[str, str], CampaignResult] = {
        (tool, engine): result for (tool, engine, _seed), result in grid.items()
    }
    rows = []
    for tool in tool_order:
        row: Dict[str, object] = {"Tester": tool}
        total = total_logic = 0
        for engine_name in engines_in_scope:
            result = campaigns.get((tool, engine_name))
            if result is None:
                row[engine_name] = "-"
                continue
            logic, other = split_fault_counts(result.detected_faults)
            row[engine_name] = f"{logic + other} ({logic})"
            total += logic + other
            total_logic += logic
        row["Total"] = f"{total} ({total_logic})"
        rows.append(row)
    return rows, campaigns
