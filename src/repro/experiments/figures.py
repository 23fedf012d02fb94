"""Regeneration of the paper's evaluation figures (§5.3, §5.4.4).

Figures 10 and 13-15 are distributions of the detected bugs over properties
of their triggering queries (synthesis steps, dependencies, patterns,
nesting depth); Figures 11-12 are clause statistics over the bug-triggering
queries; Figure 18 is the cumulative-bugs-over-time comparison.  All return
plain data series; :mod:`repro.experiments.report` renders ASCII charts.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.runtime.results import CampaignResult
from repro.experiments.tables import run_full_gqs_campaigns
from repro.gdb import DIALECTS

__all__ = [
    "collect_trigger_records",
    "figure10",
    "figure10_throughput",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "figure18",
]

_ENGINE_ORDER = ("neo4j", "memgraph", "kuzu", "falkordb")


def collect_trigger_records(
    campaigns: Optional[Dict[str, CampaignResult]] = None, seed: int = 0
) -> List[Dict[str, object]]:
    """One record per detected bug: the §5.3 analysis corpus."""
    campaigns = campaigns or run_full_gqs_campaigns(seed=seed)
    records: List[Dict[str, object]] = []
    for name in _ENGINE_ORDER:
        records.extend(campaigns[name].trigger_records)
    return records


def _bucket_distribution(records, key, buckets) -> Dict[str, int]:
    """Histogram of records[key] over right-open integer buckets."""
    out: Dict[str, int] = {}
    for low, high, label in buckets:
        count = sum(
            1
            for record in records
            if low <= record[key] and (high is None or record[key] <= high)
        )
        out[label] = count
    return out


def figure10(records) -> Dict[str, Dict[str, int]]:
    """Bug distribution by synthesis steps, per engine (paper Figure 10)."""
    steps_axis = sorted({record["n_steps"] for record in records})
    series: Dict[str, Dict[str, int]] = {}
    for engine in _ENGINE_ORDER:
        display = DIALECTS[engine].display_name
        counter = Counter(
            record["n_steps"] for record in records if record["engine"] == engine
        )
        series[display] = {str(steps): counter.get(steps, 0) for steps in steps_axis}
    return series


def figure10_throughput() -> Dict[str, Dict[int, float]]:
    """Queries/second by synthesis steps (Figure 10's second message).

    Derived from the engine cost model: the paper reports 9-step queries
    6.6x slower than 3-step ones, ~6 q/s on Memgraph and ~3 q/s on Neo4j at
    9 steps.
    """
    out: Dict[str, Dict[int, float]] = {}
    for engine in _ENGINE_ORDER:
        dialect = DIALECTS[engine]
        out[dialect.display_name] = {
            steps: round(1.0 / dialect.cost_of_steps(steps), 2)
            for steps in range(1, 10)
        }
    return out


def figure11(records) -> Dict[str, int]:
    """Aggregated clause occurrences in the bug-triggering queries."""
    counter: Counter = Counter()
    for record in records:
        counter.update(record["clause_names"])
    return dict(counter.most_common())


def figure12(records) -> Dict[str, int]:
    """Number of bugs whose triggering query involves each clause type."""
    counter: Counter = Counter()
    for record in records:
        for clause in set(record["clause_names"]):
            counter[clause] += 1
    return dict(counter.most_common())


def figure13(records) -> Dict[str, int]:
    """Bug distribution by number of cross-clause dependencies."""
    return _bucket_distribution(
        records,
        "dependencies",
        [
            (0, 10, "0-10"),
            (11, 20, "11-20"),
            (21, 40, "21-40"),
            (41, 60, "41-60"),
            (61, None, ">60"),
        ],
    )


def figure14(records) -> Dict[str, int]:
    """Bug distribution by number of patterns."""
    return _bucket_distribution(
        records,
        "patterns",
        [
            (0, 1, "0-1"),
            (2, 3, "2-3"),
            (4, 6, "4-6"),
            (7, 9, "7-9"),
            (10, None, ">=10"),
        ],
    )


def figure15(records) -> Dict[str, int]:
    """Bug distribution by depth of nested expressions."""
    return _bucket_distribution(
        records,
        "depth",
        [
            (0, 3, "0-3"),
            (4, 5, "4-5"),
            (6, 8, "6-8"),
            (9, 12, "9-12"),
            (13, None, ">12"),
        ],
    )


def figure18(
    campaigns: Dict[Tuple, CampaignResult],
    engines: Sequence[str] = ("neo4j", "falkordb"),
    n_points: int = 12,
) -> Dict[str, Dict[str, List[Tuple[float, int]]]]:
    """Cumulative bugs over the 24-hour-equivalent campaign (Figure 18).

    Takes the campaign results of Table 6 — keyed ``(tester, engine)`` or,
    straight from :func:`repro.experiments.run_campaign_grid`,
    ``(tester, engine, seed)`` — and returns, per engine and tool, a series
    of (time fraction of budget, cumulative distinct bugs).
    """
    out: Dict[str, Dict[str, List[Tuple[float, int]]]] = {}
    for engine in engines:
        engine_series: Dict[str, List[Tuple[float, int]]] = {}
        relevant = {
            key[0]: result
            for key, result in campaigns.items()
            if key[1] == engine
        }
        if not relevant:
            continue
        budget = max(result.sim_seconds for result in relevant.values())
        for tool, result in relevant.items():
            series: List[Tuple[float, int]] = []
            for index in range(n_points + 1):
                t = budget * index / n_points
                count = sum(1 for when, _fid in result.timeline if when <= t)
                series.append((round(t, 1), count))
            engine_series[tool] = series
        out[DIALECTS[engine].display_name] = engine_series
    return out
