"""Fold probe records into the benchmark's end-to-end and per-layer metrics."""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from calibrate import NOMINAL_MS
from workloads import Outcome

__all__ = ["Pass", "tail", "layer_metrics", "PER_LAYER"]

#: Per-layer metric names and units, in the order they are reported.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("graph.generate.s", "s"),
    ("graph.copy.s", "s"),
    ("graph.property_keys.s", "s"),
    ("graph.property_keys.calls", "count"),
    ("core.synthesize.s", "s"),
    ("core.synthesize.calls", "count"),
    ("core.synthesize.ms_p50", "ms"),
    ("core.synthesize.ms_tail", "ms"),
    ("core.ground_truth.s", "s"),
    ("core.oracle.s", "s"),
    ("core.query_bytes", "bytes"),
    ("cypher.parse.s", "s"),
    ("cypher.parse.calls", "count"),
    ("cypher.parse.bytes", "bytes"),
    ("cypher.tokenize.s", "s"),
    ("cypher.print.s", "s"),
    ("cypher.analyze.s", "s"),
    ("gdb.execute.s", "s"),
    ("gdb.execute.ms_p50", "ms"),
    ("gdb.execute.ms_tail", "ms"),
    ("gdb.features.s", "s"),
    ("gdb.load_graph.s", "s"),
    ("gdb.fault_fired_share", "ratio"),
    ("engine.execute.s", "s"),
    ("engine.execute.calls", "count"),
    ("plan.build.s", "s"),
    ("plan.build.calls", "count"),
    ("plan.execute.s", "s"),
    ("plan.cache_hit_ratio", "ratio"),
    ("baselines.propose.s", "s"),
    ("baselines.judge.s", "s"),
    ("state.propose.s", "s"),
    ("state.model_apply.s", "s"),
    ("state.digest.s", "s"),
    ("obs.coverage.s", "s"),
    ("obs.triage.s", "s"),
    ("obs.record.s", "s"),
    ("obs.record.calls", "count"),
    ("obs.events.emit.s", "s"),
    ("obs.events.emit.bytes", "bytes"),
    ("obs.events.sync.calls", "count"),
    ("obs.events.sync.s", "s"),
    ("runtime.cell.s", "s"),
    ("runtime.idle_share", "ratio"),
    ("service.tick.s", "s"),
    ("service.leases", "count"),
    ("service.journal_sync.calls", "count"),
    ("service.idle_share", "ratio"),
    ("reduce.replays", "count"),
    ("reduce.replay.s", "s"),
    ("reduce.roundtrip.s", "s"),
    ("reduce.accepted_share", "ratio"),
    ("reduce.memo_hit_ratio", "ratio"),
    ("unattributed_share", "ratio"),
    ("tracing_overhead", "ratio"),
    ("e2e.queries_per_s", "1/s"),
    ("e2e.task_s_tail", "s"),
    ("e2e.false_positives", "count"),
    ("e2e.failed_share", "ratio"),
    ("e2e.shrink_ratio", "ratio"),
)

#: Task spans: the roots whose uncovered time is the unattributed share.
TASK_SPANS = ("runtime.cell", "reduce.bundle")




@dataclass
class Pass:
    """One measured pass: its wall time, checked outcome and records."""

    wall: float
    outcome: Outcome
    records: List[Dict[str, Any]] = field(default_factory=list)


def query_latencies(passes: List[Pass]) -> List[float]:
    return [seconds for p in passes for record in p.records
            for seconds, _speed in record["queries"]]


def calibrated_latencies(passes: List[Pass]) -> List[float]:
    """Query seconds at the calibration loop's nominal speed."""
    return [seconds * NOMINAL_MS / speed for p in passes
            for record in p.records
            for seconds, speed in record["queries"]]


def calibrations(passes: List[Pass]) -> List[float]:
    return [speed for p in passes for record in p.records
            for _seconds, speed in record["queries"]]


def task_durations(passes: List[Pass]) -> List[float]:
    return [end - start for p in passes for record in p.records
            for _name, _req, start, end in record["tasks"]]


def tail(values: List[float], beyond: int = 10) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with *beyond* samples
    above it; the maximum when there are too few samples."""
    ordered = sorted(values)
    if len(ordered) <= beyond:
        return ordered[-1], 100.0
    index = len(ordered) - beyond - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class _SpanFold:
    calls: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    self_s: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    durations: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list))
    accepts_replayed: int = 0
    coordinator_syncs: int = 0


def _fold_spans(records: List[Dict[str, Any]]) -> _SpanFold:
    """Self time per span name: duration minus what direct children cover."""
    fold = _SpanFold()
    by_pid: Dict[int, List[List[Any]]] = defaultdict(list)
    for record in records:
        by_pid[record["pid"]].extend(record["spans"])
    for spans in by_pid.values():
        covered: Dict[int, float] = defaultdict(float)
        names: Dict[int, str] = {}
        replayed = set()
        for seq, name, start, end, parent, _req in spans:
            covered[parent] += end - start
            names[seq] = name
        for seq, name, start, end, parent, req in spans:
            duration = end - start
            fold.calls[name] += 1
            fold.self_s[name] += duration - covered[seq]
            fold.durations[name].append(duration)
            if name == "reduce.replay":
                replayed.add(parent)
            if name == "obs.events.sync" and req is None:
                fold.coordinator_syncs += 1
        fold.accepts_replayed += sum(
            1 for seq in replayed if names.get(seq) == "reduce.accepts"
        )
    return fold


def layer_metrics(traced: List[Pass], untraced: List[Pass], jobs: int,
                  service: bool, counted: int) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from traced passes and the untraced
    passes of the same inputs."""
    records = [record for p in traced for record in p.records]
    fold = _fold_spans(records)
    counts: Dict[str, float] = defaultdict(float)
    for record in records:
        for name, value in record["counts"].items():
            counts[name] += value

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def ms(name: str, pick) -> float:
        values = fold.durations.get(name)
        return 1e3 * pick(values) if values else 0.0

    metrics: Dict[str, float] = {}
    for name, _unit in PER_LAYER:
        base, _, suffix = name.rpartition(".")
        if suffix == "s" and base in fold.calls:
            metrics[name] = fold.self_s[base]
        elif suffix == "calls":
            metrics[name] = fold.calls.get(base, 0)
        elif suffix == "ms_p50":
            metrics[name] = ms(base, statistics.median)
        elif suffix == "ms_tail":
            metrics[name] = ms(base, lambda values: tail(values)[0])
        else:
            metrics[name] = 0.0

    traced_wall = sum(p.wall for p in traced)
    untraced_wall = sum(p.wall for p in untraced)
    idle = 1.0 - ratio(sum(task_durations(traced)), traced_wall * jobs)
    task_total = sum(sum(fold.durations.get(name, ())) for name in TASK_SPANS)
    task_self = sum(fold.self_s.get(name, 0.0) for name in TASK_SPANS)
    accepts = fold.calls.get("reduce.accepts", 0)
    figures = dict((name, value) for name, value, _unit in
                   informational(untraced, counted, labelled=False))
    metrics.update({
        "core.query_bytes": counts["core.query_bytes"],
        "cypher.parse.bytes": counts["cypher.parse.bytes"],
        "gdb.fault_fired_share": ratio(counts["gdb.fault_fired"],
                                       fold.calls.get("gdb.execute", 0)),
        "plan.cache_hit_ratio": ratio(counts["plan.cache_hits"],
                                      fold.calls.get("plan.cache_get", 0)),
        "obs.events.emit.bytes": sum(p.outcome.log_bytes for p in traced),
        "runtime.cell.s": sum(fold.durations.get("runtime.cell", ())),
        "runtime.idle_share": 0.0 if service else idle,
        "service.leases": fold.calls.get("service.lease", 0),
        "service.journal_sync.calls": fold.coordinator_syncs,
        "service.idle_share": idle if service else 0.0,
        "reduce.replays": fold.calls.get("reduce.replay", 0),
        "reduce.accepted_share": ratio(counts["reduce.accepted"],
                                       fold.accepts_replayed),
        "reduce.memo_hit_ratio": ratio(accepts - fold.accepts_replayed,
                                       accepts),
        "unattributed_share": ratio(task_self, task_total),
        "tracing_overhead": traced_wall / untraced_wall - 1.0,
    })
    for name in ("queries_per_s", "task_s_tail", "false_positives",
                 "failed_share", "shrink_ratio"):
        metrics["e2e." + name] = figures.get(name, 0.0)
    return metrics


def end_to_end(passes: List[Pass], counted: int,
               setups: List[float]) -> Dict[str, float]:
    """The gated end-to-end metrics; counts come from the first *counted*
    passes.  Query latency is stated at the calibration loop's nominal
    speed, so drift of the host cancels.  ``distinct_bugs`` is the mean
    over those passes of the distinct bugs each pass found: every pass is
    one campaign (or reduction), and the mean is steadier than the union,
    which turns on whether a run happens to meet a rare bug."""
    return {
        "setup_s": _median(setups),
        "query_ms_p50_cal": 1e3 * _median(calibrated_latencies(passes)),
        "distinct_bugs": statistics.fmean(
            len(p.outcome.bugs) for p in passes[:counted]),
    }


def informational(passes: List[Pass], counted: int, labelled: bool = True
                  ) -> List[Tuple[str, Any, str]]:
    """The other end-to-end figures, printed beside the gated ones.

    Timings pool every pass; counts come from the first *counted* passes.
    With *labelled*, tail names state their percentile and sample count.
    """
    counted_outcomes = [p.outcome for p in passes[:counted]]
    wall = sum(p.wall for p in passes)
    tasks = task_durations(passes)
    queries = query_latencies(passes)
    attempted = sum(p.outcome.attempted for p in passes)
    failed = sum(p.outcome.failed for p in passes)
    ratios = [value for outcome in counted_outcomes
              for value in outcome.shrink_ratios]
    rows: List[Tuple[str, Any, str]] = [
        ("query_ms_p50", 1e3 * _median(queries), "ms"),
        ("calibration_ms", _median(calibrations(passes)), "ms"),
        ("queries_per_s", sum(p.outcome.queries for p in passes) / wall,
         "1/s"),
        ("task_s_p50", _median(tasks), "s"),
    ]
    if tasks:
        value, pct = tail(tasks)
        label = f" (p{pct:.1f} of {len(tasks)} tasks)" if labelled else ""
        rows.append(("task_s_tail" + label, value, "s"))
    if queries:
        value, pct = tail(queries)
        label = f" (p{pct:.2f} of {len(queries)} queries)" if labelled else ""
        rows.append(("query_ms_tail" + label, 1e3 * value, "ms"))
    rows += [
        ("distinct_bugs_union",
         len(set().union(*(o.bugs for o in counted_outcomes))), "count"),
        ("false_positives",
         sum(o.false_positives for o in counted_outcomes), "count"),
        ("failed_share", failed / attempted if attempted else 0.0, "ratio"),
    ]
    if ratios:
        rows.append(("shrink_ratio", sum(ratios) / len(ratios), "ratio"))
    return rows
