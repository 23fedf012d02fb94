"""Command-line interface for the GQS reproduction.

Usage (also available as ``python -m repro``):

    repro campaign --engine falkordb --minutes 5 [--tester GQS] [--out r.json]
                   [--seeds K --jobs N] [--events LOG] [--resume LOG]
                   [--metrics] [--coverage] [--triage] [--bundles DIR]
                   [--reduce] [--cell-timeout S] [--cell-retries N]
                   [--chaos P,SEED] [--step-budget S]
                   [--engine-mode interpreted|compiled|dual]
    repro compare  --engine falkordb --minutes 2 [--jobs N] [--resume LOG]
                   [--metrics] [--coverage] [--triage] [--bundles DIR]
                   [--reduce] [--cell-timeout S] [--cell-retries N]
                   [--chaos P,SEED] [--step-budget S]
                   [--engine-mode interpreted|compiled|dual]
    repro stats    events.jsonl [--format text|json]
    repro trace    events.jsonl [--export chrome [--out trace.json]]
    repro watch    events.jsonl [--once] [--interval S]
    repro report   events.jsonl [--out report.html] [--title T]
    repro coverage events.jsonl
    repro bugs     events.jsonl [--format text|json]
    repro replay   bundle.json [bundle2.json ...]
    repro reduce   bundle.json|DIR [...] [--jobs N] [--replay-budget R]
                   [--step-budget S]
    repro table    2|3|4|5|6
    repro figure   10|11|12|13|14|15|18
    repro synthesize --seed 7 [--engine neo4j]
    repro calibrate [--n 200]

``repro run`` is an alias for ``repro campaign`` (mirroring common driver
CLIs).  Campaign grids fan out over a process pool (``--jobs``) and
checkpoint every completed (tester, engine, seed) cell to a JSONL event log,
so an interrupted run restarts from where it left off (``--resume``).

With ``--metrics`` the observability layer (:mod:`repro.obs`) is switched on
for the run: counters, histograms, and spans are collected and written into
the event stream as ``metrics`` / ``span`` events, which ``repro stats`` and
``repro trace`` render afterwards.  ``repro watch`` follows a *live* log
(torn-line-tolerant incremental tailing, refresh-in-place view); ``repro
report`` writes a self-contained static HTML report; ``--format json`` and
``--export chrome`` produce machine-readable exports
(:mod:`repro.obs.export`).  ``--coverage`` and ``--triage`` switch
on the second tier — query-feature coverage and bug-signature triage
snapshots (``coverage`` / ``triage`` events, rendered by ``repro coverage``
/ ``repro bugs``) — and ``--bundles DIR`` makes the flight recorder write
one replayable repro bundle per new bug signature (``repro replay``).  With
``--reduce`` every recorded bundle is additionally minimized in place
through the delta-debugging subsystem (``*.min.json``, :mod:`repro.reduce`)
— ``repro reduce`` runs the same minimization after the fact over existing
bundles or whole bundle directories.  None of these perturb the RNG streams
— results are byte-identical with or without the flags.

Grid robustness (:mod:`repro.runtime.supervisor`): ``--cell-timeout``
watchdogs each cell, ``--cell-retries`` retries failed cells with
deterministic backoff before quarantining them (the grid completes with
explicit holes), ``--step-budget`` caps evaluation steps per judgement
(a blown budget is a ``harness_error`` event, never a false bug), and
``--chaos P[,SEED]`` deterministically injects worker crashes/hangs/errors
and event-log tail truncation to exercise the supervisor itself.  See
``docs/robustness.md``.

``--engine-mode`` selects the target engines' execution core
(:mod:`repro.engine.plan`): ``interpreted`` (the reference evaluator,
default), ``compiled`` (operator pipelines with indexes and a plan cache),
or ``dual`` (run both and raise on any divergence — the differential
self-check).  Campaign results are identical across modes; see
``docs/execution.md``.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _add_cell_arguments(parser: argparse.ArgumentParser,
                        minutes: float) -> None:
    """Per-cell campaign options (one :class:`repro.runtime.CellConfig`
    field each), shared by campaign, compare and submit."""
    parser.add_argument("--minutes", type=float, default=minutes,
                        help="simulated minutes of testing per cell")
    parser.add_argument("--gate-scale", type=float, default=1.0,
                        help="<1 compresses fault latency")
    parser.add_argument("--metrics", action="store_true",
                        help="collect metrics and spans into the event log")
    parser.add_argument("--coverage", action="store_true",
                        help="collect query-feature coverage events")
    parser.add_argument("--triage", action="store_true",
                        help="collect bug-signature triage events")
    parser.add_argument(
        "--step-budget", type=int, default=None, metavar="S",
        help="evaluation step budget per judgement; a blown budget is "
             "recorded as a harness_error, never a bug",
    )
    parser.add_argument(
        "--engine-mode", default="interpreted",
        choices=["interpreted", "compiled", "dual"],
        help="execution core for the target engines: the reference "
             "interpreter, compiled operator pipelines, or dual "
             "(both, raising on any divergence)",
    )
    parser.add_argument(
        "--adaptive", nargs="?", const="epsilon", default=None,
        choices=["epsilon", "ucb"], metavar="STRATEGY",
        help="coverage-guided adaptive synthesis: feed feature-tag and "
             "signature-novelty feedback into the synthesizer via an "
             "explore/exploit schedule (epsilon-decay greedy by default, "
             "or UCB1); deterministic given the cell seed",
    )
    parser.add_argument(
        "--stateful", nargs="?", const=0.5, default=None, type=float,
        metavar="RATIO",
        help="state-aware write-workload synthesis (GQS only): interleave "
             "write statements (CREATE/MERGE/SET/DELETE/REMOVE) with reads "
             "at the given write ratio (default 0.5) and check post-write "
             "state against a lockstep shadow graph",
    )


def _cell_config(args):
    """The validated :class:`CellConfig` of the cell flags (None when
    invalid; prints why)."""
    from repro.runtime import CellConfig

    try:
        return CellConfig.from_dict({
            "budget_seconds": args.minutes * 60.0,
            "gate_scale": args.gate_scale,
            "execution_mode": args.engine_mode,
            "adaptive": args.adaptive,
            "stateful": args.stateful,
            "step_budget": args.step_budget,
            "record_metrics": args.metrics,
            "record_coverage": args.coverage,
            "record_triage": args.triage,
        })
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return None


def _add_grid_output_arguments(parser: argparse.ArgumentParser) -> None:
    """Event-log and flight-recorder flags shared by campaign and compare."""
    parser.add_argument("--events", default=None,
                        help="append the JSONL event stream to this path")
    parser.add_argument("--resume", default=None,
                        help="resume completed cells from this event log")
    parser.add_argument("--bundles", default=None, metavar="DIR",
                        help="write one repro bundle per new bug signature")
    parser.add_argument("--reduce", action="store_true",
                        help="minimize each recorded bundle (*.min.json); "
                             "requires --bundles")


def _add_supervisor_arguments(parser: argparse.ArgumentParser) -> None:
    """Cell-supervisor robustness flags shared by campaign and compare."""
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock watchdog per grid cell; a hung cell is "
             "terminated and counted as a failed attempt",
    )
    parser.add_argument(
        "--cell-retries", type=int, default=0, metavar="N",
        help="retry a failed cell up to N times (same seed, exponential "
             "backoff) before quarantining it",
    )
    parser.add_argument(
        "--chaos", default=None, metavar="P[,SEED]",
        help="deterministically inject worker crashes/hangs/errors and "
             "event-log tail truncation with probability P (supervisor "
             "self-test; campaign results are unaffected)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GQS: testing graph databases with synthesized queries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser(
        "campaign", aliases=["run"],
        help="run one tester against one engine",
    )
    campaign.add_argument("--engine", default="falkordb",
                          choices=["neo4j", "memgraph", "kuzu", "falkordb"])
    campaign.add_argument("--tester", default="GQS",
                          choices=["GQS", "GDsmith", "GDBMeter", "Gamera",
                                   "GQT", "GRev"])
    campaign.add_argument("--seed", type=int, default=0)
    campaign.add_argument("--out", default=None,
                          help="write the campaign result as JSON")
    campaign.add_argument("--seeds", type=int, default=1,
                          help="replicate the campaign over K derived seeds")
    campaign.add_argument("--jobs", type=int, default=1,
                          help="worker processes for the seed replicates")
    _add_cell_arguments(campaign, minutes=5.0)
    _add_grid_output_arguments(campaign)
    _add_supervisor_arguments(campaign)

    compare = sub.add_parser("compare", help="all six testers, same budget")
    compare.add_argument("--engine", default="falkordb",
                         choices=["neo4j", "memgraph", "kuzu", "falkordb"])
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the tester grid")
    compare.add_argument("--format", default="text",
                         choices=["text", "json"],
                         help="text table (default) or machine-readable "
                              "JSON rows")
    _add_cell_arguments(compare, minutes=2.0)
    _add_grid_output_arguments(compare)
    _add_supervisor_arguments(compare)

    stats = sub.add_parser(
        "stats", help="render metrics from a recorded event log"
    )
    stats.add_argument("events", help="JSONL event log written with --metrics")
    stats.add_argument("--format", default="text", choices=["text", "json"],
                       help="text tables (default) or machine-readable JSON")

    trace = sub.add_parser(
        "trace", help="render the span tree from a recorded event log"
    )
    trace.add_argument("events", help="JSONL event log written with --metrics")
    trace.add_argument("--export", default=None, choices=["chrome"],
                       help="emit Chrome trace-event JSON (chrome://tracing) "
                            "instead of the text tree")
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="write the export to PATH instead of stdout")

    watch = sub.add_parser(
        "watch",
        help="follow a (possibly still growing) event log live",
    )
    watch.add_argument("events", help="JSONL event log of a running campaign")
    watch.add_argument("--once", action="store_true",
                       help="render one snapshot and exit (for scripting)")
    watch.add_argument("--interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="poll/refresh interval (default: 2s)")
    watch.add_argument("--format", default="text", choices=["text", "json"],
                       help="terminal view (default) or machine-readable "
                            "JSON (stats_json shapes + live watch state); "
                            "without --once, emits one JSON line per poll")

    report = sub.add_parser(
        "report",
        help="write a self-contained static HTML report from an event log",
    )
    report.add_argument("events", help="JSONL event log of a finished run")
    report.add_argument("--out", default=None, metavar="PATH",
                        help="output path (default: the log path with .html)")
    report.add_argument("--title", default=None,
                        help="report title (default: derived from the log)")

    coverage = sub.add_parser(
        "coverage", help="render query-feature coverage from an event log"
    )
    coverage.add_argument(
        "events", help="JSONL event log written with --coverage"
    )

    bugs = sub.add_parser(
        "bugs", help="render the distinct-bug table from an event log"
    )
    bugs.add_argument("events", help="JSONL event log written with --triage")
    bugs.add_argument("--format", default="text", choices=["text", "json"],
                      help="text table (default) or machine-readable JSON")

    replay = sub.add_parser(
        "replay", help="replay flight-recorder repro bundle(s)"
    )
    replay.add_argument("bundles", nargs="+",
                        help="bundle JSON file(s) written with --bundles")

    reduce = sub.add_parser(
        "reduce",
        help="minimize repro bundle(s) via signature-preserving ddmin",
    )
    reduce.add_argument(
        "sources", nargs="+",
        help="bundle JSON file(s) and/or directories of bundles",
    )
    reduce.add_argument("--jobs", type=int, default=1,
                        help="worker processes (one bundle per task)")
    reduce.add_argument(
        "--replay-budget", type=int, default=None, metavar="R",
        help="cap replica executions per bundle (default: unbounded)",
    )
    reduce.add_argument(
        "--step-budget", type=int, default=None, metavar="S",
        help="evaluation step budget per replay (a blown budget rejects "
             "the candidate instead of hanging the reduction)",
    )

    table = sub.add_parser("table", help="regenerate a table from the paper")
    table.add_argument("id", type=int, choices=[2, 3, 4, 5, 6])
    table.add_argument("--seed", type=int, default=0)
    table.add_argument("--jobs", type=int, default=1,
                       help="worker processes (tables 3, 4 and 6)")

    figure = sub.add_parser("figure", help="regenerate a figure from the paper")
    figure.add_argument("id", type=int, choices=[10, 11, 12, 13, 14, 15, 18])
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the underlying campaigns")

    synthesize = sub.add_parser(
        "synthesize", help="synthesize one query and show its ground truth"
    )
    synthesize.add_argument("--seed", type=int, default=7)
    synthesize.add_argument("--engine", default="neo4j",
                            choices=["neo4j", "memgraph", "kuzu", "falkordb"])

    calibrate = sub.add_parser(
        "calibrate", help="print per-fault trigger rates per generator"
    )
    calibrate.add_argument("--n", type=int, default=200)

    serve = sub.add_parser(
        "serve",
        help="run the fault-tolerant campaign service (HTTP JSON API)",
    )
    serve.add_argument("journal",
                       help="JSONL journal path; an existing journal is "
                            "replayed so a restarted service resumes "
                            "exactly where the dead one stopped")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (0 picks an ephemeral port; the "
                            "bound endpoint is printed on startup)")
    serve.add_argument("--jobs", type=int, default=2,
                       help="concurrent lease-worker processes")
    serve.add_argument("--capacity", type=int, default=256,
                       help="max outstanding (pending+leased) cells before "
                            "admission answers 429 + Retry-After")
    serve.add_argument("--lease-seconds", type=float, default=120.0,
                       help="hard wall-clock deadline per cell lease")
    serve.add_argument("--heartbeat-seconds", type=float, default=1.0,
                       help="worker heartbeat interval")
    serve.add_argument("--heartbeat-misses", type=int, default=3,
                       help="consecutive silent intervals before the lease "
                            "is revoked as missed_heartbeat")
    serve.add_argument("--cell-retries", type=int, default=2,
                       help="failed attempts per cell before quarantine "
                            "(same seed, exponential backoff)")
    serve.add_argument("--retry-backoff", type=float, default=None,
                       metavar="SECONDS", help="base retry backoff")
    serve.add_argument("--chaos", default=None, metavar="P[,SEED]",
                       help="deterministically inject worker crashes/hangs/"
                            "errors, heartbeat stalls and journal tail "
                            "truncation (self-test; results unaffected)")

    submit = sub.add_parser(
        "submit", help="submit a campaign grid job to a running service"
    )
    submit.add_argument("--url", default="http://127.0.0.1:8765",
                        help="service endpoint (see `repro serve`)")
    submit.add_argument("--tester", action="append", dest="testers",
                        choices=["GQS", "GDsmith", "GDBMeter", "Gamera",
                                 "GQT", "GRev"],
                        help="repeatable; default GQS")
    submit.add_argument("--engine", action="append", dest="engines",
                        choices=["neo4j", "memgraph", "kuzu", "falkordb"],
                        help="repeatable; default falkordb")
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--seeds", type=int, default=1,
                        help="K seeds starting at --seed")
    submit.add_argument("--spec", default=None, metavar="PATH",
                        help="submit a raw JSON job spec instead of flags")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes; exits 3 when "
                             "any cell was quarantined")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait deadline in seconds")
    _add_cell_arguments(submit, minutes=2.0)

    jobs = sub.add_parser("jobs", help="list jobs on a running service")
    jobs.add_argument("--url", default="http://127.0.0.1:8765")
    jobs.add_argument("--job", default=None, metavar="ID",
                      help="show one job with per-cell detail")
    jobs.add_argument("--format", default="text", choices=["text", "json"])

    cancel = sub.add_parser(
        "cancel", help="cancel a job (or drain the whole service)"
    )
    cancel.add_argument("job", nargs="?", default=None, metavar="ID")
    cancel.add_argument("--url", default="http://127.0.0.1:8765")
    cancel.add_argument("--drain", action="store_true",
                        help="graceful drain: stop admissions and leasing, "
                             "finish in-flight cells, then exit")
    return parser


def _grid_inputs(args):
    """The :class:`CellConfig` and the other ``run_campaign_grid``
    arguments of the campaign/compare flags; None when they are invalid
    (prints why)."""
    if args.reduce and not args.bundles:
        print("--reduce requires --bundles DIR", file=sys.stderr)
        return None
    chaos = _parse_chaos(args)
    config = _cell_config(args)
    if (args.chaos and chaos is None) or config is None:
        return None
    return config, dict(
        jobs=args.jobs, events_path=args.events or args.resume,
        resume_path=args.resume, bundle_dir=args.bundles,
        reduce_bundles=args.reduce, cell_timeout=args.cell_timeout,
        cell_retries=args.cell_retries, chaos=chaos,
    )


def _cmd_campaign(args) -> int:
    from repro.experiments import run_campaign_grid, tester_supports
    from repro.experiments.campaign import run_tool_campaign, split_fault_counts

    if not tester_supports(args.tester, args.engine):
        print(f"{args.tester} does not support {args.engine}", file=sys.stderr)
        return 2
    inputs = _grid_inputs(args)
    if inputs is None:
        return 2
    config, grid_options = inputs

    supervised = (args.cell_timeout is not None or args.cell_retries
                  or grid_options["chaos"] is not None)
    if args.seeds <= 1 and not args.resume and not supervised:
        events = None
        if args.events:
            from repro.runtime import EventLog

            events = EventLog(args.events, record_spans=args.metrics)
        result = run_tool_campaign(
            args.tester, args.engine, seed=args.seed, events=events,
            bundle_dir=args.bundles, reduce_bundles=args.reduce,
            config=config,
        )
        if events is not None:
            events.close()
        results = {(args.tester, args.engine, args.seed): result}
    else:
        # Replicate fan-out: K derived seeds over N workers, resumable,
        # supervised (sandbox, watchdog, retries, quarantine, chaos).
        results = run_campaign_grid(
            (args.tester,), (args.engine,),
            seeds=range(args.seed, args.seed + args.seeds),
            derive_seeds=args.seeds > 1, config=config, **grid_options,
        )

    all_faults: List[str] = []
    for (_tester, _engine, seed), result in results.items():
        logic, other = split_fault_counts(result.detected_faults)
        print(
            f"{args.tester} on {args.engine} (seed {seed}): "
            f"{result.queries_run} queries, "
            f"{logic + other} distinct bugs ({logic} logic), "
            f"{result.false_positive_count} false positives"
        )
        for fault_id in result.detected_faults:
            print(f"  - {fault_id}")
            if fault_id not in all_faults:
                all_faults.append(fault_id)
    if len(results) > 1:
        logic, other = split_fault_counts(all_faults)
        print(f"union over {len(results)} seeds: "
              f"{logic + other} distinct bugs ({logic} logic)")
    if args.triage:
        # Signature-deduplicated view of the raw discrepancy stream.
        from repro.experiments.campaign import distinct_bug_summary

        for tester, entry in distinct_bug_summary(results).items():
            print(f"{tester}: {entry['distinct']} distinct signature(s) "
                  f"over {entry['reports']} discrepancy report(s)")
            for sig, count in entry["signatures"].items():
                print(f"  {sig}  ×{count}")
    if args.out:
        from repro.core.reporting import save_campaign

        merged = None
        for result in results.values():
            merged = result if merged is None else merged.merge(result)
        save_campaign(merged, args.out)
        print(f"campaign written to {args.out}")
    return _grid_exit_code(
        results, (args.tester,), (args.engine,),
        range(args.seed, args.seed + args.seeds),
        derive_seeds=args.seeds > 1,
    )


def _grid_exit_code(results, testers, engines, seeds, *,
                    derive_seeds=False) -> int:
    """0 when the grid is whole, 3 when quarantine left holes.

    The documented exit-code contract (docs/robustness.md): a grid that
    *completed* but is missing cells — retries exhausted, cells
    quarantined — must not look like success to CI.  Holes are computed
    against the same decomposition that scheduled the grid, so resumed
    and derived-seed runs are judged against exactly the cells they owed.
    """
    from repro.experiments.campaign import campaign_grid_cells

    expected = campaign_grid_cells(testers, engines, seeds=seeds,
                                   derive_seeds=derive_seeds)
    holes = [cell.key for cell in expected if cell.key not in results]
    if not holes:
        return 0
    labels = ", ".join("/".join(str(part) for part in key)
                       for key in holes[:6])
    if len(holes) > 6:
        labels += f", ... and {len(holes) - 6} more"
    print(
        f"warning: {len(holes)} grid cell(s) quarantined or missing "
        f"({labels}); exiting 3",
        file=sys.stderr,
    )
    return 3


def _cmd_compare(args) -> int:
    from repro.experiments import run_campaign_grid
    from repro.experiments.campaign import (
        TESTER_NAMES,
        distinct_bug_summary,
        split_fault_counts,
    )

    inputs = _grid_inputs(args)
    if inputs is None:
        return 2
    config, grid_options = inputs
    grid = run_campaign_grid(TESTER_NAMES, (args.engine,), seeds=(args.seed,),
                             config=config, **grid_options)
    by_tool = {tool: result for (tool, _e, _s), result in grid.items()}
    # "distinct" deduplicates the raw report stream by bug signature —
    # "bugs" counts injected faults (white-box), "reports" every
    # discrepancy the tester surfaced (including false positives).
    dedup = distinct_bug_summary(grid)
    rows = []
    for tool in TESTER_NAMES:
        result = by_tool.get(tool)
        if result is None:
            rows.append({"tester": tool, "completed": False})
            continue
        logic, other = split_fault_counts(result.detected_faults)
        entry = dedup.get(tool, {"reports": 0, "distinct": 0})
        rows.append({
            "tester": tool,
            "completed": True,
            "queries": result.queries_run,
            "bugs": logic + other,
            "logic": logic,
            "false_positives": result.false_positive_count,
            "reports": entry["reports"],
            "distinct": entry["distinct"],
        })
    exit_code = _grid_exit_code(grid, TESTER_NAMES, (args.engine,),
                                (args.seed,))
    if args.format == "json":
        import json

        from repro.obs.export import compare_json

        print(json.dumps(compare_json(args.engine, rows, seed=args.seed),
                         indent=2, sort_keys=True))
        return exit_code
    print(f"{'tester':>9s} {'queries':>8s} {'bugs':>5s} {'logic':>6s} "
          f"{'FPs':>5s} {'reports':>8s} {'distinct':>9s}")
    for row in rows:
        if not row["completed"]:
            print(f"{row['tester']:>9s} {'-':>8s}")
            continue
        print(
            f"{row['tester']:>9s} {row['queries']:8d} {row['bugs']:5d} "
            f"{row['logic']:6d} {row['false_positives']:5d} "
            f"{row['reports']:8d} {row['distinct']:9d}"
        )
    return exit_code


def _parse_chaos(args):
    """Parse --chaos (None when absent or invalid; invalid prints why)."""
    if not args.chaos:
        return None
    from repro.runtime import ChaosConfig

    try:
        return ChaosConfig.parse(args.chaos)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return None


def _load_events(path: str) -> Optional[list]:
    from pathlib import Path

    from repro.core.reporting import load_event_stream

    if not Path(path).exists():
        print(f"no such event log: {path}", file=sys.stderr)
        return None
    return load_event_stream(path)


def _warn_skipped(events) -> None:
    """Warn when the log lost lines to truncation/tearing — and say where.

    Each torn line is pinned to its byte offset and length (from
    ``EventStream.skipped_lines``) so an operator can inspect the damage
    with ``dd``/``tail -c`` instead of guessing.
    """
    skipped = getattr(events, "skipped", 0)
    if skipped:
        print(
            f"warning: {skipped} torn/undecodable line(s) skipped — "
            "the log was truncated mid-write; totals may undercount",
            file=sys.stderr,
        )
        torn = list(getattr(events, "skipped_lines", ()))
        for entry in torn[:8]:
            print(
                f"  torn line at byte offset {entry['offset']} "
                f"({entry['length']} byte(s))",
                file=sys.stderr,
            )
        if len(torn) > 8:
            print(f"  ... and {len(torn) - 8} more", file=sys.stderr)


def _cmd_stats(args) -> int:
    import json

    from repro.obs import render_stats
    from repro.obs.export import stats_json

    events = _load_events(args.events)
    if events is None:
        return 2
    _warn_skipped(events)
    if args.format == "json":
        print(json.dumps(
            stats_json(
                events,
                skipped=getattr(events, "skipped", 0),
                torn=list(getattr(events, "skipped_lines", ())),
            ),
            indent=2, sort_keys=True,
        ))
        return 0
    print(render_stats(events))
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import render_trace

    events = _load_events(args.events)
    if events is None:
        return 2
    if args.export == "chrome":
        import json

        from repro.obs.export import chrome_trace

        payload = json.dumps(chrome_trace(events), indent=2, sort_keys=True)
        if args.out:
            from pathlib import Path

            Path(args.out).write_text(payload + "\n", encoding="utf-8")
            print(f"chrome trace written to {args.out}")
        else:
            print(payload)
        return 0
    print(render_trace(events))
    return 0


def _cmd_watch(args) -> int:
    import json
    import time

    from pathlib import Path

    from repro.obs.follow import EventFollower, render_watch, watch_json

    if args.once and not Path(args.events).exists():
        print(f"no such event log: {args.events}", file=sys.stderr)
        return 2
    follower = EventFollower(args.events)
    if args.once:
        follower.poll()
        if args.format == "json":
            print(json.dumps(watch_json(follower), indent=2,
                             sort_keys=True))
        else:
            print(render_watch(follower))
        return 0
    interval = max(args.interval, 0.05)
    last_queries = 0
    last_time = time.monotonic()
    rate = None
    try:
        while True:
            follower.poll()
            now = time.monotonic()
            if now > last_time:
                rate = (follower.total_queries - last_queries) / (
                    now - last_time
                )
            last_queries, last_time = follower.total_queries, now
            if args.format == "json":
                # One compact snapshot per line: a machine-tailable feed.
                print(json.dumps(watch_json(follower, rate=rate),
                                 sort_keys=True, separators=(",", ":")))
                sys.stdout.flush()
            else:
                # Refresh in place: home the cursor, repaint, clear the rest.
                frame = render_watch(follower, rate=rate)
                sys.stdout.write("\x1b[H" + frame + "\x1b[J\n")
                sys.stdout.flush()
            if follower.finished:
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_report(args) -> int:
    from pathlib import Path

    from repro.obs.export import html_report

    events = _load_events(args.events)
    if events is None:
        return 2
    _warn_skipped(events)
    source = Path(args.events)
    out = Path(args.out) if args.out else source.with_suffix(".html")
    title = args.title or f"repro campaign report — {source.name}"
    out.write_text(
        html_report(events, title=title,
                    skipped=getattr(events, "skipped", 0)),
        encoding="utf-8",
    )
    print(f"report written to {out}")
    return 0


def _cmd_coverage(args) -> int:
    from repro.obs import render_coverage

    events = _load_events(args.events)
    if events is None:
        return 2
    print(render_coverage(events))
    return 0


def _cmd_bugs(args) -> int:
    from repro.obs import render_bugs

    events = _load_events(args.events)
    if events is None:
        return 2
    if args.format == "json":
        import json

        from repro.obs.export import bugs_json

        print(json.dumps(bugs_json(events), indent=2, sort_keys=True))
        return 0
    print(render_bugs(events))
    return 0


def _cmd_replay(args) -> int:
    from pathlib import Path

    from repro.obs import replay_bundle

    failures = 0
    for path in args.bundles:
        if not Path(path).exists():
            print(f"no such bundle: {path}", file=sys.stderr)
            return 2
        try:
            outcome = replay_bundle(path)
        except ValueError as exc:
            # Malformed/truncated bundle JSON: one-line diagnostic naming
            # the file and parse position, not an unhandled traceback.
            print(str(exc), file=sys.stderr)
            return 2
        print(f"== {path} ==")
        print(outcome.describe())
        if not outcome.reproduced:
            failures += 1
            diverged = [
                side
                for side, match in (
                    ("expected", outcome.expected_matches),
                    ("actual", outcome.actual_matches),
                )
                if not match
            ]
            print(
                f"{path}: {' and '.join(diverged)} side(s) "
                "diverged from the recording",
                file=sys.stderr,
            )
    if failures:
        print(f"{failures} bundle(s) FAILED to reproduce", file=sys.stderr)
        return 1
    return 0


def _cmd_reduce(args) -> int:
    from pathlib import Path

    from repro.reduce import ReductionRunner, iter_bundle_paths

    for source in args.sources:
        if not Path(source).exists():
            print(f"no such bundle or directory: {source}", file=sys.stderr)
            return 2
    paths = iter_bundle_paths(args.sources)
    if not paths:
        print("no bundles found", file=sys.stderr)
        return 2
    # Pre-flight every bundle so a malformed file is one diagnostic line
    # up front, not a traceback out of a worker process mid-reduction.
    from repro.obs.recorder import load_bundle

    for path in paths:
        try:
            load_bundle(path)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    runner = ReductionRunner(jobs=args.jobs,
                             replay_budget=args.replay_budget,
                             step_budget=args.step_budget)
    failures = 0
    for outcome in runner.run(args.sources):
        if not outcome.reproduced:
            failures += 1
            print(
                f"{outcome.source}: does not replay to its recorded "
                "signature — not reduced",
                file=sys.stderr,
            )
            continue
        before, after = outcome.original, outcome.reduced
        print(
            f"{outcome.source}: {outcome.signature}\n"
            f"  nodes {before['nodes']} -> {after['nodes']}, "
            f"relationships {before['relationships']} -> "
            f"{after['relationships']}, "
            f"properties {before['properties']} -> {after['properties']}, "
            f"query {before['query_bytes']}B -> {after['query_bytes']}B "
            f"({outcome.oracle_replays} replays, "
            f"{outcome.rounds} round(s))\n"
            f"  -> {outcome.min_path}"
        )
    if failures:
        print(f"{failures} bundle(s) FAILED to reproduce", file=sys.stderr)
        return 1
    return 0


def _cmd_table(args) -> int:
    from repro import experiments as E

    if args.id == 2:
        print(E.render_table(E.table2(), "Table 2"))
    elif args.id == 3:
        campaigns = E.run_full_gqs_campaigns(seed=args.seed, jobs=args.jobs)
        print(E.render_table(E.table3(campaigns), "Table 3"))
    elif args.id == 4:
        campaigns = E.run_full_gqs_campaigns(seed=args.seed, jobs=args.jobs)
        data = E.table4(campaigns)
        print(E.render_table(data["missed"], "Table 4"))
        latency_rows = [
            {"GDB": engine,
             "avg latency (yrs)": round(values["avg"], 1),
             "max latency (yrs)": round(values["max"], 1)}
            for engine, values in data["latency"].items()
        ]
        print(E.render_table(latency_rows, "Table 4 — missed-bug latency"))
    elif args.id == 5:
        print(E.render_table(E.table5(n_queries=250, seed=args.seed), "Table 5"))
    elif args.id == 6:
        rows, _campaigns = E.table6(seed=args.seed, jobs=args.jobs)
        print(E.render_table(rows, "Table 6"))
    return 0


def _cmd_figure(args) -> int:
    from repro import experiments as E

    if args.id == 18:
        _rows, campaigns = E.table6(seed=args.seed, jobs=args.jobs)
        for engine, series in E.figure18(campaigns).items():
            print(E.render_series(series, f"Figure 18 — {engine}"))
        return 0

    campaigns = E.run_full_gqs_campaigns(seed=args.seed, jobs=args.jobs)
    records = E.collect_trigger_records(campaigns)
    if args.id == 10:
        for engine, counts in E.figure10(records).items():
            print(E.render_kv({k: v for k, v in counts.items() if v},
                              f"Figure 10 — {engine}"))
        for engine, series in E.figure10_throughput().items():
            print(E.render_kv(series, f"Figure 10 — {engine} q/s by steps"))
    elif args.id == 11:
        print(E.render_histogram(E.figure11(records), "Figure 11"))
    elif args.id == 12:
        print(E.render_histogram(E.figure12(records), "Figure 12"))
    elif args.id == 13:
        print(E.render_histogram(E.figure13(records), "Figure 13"))
    elif args.id == 14:
        print(E.render_histogram(E.figure14(records), "Figure 14"))
    elif args.id == 15:
        print(E.render_histogram(E.figure15(records), "Figure 15"))
    return 0


def _cmd_synthesize(args) -> int:
    from repro.core import QuerySynthesizer
    from repro.core.runner import synthesizer_config_for
    from repro.cypher import print_query
    from repro.gdb import create_engine
    from repro.graph import GraphGenerator

    schema, graph = GraphGenerator(seed=args.seed).generate_with_schema()
    engine = create_engine(args.engine)
    synthesizer = QuerySynthesizer(
        graph, rng=random.Random(args.seed),
        config=synthesizer_config_for(engine),
    )
    result = synthesizer.synthesize()
    print("expected result set:")
    for alias, value in zip(result.expected.columns, result.ground_truth.row()):
        print(f"  {alias} = {value!r}")
    print(f"rows expected: {len(result.expected)}")
    print(f"\nquery ({result.n_steps} clauses):")
    print(print_query(result.query))
    return 0


def _cmd_calibrate(args) -> int:
    import importlib.util
    from pathlib import Path

    script = Path(__file__).resolve().parents[2] / "scripts" / "calibrate_faults.py"
    spec = importlib.util.spec_from_file_location("calibrate_faults", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(args.n)
    return 0


def _cmd_serve(args) -> int:
    from repro.service import serve

    if args.chaos:
        from repro.runtime import ChaosConfig

        try:
            ChaosConfig.parse(args.chaos)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    return serve(
        args.journal,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        capacity=args.capacity,
        lease_seconds=args.lease_seconds,
        heartbeat_seconds=args.heartbeat_seconds,
        heartbeat_misses=args.heartbeat_misses,
        cell_retries=args.cell_retries,
        retry_backoff=args.retry_backoff,
        chaos=args.chaos,
    )


def _service_client(url):
    from repro.service import ServiceClient

    return ServiceClient(url)


def _cmd_submit(args) -> int:
    from repro.service import ServiceError

    if args.spec:
        import json
        from pathlib import Path

        try:
            spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"cannot read spec {args.spec}: {exc}", file=sys.stderr)
            return 2
    else:
        config = _cell_config(args)
        if config is None:
            return 2
        spec = {
            "testers": args.testers or ["GQS"],
            "engines": args.engines or ["falkordb"],
            "seeds": list(range(args.seed, args.seed + max(1, args.seeds))),
            "derive_seeds": args.seeds > 1,
            **config.to_dict(),
        }
    client = _service_client(args.url)
    try:
        record = client.submit(spec)
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        # 429/503 are availability refusals (exit 4), not usage errors.
        return 4 if exc.status in (429, 503) else 2
    except OSError as exc:
        print(f"cannot reach service at {args.url}: {exc}", file=sys.stderr)
        return 4
    counts = record["counts"]
    print(f"{record['job']} accepted: "
          f"{sum(counts.values())} cell(s) ({counts['done']} already done)")
    if not args.wait:
        return 0
    try:
        record = client.wait(record["job"], timeout=args.timeout)
    except (ServiceError, OSError, TimeoutError) as exc:
        print(str(exc), file=sys.stderr)
        return 4
    counts = record["counts"]
    print(f"{record['job']} {record['status']}: {counts['done']} done, "
          f"{counts['quarantined']} quarantined, "
          f"{counts['cancelled']} cancelled")
    return 3 if counts["quarantined"] else 0


def _cmd_jobs(args) -> int:
    import json

    from repro.service import ServiceError

    client = _service_client(args.url)
    try:
        if args.job:
            payload = client.job(args.job)
        else:
            payload = {"jobs": client.jobs()}
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot reach service at {args.url}: {exc}", file=sys.stderr)
        return 4
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.job:
        counts = payload["counts"]
        print(f"{payload['job']}: {payload['status']} "
              f"({counts['done']}/{len(payload['cells'])} done, "
              f"{counts['quarantined']} quarantined)")
        for cell in payload["cells"]:
            label = f"{cell['tester']}/{cell['engine']}/{cell['seed']}"
            print(f"  {label:<28s} {cell['status']:<14s} "
                  f"queries {cell['queries']:>6d}  "
                  f"attempts {cell['attempts']}")
        return 0
    if not payload["jobs"]:
        print("no jobs")
        return 0
    for record in payload["jobs"]:
        counts = record["counts"]
        total = sum(counts.values())
        print(f"{record['job']:<10s} {record['status']:<10s} "
              f"{counts['done']}/{total} done, "
              f"{counts['pending']} pending, {counts['leased']} leased, "
              f"{counts['quarantined']} quarantined")
    return 0


def _cmd_cancel(args) -> int:
    from repro.service import ServiceError

    if not args.drain and not args.job:
        print("cancel: give a job ID or --drain", file=sys.stderr)
        return 2
    client = _service_client(args.url)
    try:
        if args.drain:
            client.drain()
            print("service draining")
            return 0
        record = client.cancel(args.job)
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot reach service at {args.url}: {exc}", file=sys.stderr)
        return 4
    counts = record["counts"]
    print(f"{record['job']} cancelled: {counts['cancelled']} cell(s) "
          f"dropped, {counts['done']} completed result(s) kept")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "campaign": _cmd_campaign,
        "run": _cmd_campaign,
        "compare": _cmd_compare,
        "stats": _cmd_stats,
        "trace": _cmd_trace,
        "watch": _cmd_watch,
        "report": _cmd_report,
        "coverage": _cmd_coverage,
        "bugs": _cmd_bugs,
        "replay": _cmd_replay,
        "reduce": _cmd_reduce,
        "table": _cmd_table,
        "figure": _cmd_figure,
        "synthesize": _cmd_synthesize,
        "calibrate": _cmd_calibrate,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "jobs": _cmd_jobs,
        "cancel": _cmd_cancel,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-print; not an error.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
