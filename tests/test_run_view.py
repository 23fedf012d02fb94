"""One fold behind every log view: :class:`repro.obs.view.RunView`.

Every view of an event log — text and JSON ``stats``, ``bugs``,
``watch``, the HTML ``report`` and the Chrome trace — renders the same
``RunView``, so any number two views both show must be equal.  The
counting rule (an attempt counts only if its checkpoint is in the log)
makes a grid resumed after a torn checkpoint render like the
uninterrupted grid, and the finish rule lets ``repro watch`` exit on it.

The fixture pair was recorded with::

    repro campaign --engine falkordb --gate-scale 0.2 --seeds 2 --jobs 1 \\
        --minutes 0.03 --metrics --coverage --triage --events LOG

``grid_uninterrupted.jsonl`` is one such run.  ``grid_resumed.jsonl`` is
the same grid cut 32 bytes short of its first ``cell_complete`` (a crash
mid-write), then re-run with ``--resume`` into the same log.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.reporting import load_event_stream
from repro.experiments.campaign import run_campaign_grid
from repro.obs import deterministic_view
from repro.obs.export import bugs_json, stats_json
from repro.obs.view import RunView
from repro.runtime import CampaignCell, CellConfig, ParallelCampaignRunner
from repro.service.scheduler import CampaignScheduler

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"
CLEAN = FIXTURES / "grid_uninterrupted.jsonl"
RESUMED = FIXTURES / "grid_resumed.jsonl"
SMALL = ["--engine", "falkordb", "--gate-scale", "0.05", "--minutes", "0.05"]


def render(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def views(path, capsys, tmp_path):
    """Every view of one log, as the CLI prints them."""
    log = str(path)
    html = tmp_path / f"{path.stem}.html"
    render(capsys, "report", log, "--out", str(html))
    return {
        "stats": render(capsys, "stats", log),
        "stats_json": json.loads(render(capsys, "stats", log,
                                        "--format", "json")),
        "bugs_json": json.loads(render(capsys, "bugs", log,
                                       "--format", "json")),
        "coverage": render(capsys, "coverage", log),
        "chrome": json.loads(render(capsys, "trace", log,
                                    "--export", "chrome")),
        "watch": render(capsys, "watch", log, "--once"),
        "watch_json": json.loads(render(capsys, "watch", log, "--once",
                                        "--format", "json")),
        "html": html.read_text(encoding="utf-8"),
    }


# -- parsing the text views ---------------------------------------------------

_SUPERVISOR_TEXT = {
    "retries scheduled": "retries",
    "cells quarantined": "quarantined",
    "harness errors (budget)": "harness_errors",
    "chaos log truncations": "chaos_truncations",
}
_SUPERVISOR_WATCH = {
    "failed": "failed", "retried": "retries", "quarantined": "quarantined",
    "harness errors": "harness_errors",
    "chaos truncations": "chaos_truncations",
}


def section(text, title):
    lines = text.split("\n")
    if f"== {title} ==" not in lines:
        return []
    body = lines[lines.index(f"== {title} ==") + 1:]
    return body[:body.index("")] if "" in body else body


def matrix_total(text, title):
    """Sum of a ``== title ==`` tester × engine table (None if absent)."""
    rows = section(text, title)[1:]
    if not rows:
        return None
    return sum(int(cell) for row in rows for cell in row.split()[1:]
               if cell != "-")


def supervisor_from_text(stats_text):
    counts = {"failed_by_kind": {}, "retries": 0, "quarantined": 0,
              "harness_errors": 0, "chaos_truncations": 0}
    for line in section(stats_text, "supervisor"):
        label, value = line.strip().rsplit(":", 1)
        failed = re.fullmatch(r"failed attempts \((.+)\)", label)
        if failed:
            counts["failed_by_kind"][failed.group(1)] = int(value)
        else:
            counts[_SUPERVISOR_TEXT[label]] = int(value)
    return counts


def supervisor_from_watch(watch_text):
    counts = dict.fromkeys(_SUPERVISOR_WATCH.values(), 0)
    for line in watch_text.split("\n"):
        if line.startswith("supervisor: "):
            for part in line[len("supervisor: "):].split(", "):
                label, value = part.rsplit(" ", 1)
                counts[_SUPERVISOR_WATCH[label]] = int(value)
    return counts


def html_summary(html):
    found = dict(
        (label, int(value)) for value, label in re.findall(
            r"<b>(\d+)</b> (events|campaign\(s\)|queries|distinct bug\(s\))",
            html,
        )
    )
    torn = re.search(r"warning: (\d+) torn", html)
    found["torn"] = int(torn.group(1)) if torn else 0
    return found


def watch_numbers(watch_text):
    cells = re.search(r"cells: (\d+)/(\d+) done", watch_text)
    torn = re.search(r"torn lines skipped: (\d+)", watch_text)
    signatures = re.search(r"== distinct signatures \((\d+)\) ==",
                           watch_text)
    return {
        "queries": int(re.search(r"queries: (\d+)", watch_text).group(1)),
        "cells_done": int(cells.group(1)),
        "torn": int(torn.group(1)) if torn else 0,
        "bugs": int(signatures.group(1)) if signatures else 0,
    }


# -- the corpus ---------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small generated logs, one per kind of run the views must cover."""
    root = tmp_path_factory.mktemp("corpus")
    logs = {name: root / f"{name}.jsonl" for name in (
        "run", "grid-jobs1", "grid-jobs2", "compiled", "stateful",
        "service", "quarantine", "torn")}
    for name, argv in (
        ("run", ["run", *SMALL, "--metrics", "--coverage", "--triage"]),
        ("grid-jobs1", ["campaign", *SMALL, "--seeds", "2", "--jobs", "1",
                        "--coverage", "--triage"]),
        ("grid-jobs2", ["campaign", *SMALL, "--seeds", "2", "--jobs", "2",
                        "--metrics", "--triage"]),
        ("compiled", ["campaign", *SMALL, "--seeds", "2", "--metrics",
                      "--coverage", "--triage", "--engine-mode",
                      "compiled"]),
        ("stateful", ["campaign", *SMALL, "--tester", "GQS",
                      "--stateful", "--metrics", "--triage"]),
    ):
        assert main([*argv, "--events", str(logs[name])]) == 0
    scheduler = CampaignScheduler(logs["service"], jobs=1,
                                  lease_seconds=60.0)
    scheduler.submit({"testers": ["GQS"], "engines": ["falkordb"],
                      "seeds": [0], "budget_seconds": 3.0,
                      "record_metrics": True, "record_triage": True})
    scheduler.run_until(timeout=120)
    scheduler.drain()
    scheduler.tick()
    config = CellConfig(2.0, gate_scale=0.05, record_metrics=True)
    ParallelCampaignRunner(
        events_path=logs["quarantine"], cell_retries=1, retry_backoff=0.0,
    ).run([CampaignCell("GQS", "falkordb", 0, config),
           CampaignCell("NoSuchTester", "falkordb", 0, config)])
    logs["torn"].write_bytes(logs["run"].read_bytes() + b"%%% torn %%%\n")
    logs["resumed"] = RESUMED
    return logs


NAMES = ["run", "grid-jobs1", "grid-jobs2", "compiled", "stateful",
         "service", "quarantine", "torn", "resumed"]


@pytest.mark.parametrize("name", NAMES)
def test_views_agree_on_every_shared_number(corpus, name, capsys, tmp_path):
    out = views(corpus[name], capsys, tmp_path)
    stats, watch = out["stats_json"], out["watch_json"]
    html, text_watch = html_summary(out["html"]), watch_numbers(out["watch"])

    queries = watch["watch"]["queries"]
    assert queries > 0
    assert html["queries"] == text_watch["queries"] == queries
    if stats["queries"]:
        assert sum(sum(row.values()) for row in stats["queries"].values()) \
            == matrix_total(out["stats"], "queries per tester × engine") \
            == queries

    done = watch["watch"]["cells_done"]
    assert done > 0
    assert html["campaign(s)"] == text_watch["cells_done"] == done

    bugs = len(watch["watch"]["distinct_signatures"])
    assert html["distinct bug(s)"] == text_watch["bugs"] == bugs
    assert out["bugs_json"]["distinct"] == bugs

    supervisor = stats["supervisor"]
    assert watch["supervisor"] == supervisor
    assert supervisor_from_text(out["stats"]) == supervisor
    assert supervisor_from_watch(out["watch"]) == {
        "failed": sum(supervisor["failed_by_kind"].values()),
        **{key: supervisor[key] for key in ("retries", "quarantined",
                                           "harness_errors",
                                           "chaos_truncations")},
    }

    torn = stats["skipped_lines"]
    assert stats["torn_lines"] == watch["torn_lines"]
    assert len(stats["torn_lines"]) == watch["skipped_lines"] == torn
    assert html["torn"] == text_watch["torn"] == torn


def test_corpus_exercises_failures_and_torn_lines(corpus, capsys, tmp_path):
    quarantine = views(corpus["quarantine"], capsys, tmp_path)["stats_json"]
    assert quarantine["supervisor"]["quarantined"] == 1
    assert quarantine["supervisor"]["retries"] == 1
    for name in ("torn", "resumed"):
        assert views(corpus[name], capsys, tmp_path)["stats_json"][
            "skipped_lines"] == 1


# -- a grid resumed after a torn checkpoint -------------------------------------


def test_resumed_grid_renders_like_the_uninterrupted_one(capsys, tmp_path):
    clean = views(CLEAN, capsys, tmp_path)
    resumed = views(RESUMED, capsys, tmp_path)
    for key in ("queries", "faults", "counters"):
        assert resumed["stats_json"][key] == clean["stats_json"][key]
    assert clean["stats_json"]["queries"] == {"GQS": {"falkordb": 21}}
    assert resumed["bugs_json"] == clean["bugs_json"]
    assert resumed["coverage"] == clean["coverage"]

    def slices(trace):
        return sum(1 for e in trace["traceEvents"] if e["ph"] == "X")

    assert slices(resumed["chrome"]) == slices(clean["chrome"]) > 0
    assert (resumed["watch_json"]["watch"]["queries"]
            == clean["watch_json"]["watch"]["queries"] == 21)


def test_watch_once_reports_a_resumed_grid_complete(capsys):
    assert "status: complete" in render(capsys, "watch", str(RESUMED),
                                        "--once")


def test_watch_exits_on_a_finished_resumed_grid(tmp_path):
    log = tmp_path / "resumed.jsonl"
    shutil.copy(RESUMED, log)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "watch", str(log),
         "--interval", "0.05", "--format", "json"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    last = json.loads(proc.stdout.strip().split("\n")[-1])
    assert last["watch"]["status"] == "complete"


def test_old_grid_rollups_are_ignored_and_agree_with_the_fold():
    # The fixtures were recorded when the grid runner also wrote grid-scope
    # rollups of the per-cell snapshots.  The fold reads only the per-cell
    # snapshots it counts, and merges them into what the rollups recorded.
    events = load_event_stream(RESUMED)
    rollups = {event["event"]: event["snapshot"] for event in events
               if event.get("scope") == "grid"}
    assert set(rollups) == {"metrics", "coverage", "triage"}
    view = RunView.of(events)
    bare = RunView.of([event for event in events
                       if event.get("scope") != "grid"])
    assert view.metrics == bare.metrics
    assert deterministic_view(view.metrics) == deterministic_view(
        rollups["metrics"])
    assert view.coverage == bare.coverage == rollups["coverage"]
    assert view.triage == bare.triage == rollups["triage"]


# -- grid merges do not depend on --jobs ----------------------------------------


def test_grid_views_are_identical_for_jobs_1_and_2(tmp_path):
    # Cells complete in a different order at jobs=2; float sums in the
    # metrics merge depend on the order, so the fold merges in cell order.
    def grid_view(jobs):
        path = tmp_path / f"jobs{jobs}.jsonl"
        run_campaign_grid(
            ("GQS", "GRev"), ("falkordb",), seeds=(0, 1, 2),
            derive_seeds=True, budget_seconds=6.0, gate_scale=0.05,
            record_metrics=True, record_coverage=True,
            record_triage=True, jobs=jobs, events_path=path,
        )
        return RunView.of(load_event_stream(path))

    one, two = grid_view(1), grid_view(2)
    stats_one, stats_two = stats_json(one), stats_json(two)
    for key in ("counters", "gauges", "histograms"):
        assert stats_one[key] == stats_two[key]
    assert stats_one["histograms"]
    assert bugs_json(one) == bugs_json(two)
    assert one.coverage == two.coverage is not None


# -- the rules, on hand-written logs -----------------------------------------


def cell(kind, seed=0, **payload):
    return {"event": kind, "tester": "GQS", "engine": "falkordb",
            "seed": seed, **payload}


def attempt(seed, queries):
    metrics = {"counters": {
        "campaign.queries|engine=falkordb,tester=GQS": queries}}
    return [
        cell("campaign_start", seed),
        cell("campaign_end", seed, queries_run=queries, sim_seconds=1.0,
             detected_faults=[]),
        cell("metrics", seed, scope="campaign", snapshot=metrics),
    ]


def checkpoint(seed, queries):
    return cell("cell_complete", seed, attempts=1,
                campaign={"queries_run": queries, "sim_seconds": 1.0,
                          "timeline": []})


class TestRules:
    def test_only_the_sealed_attempt_counts(self):
        # Seed 0's first attempt lost its checkpoint; the re-run counts.
        view = RunView.of([
            *attempt(0, 5), *attempt(1, 7), checkpoint(1, 7),
            *attempt(0, 5), checkpoint(0, 5),
        ])
        assert view.matrix("campaign.queries") == {"GQS": {"falkordb": 12}}
        assert view.queries == 12 and view.cells_done == 2

    def test_unsealed_attempt_does_not_count(self):
        view = RunView.of([*attempt(0, 5), *attempt(1, 7), checkpoint(1, 7)])
        assert view.matrix("campaign.queries") == {"GQS": {"falkordb": 7}}
        assert view.queries == 7
        assert view.cells["GQS/falkordb/0"]["status"] == "unsealed"

    def test_log_without_checkpoints_counts_every_campaign(self):
        view = RunView.of([*attempt(0, 5), *attempt(0, 5)])
        assert view.matrix("campaign.queries") == {"GQS": {"falkordb": 10}}
        assert view.finished

    @pytest.mark.parametrize("kinds, finished", [
        (["grid_start"], False),
        (["grid_start", "grid_end"], True),
        (["grid_start", "grid_start", "grid_end"], True),
        (["grid_start", "grid_end", "grid_start"], False),
        (["service_start"], False),
        (["service_start", "service_stop"], True),
        (["service_start", "service_stop", "service_start"], False),
        (["campaign_start"], False),
        (["campaign_start", "campaign_end"], True),
        ([], False),
    ])
    def test_finish_rule(self, kinds, finished):
        view = RunView.of([{"event": kind} for kind in kinds])
        assert view.finished is finished
        assert view.status == ("complete" if finished else "running"
                               if kinds else "waiting for events")

    def test_harness_errors_of_an_abandoned_attempt_do_not_count(
            self, tmp_path, capsys):
        abandoned = attempt(0, 5)
        abandoned.insert(1, cell("harness_error", error="budget", query=3))
        log = tmp_path / "resumed.jsonl"
        log.write_text("".join(
            json.dumps(event) + "\n"
            for event in [*abandoned, *attempt(0, 5), checkpoint(0, 5)]
        ))
        assert RunView.of(abandoned).supervisor["harness_errors"] == 1
        stats = json.loads(render(capsys, "stats", str(log),
                                  "--format", "json"))
        assert stats["supervisor"]["harness_errors"] == 0
        assert supervisor_from_text(render(capsys, "stats", str(log))) \
            == stats["supervisor"]
        watch = supervisor_from_watch(render(capsys, "watch", str(log),
                                             "--once"))
        assert watch["harness_errors"] == 0

    def test_distinct_bugs_prefer_triage_then_fault_ids(self):
        faults = [cell("campaign_start"), cell("fault", fault_id="F2"),
                  cell("fault", fault_id="F1")]
        assert RunView.of(faults).distinct_bugs == ["F1", "F2"]
        triage = cell("triage", scope="campaign",
                      snapshot={"bugs": {"falkordb:F9": {"count": 2}}})
        assert RunView.of([*faults, triage]).distinct_bugs == ["falkordb:F9"]
        assert RunView.of([cell("campaign_start")]).distinct_bugs == []

    def test_adaptation_event_without_a_seed_renders(self, tmp_path, capsys):
        # Logs from before adaptive synthesis was removed carry
        # ``campaign_start.adaptive`` and ``adaptation`` snapshots; every
        # view ignores both.
        snapshot = {"strategy": "epsilon", "rounds": 2, "observed": 6,
                    "novel": 1,
                    "arms": {"union": {"pulls": 2, "reward": 1,
                                       "selected": 1}}}
        log = tmp_path / "old.jsonl"
        log.write_text("".join(json.dumps(event) + "\n" for event in [
            {"event": "campaign_start", "tester": "GQS",
             "engine": "falkordb", "adaptive": "epsilon"},
            {"event": "adaptation", "scope": "campaign", "tester": "GQS",
             "engine": "falkordb", "snapshot": snapshot},
        ]))
        for argv in (["stats"], ["watch", "--once"], ["coverage"],
                     ["bugs"]):
            text = render(capsys, argv[0], str(log), *argv[1:])
            assert "== adaptation ==" not in text
            assert "rounds: 2" not in text
        html = tmp_path / "old.html"
        render(capsys, "report", str(log), "--out", str(html))
        assert "rounds: 2" not in html.read_text()
        stats = json.loads(render(capsys, "stats", str(log),
                                  "--format", "json"))
        assert stats["events"] == 2
        assert "adaptation" not in stats
