"""Tests for the campaign scheduler of :mod:`repro.service`.

Covers job specs and the lease scheduler, plus the cross-cutting
robustness contracts:

* scheduler results are byte-identical to uninterrupted inline runs, even
  across worker crashes, lease revocations, an abrupt
  scheduler death (``kill -9`` analogue) and a torn journal;
* quarantine holes surface as exit code 3 from ``repro campaign``;
* ``repro watch --once --format json`` shares shapes (and totals) with
  ``repro stats --format json``.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.reporting import (
    campaign_to_dict,
    completed_cells_from_events,
    load_event_stream,
)
from repro.experiments.campaign import run_tool_campaign
from repro.obs.follow import EventFollower, watch_json
from repro.runtime.supervisor import ChaosConfig
from repro.service import CampaignScheduler, JobSpec, replay_service_journal
from repro.service import scheduler as scheduler_module

ENGINE = "falkordb"
FAST = dict(lease_seconds=60.0)


def fast_poll(monkeypatch):
    """Shorten the scheduler's poll interval for one test."""
    monkeypatch.setattr(scheduler_module, "POLL_INTERVAL", 0.02)


@pytest.fixture(autouse=True)
def _fast_poll(monkeypatch):
    fast_poll(monkeypatch)


#: Job specs admission must refuse with ValueError.
MALFORMED = [
    {"nope": 1},
    {"testers": []},
    {"testers": ["NotATester"]},
    {"engines": ["NotAnEngine"]},
    {"seeds": []},
    {"seeds": [True]},
    {"budget_seconds": 0},
    {"execution_mode": "quantum"},
    {"adaptive": "greedy"},  # adaptive synthesis is gone: only null loads
    {"stateful": 1.5},
    {"max_queries": "5"},
    {"step_budget": "x"},
    {"gate_scale": [1]},
    {"record_metrics": "false"},
    {"derive_seeds": "no"},
    {"budget_seconds": True},
]


def spec_dict(**overrides):
    base = {"testers": ["GQS"], "engines": [ENGINE], "seeds": [0],
            "budget_seconds": 3.0}
    base.update(overrides)
    return base


def fingerprint(results):
    return {
        key: json.dumps(campaign_to_dict(result), sort_keys=True)
        for key, result in results.items()
    }


def inline_fingerprint(done, budget_seconds):
    return {
        key: json.dumps(
            campaign_to_dict(run_tool_campaign(
                key[0], key[1], seed=key[2], budget_seconds=budget_seconds
            )),
            sort_keys=True,
        )
        for key in done
    }


class ScriptedServiceChaos(ChaosConfig):
    """Deterministic per-attempt chaos for scheduler tests."""

    def __init__(self, directives=(), truncate=False):
        super().__init__(rate=0.0)
        self._directives = dict(directives)  # attempt -> kind
        self._truncate = truncate

    def directive(self, key, attempt):
        return self._directives.get(attempt)

    def truncates(self, key):
        return self._truncate


# -- job specs --------------------------------------------------------------


class TestJobSpec:
    def test_round_trips_through_dict(self):
        spec = JobSpec.from_dict(spec_dict(
            testers=["GQS", "GQT"], seeds=[0, 1], derive_seeds=True,
            execution_mode="compiled", stateful=0.5,
            record_metrics=True,
        ))
        assert JobSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            JobSpec.from_dict(spec_dict(**bad))

    def test_flat_keywords_build_the_wire_config(self):
        spec = JobSpec(testers=("GQS",), budget_seconds=3.0, stateful=0.5,
                       step_budget=100)
        assert spec == JobSpec.from_dict(spec_dict(stateful=0.5,
                                                   step_budget=100))
        assert JobSpec().config.budget_seconds == 30.0
        with pytest.raises(TypeError):
            JobSpec(no_such_option=1)

    def test_decomposes_into_one_cell_per_supported_triple(self):
        spec = JobSpec.from_dict(spec_dict(testers=["GQS", "GQT"],
                                           engines=[ENGINE, "memgraph"]))
        # GQT does not support memgraph.
        assert [(c.tester, c.engine) for c in spec.cells()] == [
            ("GQS", ENGINE), ("GQS", "memgraph"), ("GQT", ENGINE),
        ]

    def test_rejects_empty_decomposition(self):
        # GDsmith does not support kuzu: the whole grid is skipped cells.
        spec = JobSpec.from_dict(
            spec_dict(testers=["GDsmith"], engines=["kuzu"])
        )
        with pytest.raises(ValueError):
            spec.cells()

    def test_worker_spec_mirrors_parallel_runner_task(self, tmp_path):
        # A service cell and an inline cell with equal options run from
        # equal _run_cell specs.
        from repro.experiments.campaign import campaign_grid_cells
        from repro.runtime.parallel import ParallelCampaignRunner

        scheduler = CampaignScheduler(tmp_path / "svc.jsonl", jobs=1,
                                      **FAST)
        try:
            scheduler.submit(spec_dict(record_metrics=True))
            (service_cell,) = scheduler._pending
        finally:
            scheduler.close()
        (inline_cell,) = campaign_grid_cells(
            ("GQS",), (ENGINE,), budget_seconds=3.0, record_metrics=True,
        )
        spec = ParallelCampaignRunner(jobs=1)._spec(inline_cell)
        assert service_cell.spec == spec


# -- journal replay ---------------------------------------------------------


class TestJournalReplay:
    def test_counts_failed_attempts_and_last_complete_wins(self):
        campaign = {"queries_run": 7}
        events = [
            {"event": "job_submitted", "job": "job-0001",
             "spec": spec_dict(), "cells": [["GQS", ENGINE, 0]]},
            {"event": "lease", "job": "job-0001", "tester": "GQS",
             "engine": ENGINE, "seed": 0, "attempt": 1},
            {"event": "lease_revoked", "job": "job-0001", "tester": "GQS",
             "engine": ENGINE, "seed": 0, "attempt": 1,
             "reason": "lease_expired", "will_retry": True},
            {"event": "cell_failed", "job": "job-0001", "tester": "GQS",
             "engine": ENGINE, "seed": 0, "attempt": 2,
             "kind": "exception", "will_retry": True},
            {"event": "cell_complete", "job": "job-0001", "tester": "GQS",
             "engine": ENGINE, "seed": 0, "attempts": 3,
             "campaign": campaign},
        ]
        state = replay_service_journal(events)
        record = state["jobs"]["job-0001"]
        assert record["failures"][("GQS", ENGINE, 0)] == 2
        assert record["done"][("GQS", ENGINE, 0)]["attempts"] == 3
        assert state["order"] == ["job-0001"]

# -- the scheduler ----------------------------------------------------------


class TestScheduler:
    def test_grid_results_byte_identical_to_inline(self, tmp_path):
        scheduler = CampaignScheduler(tmp_path / "svc.jsonl", jobs=2,
                                      **FAST)
        scheduler.submit(spec_dict(testers=["GQS", "GQT"], seeds=[0, 1]))
        scheduler.run_until(timeout=120)
        scheduler.drain()
        scheduler.tick()
        done = completed_cells_from_events(
            load_event_stream(tmp_path / "svc.jsonl")
        )
        assert len(done) == 4
        assert fingerprint(done) == inline_fingerprint(done, 3.0)

    def test_expired_lease_revokes_then_retry_succeeds(self, tmp_path):
        # The first attempt hangs; one tick on a clock past its lease
        # deadline revokes it and leases the retry, which then completes.
        # The expiry is driven by tick(now=...), not by waiting.
        chaos = ScriptedServiceChaos(directives={1: "hang"})
        scheduler = CampaignScheduler(
            tmp_path / "svc.jsonl", jobs=1, cell_retries=2,
            retry_backoff=0.0, lease_seconds=60.0, chaos=chaos,
        )
        record = scheduler.submit(spec_dict())
        scheduler.tick()
        scheduler.tick(now=time.monotonic() + 61.0)
        scheduler.run_until(timeout=60)
        scheduler.drain()
        scheduler.tick()
        events = load_event_stream(tmp_path / "svc.jsonl")
        revoked = [e for e in events if e["event"] == "lease_revoked"]
        assert [e["reason"] for e in revoked] == ["lease_expired"]
        assert revoked[0]["will_retry"] is True
        (complete,) = (e for e in events if e["event"] == "cell_complete")
        assert complete["attempts"] == 2
        counts = scheduler.job_record(record["job"])["counts"]
        assert counts["done"] == 1
        assert fingerprint(completed_cells_from_events(events)) == (
            inline_fingerprint([("GQS", ENGINE, 0)], 3.0))

    def test_worker_crashes_exhaust_retries_into_quarantine(self, tmp_path):
        chaos = ScriptedServiceChaos(
            directives={1: "crash", 2: "crash", 3: "crash"}
        )
        scheduler = CampaignScheduler(
            tmp_path / "svc.jsonl", jobs=1, cell_retries=1,
            retry_backoff=0.01, chaos=chaos, **FAST,
        )
        record = scheduler.submit(spec_dict(budget_seconds=2.0))
        scheduler.run_until(timeout=60)
        scheduler.drain()
        scheduler.tick()
        events = load_event_stream(tmp_path / "svc.jsonl")
        kinds = [e["event"] for e in events
                 if e["event"] in ("lease", "lease_revoked", "cell_retry",
                                   "cell_quarantined")]
        assert kinds == ["lease", "lease_revoked", "cell_retry",
                         "lease", "lease_revoked", "cell_quarantined"]
        counts = scheduler.job_record(record["job"])["counts"]
        assert counts["quarantined"] == 1
        assert scheduler.job_record(record["job"])["status"] == "complete"

    def test_abrupt_death_and_restart_is_byte_identical(self, tmp_path):
        journal = tmp_path / "svc.jsonl"
        first = CampaignScheduler(journal, jobs=2, **FAST)
        record = first.submit(
            spec_dict(testers=["GQS", "GQT", "GRev"], seeds=[0, 1])
        )
        first.run_until(
            lambda: first.job_record(record["job"])["counts"]["done"] >= 2,
            timeout=120,
        )
        first.close()  # kill -9 analogue: no service_stop, leases die

        second = CampaignScheduler(journal, jobs=2, **FAST)
        recovered = second.job_record(record["job"])["counts"]
        assert recovered["done"] >= 2  # fsync'd checkpoints survived
        second.run_until(timeout=120)
        second.drain()
        second.tick()
        done = completed_cells_from_events(load_event_stream(journal))
        assert len(done) == 6
        assert fingerprint(done) == inline_fingerprint(done, 3.0)
        # Completed cells were never re-leased by the second scheduler.
        events = load_event_stream(journal)
        starts = [i for i, e in enumerate(events)
                  if e["event"] == "service_start"]
        completed_before = {
            (e["tester"], e["engine"], e["seed"])
            for e in events[:starts[1]] if e["event"] == "cell_complete"
        }
        leased_after = {
            (e["tester"], e["engine"], e["seed"])
            for e in events[starts[1]:] if e["event"] == "lease"
        }
        assert not completed_before & leased_after

    def test_torn_journal_tail_recovers(self, tmp_path):
        journal = tmp_path / "svc.jsonl"
        first = CampaignScheduler(journal, jobs=1, **FAST)
        first.submit(spec_dict(testers=["GQS", "GQT"]))
        first.run_until(timeout=120)
        first.close()
        with open(journal, "r+b") as handle:
            size = journal.stat().st_size
            handle.truncate(size - 40)  # tear the final record mid-line
        second = CampaignScheduler(journal, jobs=1, **FAST)
        second.run_until(timeout=120)
        second.drain()
        second.tick()
        done = completed_cells_from_events(load_event_stream(journal))
        assert len(done) == 2
        assert fingerprint(done) == inline_fingerprint(done, 3.0)

# -- CLI surfaces -----------------------------------------------------------


class TestExitCodes:
    def test_quarantined_grid_exits_3(self, tmp_path, capsys):
        # Chaos at rate 1.0 with no retries: every cell's single attempt
        # is killed, the whole grid quarantines, and that must not look
        # like success to CI.
        code = main([
            "campaign", "--tester", "GQS", "--engine", ENGINE,
            "--minutes", "0.05", "--seeds", "2", "--jobs", "1",
            "--chaos", "1.0,7", "--cell-retries", "0",
            "--cell-timeout", "3",
            "--events", str(tmp_path / "log.jsonl"),
        ])
        assert code == 3
        assert "quarantined" in capsys.readouterr().err

    def test_whole_grid_exits_0(self, tmp_path):
        code = main([
            "campaign", "--tester", "GQS", "--engine", ENGINE,
            "--minutes", "0.05", "--seeds", "2", "--jobs", "1",
            "--events", str(tmp_path / "log.jsonl"),
        ])
        assert code == 0


class TestWatchJson:
    @pytest.fixture(scope="class")
    def service_log(self, tmp_path_factory):
        journal = tmp_path_factory.mktemp("watchjson") / "svc.jsonl"
        with pytest.MonkeyPatch.context() as monkeypatch:
            fast_poll(monkeypatch)
            scheduler = CampaignScheduler(journal, jobs=1, **FAST)
            scheduler.submit(spec_dict(record_metrics=True))
            scheduler.run_until(timeout=120)
            scheduler.drain()
            scheduler.tick()
        return journal

    def test_once_json_matches_stats_json(self, service_log, capsys):
        assert main(["watch", str(service_log), "--once",
                     "--format", "json"]) == 0
        watched = json.loads(capsys.readouterr().out)
        assert main(["stats", str(service_log), "--format", "json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        # The watch payload *is* the stats payload plus live state.
        for key in ("schema", "queries", "faults", "counters",
                    "supervisor"):
            assert watched[key] == stats[key]
        assert watched["watch"]["finished"] is True
        assert watched["watch"]["status"] == "complete"
        assert watched["watch"]["queries"] == sum(
            sum(row.values()) for row in stats["queries"].values()
        )

    def test_follower_reports_torn_offsets(self, service_log, tmp_path):
        clean = service_log.read_bytes()
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_bytes(clean + b"%%% torn %%%\n")
        follower = EventFollower(damaged)
        follower.poll()
        assert follower.view.skipped == 1
        assert follower.view.torn == [
            {"offset": len(clean), "length": 12}
        ]
        payload = watch_json(follower.view)
        assert payload["torn_lines"] == follower.view.torn
        assert payload["skipped_lines"] == 1

    def test_stats_warning_names_byte_offsets(self, service_log, tmp_path,
                                              capsys):
        clean = service_log.read_bytes()
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_bytes(clean + b"%%% torn %%%\n")
        assert main(["stats", str(damaged)]) == 0
        err = capsys.readouterr().err
        assert f"byte offset {len(clean)}" in err

    def test_service_log_watch_finished_semantics(self, service_log):
        follower = EventFollower(service_log)
        follower.poll()
        assert follower.view.finished
        # The folded cells carry the service lease lifecycle.
        assert all(cell["status"] == "done"
                   for cell in follower.view.cells.values())


# -- import cost ---------------------------------------------------------------


def test_campaigns_do_not_load_the_http_service():
    """Every grid runs on the scheduler, which loads no network stack: a
    fresh interpreter that imports the campaign entry point and runs a
    one-cell grid never imports asyncio, urllib.request or ssl."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import sys\n"
        "import repro.experiments.campaign as campaign\n"
        "campaign.run_campaign_grid(['GQS'], ['neo4j'], budget_seconds=1.0)\n"
        "print(sorted(name for name in ('asyncio', 'urllib.request', 'ssl')\n"
        "             if name in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
