"""Tests for the fault-tolerant campaign service.

Covers the four layers of :mod:`repro.service` — job specs, the
lease/heartbeat scheduler, the HTTP face, the client — plus the
cross-cutting robustness contracts this PR documents:

* service results are byte-identical to uninterrupted inline runs, even
  across worker crashes, heartbeat losses, lease revocations, an abrupt
  scheduler death (``kill -9`` analogue) and a torn journal;
* admission control refuses over-capacity submissions with a
  deterministic ``Retry-After`` and refuses everything during drain;
* SIGTERM drains gracefully: exit 0, journal flushed, restart resumes;
* quarantine holes surface as exit code 3 from ``repro campaign``;
* ``repro watch --once --format json`` shares shapes (and totals) with
  ``repro stats --format json``.
"""

import asyncio
import json
import os
import re
import signal
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
from repro.service import (
    Backpressure,
    CampaignScheduler,
    JobSpec,
    ServiceDraining,
    replay_service_journal,
)

ENGINE = "falkordb"
FAST = dict(lease_seconds=60.0, heartbeat_seconds=0.2, poll_interval=0.02)


#: Job specs admission must refuse with ValueError (HTTP 400).
MALFORMED = [
    {"nope": 1},
    {"testers": []},
    {"testers": ["NotATester"]},
    {"engines": ["NotAnEngine"]},
    {"seeds": []},
    {"seeds": [True]},
    {"budget_seconds": 0},
    {"execution_mode": "quantum"},
    {"adaptive": "greedy"},
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

    def __init__(self, directives=(), stalls=(), truncate=False):
        super().__init__(rate=0.0)
        self._directives = dict(directives)  # attempt -> kind
        self._stalls = set(stalls)  # attempts with suppressed heartbeats
        self._truncate = truncate

    def directive(self, key, attempt):
        return self._directives.get(attempt)

    def heartbeat_stall(self, key, attempt):
        return attempt in self._stalls

    def truncates(self, key):
        return self._truncate


# -- job specs --------------------------------------------------------------


class TestJobSpec:
    def test_round_trips_through_dict(self):
        spec = JobSpec.from_dict(spec_dict(
            testers=["GQS", "GQT"], seeds=[0, 1], derive_seeds=True,
            execution_mode="compiled", adaptive="ucb", stateful=0.5,
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
             "reason": "missed_heartbeat", "will_retry": True},
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

    def test_cancelled_revocations_consume_no_budget(self):
        events = [
            {"event": "job_submitted", "job": "job-0001",
             "spec": spec_dict(), "cells": [["GQS", ENGINE, 0]]},
            {"event": "lease_revoked", "job": "job-0001", "tester": "GQS",
             "engine": ENGINE, "seed": 0, "attempt": 1,
             "reason": "cancelled", "will_retry": False},
            {"event": "job_cancelled", "job": "job-0001"},
        ]
        record = replay_service_journal(events)["jobs"]["job-0001"]
        assert record["failures"] == {}
        assert record["cancelled"]


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

    def test_backpressure_and_draining_refusals(self, tmp_path):
        scheduler = CampaignScheduler(tmp_path / "svc.jsonl", jobs=1,
                                      capacity=2, **FAST)
        with pytest.raises(Backpressure) as info:
            scheduler.submit(spec_dict(testers=["GQS", "GQT"],
                                       seeds=[0, 1]))
        assert info.value.retry_after >= 1
        scheduler.drain()
        with pytest.raises(ServiceDraining):
            scheduler.submit(spec_dict())
        scheduler.tick()

    def test_missed_heartbeats_revoke_then_retry_succeeds(self, tmp_path):
        chaos = ScriptedServiceChaos(directives={1: "hang"}, stalls={1})
        scheduler = CampaignScheduler(
            tmp_path / "svc.jsonl", jobs=1, heartbeat_seconds=0.1,
            heartbeat_misses=2, cell_retries=2, retry_backoff=0.01,
            lease_seconds=60.0, poll_interval=0.02, chaos=chaos,
        )
        record = scheduler.submit(spec_dict())
        scheduler.run_until(timeout=60)
        scheduler.drain()
        scheduler.tick()
        events = load_event_stream(tmp_path / "svc.jsonl")
        revoked = [e for e in events if e["event"] == "lease_revoked"]
        assert [e["reason"] for e in revoked] == ["missed_heartbeat"]
        assert revoked[0]["will_retry"] is True
        counts = scheduler.job_record(record["job"])["counts"]
        assert counts["done"] == 1

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

    def test_cancel_drops_pending_and_keeps_results(self, tmp_path):
        journal = tmp_path / "svc.jsonl"
        scheduler = CampaignScheduler(journal, jobs=1, **FAST)
        record = scheduler.submit(
            spec_dict(testers=["GQS", "GQT", "GRev"])
        )
        scheduler.run_until(
            lambda: scheduler.job_record(record["job"])["counts"]["done"]
            >= 1,
            timeout=120,
        )
        cancelled = scheduler.cancel(record["job"])
        assert cancelled["status"] == "cancelled"
        counts = cancelled["counts"]
        assert counts["done"] >= 1
        assert counts["cancelled"] >= 1
        assert counts["pending"] == 0 and counts["leased"] == 0
        # Cancellation is journaled: a restart honours it.
        scheduler.drain()
        scheduler.tick()
        revived = CampaignScheduler(journal, jobs=1, **FAST)
        assert revived.job_record(record["job"])["status"] == "cancelled"
        assert revived.stats()["pending"] == 0
        revived.drain()
        revived.tick()


# -- HTTP face --------------------------------------------------------------


class TestHttpRoutes:
    """Routing semantics via the pure `_route` dispatcher (no sockets)."""

    @pytest.fixture
    def server(self, tmp_path):
        from repro.service.server import ServiceServer

        scheduler = CampaignScheduler(tmp_path / "svc.jsonl", jobs=1,
                                      capacity=2, **FAST)
        yield ServiceServer(scheduler)
        scheduler.drain()
        scheduler.tick()

    def test_submit_accepts_and_reads_back(self, server):
        status, _, body = server._route("POST", "/jobs", spec_dict())
        assert status == 202
        job = body["job"]
        status, _, record = server._route("GET", f"/jobs/{job}", None)
        assert status == 200 and record["counts"]["pending"] == 1
        status, _, listing = server._route("GET", "/jobs", None)
        assert status == 200 and len(listing["jobs"]) == 1

    def test_malformed_spec_is_400(self, server):
        status, _, body = server._route(
            "POST", "/jobs", {"testers": ["NotATester"]}
        )
        assert status == 400 and "NotATester" in body["error"]

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_every_malformed_spec_is_400(self, server, bad):
        status, _, _ = server._route("POST", "/jobs", spec_dict(**bad))
        assert status == 400
        assert server._route("GET", "/jobs", None)[2]["jobs"] == []

    def test_backpressure_is_429_with_retry_after(self, server):
        assert server._route("POST", "/jobs", spec_dict())[0] == 202
        status, headers, body = server._route(
            "POST", "/jobs", spec_dict(testers=["GQS", "GQT"])
        )
        assert status == 429
        assert int(headers["Retry-After"]) == body["retry_after"] >= 1

    def test_drain_then_submit_is_503(self, server):
        status, _, body = server._route("POST", "/drain", None)
        assert status == 202 and body["draining"]
        assert server._route("POST", "/jobs", spec_dict())[0] == 503
        health = server._route("GET", "/health", None)[2]
        assert health["status"] == "draining"

    def test_unknown_job_and_route_are_404(self, server):
        assert server._route("GET", "/jobs/job-9999", None)[0] == 404
        assert server._route("GET", "/nope", None)[0] == 404
        assert server._route("DELETE", "/jobs", None)[0] == 405

    def test_cancel_route(self, server):
        job = server._route("POST", "/jobs", spec_dict())[2]["job"]
        status, _, body = server._route("POST", f"/jobs/{job}/cancel",
                                        None)
        assert status == 200 and body["status"] == "cancelled"


class TestHttpEndToEnd:
    def test_client_against_live_server(self, tmp_path):
        import asyncio

        from repro.service.client import ServiceClient
        from repro.service.server import ServiceServer

        scheduler = CampaignScheduler(tmp_path / "svc.jsonl", jobs=1,
                                      **FAST)

        async def scenario():
            server = ServiceServer(scheduler)
            host, port = await server.start()
            client = ServiceClient(f"http://{host}:{port}")
            loop = asyncio.get_running_loop()
            pump = asyncio.ensure_future(scheduler.run_async())
            record = await loop.run_in_executor(
                None, lambda: client.submit(spec_dict(budget_seconds=2.0))
            )
            final = await loop.run_in_executor(
                None, lambda: client.wait(record["job"], timeout=60)
            )
            await loop.run_in_executor(None, client.drain)
            await asyncio.wait_for(pump, 30)
            await server.stop()
            return final

        final = asyncio.run(scenario())
        assert final["status"] == "complete"
        assert final["counts"]["done"] == 1

    def test_malformed_specs_are_400_over_http(self, tmp_path):
        import asyncio

        from repro.service.client import ServiceClient, ServiceError
        from repro.service.server import ServiceServer

        scheduler = CampaignScheduler(tmp_path / "svc.jsonl", jobs=1,
                                      **FAST)

        def submit_all(client):
            statuses = []
            for bad in MALFORMED:
                try:
                    client.submit(spec_dict(**bad))
                except ServiceError as exc:
                    statuses.append(exc.status)
                else:
                    statuses.append(202)
            return statuses, client.jobs()

        async def scenario():
            server = ServiceServer(scheduler)
            host, port = await server.start()
            client = ServiceClient(f"http://{host}:{port}")
            try:
                return await asyncio.get_running_loop().run_in_executor(
                    None, submit_all, client
                )
            finally:
                await server.stop()
                scheduler.close()

        statuses, jobs = asyncio.run(scenario())
        assert statuses == [400] * len(MALFORMED)
        assert jobs == []


# -- process-level signal handling ------------------------------------------


def _serve_subprocess(journal, *extra):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(journal),
         "--port", "0", "--jobs", "2", "--heartbeat-seconds", "0.2",
         *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    line = proc.stdout.readline()
    match = re.search(r"http://[\d.]+:\d+", line)
    if not match:
        proc.kill()
        proc.wait()
        pytest.fail(f"serve announced no endpoint: {line!r}")
    return proc, match.group(0)


def _cli(env_url, *argv):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


class TestServiceSignals:
    def test_revoked_worker_signals_do_not_drain_the_service(self, tmp_path):
        # Regression: lease workers are forked after the serving loop
        # has registered its SIGTERM/SIGINT handlers, so they inherit
        # the loop's signal wakeup fd.  Revoking a live lease
        # terminates the worker with SIGTERM — without the worker-side
        # signal reset, the worker's inherited handler writes the
        # signum into the *parent's* wakeup pipe and the service
        # drains itself as if it had been signalled.
        journal = tmp_path / "svc.jsonl"

        async def scenario():
            loop = asyncio.get_running_loop()
            scheduler = CampaignScheduler(journal, jobs=1, **FAST)
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(
                    signum, scheduler.drain, signal.Signals(signum).name
                )
            try:
                scheduler.submit(spec_dict(budget_seconds=600.0))
                deadline = loop.time() + 30.0
                while not scheduler._leases and loop.time() < deadline:
                    scheduler.tick()
                    await asyncio.sleep(0.02)
                assert scheduler._leases, "cell never leased"
                scheduler.cancel("job-0001")  # SIGTERMs the live worker
                for _ in range(25):  # let any stray wakeup byte dispatch
                    await asyncio.sleep(0.02)
                    scheduler.tick()
                return scheduler.draining
            finally:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    loop.remove_signal_handler(signum)
                scheduler.drain()
                scheduler.tick()

        assert asyncio.run(scenario()) is False

    def test_sigterm_drains_exits_zero_and_restart_resumes(self, tmp_path):
        journal = tmp_path / "svc.jsonl"
        proc, url = _serve_subprocess(journal)
        try:
            out = _cli(url, "submit", "--url", url, "--tester", "GQS",
                       "--tester", "GQT", "--seeds", "2",
                       "--minutes", "0.1")
            assert out.returncode == 0, out.stderr
            # SIGTERM mid-grid: graceful drain must exit 0 with the
            # journal flushed and resumable.
            time.sleep(1.0)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        events = load_event_stream(journal)
        assert any(e["event"] == "service_stop" for e in events)

        # Restart: the journal replays and the grid completes exactly.
        proc2, url2 = _serve_subprocess(journal)
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                out = _cli(url2, "jobs", "--url", url2, "--job",
                           "job-0001", "--format", "json")
                record = json.loads(out.stdout)
                if record["status"] != "running":
                    break
                time.sleep(0.3)
            assert record["status"] == "complete"
            assert record["counts"]["done"] == 4
            out = _cli(url2, "cancel", "--url", url2, "--drain")
            assert out.returncode == 0
            assert proc2.wait(timeout=60) == 0
        finally:
            if proc2.poll() is None:
                proc2.kill()
                proc2.wait()
        done = completed_cells_from_events(load_event_stream(journal))
        assert len(done) == 4
        assert fingerprint(done) == inline_fingerprint(done, 6.0)


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
    """Every grid runs on the scheduler, but the HTTP face and its client
    stay unloaded: a fresh interpreter that imports the campaign entry
    point and runs a one-cell grid never imports asyncio, urllib.request
    or ssl."""
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
