"""Robustness tests: grid attempts on the scheduler, resource envelope,
chaos harness.

The acceptance bar (ISSUE 5): a grid with injected worker crashes, hangs,
and budget-blowing queries completes with every healthy cell byte-identical
to a fault-free ``jobs=1`` run; failed cells surface as ``cell_failed`` /
``cell_quarantined`` events with attempt counts; ``--resume`` after a
mid-grid kill re-runs only unfinished cells; and a blown evaluation budget
is a ``harness_error``, never a false bug.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import pytest

from repro.core.reporting import campaign_to_dict, load_event_stream
from repro.engine import ENVELOPE, EvaluationBudgetExceeded, evaluation_budget
from repro.gdb import create_engine
from repro.runtime import (
    CampaignCell,
    CellConfig,
    ChaosConfig,
    EventLog,
    ParallelCampaignRunner,
)
from repro.runtime.supervisor import DEFAULT_CHAOS_TIMEOUT
from repro.service.scheduler import CampaignScheduler

ENGINE = "falkordb"


def cells_for(*testers, seed=0, budget=2.0):
    return [
        CampaignCell(tester, ENGINE, seed,
                     CellConfig(budget, gate_scale=0.05))
        for tester in testers
    ]


def fingerprint(results):
    return json.dumps(
        {"|".join(map(str, key)): campaign_to_dict(result)
         for key, result in results.items()},
        sort_keys=True,
    )


def kinds_of(events):
    return [event["event"] for event in events]


@dataclass(frozen=True)
class ScriptedChaos(ChaosConfig):
    """Chaos with a fixed per-attempt directive script (test determinism)."""

    script: tuple = ()
    truncate_all: bool = False

    def directive(self, key, attempt):
        if attempt <= len(self.script):
            return self.script[attempt - 1]
        return None

    def truncates(self, key):
        return self.truncate_all


# -- the resource envelope --------------------------------------------------


class TestResourceEnvelope:
    def test_disabled_by_default(self):
        assert ENVELOPE.limit is None

    def test_budget_scopes_and_raises(self):
        with evaluation_budget(3) as env:
            env.charge(3)
            with pytest.raises(EvaluationBudgetExceeded, match="3 steps"):
                env.charge()
        assert ENVELOPE.limit is None

    def test_budgets_nest_and_restore_after_blowing(self):
        with evaluation_budget(100) as outer:
            outer.charge(40)
            with pytest.raises(EvaluationBudgetExceeded):
                with evaluation_budget(2):
                    ENVELOPE.charge(5)
            # The outer scope's counter survives the inner blow-up.
            assert ENVELOPE.limit == 100 and ENVELOPE.steps == 40
        assert ENVELOPE.limit is None

    def test_none_budget_is_a_no_op(self):
        before = (ENVELOPE.limit, ENVELOPE.steps)
        with evaluation_budget(None):
            pass
        assert (ENVELOPE.limit, ENVELOPE.steps) == before

    def test_recursion_error_surfaces_as_budget_error(self, monkeypatch):
        engine = create_engine(ENGINE)

        def blow_stack(query):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(engine, "_execute", blow_stack)
        with pytest.raises(EvaluationBudgetExceeded, match="recursion"):
            engine.execute("MATCH (n) RETURN n")


class TestKernelStepBudget:
    def test_blown_budget_is_harness_error_not_bug(self):
        from repro.experiments.campaign import run_tool_campaign

        log = EventLog()
        result = run_tool_campaign(
            "GQS", ENGINE, budget_seconds=2.0, gate_scale=0.05,
            events=log, step_budget=1,
        )
        assert result.harness_errors > 0
        # Aborted judgements still consume their proposal...
        assert result.queries_run >= result.harness_errors
        # ...but never produce a (false) bug report.
        assert result.reports == []
        errors = [e for e in log.events if e["event"] == "harness_error"]
        assert len(errors) == result.harness_errors
        assert all("EvaluationBudgetExceeded" in e["error"] for e in errors)
        assert ENVELOPE.limit is None  # envelope restored after the run

    def test_budgeted_campaign_is_deterministic(self):
        from repro.experiments.campaign import run_tool_campaign

        runs = [
            campaign_to_dict(run_tool_campaign(
                "GQS", ENGINE, budget_seconds=2.0, gate_scale=0.05,
                step_budget=200,
            ))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_harness_errors_round_trip_serialization(self):
        from repro.core.reporting import campaign_from_dict
        from repro.runtime import CampaignResult

        result = CampaignResult("GQS", ENGINE)
        result.harness_errors = 3
        data = campaign_to_dict(result)
        assert data["harness_errors"] == 3
        assert campaign_from_dict(data).harness_errors == 3
        # Older logs without the field load as zero.
        data.pop("harness_errors")
        assert campaign_from_dict(data).harness_errors == 0


class TestOracleStepBudget:
    BUNDLE = {"format": "gqs-bundle/1", "signature": "sig", "fault_id": "f1"}

    def test_budget_blown_replay_rejects_candidate(self, monkeypatch):
        from repro.reduce import ReductionOracle

        def hungry_side(candidate, faults_enabled):
            if ENVELOPE.limit is not None:
                ENVELOPE.charge(10_000)
            return {"rows": [[1]], "columns": ["a"],
                    "fault_id": "f1" if faults_enabled else None}

        monkeypatch.setattr("repro.reduce.oracle._execute_side",
                            hungry_side)
        unbudgeted = ReductionOracle(dict(self.BUNDLE))
        assert unbudgeted.accepts() is True
        budgeted = ReductionOracle(dict(self.BUNDLE), step_budget=5)
        sides = budgeted.outcome()
        assert sides["actual"]["error"].startswith(
            "EvaluationBudgetExceeded"
        )
        assert sides["actual"]["fault_id"] is None
        assert budgeted.accepts() is False
        assert ENVELOPE.limit is None


# -- chaos configuration ----------------------------------------------------


class TestChaosConfig:
    def test_parse(self):
        assert ChaosConfig.parse("0.3") == ChaosConfig(rate=0.3, seed=0)
        assert ChaosConfig.parse("0.5,9") == ChaosConfig(rate=0.5, seed=9)

    @pytest.mark.parametrize("spec", ["", "nonsense", "0.5,x", "2.0",
                                      "0.1,2,3", "-0.1"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            ChaosConfig.parse(spec)

    def test_draws_are_deterministic_and_attempt_indexed(self):
        chaos = ChaosConfig(rate=0.5, seed=7)
        key = ("GQS", ENGINE, 123)
        draws = [chaos.directive(key, attempt) for attempt in (1, 2, 3)]
        assert draws == [ChaosConfig(rate=0.5, seed=7).directive(key, a)
                         for a in (1, 2, 3)]
        assert chaos.truncates(key) == chaos.truncates(key)

    def test_rate_bounds(self):
        never = ChaosConfig(rate=0.0, seed=1)
        always = ChaosConfig(rate=1.0, seed=1)
        keys = [("GQS", ENGINE, s) for s in range(20)]
        assert all(never.directive(k, 1) is None for k in keys)
        assert all(always.directive(k, 1) in ("crash", "hang", "error")
                   for k in keys)
        assert not any(never.truncates(k) for k in keys)
        assert all(always.truncates(k) for k in keys)

    def test_chaos_implies_default_timeout(self):
        scheduler = CampaignScheduler(EventLog(), lease_seconds=None,
                                      chaos=ChaosConfig(rate=0.2))
        assert scheduler.lease_seconds == DEFAULT_CHAOS_TIMEOUT
        explicit = CampaignScheduler(EventLog(), lease_seconds=3.0,
                                     chaos=ChaosConfig(rate=0.2))
        assert explicit.lease_seconds == 3.0


# -- sandboxing, retries, quarantine ---------------------------------------


class TestSandbox:
    def test_worker_exception_becomes_quarantine_hole(self, tmp_path):
        log_path = tmp_path / "grid.jsonl"
        grid = cells_for("GQS") + [
            CampaignCell("NoSuchTester", ENGINE, 0,
                         CellConfig(2.0, gate_scale=0.05))
        ]
        results = ParallelCampaignRunner(
            jobs=1, events_path=log_path, cell_retries=1, retry_backoff=0.0,
        ).run(grid)

        # The healthy cell's result is untouched by its neighbour's death.
        assert list(results) == [("GQS", ENGINE, 0)]
        reference = ParallelCampaignRunner(jobs=1).run(cells_for("GQS"))
        assert fingerprint(results) == fingerprint(reference)

        events = load_event_stream(log_path)
        failed = [e for e in events if e["event"] == "cell_failed"]
        assert [e["attempt"] for e in failed] == [1, 2]
        assert all(e["kind"] == "exception" for e in failed)
        assert all("ValueError" in e["error"] for e in failed)
        assert all(e["tester"] == "NoSuchTester" for e in failed)
        assert failed[0]["will_retry"] and not failed[1]["will_retry"]
        assert failed[0]["traceback_tail"]  # structured context captured

        retries = [e for e in events if e["event"] == "cell_retry"]
        assert len(retries) == 1 and retries[0]["next_attempt"] == 2

        (quarantined,) = (e for e in events
                          if e["event"] == "cell_quarantined")
        assert quarantined["attempts"] == 2

        (grid_end,) = (e for e in events if e["event"] == "grid_end")
        assert grid_end["completed"] == 1 and grid_end["quarantined"] == 1

    def test_completion_order_checkpoint_survives_earlier_cell_failing(
        self, tmp_path
    ):
        # Grid order: the DOOMED cell first, the healthy cell second.  With
        # two lease workers and retries the healthy cell finishes while the
        # first is still failing — its checkpoint must land anyway (a
        # head-of-line wait would have lost it).
        log_path = tmp_path / "grid.jsonl"
        grid = [
            CampaignCell("NoSuchTester", ENGINE, 0,
                         CellConfig(2.0, gate_scale=0.05)),
            *cells_for("GQS"),
        ]
        results = ParallelCampaignRunner(
            jobs=2, events_path=log_path, cell_retries=2, retry_backoff=0.0,
        ).run(grid)
        assert list(results) == [("GQS", ENGINE, 0)]
        events = load_event_stream(log_path)
        completes = [e for e in events if e["event"] == "cell_complete"]
        assert [e["tester"] for e in completes] == ["GQS"]


# -- watchdog and chaos injection ------------------------------------------


class TestWatchdogAndChaos:
    def test_hang_is_cut_by_watchdog_and_quarantined(self, tmp_path):
        log_path = tmp_path / "grid.jsonl"
        chaos = ScriptedChaos(rate=1.0, hang_seconds=60.0,
                              script=("hang",))
        results = ParallelCampaignRunner(
            jobs=1, events_path=log_path, chaos=chaos, cell_timeout=1.0,
        ).run(cells_for("GQS"))
        assert results == {}
        events = load_event_stream(log_path)
        (failed,) = (e for e in events if e["event"] == "cell_failed")
        assert failed["kind"] == "timeout"
        assert "watchdog" in failed["error"]
        assert "cell_quarantined" in kinds_of(events)

    def test_crashed_attempt_retries_to_byte_identical_result(
        self, tmp_path
    ):
        log_path = tmp_path / "grid.jsonl"
        chaos = ScriptedChaos(rate=1.0, script=("crash",))
        results = ParallelCampaignRunner(
            jobs=1, events_path=log_path, chaos=chaos, cell_timeout=30.0,
            cell_retries=1, retry_backoff=0.0,
        ).run(cells_for("GQS"))
        reference = ParallelCampaignRunner(jobs=1).run(cells_for("GQS"))
        assert fingerprint(results) == fingerprint(reference)
        events = load_event_stream(log_path)
        (failed,) = (e for e in events if e["event"] == "cell_failed")
        assert failed["kind"] == "crash" and failed["attempt"] == 1
        (complete,) = (e for e in events if e["event"] == "cell_complete")
        assert complete["attempts"] == 2

    def test_injected_error_is_sandboxed(self, tmp_path):
        log_path = tmp_path / "grid.jsonl"
        chaos = ScriptedChaos(rate=1.0, script=("error",))
        results = ParallelCampaignRunner(
            jobs=1, events_path=log_path, chaos=chaos, cell_timeout=30.0,
            cell_retries=1, retry_backoff=0.0,
        ).run(cells_for("GQS"))
        reference = ParallelCampaignRunner(jobs=1).run(cells_for("GQS"))
        assert fingerprint(results) == fingerprint(reference)
        (failed,) = (e for e in load_event_stream(log_path)
                     if e["event"] == "cell_failed")
        assert failed["kind"] == "exception"
        assert "chaos: injected worker error" in failed["error"]

    def test_chaos_grid_healthy_cells_match_fault_free_reference(self):
        grid = cells_for("GQS", "GQT", "GRev")
        reference = ParallelCampaignRunner(jobs=1).run(grid)
        chaos = ChaosConfig(rate=0.6, seed=7, hang_seconds=60.0)
        runs = [
            ParallelCampaignRunner(
                jobs=2, chaos=chaos, cell_timeout=2.0, cell_retries=2,
                retry_backoff=0.0,
            ).run(grid)
            for _ in range(2)
        ]
        # Chaos is deterministic: both runs complete the same cells...
        assert set(runs[0]) == set(runs[1])
        assert fingerprint(runs[0]) == fingerprint(runs[1])
        # ...and every completed cell is byte-identical to fault-free.
        ref_dicts = {k: campaign_to_dict(v) for k, v in reference.items()}
        for key, result in runs[0].items():
            assert campaign_to_dict(result) == ref_dicts[key]

    def test_truncated_checkpoints_rerun_on_resume(self, tmp_path):
        log_path = tmp_path / "chaos.jsonl"
        grid = cells_for("GQS", "GQT")
        reference = ParallelCampaignRunner(jobs=1).run(grid)
        chaos = ScriptedChaos(rate=1.0, script=(), truncate_all=True)
        torn = ParallelCampaignRunner(
            jobs=1, events_path=log_path, chaos=chaos, cell_timeout=30.0,
        ).run(grid)
        # The run itself is unaffected (in-memory events are intact)...
        assert fingerprint(torn) == fingerprint(reference)
        # ...but every on-disk checkpoint line was torn mid-write.
        events = load_event_stream(log_path)
        assert "cell_complete" not in kinds_of(events)
        assert sum(1 for e in events if e["event"] == "chaos") == 2
        # Resume (fault-free) re-runs the torn cells back to byte-identity.
        resumed = ParallelCampaignRunner(
            jobs=1, events_path=log_path,
        ).run(grid, resume_path=log_path)
        assert fingerprint(resumed) == fingerprint(reference)
        completes = [e for e in load_event_stream(log_path)
                     if e["event"] == "cell_complete"]
        assert len(completes) == 2


# -- pool lifecycle ---------------------------------------------------------


class TestPoolLifecycle:
    def test_jobs_exceeding_cells(self):
        grid = cells_for("GQS", "GQT")
        assert fingerprint(ParallelCampaignRunner(jobs=16).run(grid)) == \
            fingerprint(ParallelCampaignRunner(jobs=1).run(grid))

    def test_single_cell_grid(self):
        grid = cells_for("GQS")
        assert fingerprint(ParallelCampaignRunner(jobs=4).run(grid)) == \
            fingerprint(ParallelCampaignRunner(jobs=1).run(grid))

    def test_spawn_start_method_is_byte_identical(self, monkeypatch):
        grid = cells_for("GQS", "GQT")
        reference = ParallelCampaignRunner(jobs=1).run(grid)
        monkeypatch.setenv("GQS_START_METHOD", "spawn")
        spawned = ParallelCampaignRunner(jobs=2).run(grid)
        assert fingerprint(spawned) == fingerprint(reference)

    def test_interrupted_grid_reaps_lease_processes(self, monkeypatch):
        # The consumer bails out mid-grid (an exception escapes the
        # scheduler loop while a hung attempt holds its lease): the lease
        # worker must not outlive the grid.
        chaos = ScriptedChaos(rate=1.0, hang_seconds=60.0,
                              script=("hang", "hang", "hang"))
        tick = CampaignScheduler.tick

        def interrupting_tick(scheduler, now=None):
            tick(scheduler, now)
            if scheduler._leases:
                raise KeyboardInterrupt

        monkeypatch.setattr(CampaignScheduler, "tick", interrupting_tick)
        with pytest.raises(KeyboardInterrupt):
            ParallelCampaignRunner(
                jobs=1, chaos=chaos, cell_timeout=30.0, cell_retries=2,
                retry_backoff=0.0,
            ).run(cells_for("GQS"))
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, "lease process leaked"
            time.sleep(0.05)

    def test_sigint_mid_grid_leaves_resumable_log(self, tmp_path):
        # A real mid-grid kill: SIGINT the grid process after its first
        # completion-order checkpoint, then resume and demand
        # byte-identity with an uninterrupted reference run.
        log_path = tmp_path / "interrupted.jsonl"
        grid = [
            CampaignCell("GQS", ENGINE, 0, CellConfig(2.0, gate_scale=0.05)),
            CampaignCell("GQT", ENGINE, 0, CellConfig(8.0, gate_scale=0.05)),
            CampaignCell("GRev", ENGINE, 0, CellConfig(8.0, gate_scale=0.05)),
        ]
        script = (
            "import sys\n"
            "from repro.runtime import (\n"
            "    CampaignCell, CellConfig, ParallelCampaignRunner)\n"
            "cells = [\n"
            "    CampaignCell('GQS', 'falkordb', 0,\n"
            "                 CellConfig(2.0, gate_scale=0.05)),\n"
            "    CampaignCell('GQT', 'falkordb', 0,\n"
            "                 CellConfig(8.0, gate_scale=0.05)),\n"
            "    CampaignCell('GRev', 'falkordb', 0,\n"
            "                 CellConfig(8.0, gate_scale=0.05)),\n"
            "]\n"
            "ParallelCampaignRunner(jobs=2, events_path=sys.argv[1])"
            ".run(cells)\n"
        )
        env = dict(os.environ)
        src = str((os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))) + "/src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(log_path)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if (log_path.exists()
                        and "cell_complete" in log_path.read_text()):
                    break
                if proc.poll() is not None:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("grid never checkpointed a cell")
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # The interrupted log is readable (write-through + torn-line
        # tolerance) and already holds at least one checkpoint.
        events = load_event_stream(log_path)
        checkpointed = [e for e in events if e["event"] == "cell_complete"]
        assert checkpointed

        reference = ParallelCampaignRunner(jobs=1).run(grid)
        resumed = ParallelCampaignRunner(
            jobs=1, events_path=tmp_path / "resumed.jsonl",
        ).run(grid, resume_path=log_path)
        assert fingerprint(resumed) == fingerprint(reference)
        # Only unfinished cells re-ran.
        resumed_events = load_event_stream(tmp_path / "resumed.jsonl")
        (grid_start,) = (e for e in resumed_events
                         if e["event"] == "grid_start")
        assert grid_start["resumed"] == len(checkpointed)
        assert grid_start["pending"] == len(grid) - len(checkpointed)


# -- CLI diagnostics --------------------------------------------------------


class TestMalformedBundleCli:
    def test_replay_reports_parse_position_and_exits_2(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "gqs-bundle/1", "truncated')
        assert main(["replay", str(bad)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0  # one line, not a traceback
        assert "bad.json" in err and "line 1" in err and "char" in err

    def test_reduce_preflights_malformed_bundles(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        assert main(["reduce", str(bad)]) == 2
        err = capsys.readouterr().err.strip()
        assert "bad.json" in err and "malformed bundle JSON" in err

    def test_non_bundle_json_is_diagnosed(self, tmp_path, capsys):
        from repro.cli import main

        not_bundle = tmp_path / "list.json"
        not_bundle.write_text("[1, 2, 3]")
        assert main(["replay", str(not_bundle)]) == 2
        assert "not a flight-recorder bundle" in capsys.readouterr().err


# -- supervisor stats rendering --------------------------------------------


class TestSupervisorRendering:
    def test_stats_render_supervisor_section(self, tmp_path):
        from repro.obs import render_stats

        log_path = tmp_path / "grid.jsonl"
        grid = cells_for("GQS") + [
            CampaignCell("NoSuchTester", ENGINE, 0,
                         CellConfig(2.0, gate_scale=0.05))
        ]
        ParallelCampaignRunner(
            jobs=1, events_path=log_path, cell_retries=1, retry_backoff=0.0,
        ).run(grid)
        rendered = render_stats(load_event_stream(log_path))
        assert "== supervisor ==" in rendered
        assert "failed attempts (exception)" in rendered
        assert "cells quarantined" in rendered
