"""Journal recovery: a damaged log either recovers or refuses with a position.

Grid logs (``--resume``) and service journals (restart) are folded by the
same scheduler replay (:func:`repro.service.scheduler.replay_service_journal`).
For every damage case — each line-boundary prefix, a sample of mid-line
byte prefixes, each line torn, each line with one flipped bit — recovery
must either finish byte-identical to the uninterrupted run, or raise
:class:`~repro.service.scheduler.JournalError` naming the line and byte
offset.  Logs written before grids ran on the scheduler (committed
fixtures) still resume and restart to the same results.
"""

import json
import random
import re
import shutil
from pathlib import Path

import pytest

from repro.core.reporting import (
    campaign_to_dict,
    completed_cells_from_events,
    load_event_stream,
)
from repro.runtime import CampaignCell, CellConfig, ParallelCampaignRunner
from repro.service import scheduler as scheduler_module
from repro.service.scheduler import (
    CampaignScheduler,
    JournalError,
    replay_service_journal,
)

FIXTURES = Path(__file__).parent / "fixtures"
ENGINE = "falkordb"
#: The grid of both fixtures: two tiny cells.
CONFIG = CellConfig(4.0, gate_scale=0.05, max_queries=4)
SPEC = {"testers": ["GQS", "GQT"], "engines": [ENGINE], "seeds": [0],
        "budget_seconds": 4.0, "gate_scale": 0.05, "max_queries": 4}
POSITION = re.compile(r"line \d+ \(byte offset \d+\)")


def fast_poll(monkeypatch):
    """Shorten the scheduler's poll interval."""
    monkeypatch.setattr(scheduler_module, "POLL_INTERVAL", 0.02)


@pytest.fixture(autouse=True)
def _fast_poll(monkeypatch):
    fast_poll(monkeypatch)


def grid_cells():
    return [CampaignCell(tester, ENGINE, 0, CONFIG)
            for tester in ("GQS", "GQT")]


def fingerprint(results):
    return {key: json.dumps(campaign_to_dict(result), sort_keys=True)
            for key, result in results.items()}


def damage_cases(data):
    """(label, bytes) for every damage case of one recorded log."""
    rng = random.Random(0)
    lines = data.split(b"\n")[:-1]
    ends = [0]
    for line in lines:
        ends.append(ends[-1] + len(line) + 1)
    cases = [(f"prefix@{end}", data[:end]) for end in ends]
    mid = sorted(set(range(len(data))) - set(ends))
    cases += [(f"prefix@{cut}", data[:cut])
              for cut in sorted(rng.sample(mid, 12))]
    for index, line in enumerate(lines):
        torn = lines[:index] + [line[:len(line) // 2]] + lines[index + 1:]
        cases.append((f"torn line {index + 1}", b"\n".join(torn) + b"\n"))
        bit = rng.randrange(len(line) * 8)
        flipped = bytearray(line)
        flipped[bit // 8] ^= 1 << (bit % 8)
        damaged = lines[:index] + [bytes(flipped)] + lines[index + 1:]
        cases.append((f"bit {bit} of line {index + 1}",
                      b"\n".join(damaged) + b"\n"))
    return cases


@pytest.fixture(scope="module")
def reference():
    return fingerprint(ParallelCampaignRunner(jobs=1).run(grid_cells()))


@pytest.fixture(scope="module")
def grid_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("grid") / "grid.jsonl"
    ParallelCampaignRunner(jobs=1, events_path=path).run(grid_cells())
    return path.read_bytes()


@pytest.fixture(scope="module")
def service_journal(tmp_path_factory):
    path = tmp_path_factory.mktemp("service") / "svc.jsonl"
    with pytest.MonkeyPatch.context() as monkeypatch:
        fast_poll(monkeypatch)
        scheduler = CampaignScheduler(path, jobs=1, lease_seconds=60.0)
        scheduler.submit(SPEC)
        scheduler.run_until(timeout=120)
        scheduler.drain()
        scheduler.tick()
    return path.read_bytes()


def resume_grid(log):
    """Resume the grid from *log*, appending to it (``--resume LOG
    --events LOG``)."""
    return fingerprint(ParallelCampaignRunner(jobs=1, events_path=log)
                       .run(grid_cells(), resume_path=log))


def restart_service(journal, **options):
    """Restart a service on *journal* and finish its grid; a job the
    journal never acknowledged is submitted again, as its client would."""
    scheduler = CampaignScheduler(journal, jobs=1, **options)
    try:
        if scheduler.job_record("job-0001") is None:
            scheduler.submit(SPEC)
        scheduler.run_until(timeout=120)
    finally:
        scheduler.close()
    return fingerprint(completed_cells_from_events(load_event_stream(journal)))


class TestDamagedLogs:
    def test_grid_log_recovers_or_refuses_with_position(
        self, tmp_path, grid_log, reference
    ):
        outcomes = {"recovered": 0, "refused": 0}
        for label, data in damage_cases(grid_log):
            log = tmp_path / "grid.jsonl"
            log.write_bytes(data)
            try:
                assert resume_grid(log) == reference, label
            except JournalError as exc:
                assert POSITION.search(str(exc)), (label, str(exc))
                outcomes["refused"] += 1
            else:
                outcomes["recovered"] += 1
        assert outcomes["recovered"] and outcomes["refused"], outcomes

    def test_service_journal_recovers_or_refuses_with_position(
        self, tmp_path, service_journal, reference
    ):
        outcomes = {"recovered": 0, "refused": 0}
        for label, data in damage_cases(service_journal):
            journal = tmp_path / "svc.jsonl"
            journal.write_bytes(data)
            try:
                # In-process attempts: the same recovery, without forks.
                finished = restart_service(journal, lease_seconds=None)
            except JournalError as exc:
                assert POSITION.search(str(exc)), (label, str(exc))
                outcomes["refused"] += 1
            else:
                assert finished == reference, label
                outcomes["recovered"] += 1
        assert outcomes["recovered"] and outcomes["refused"], outcomes

    @staticmethod
    def _flip_checkpoint(tmp_path, grid_log):
        """The grid log with one checkpoint's campaign tampered; returns
        the log and the tampered record's line number."""
        lines = grid_log.split(b"\n")[:-1]
        index = next(i for i, line in enumerate(lines)
                     if b'"event":"cell_complete"' in line)
        # A digit of the campaign changes, and the line still decodes.
        damaged = lines[index].replace(b'"queries_run":4', b'"queries_run":5')
        assert damaged != lines[index]
        log = tmp_path / "grid.jsonl"
        log.write_bytes(b"\n".join(lines[:index] + [damaged]
                                   + lines[index + 1:]) + b"\n")
        return log, index + 1

    def test_flipped_checkpoint_is_refused_not_trusted(self, tmp_path,
                                                       grid_log):
        log, line = self._flip_checkpoint(tmp_path, grid_log)
        with pytest.raises(JournalError,
                           match=rf"line {line} \(byte offset \d+\)"):
            replay_service_journal(load_event_stream(log))

    def test_completed_cells_refuse_a_flipped_checkpoint(self, tmp_path,
                                                         grid_log):
        # The checkpoint fold behind reports and perfbench is the replay's.
        log, line = self._flip_checkpoint(tmp_path, grid_log)
        with pytest.raises(JournalError,
                           match=rf"line {line} \(byte offset \d+\)"):
            completed_cells_from_events(load_event_stream(log))


class TestLogsFromBeforeTheScheduler:
    def test_interrupted_grid_log_resumes(self, tmp_path, reference):
        log = tmp_path / "grid.jsonl"
        shutil.copy(FIXTURES / "grid_interrupted.jsonl", log)
        assert resume_grid(log) == reference
        starts = [e for e in load_event_stream(log)
                  if e["event"] == "grid_start"]
        assert (starts[-1]["resumed"], starts[-1]["pending"]) == (1, 1)

    def test_interrupted_service_journal_restarts(self, tmp_path,
                                                  reference):
        journal = tmp_path / "svc.jsonl"
        shutil.copy(FIXTURES / "service_interrupted.jsonl", journal)
        scheduler = CampaignScheduler(journal, jobs=1, lease_seconds=60.0)
        job = scheduler.job_record("job-0001")
        assert job["counts"]["done"] == 1 and job["counts"]["pending"] == 1
        scheduler.close()
        assert restart_service(journal, lease_seconds=60.0) == reference

    def test_journaled_adaptive_strategy_is_refused_with_position(
        self, tmp_path
    ):
        with pytest.raises(ValueError, match="adaptive"):
            CellConfig.from_dict({"budget_seconds": 4.0,
                                  "adaptive": "epsilon"})
        data = (FIXTURES / "service_interrupted.jsonl").read_bytes()
        assert data.count(b'"adaptive":null') == 1
        journal = tmp_path / "svc.jsonl"
        journal.write_bytes(data.replace(b'"adaptive":null',
                                         b'"adaptive":"epsilon"'))
        with pytest.raises(JournalError, match=(
            r"line 2 \(byte offset \d+\): job job-0001 has an invalid "
            r"spec \(adaptive must be null"
        )):
            CampaignScheduler(journal, jobs=1, lease_seconds=60.0)
