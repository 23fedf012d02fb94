"""Tests for campaign persistence and the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.reporting import (
    campaign_from_dict,
    campaign_to_dict,
    completed_cells_from_events,
    event_to_json_line,
    load_campaign,
    load_event_stream,
    save_campaign,
    save_event_stream,
)
from repro.core.runner import GQSTester
from repro.runtime.results import BugReport, CampaignResult
from repro.gdb import EngineOptions, create_engine


@pytest.fixture(scope="module")
def campaign():
    engine = create_engine("falkordb", options=EngineOptions(gate_scale=0.05))
    return GQSTester().run(engine, budget_seconds=20.0, seed=4)


class TestReporting:
    def test_round_trip(self, campaign, tmp_path):
        path = tmp_path / "campaign.json"
        save_campaign(campaign, path)
        loaded = load_campaign(path)
        assert loaded.tester == campaign.tester
        assert loaded.engine == campaign.engine
        assert loaded.queries_run == campaign.queries_run
        assert loaded.sim_seconds == campaign.sim_seconds
        assert loaded.detected_faults == campaign.detected_faults
        assert len(loaded.reports) == len(campaign.reports)
        assert loaded.timeline == campaign.timeline
        assert loaded.trigger_records == campaign.trigger_records

    def test_json_is_plain(self, campaign, tmp_path):
        path = tmp_path / "campaign.json"
        save_campaign(campaign, path)
        data = json.loads(path.read_text())
        assert data["tester"] == "GQS"
        for report in data["reports"]:
            assert set(report) == {
                "tester", "engine", "kind", "detail", "query",
                "fault_id", "sim_time", "n_steps",
            }

    def test_report_round_trip_preserves_fp_flag(self):
        original = CampaignResult("T", "e")
        original.reports = [BugReport("T", "e", "logic", "d", "q", None, 1.0)]
        restored = campaign_from_dict(campaign_to_dict(original))
        assert restored.reports[0].is_false_positive

    def test_figures_work_on_loaded_campaign(self, campaign, tmp_path):
        """A stored campaign can be re-analyzed without re-running."""
        from repro.experiments import figure13

        path = tmp_path / "campaign.json"
        save_campaign(campaign, path)
        loaded = load_campaign(path)
        if loaded.trigger_records:
            histogram = figure13(loaded.trigger_records)
            assert sum(histogram.values()) == len(loaded.trigger_records)


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["campaign", "--engine", "kuzu"])
        assert args.command == "campaign"
        args = parser.parse_args(["table", "5"])
        assert args.id == 5
        with pytest.raises(SystemExit):
            parser.parse_args(["table", "9"])

    def test_synthesize_command(self, capsys):
        assert main(["synthesize", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "expected result set" in out
        assert "RETURN" in out

    def test_calibrate_command(self, capsys):
        """The calibration script extracts features from every generator."""
        from repro.gdb.catalog import all_faults

        assert main(["calibrate", "--n", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "GQS@falkordb" in lines[0] and "GDsmith" in lines[0]
        assert len(lines) == 2 + len(all_faults())

    def test_campaign_command_with_export(self, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        code = main([
            "campaign", "--engine", "falkordb", "--minutes", "0.3",
            "--seed", "1", "--gate-scale", "0.05", "--out", str(out_file),
        ])
        assert code == 0
        assert out_file.exists()
        printed = capsys.readouterr().out
        assert "distinct bugs" in printed

    def test_campaign_unsupported_pairing(self, capsys):
        code = main(["campaign", "--engine", "memgraph", "--tester", "GDBMeter"])
        assert code == 2

    def test_table2_command(self, capsys):
        assert main(["table", "2"]) == 0
        assert "Neo4j" in capsys.readouterr().out

    def test_parser_accepts_table4_and_grid_flags(self):
        parser = build_parser()
        args = parser.parse_args(["table", "4", "--jobs", "2"])
        assert args.id == 4 and args.jobs == 2
        args = parser.parse_args(
            ["campaign", "--seeds", "3", "--jobs", "2", "--events", "e.jsonl"]
        )
        assert (args.seeds, args.jobs, args.events) == (3, 2, "e.jsonl")
        args = parser.parse_args(["compare", "--jobs", "4", "--resume", "r.jsonl"])
        assert args.jobs == 4 and args.resume == "r.jsonl"

    def test_compare_command_with_jobs(self, capsys):
        assert main([
            "compare", "--engine", "falkordb", "--minutes", "0.05",
            "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        for tool in ("GQS", "GDsmith", "GRev"):
            assert tool in out

    def test_campaign_seed_replicates_with_events(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        assert main([
            "campaign", "--engine", "falkordb", "--minutes", "0.05",
            "--seeds", "2", "--jobs", "2", "--events", str(log),
        ]) == 0
        assert "union over 2 seeds" in capsys.readouterr().out
        kinds = [event["event"] for event in load_event_stream(log)]
        assert kinds.count("cell_complete") == 2


class TestEventStream:
    """Round-trips of the campaign event-stream records (repro.runtime)."""

    def events(self, campaign):
        return [
            {"event": "grid_start", "cells": 1, "jobs": 2},
            {"event": "campaign_start", "tester": "GQS", "engine": "falkordb",
             "seed": 0, "budget_seconds": 20.0, "max_queries": None,
             "restart_per_graph": True},
            {"event": "fault", "fault_id": "falkordb-L1", "kind": "logic",
             "sim_time": 1.5, "engine": "falkordb"},
            {"event": "crash", "engine": "falkordb", "sim_time": 2.0},
            {"event": "cell_complete", "tester": "GQS", "engine": "falkordb",
             "seed": 0, "campaign": campaign_to_dict(campaign)},
            {"event": "grid_end", "cells": 1},
        ]

    def test_jsonl_round_trip(self, campaign, tmp_path):
        path = tmp_path / "events.jsonl"
        events = self.events(campaign)
        save_event_stream(events, path)
        assert load_event_stream(path) == events

    def test_event_lines_are_compact_single_line_json(self, campaign):
        for event in self.events(campaign):
            line = event_to_json_line(event)
            assert "\n" not in line
            assert json.loads(line) == event

    def test_append_mode_extends_the_log(self, campaign, tmp_path):
        path = tmp_path / "events.jsonl"
        events = self.events(campaign)
        save_event_stream(events[:2], path)
        save_event_stream(events[2:], path, append=True)
        assert load_event_stream(path) == events

    def test_torn_trailing_line_is_tolerated(self, campaign, tmp_path):
        # A killed run can leave a half-written last line; loading must
        # recover every complete record before it.
        path = tmp_path / "events.jsonl"
        events = self.events(campaign)
        save_event_stream(events, path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": "campaign_sta')
        assert load_event_stream(path) == events

    def test_completed_cells_reconstruct_campaigns(self, campaign, tmp_path):
        path = tmp_path / "events.jsonl"
        save_event_stream(self.events(campaign), path)
        cells = completed_cells_from_events(load_event_stream(path))
        assert set(cells) == {("GQS", "falkordb", 0)}
        restored = cells[("GQS", "falkordb", 0)]
        assert campaign_to_dict(restored) == campaign_to_dict(campaign)

    def test_resume_merges_identical_campaign(self, campaign, tmp_path):
        """campaign -> JSONL checkpoint -> resume -> identical result."""
        from repro.runtime import (
            CampaignCell,
            CellConfig,
            ParallelCampaignRunner,
        )

        path = tmp_path / "events.jsonl"
        save_event_stream(self.events(campaign), path)
        cell = CampaignCell("GQS", "falkordb", 0, CellConfig(20.0, gate_scale=0.05))
        results = ParallelCampaignRunner(jobs=1).run([cell], resume_path=path)
        assert campaign_to_dict(results[cell.key]) == campaign_to_dict(campaign)
