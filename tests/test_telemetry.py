"""Tests for the live-telemetry tier: follower, operator profiler, exports.

Covers the torn-line-tolerant :class:`EventFollower` against a log that
grows between polls, the PROBE-gated per-operator profiler of the compiled
execution core (including the byte-identity acceptance invariants), and
the portable export surfaces: Chrome trace JSON, ``--format json`` on
``stats``/``bugs``/``compare``, and the static HTML report.
"""

import json
import re

import pytest

from repro.cli import main
from repro.core.reporting import campaign_to_dict, load_event_stream
from repro.experiments.campaign import run_campaign_grid, run_tool_campaign
from repro.obs import (
    EXPORT_SCHEMA_VERSION,
    EventFollower,
    bugs_json,
    chrome_trace,
    deterministic_view,
    html_report,
    observed,
    render_bugs,
    render_coverage,
    render_profile,
    render_stats,
    render_watch,
    split_metric_key,
    stats_json,
)
from repro.obs.view import RunView


@pytest.fixture(scope="module")
def event_log(tmp_path_factory):
    """A finished compiled-mode campaign log with every event tier on."""
    path = tmp_path_factory.mktemp("telemetry") / "events.jsonl"
    code = main([
        "run", "--engine", "falkordb", "--minutes", "0.15",
        "--gate-scale", "0.05", "--metrics", "--coverage", "--triage",
        "--engine-mode", "compiled", "--events", str(path),
    ])
    assert code == 0
    return path


def campaign_query_total(events):
    """Total queries per the metrics counters — what ``repro stats`` shows."""
    matrix = RunView.of(events).matrix("campaign.queries")
    return sum(sum(row.values()) for row in matrix.values())


class TestEventStreamSkipped:
    def test_loader_counts_torn_lines(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            json.dumps({"event": "campaign_start"}) + "\n"
            + "{{{ not json\n"
            + json.dumps({"event": "campaign_end"}) + "\n"
            + '{"event": "qu',  # torn mid-write, no newline
            encoding="utf-8",
        )
        events = load_event_stream(path)
        assert [e["event"] for e in events] == ["campaign_start",
                                                "campaign_end"]
        assert events.skipped == 2

    def test_loader_still_a_plain_list(self, event_log):
        events = load_event_stream(event_log)
        assert isinstance(events, list)
        assert events.skipped == 0

    def test_stats_warns_on_skipped_lines(self, event_log, tmp_path, capsys):
        path = tmp_path / "damaged.jsonl"
        path.write_bytes(event_log.read_bytes() + b"%%% torn %%%\n")
        assert main(["stats", str(path)]) == 0
        err = capsys.readouterr().err
        assert "torn" in err and "1" in err

    def test_stats_silent_when_clean(self, event_log, capsys):
        assert main(["stats", str(event_log)]) == 0
        assert "torn" not in capsys.readouterr().err


class TestEventFollower:
    def test_growing_log_matches_posthoc_renderers(self, event_log, tmp_path):
        """S3 acceptance: poll a log that grows between polls (with torn
        boundaries) and match the post-hoc loader/renderers at each step."""
        raw = event_log.read_bytes()
        live = tmp_path / "live.jsonl"
        live.write_bytes(b"")
        follower = EventFollower(live)

        step = max(1, len(raw) // 17)  # boundaries land mid-line
        for start in range(0, len(raw), step):
            with live.open("ab") as fh:
                fh.write(raw[start:start + step])
            follower.poll()
            loaded = load_event_stream(live)
            # The loader skips an unterminated torn tail; the follower
            # buffers it as in-progress.  Both exclude it from events.
            view = RunView.of(loaded)
            assert follower.view.events == len(loaded)
            assert follower.view.counts == view.counts
            assert follower.view.cells == view.cells
            assert render_stats(follower.view) == render_stats(view)
            assert render_bugs(follower.view) == render_bugs(view)
            assert render_coverage(follower.view) == render_coverage(view)
        assert follower.view.finished
        assert follower.view.skipped == 0
        assert follower.view.events == len(load_event_stream(event_log))

    def test_torn_tail_parsed_once_completed(self, tmp_path):
        path = tmp_path / "tail.jsonl"
        first = json.dumps({"event": "campaign_start", "tester": "GQS",
                            "engine": "falkordb", "seed": 0})
        second = json.dumps({"event": "campaign_end", "tester": "GQS",
                             "engine": "falkordb", "seed": 0,
                             "queries_run": 7, "sim_seconds": 1.0,
                             "detected_faults": []})
        path.write_text(first + "\n" + second[:9], encoding="utf-8")
        follower = EventFollower(path)
        assert [e["event"] for e in follower.poll()] == ["campaign_start"]
        assert follower.view.counts == {"campaign_start": 1}
        assert not follower.view.finished
        with path.open("a", encoding="utf-8") as fh:
            fh.write(second[9:] + "\n")
        assert [e["event"] for e in follower.poll()] == ["campaign_end"]
        assert follower.view.counts == {"campaign_start": 1,
                                        "campaign_end": 1}
        assert follower.view.skipped == 0
        assert follower.view.finished
        assert follower.view.queries == 7

    def test_terminated_garbage_counts_as_skipped(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("!!! never json !!!\n"
                        + json.dumps({"event": "grid_end"}) + "\n",
                        encoding="utf-8")
        follower = EventFollower(path)
        follower.poll()
        assert follower.view.skipped == 1
        assert follower.view.skipped == load_event_stream(path).skipped

    def test_missing_file_polls_empty(self, tmp_path):
        follower = EventFollower(tmp_path / "absent.jsonl")
        assert follower.poll() == []
        assert follower.view.events == 0
        assert not follower.view.finished

    def test_render_watch_lists_cells_and_signatures(self, event_log):
        follower = EventFollower(event_log)
        follower.poll()
        frame = render_watch(follower.view, path=event_log)
        assert "== live campaign telemetry ==" in frame
        assert "GQS/falkordb/0" in frame
        assert "status: complete" in frame
        assert "queries/sec: -" in frame  # no rate in one-shot renders


class TestWatchCLI:
    def test_watch_once_matches_stats_totals(self, event_log, capsys):
        """Acceptance: ``repro watch --once`` on a finished log shows the
        same query total as ``repro stats``."""
        assert main(["watch", str(event_log), "--once"]) == 0
        frame = capsys.readouterr().out
        shown = int(re.search(r"queries: (\d+)", frame).group(1))
        assert shown == campaign_query_total(load_event_stream(event_log))
        assert shown > 0

    def test_watch_missing_log_is_an_error(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "absent.jsonl"), "--once"]) == 2
        assert "no such event log" in capsys.readouterr().err


class TestOperatorProfiler:
    def test_compiled_profile_lands_in_metrics(self):
        with observed() as (metrics, _tracer):
            run_tool_campaign("GQS", "falkordb", budget_seconds=6.0, seed=3,
                              gate_scale=0.05, execution_mode="compiled")
            snapshot = metrics.snapshot()
        counters = snapshot["counters"]
        invocations = {
            split_metric_key(key)[1]["operator"]: value
            for key, value in counters.items()
            if split_metric_key(key)[0] == "plan.invocations"
        }
        assert invocations and "match" in invocations
        assert any(split_metric_key(key)[0] == "plan.steps"
                   for key in counters)
        assert any(split_metric_key(key)[0] == "plan.seconds"
                   for key in snapshot["timings"])
        lines = render_profile(snapshot)
        assert lines and any("match" in line for line in lines)

    @pytest.mark.parametrize("mode", ["interpreted", "dual"])
    def test_other_modes_flush_no_profile(self, mode):
        with observed() as (metrics, _tracer):
            run_tool_campaign("GQS", "falkordb", budget_seconds=4.0, seed=3,
                              gate_scale=0.05, execution_mode=mode)
            counters = metrics.snapshot()["counters"]
        assert not any(
            split_metric_key(key)[0] in ("plan.invocations", "plan.steps")
            for key in counters
        )

    def test_profiler_invariance_on_vs_off(self):
        """Acceptance: compiled campaign results are byte-identical with
        profiling on (observed) and off."""
        kwargs = dict(budget_seconds=10.0, seed=5, gate_scale=0.05,
                      execution_mode="compiled")
        plain = run_tool_campaign("GQS", "falkordb", **kwargs)
        with observed():
            profiled = run_tool_campaign("GQS", "falkordb", **kwargs)
        assert (json.dumps(campaign_to_dict(plain), sort_keys=True)
                == json.dumps(campaign_to_dict(profiled), sort_keys=True))

    def test_profiler_invariant_across_jobs(self, tmp_path):
        """Acceptance: profiled compiled grid is identical for jobs 1 vs 2,
        results and deterministic snapshot alike."""
        def grid(jobs):
            path = tmp_path / f"jobs{jobs}.jsonl"
            results = run_campaign_grid(
                ("GQS",), ("falkordb",), seeds=(0, 1), budget_seconds=6.0,
                gate_scale=0.05, derive_seeds=True, jobs=jobs,
                events_path=path, record_metrics=True,
                execution_mode="compiled",
            )
            metrics = RunView.of(load_event_stream(path)).metrics
            assert metrics["counters"]
            dumped = {
                key: json.dumps(campaign_to_dict(result), sort_keys=True)
                for key, result in results.items()
            }
            return dumped, deterministic_view(metrics)

        assert grid(1) == grid(2)


class TestChromeTrace:
    def test_trace_events_valid_and_monotone(self, event_log):
        trace = json.loads(json.dumps(chrome_trace(
            RunView.of(load_event_stream(event_log)))))
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert slices
        last_ts = {}
        for entry in slices:
            assert entry["dur"] >= 0
            assert entry["ts"] >= last_ts.get(entry["tid"], -1.0)
            last_ts[entry["tid"]] = entry["ts"]
        names = [e for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        assert any("GQS/falkordb/0" in m["args"]["name"] for m in names)

    def test_trace_cli_export_writes_file(self, event_log, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(["trace", str(event_log), "--export", "chrome",
                     "--out", str(out)])
        assert code == 0
        assert "chrome trace written" in capsys.readouterr().out
        trace = json.loads(out.read_text(encoding="utf-8"))
        assert trace["traceEvents"]

    def test_no_span_trace_is_empty_but_valid(self):
        trace = chrome_trace(RunView.of([{"event": "campaign_start"}]))
        assert trace["traceEvents"] == []


class TestJsonExports:
    def test_stats_json_cli(self, event_log, capsys):
        assert main(["stats", str(event_log), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        events = load_event_stream(event_log)
        assert data["schema"] == EXPORT_SCHEMA_VERSION
        assert data["events"] == len(events)
        assert data["skipped_lines"] == 0
        assert data["queries"]["GQS"]["falkordb"] > 0
        assert data == json.loads(json.dumps(stats_json(RunView.of(events))))
        assert any(op["operator"] == "match" for op in data["profile"])

    def test_bugs_json_cli(self, event_log, capsys):
        assert main(["bugs", str(event_log), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        events = load_event_stream(event_log)
        assert data["schema"] == EXPORT_SCHEMA_VERSION
        assert data == json.loads(json.dumps(bugs_json(RunView.of(events))))
        assert data["distinct"] == len(data["bugs"])

    def test_compare_json_cli(self, capsys):
        code = main(["compare", "--engine", "falkordb", "--minutes", "0.1",
                     "--seed", "1", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == EXPORT_SCHEMA_VERSION
        assert data["engine"] == "falkordb"
        testers = [row["tester"] for row in data["rows"]]
        assert "GQS" in testers and len(testers) == 6
        for row in data["rows"]:
            if row["completed"]:
                assert {"queries", "bugs", "distinct"} <= set(row)


class TestHtmlReport:
    def test_report_cli_writes_html(self, event_log, tmp_path, capsys):
        out = tmp_path / "report.html"
        code = main(["report", str(event_log), "--out", str(out),
                     "--title", "smoke report"])
        assert code == 0
        assert "report written" in capsys.readouterr().out
        html = out.read_text(encoding="utf-8")
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "smoke report" in html
        assert "falkordb" in html
        assert "== profile ==" in html  # rendered stats block embedded

    def test_report_defaults_next_to_log(self, event_log, capsys):
        assert main(["report", str(event_log)]) == 0
        out = event_log.with_suffix(".html")
        assert out.exists()
        assert event_log.name in out.read_text(encoding="utf-8")

    def test_report_escapes_markup(self):
        html = html_report(RunView(), title="a<b & c>d")
        assert "a&lt;b &amp; c&gt;d" in html
        assert "a<b" not in html

    def test_report_missing_log_is_an_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.jsonl")]) == 2
