"""Second observability tier: coverage, triage signatures, flight recorder.

Covers the three invariants the subsystem guarantees:

* switching coverage/triage/recording on leaves campaign results
  byte-identical (no RNG draws, no control-flow changes);
* a grid log's coverage/triage merges and the bundle set are identical
  for ``jobs=1`` and ``jobs=2`` (the fold merges cells in cell order);
* every recorded bundle replays to exactly the recorded expected/actual
  outcomes (``repro replay``).
"""

import json
import random

import pytest

from repro.cli import main
from repro.core.reporting import campaign_to_dict, load_event_stream
from repro.cypher.parser import parse_query
from repro.experiments.campaign import (
    TESTER_NAMES,
    distinct_bug_summary,
    run_campaign_grid,
    run_tool_campaign,
)
from repro.obs import (
    CellCoverage,
    CellTriage,
    coverage_curve,
    load_bundle,
    merge_coverage_snapshots,
    merge_triage_snapshots,
    normalize_detail,
    query_feature_tags,
    replay_bundle,
    signature_for,
)
from repro.obs.view import RunView
from repro.runtime.results import BugReport

SMOKE = dict(budget_seconds=6.0, gate_scale=0.05)


def report(engine="falkordb", kind="logic", detail="row count mismatch: "
           "expected 7, got 4", query="MATCH (n:L0) RETURN n.k1",
           fault_id=None):
    return BugReport(
        tester="GQS", engine=engine, kind=kind, detail=detail,
        query_text=query, fault_id=fault_id, sim_time=1.0,
    )


class TestFeatureTags:
    def test_clauses_functions_operators_shapes_depth(self):
        query = parse_query(
            "MATCH (n:L0)-[r:T0]->(m:L1:L2) WHERE n.k1 > 3 AND m.k2 IS NULL "
            "RETURN abs(n.k1) AS a ORDER BY a"
        )
        tags = set(query_feature_tags(query))
        assert "clause:MATCH" in tags and "clause:RETURN" in tags
        assert "clause:WHERE" in tags and "clause:ORDER BY" in tags
        assert "function:abs" in tags
        assert "operator:>" in tags and "operator:AND" in tags
        assert "operator:IS NULL" in tags
        assert "shape:path-1" in tags and "shape:typed-rel" in tags
        assert "shape:multi-label-node" in tags
        assert any(tag.startswith("depth:") for tag in tags)

    def test_repeats_preserved_for_counting(self):
        query = parse_query("MATCH (a:L0), (b:L0) RETURN a, b")
        tags = query_feature_tags(query)
        assert tags.count("shape:labeled-node") == 2


class TestSignatures:
    def test_fault_id_is_the_white_box_signature(self):
        assert (signature_for(report(fault_id="falkordb-L3"))
                == "falkordb:falkordb-L3")

    def test_fingerprint_collapses_literal_differences(self):
        a = report(detail="row count mismatch: expected 7, got 4")
        b = report(detail="row count mismatch: expected 12, got 9")
        assert signature_for(a) == signature_for(b)

    def test_fingerprint_separates_structurally_different_failures(self):
        a = report(detail="row count mismatch: expected 7, got 4")
        b = report(kind="error", detail="CypherRuntimeError: boom")
        assert signature_for(a) != signature_for(b)

    def test_normalize_detail(self):
        assert normalize_detail("error", "CypherTypeError: bad 'x'") == \
            "CypherTypeError"
        shape = normalize_detail("logic", "expected 7 rows, got 'abc'")
        assert "7" not in shape and "abc" not in shape


class TestCellAccumulators:
    def test_coverage_curve_grows_monotonically(self):
        cov = CellCoverage("GQS", "falkordb", 0)
        cov.observe(parse_query("MATCH (n) RETURN n"))
        cov.observe(parse_query("MATCH (n) RETURN n"))  # nothing new
        cov.observe(parse_query("MATCH (n:L0) WHERE n.k1 > 1 RETURN n"))
        snap = cov.snapshot()
        assert snap["queries"] == 3
        counts = [n for _q, n in snap["curve"]]
        assert counts == sorted(counts)
        # The repeat query added no curve point.
        assert [q for q, _n in snap["curve"]] == [1, 3]

    def test_triage_first_seen_and_counts(self):
        triage = CellTriage("GQS", "falkordb", 7)
        sig1, new1 = triage.add(report(fault_id="falkordb-L1"), 5)
        sig2, new2 = triage.add(report(fault_id="falkordb-L1"), 9)
        assert new1 and not new2 and sig1 == sig2
        entry = triage.snapshot()["bugs"][sig1]
        assert entry["count"] == 2
        assert entry["first_seen"]["seed"] == 7
        assert entry["first_seen"]["query"] == 5


class TestMerges:
    def cell_snapshots(self):
        snaps = []
        for seed, text in ((0, "MATCH (n) RETURN n"),
                           (1, "MATCH (n:L0)-[r:T0]->(m) RETURN m")):
            cov = CellCoverage("GQS", "falkordb", seed)
            cov.observe(parse_query(text))
            snaps.append(cov.snapshot())
        return snaps

    def test_coverage_merge_is_order_independent(self):
        snaps = self.cell_snapshots()
        merged = merge_coverage_snapshots(snaps)
        shuffled = list(snaps)
        random.Random(3).shuffle(shuffled)
        assert merge_coverage_snapshots(shuffled) == merged
        assert merged["queries"] == 2
        # Grid first-seen indices run over the concatenated query sequence.
        assert all(first >= 1 for _c, first in merged["features"].values())

    def test_triage_merge_sums_counts_and_sorts_testers(self):
        t1 = CellTriage("GQS", "falkordb", 0)
        t1.add(report(fault_id="falkordb-L1"), 1)
        t2 = CellTriage("GRev", "falkordb", 1)
        t2.add(report(fault_id="falkordb-L1"), 2)
        t2.add(report(fault_id="falkordb-L1"), 3)
        merged = merge_triage_snapshots([t2.snapshot(), t1.snapshot()])
        assert merged["distinct"] == 1 and merged["occurrences"] == 3
        entry = merged["bugs"]["falkordb:falkordb-L1"]
        assert entry["testers"] == ["GQS", "GRev"]
        # Sorted cell order: GQS seed 0 wins first-seen.
        assert entry["first_seen"]["seed"] == 0


class TestCoverageSchema:
    def snap(self):
        cov = CellCoverage("GQS", "falkordb", 0)
        cov.observe(parse_query("MATCH (n) RETURN n"))
        return cov.snapshot()

    def test_snapshots_are_stamped_with_current_version(self):
        from repro.obs import COVERAGE_SCHEMA_VERSION

        snap = self.snap()
        assert snap["schema"] == COVERAGE_SCHEMA_VERSION
        assert merge_coverage_snapshots([snap])["schema"] == (
            COVERAGE_SCHEMA_VERSION
        )

    def test_unstamped_snapshots_rejected_naming_the_cell(self):
        # A snapshot without a ``schema`` key is refused, not guessed at.
        from repro.obs import CoverageSchemaError

        legacy = {k: v for k, v in self.snap().items() if k != "schema"}
        legacy.update(tester="GRev", seed=7)
        for read in (lambda: merge_coverage_snapshots([legacy]),
                     lambda: coverage_curve(legacy)):
            with pytest.raises(CoverageSchemaError) as exc_info:
                read()
            assert exc_info.value.cell == "GRev/falkordb/7"
            assert exc_info.value.found is None
            assert "GRev/falkordb/7" in str(exc_info.value)

    def test_merge_rejects_mismatched_version_naming_the_cell(self):
        from repro.obs import CoverageSchemaError

        good, bad = self.snap(), self.snap()
        bad.update(schema=99, tester="GRev", seed=7)
        with pytest.raises(CoverageSchemaError) as exc_info:
            merge_coverage_snapshots([good, bad])
        error = exc_info.value
        assert error.cell == "GRev/falkordb/7"
        assert error.found == 99 and error.expected == 1
        assert "GRev/falkordb/7" in str(error)
        assert isinstance(error, ValueError)  # pre-existing handlers still catch

    def test_curve_rejects_mismatched_version(self):
        from repro.obs import CoverageSchemaError

        bad = dict(self.snap(), schema="2.0")
        with pytest.raises(CoverageSchemaError, match="falkordb"):
            coverage_curve(bad)


class TestRngInvariance:
    def test_results_byte_identical_with_tier_on(self, tmp_path):
        plain = run_tool_campaign("GQS", "falkordb", seed=0, **SMOKE)
        instrumented = run_tool_campaign(
            "GQS", "falkordb", seed=0, record_coverage=True,
            record_triage=True, bundle_dir=tmp_path / "bundles", **SMOKE,
        )
        assert (json.dumps(campaign_to_dict(plain), sort_keys=True)
                == json.dumps(campaign_to_dict(instrumented), sort_keys=True))


class TestGridDeterminism:
    def run_grid(self, tmp_path, jobs):
        path = tmp_path / f"jobs{jobs}.jsonl"
        bundles = tmp_path / f"bundles{jobs}"
        results = run_campaign_grid(
            ("GQS", "GRev"), ("falkordb",), seeds=(0, 1), derive_seeds=True,
            jobs=jobs, events_path=path, record_coverage=True,
            record_triage=True, bundle_dir=bundles, **SMOKE,
        )
        view = RunView.of(load_event_stream(path))
        grid = {"coverage": view.coverage, "triage": view.triage}
        assert None not in grid.values()
        return results, grid, sorted(p.name for p in bundles.glob("*.json"))

    def test_jobs_1_and_2_merge_identically(self, tmp_path):
        results1, grid1, bundles1 = self.run_grid(tmp_path, 1)
        results2, grid2, bundles2 = self.run_grid(tmp_path, 2)
        fp = lambda rs: {k: campaign_to_dict(v) for k, v in rs.items()}
        assert fp(results1) == fp(results2)
        assert grid1 == grid2
        assert bundles1 == bundles2 and bundles1


class TestFlightRecorder:
    @pytest.fixture(scope="class")
    def smoke_grid(self, tmp_path_factory):
        """Fault-enabled 6-tester × 2-engine grid with the recorder on."""
        root = tmp_path_factory.mktemp("recorder")
        bundles = root / "bundles"
        run_campaign_grid(
            TESTER_NAMES, ("neo4j", "falkordb"), seeds=(0,), jobs=2,
            events_path=root / "events.jsonl", record_coverage=True,
            record_triage=True, bundle_dir=bundles, **SMOKE,
        )
        return root, sorted(bundles.glob("*.json"))

    def test_every_bundle_replays_exactly(self, smoke_grid):
        _root, bundles = smoke_grid
        assert bundles, "smoke grid found no bugs to record"
        for path in bundles:
            outcome = replay_bundle(path)
            assert outcome.reproduced, f"{path.name}: {outcome.describe()}"

    def test_bundles_are_self_contained(self, smoke_grid):
        _root, bundles = smoke_grid
        bundle = load_bundle(bundles[0])
        for field in ("format", "signature", "tester", "engine", "cell_seed",
                      "engine_spec", "schema", "graph", "query", "expected",
                      "actual"):
            assert field in bundle
        assert bundle["format"] == "gqs-bundle/1"

    def test_replay_cli_reports_success(self, smoke_grid, capsys):
        _root, bundles = smoke_grid
        assert main(["replay", str(bundles[0])]) == 0
        out = capsys.readouterr().out
        assert "matches recording" in out

    def test_coverage_and_bugs_cli_render(self, smoke_grid, capsys):
        root, _bundles = smoke_grid
        assert main(["coverage", str(root / "events.jsonl")]) == 0
        out = capsys.readouterr().out
        for tester in TESTER_NAMES:
            assert f"== {tester}: feature coverage" in out
        assert "coverage over time" in out

        assert main(["bugs", str(root / "events.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "distinct bug(s)" in out
        assert "repro bundle(s):" in out

    def test_distinct_bug_summary_dedupes_reports(self, smoke_grid):
        root, _bundles = smoke_grid
        results = run_campaign_grid(
            TESTER_NAMES, ("neo4j", "falkordb"), seeds=(0,), jobs=1,
            resume_path=root / "events.jsonl", **SMOKE,
        )
        summary = distinct_bug_summary(results)
        for tester, entry in summary.items():
            assert entry["distinct"] <= entry["reports"]
            assert entry["distinct"] == len(entry["signatures"])
        assert summary["GQS"]["distinct"] > 0


class TestMixedEventResume:
    def full_log(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        first = run_campaign_grid(
            ("GQS",), ("falkordb",), seeds=(0, 1), derive_seeds=True,
            jobs=1, events_path=path, record_metrics=True,
            record_coverage=True, record_triage=True,
            bundle_dir=tmp_path / "bundles", **SMOKE,
        )
        kinds = {e["event"] for e in load_event_stream(path)}
        # One JSONL holding every observability kind at once.
        assert {"span", "metrics", "coverage", "triage",
                "bundle", "cell_complete"} <= kinds
        return path, first

    def test_resume_tolerates_all_event_kinds(self, tmp_path):
        path, first = self.full_log(tmp_path)
        out = tmp_path / "resumed.jsonl"
        resumed = run_campaign_grid(
            ("GQS",), ("falkordb",), seeds=(0, 1), derive_seeds=True,
            jobs=1, events_path=out, resume_path=path, **SMOKE,
        )
        fp = lambda rs: {k: campaign_to_dict(v) for k, v in rs.items()}
        assert fp(resumed) == fp(first)
        events = load_event_stream(out)
        # Nothing re-ran, and a log holds only what ran in it.
        assert not [e for e in events if e["event"] == "campaign_start"]
        view = RunView.of(events)
        assert view.coverage is None and view.triage is None

    def test_resume_tolerates_truncated_last_line(self, tmp_path):
        path, first = self.full_log(tmp_path)
        raw = path.read_text(encoding="utf-8")
        # Tear the final line mid-JSON, as a kill -9 would.
        path.write_text(raw[: len(raw) - 25], encoding="utf-8")
        resumed = run_campaign_grid(
            ("GQS",), ("falkordb",), seeds=(0, 1), derive_seeds=True,
            jobs=1, resume_path=path, **SMOKE,
        )
        fp = lambda rs: {k: campaign_to_dict(v) for k, v in rs.items()}
        assert fp(resumed) == fp(first)


class TestNoDataMessages:
    def test_trace_names_the_record_spans_switch(self, tmp_path, capsys):
        path = tmp_path / "plain.jsonl"
        path.write_text(json.dumps({"event": "cell_complete"}) + "\n")
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no span events" in out
        assert "EventLog(record_spans=True)" in out

    def test_stats_names_the_metrics_switch(self, tmp_path, capsys):
        path = tmp_path / "plain.jsonl"
        path.write_text(json.dumps({"event": "cell_complete"}) + "\n")
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "no metrics events" in out and "--metrics" in out

    def test_coverage_and_bugs_without_events_say_so(self, tmp_path, capsys):
        path = tmp_path / "plain.jsonl"
        path.write_text(json.dumps({"event": "cell_complete"}) + "\n")
        assert main(["coverage", str(path)]) == 0
        assert "--coverage" in capsys.readouterr().out
        assert main(["bugs", str(path)]) == 0
        assert "--triage" in capsys.readouterr().out
