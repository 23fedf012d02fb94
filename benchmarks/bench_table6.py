"""Table 6: bugs detected over a 24-hour(-equivalent) campaign per tool.

The 18-cell (tester × engine) grid runs through
``repro.runtime.ParallelCampaignRunner`` on the campaign scheduler (set
``REPRO_BENCH_JOBS`` to run that many lease workers; results are identical
for any jobs value).

Shape targets (paper): GQS finds the most bugs overall and per engine;
GDsmith is the strongest baseline; GDBMeter and Gamera find only the
long-session FalkorDB crashes; three tools cannot test Memgraph at all.
"""

from conftest import run_once

from repro.experiments import render_table
from repro.experiments.campaign import split_fault_counts


def test_table6(benchmark, day_campaigns):
    rows, campaigns = run_once(benchmark, lambda: day_campaigns)
    print()
    print(render_table(rows, "Table 6: Bugs detected over a 24-hour-equivalent run"))

    def totals(tool):
        count = logic = 0
        for (name, _engine), result in campaigns.items():
            if name != tool:
                continue
            l, o = split_fault_counts(result.detected_faults)
            count += l + o
            logic += l
        return count, logic

    gqs_total, gqs_logic = totals("GQS")
    # GQS finds the most bugs, mostly logic bugs.
    for tool in ("GDsmith", "GDBMeter", "Gamera", "GQT", "GRev"):
        other_total, _ = totals(tool)
        assert gqs_total > other_total, tool
    assert gqs_logic >= gqs_total - 4

    # The unsupported-engine dashes of the paper.
    by_tester = {row["Tester"]: row for row in rows}
    for tool in ("GDBMeter", "Gamera", "GQT"):
        assert by_tester[tool]["memgraph"] == "-"

    # GQS never raises a false alarm; GDsmith does, in volume (§5.4.3).
    gqs_fps = sum(
        result.false_positive_count
        for (tool, _), result in campaigns.items()
        if tool == "GQS"
    )
    gdsmith_fps = sum(
        result.false_positive_count
        for (tool, _), result in campaigns.items()
        if tool == "GDsmith"
    )
    assert gqs_fps == 0
    assert gdsmith_fps > 50
