"""Persisting and re-analyzing a campaign (offline bug triage).

Runs a short GQS campaign, saves it as JSON (the paper's bug-report
artifact: faulty engine, exact query, expected vs. actual), reloads it, and
re-renders the §5.3-style analyses from the stored records — no re-run
needed.

Run:  python examples/analyze_campaign.py [path]
"""

import sys
import tempfile
from pathlib import Path

from repro.core.reporting import load_campaign, save_campaign
from repro.core.runner import GQSTester
from repro.experiments import figure13, figure14, figure15, render_histogram
from repro.gdb import EngineOptions, create_engine


def main(path: str = "") -> None:
    target = Path(path) if path else Path(tempfile.gettempdir()) / "gqs_campaign.json"

    engine = create_engine("falkordb", options=EngineOptions(gate_scale=0.05))
    tester = GQSTester()
    print("running a short campaign against FalkorDB...")
    result = tester.run(engine, budget_seconds=90.0, seed=2)
    save_campaign(result, target)
    print(
        f"saved {len(result.reports)} reports "
        f"({len(result.detected_faults)} distinct bugs) to {target}"
    )

    # A fresh process would start here: everything below uses only the file.
    loaded = load_campaign(target)
    records = loaded.trigger_records
    print(f"\nreloaded campaign: {loaded.queries_run} queries, "
          f"{len(records)} bug-triggering queries\n")
    if records:
        print(render_histogram(figure13(records),
                               "bugs by #cross-clause dependencies"))
        print()
        print(render_histogram(figure14(records), "bugs by #patterns"))
        print()
        print(render_histogram(figure15(records), "bugs by nesting depth"))
        sizes = [r.get("graph_nodes") for r in records if r.get("graph_nodes")]
        if sizes:
            print(
                f"\nall bugs triggered on graphs with <= {max(sizes)} nodes "
                f"(the paper's §5.1 small-graph observation)"
            )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "")
