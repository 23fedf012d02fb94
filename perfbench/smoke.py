"""Smallest-size run of every workload, checking the output schema.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

Each workload, listed in ``BENCHMARK.json`` or not, runs with ``--size
smoke`` untraced and traced.  The check
fails (exit 1) unless the last output line is a JSON object with exactly
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``, the run is
correct, and the metric names and units are exactly the ``end_to_end``
(untraced) or ``per_layer`` (traced) entries of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import numbers
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def check_result(result, expected_units):
    """Problems with one run's result object (empty when it is right)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    units = {name: metric.get("unit")
             for name, metric in result["metrics"].items()}
    if units != expected_units:
        missing = sorted(set(expected_units) - set(units))
        extra = sorted(set(units) - set(expected_units))
        wrong = sorted(name for name in set(units) & set(expected_units)
                       if units[name] != expected_units[name])
        problems.append(f"metrics missing {missing} extra {extra} "
                        f"wrong units {wrong}")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(
                metric["value"], numbers.Real):
            problems.append(f"metric {name} is not {{value, unit}}")
    return problems


def main() -> int:
    from workloads import WORKLOADS

    config = json.loads(Path("BENCHMARK.json").read_text())
    declared = [workload["name"] for workload in config["workloads"]]
    unknown = sorted(set(declared) - set(WORKLOADS))
    if unknown:
        print(f"BENCHMARK.json names unknown workloads {unknown}")
        return 1
    expected = {
        0: {m["name"]: m["unit"] for m in config["end_to_end"]},
        1: {m["name"]: m["unit"] for m in config["per_layer"]},
    }
    failures = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [*config["command"], "--workload", name, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
                capture_output=True, text=True, timeout=600, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems = [f"exit {proc.returncode}, no JSON result: "
                            f"{proc.stderr.strip()[-300:]}"]
            else:
                problems = check_result(result, expected[trace])
            status = "ok" if not problems else "; ".join(problems)
            print(f"{name:<18s} trace={trace}  {status}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
