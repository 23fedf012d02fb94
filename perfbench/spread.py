"""Run a workload over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload gqs-compiled --seeds 1-10

For every end-to-end metric of ``BENCHMARK.json`` it prints the median of
the per-seed values and their spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, beside the metric's bound.  ``--trace 1`` does the same for the
per-layer metrics, which have no bound.  Per-seed results are appended to
``--out`` as JSON lines when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    config = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    values = {}
    for seed in _seeds(args.seeds):
        started = time.monotonic()
        proc = subprocess.run(
            [*config["command"], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        elapsed = time.monotonic() - started
        if proc.returncode != 0 or not proc.stdout.strip():
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {elapsed:.1f}s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}",
              flush=True)
        if args.out is not None:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": args.workload,
                                         "seed": seed, "elapsed": elapsed,
                                         **result}) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name) if not args.trace else None
        flag = ""
        if bound is not None:
            flag = ("ok" if spread <= bound / 3 else
                    "within bound" if spread <= bound else "OVER BOUND")
        print(f"{name:<32s} median {median:12.6g}  spread {spread:7.3f}"
              + (f"  bound {bound:.2f} {flag}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
