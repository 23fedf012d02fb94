"""Screen the base seeds the campaign workloads draw their cells from.

Usage, from the root of a checkout::

    python3 perfbench/screen.py --workload stateful-service --candidates 160

A campaign judgement whose synthesized query needs more evaluation steps
than ``workloads.STEP_BUDGET`` is cut by the program's step budget and
recorded as a ``harness_error``: a failed operation.  The benchmark's
workloads must not fail, so each draws its base seeds from a pool kept in
``pool.json``.  This script runs every candidate base seed's cells, at the
workload's full query cap, gate scale and step budget, and keeps the
seeds whose cells judge every query within the budget; the others are
listed in the pool as excluded, with their harness-error counts.
Candidates are drawn from a fixed generator, so a screen repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


class _NoProbe:
    """Stands in for the probe: screening patches nothing."""

    def patch(self, *args) -> None:
        pass


def screen(name: str, candidates: int) -> dict:
    from workloads import STEP_BUDGET, WORKLOADS

    from repro.experiments.campaign import run_campaign_grid

    workload = WORKLOADS[name](0, "full", Path("src"), _NoProbe())
    cap = workload.params["queries"]
    rng = random.Random(f"pool/{name}")
    kept, excluded = [], []
    for number in range(candidates):
        seed = rng.randrange(2**31)
        start = time.perf_counter()
        results = run_campaign_grid(**workload.cells((seed,)),
                                    step_budget=STEP_BUDGET)
        short = [key for key, result in results.items()
                 if result.queries_run != cap]
        if short:
            raise SystemExit(f"seed {seed}: cells below the {cap}-query "
                             f"cap: {short[:3]}")
        errors = sum(result.harness_errors for result in results.values())
        (excluded if errors else kept).append(
            [seed, errors] if errors else seed)
        print(f"{number + 1:4d}/{candidates} seed {seed:>10d} "
              f"harness errors {errors}  {time.perf_counter() - start:6.2f} s",
              flush=True)
    return {"queries": cap, "candidates": candidates, "seeds": kept,
            "excluded": excluded}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("gqs-compiled", "baselines-grid",
                                 "stateful-service"))
    parser.add_argument("--candidates", type=int, default=160)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import GATE_SCALE, POOL_PATH, STEP_BUDGET

    entry = screen(args.workload, args.candidates)
    pool = (json.loads(POOL_PATH.read_text()) if POOL_PATH.is_file()
            else {})
    if (pool.get("step_budget"), pool.get("gate_scale")) != \
            (STEP_BUDGET, GATE_SCALE):
        pool = {"step_budget": STEP_BUDGET, "gate_scale": GATE_SCALE,
                "workloads": {}}
    pool["workloads"][args.workload] = entry
    POOL_PATH.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload}: kept {len(entry['seeds'])} of "
          f"{args.candidates} base seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
