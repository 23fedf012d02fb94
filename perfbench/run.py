"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gqs-compiled --seed 1 \\
        --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer ones, from a traced pass of the same
inputs as an untraced pass run just before it.  Lines above it print every
end-to-end figure with its unit, including those not gated.

Passes repeat, each with its own set-up, until ``--seconds`` of measured
time have elapsed; set-up runs at least three times.  Each measured pass
runs in a fresh thread, so the call depth the program starts at is the
same on every pass.  Work files go to ``.perfbench-work/`` in the
checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import sys
import threading
import time
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

MIN_SETUPS = 3

#: A run that has not finished by now is abandoned without a result, so
#: the benchmark always exits within its 180-second limit.  Monitored from
#: a parent process (see :func:`_supervised`).
WATCHDOG_SECONDS = 170.0


def _in_fresh_thread(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run *fn* on a new thread; returns (result, wall seconds)."""
    box: Dict[str, Any] = {}

    def target() -> None:
        start = perf_counter()
        try:
            box["result"] = fn()
        except BaseException as exc:  # re-raised on the caller's thread
            box["error"] = exc
        box["wall"] = perf_counter() - start

    worker = threading.Thread(target=target, name="measure")
    worker.start()
    worker.join()
    if "error" in box:
        raise box["error"]
    return box["result"], box["wall"]


def _supervised(body: Callable[[], int], work: Path) -> int:
    """Run *body* in a forked child that leads its own process group.

    The parent waits at most ``WATCHDOG_SECONDS``; then, or when *body*
    ends, it kills whatever is left in the group (pool and lease workers,
    subprocesses) and waits until the group is gone.  An overrun exits
    with code 3 and prints no result.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        os.setpgrp()
        code = 1
        try:
            code = body()
        except BaseException:  # reported here; the exit code carries it
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)

    def stop_group() -> None:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            try:  # reap the leader, or the group never empties
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
            time.sleep(0.05)

    def on_signal(signum, _frame) -> None:
        stop_group()
        shutil.rmtree(work, ignore_errors=True)
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    deadline = time.monotonic() + WATCHDOG_SECONDS
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            stop_group()
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.1)
    print(f"error: run exceeded {WATCHDOG_SECONDS:.0f}s; abandoned",
          file=sys.stderr, flush=True)
    stop_group()
    os.waitpid(pid, 0)
    shutil.rmtree(work, ignore_errors=True)
    return 3


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _src_lines(src: Path) -> int:
    return sum(len(path.read_bytes().splitlines())
               for path in src.rglob("*.py"))


class Runner:
    """Drives set-up → measure → check passes of one workload."""

    def __init__(self, workload, probe, work: Path):
        self.workload = workload
        self.probe = probe
        self.work = work
        self.setups: List[float] = []

    def _setup(self, index: int) -> Dict[str, Any]:
        from calibrate import NOMINAL_START_S, reference_start_s

        pass_dir = self.work / f"pass-{len(self.setups)}"
        pass_dir.mkdir()
        before = reference_start_s()
        start = perf_counter()
        prepared = self.workload.setup(pass_dir, index)
        seconds = perf_counter() - start
        # Stated at the reference start's nominal speed, as query
        # latencies are at the calibration loop's, so host drift cancels.
        self.setups.append(seconds * NOMINAL_START_S
                           / ((before + reference_start_s()) / 2))
        self.probe.discard()
        return prepared

    def one_pass(self, index: int):
        """Set up, measure and check pass *index*."""
        from probe import read_records
        from report import Pass

        prepared = self._setup(index)
        raw, wall = _in_fresh_thread(
            lambda: self.workload.measure(prepared))
        self.probe.flush()
        records = read_records(self.probe.out_dir)
        outcome = self.workload.check(prepared, raw)
        self.probe.discard()
        shutil.rmtree(prepared["dir"])
        return Pass(wall, outcome, records)

    def extra_setups(self) -> None:
        """Set up unmeasured passes until set-up has run MIN_SETUPS times."""
        while len(self.setups) < MIN_SETUPS:
            prepared = self._setup(len(self.setups))
            self.workload.discard(prepared)
            shutil.rmtree(prepared["dir"])


def run(args, src: Path, work: Path) -> Dict[str, Any]:
    from probe import Probe
    from report import PER_LAYER, end_to_end, informational, layer_metrics
    from workloads import WORKLOADS, Incorrect

    records_dir = work / "records"
    records_dir.mkdir()
    probe = Probe(records_dir)
    probe.install_timers()
    workload = WORKLOADS[args.workload](args.seed, args.size, src, probe)
    runner = Runner(workload, probe, work)

    if args.trace:
        # Untraced and traced passes of the same inputs, alternating, so
        # their difference is the tracing overhead.
        untraced, traced = [], []
        while not traced or sum(p.wall for p in traced) < args.seconds:
            index = len(traced)
            untraced.append(runner.one_pass(index))
            probe.install_layers()
            traced.append(runner.one_pass(index))
            probe.remove_layers()
            if traced[-1].outcome.fingerprint != \
                    untraced[-1].outcome.fingerprint:
                raise Incorrect("tracing changed the program's results")
        passes = untraced + traced
        runner.extra_setups()
        units = dict(PER_LAYER)
        shown = [(name, value, units[name]) for name, value in
                 layer_metrics(traced, untraced, workload.jobs,
                               workload.service,
                               workload.counted_passes).items()]
    else:
        passes = []
        while (len(passes) < workload.counted_passes
               or sum(p.wall for p in passes) < args.seconds):
            passes.append(runner.one_pass(len(passes)))
        runner.extra_setups()
        units = {"setup_s": "s", "query_ms_p50_cal": "ms",
                 "distinct_bugs": "count"}
        shown = [(name, value, units[name]) for name, value in
                 end_to_end(passes, workload.counted_passes,
                            runner.setups).items()]
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit in shown}
    if not args.trace:
        shown += informational(passes, workload.counted_passes)
        shown.append(("peak_rss_mb", _peak_rss_mb(), "MB"))
        shown.append(("src_lines", _src_lines(src), "lines"))
    print(f"workload {workload.name}  seed {args.seed}  "
          f"passes {len(passes)}  setups {len(runner.setups)}")
    for name, value, unit in shown:
        print(f"  {name:<44s} {value:>14.6g} {unit}")
    return {
        "correct": True,
        "attempted": sum(p.outcome.attempted for p in passes),
        "failed": sum(p.outcome.failed for p in passes),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size; 'smoke' is the smallest run")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS, Incorrect

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work = root / ".perfbench-work" / str(os.getpid())

    def body() -> int:
        work.mkdir(parents=True)
        try:
            result = run(args, src, work)
        except Incorrect as exc:
            print(f"incorrect output: {exc}", file=sys.stderr)
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps(result, sort_keys=True))
        return 0

    return _supervised(body, work)


if __name__ == "__main__":
    sys.exit(main())
