"""Request timers and layer spans, installed into the program by patching.

The benchmark never edits the program under test.  It measures it by
replacing names the program resolves at call time with thin wrappers:

* **Boundary timers** (always on): one record per *task* — a campaign
  cell (``repro.runtime.parallel._run_cell``) or a bundle reduction
  (``repro.reduce.runner._reduce_path``) — and one per *query*: the gap
  between successive ``query`` events of a campaign (so graph generation,
  synthesis and judging all count), or one oracle replay side during
  reduction.  Each query carries the machine speed the calibration loop
  (:mod:`calibrate`) measured around its task, outside the task's time.
* **Layer spans** (traced runs only, :meth:`Probe.install_layers`): a
  span around each layer entry point in :data:`LAYERS`.  A function is
  patched in *every* loaded module that holds it, so a caller that did
  ``from repro.cypher.parser import parse_query`` resolves the wrapper
  too; a method is patched on its class and on each subclass that
  overrides it.

Each span records its name, start, end, parent span and request id (the
task's cell or bundle).  Records stay in memory and are appended to one
file per process in the run directory when a task ends, so cells run by
pool and lease workers are flushed by the worker that ran them; the
parent flushes when its measured pass ends.  Install wrappers before any
worker is forked: children inherit them, and a fork hook empties the
child's copy of the parent's unflushed records.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from calibrate import sample_ms

__all__ = ["LAYERS", "Probe", "read_records"]

#: Modules whose import must precede patching, so every module that holds
#: a patched function is already in ``sys.modules``.
_PRELOAD = (
    "repro.baselines",
    "repro.core.runner",
    "repro.experiments.campaign",
    "repro.gdb.engines",
    "repro.obs.coverage",
    "repro.obs.recorder",
    "repro.obs.triage",
    "repro.reduce.query",
    "repro.reduce.runner",
    "repro.reduce.sequence",
    "repro.service.scheduler",
    "repro.synth.state",
)

#: (span name, defining module, attribute path) for every layer span.
#: A dotted path names a method; it is patched on the class and on each
#: subclass that overrides it.  Generators (``*proposals``) get one span
#: per item they yield.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("graph.generate", "repro.graph.generator", "GraphGenerator.generate"),
    ("graph.copy", "repro.graph.model", "PropertyGraph.copy"),
    ("graph.property_keys", "repro.graph.model",
     "PropertyGraph.all_property_keys"),
    ("core.synthesize", "repro.core.synthesizer",
     "QuerySynthesizer.synthesize"),
    ("core.ground_truth", "repro.core.ground_truth", "select_ground_truth"),
    ("core.oracle", "repro.core.oracle", "check_result"),
    ("core.judge", "repro.core.runner", "GQSTester.judge"),
    ("cypher.parse", "repro.cypher.parser", "parse_query"),
    ("cypher.tokenize", "repro.cypher.lexer", "tokenize"),
    ("cypher.print", "repro.cypher.printer", "print_query"),
    ("cypher.analyze", "repro.cypher.analysis", "analyze"),
    ("gdb.execute", "repro.gdb.engines", "GraphDatabase.execute"),
    ("gdb.load_graph", "repro.gdb.engines", "GraphDatabase.load_graph"),
    ("gdb.features", "repro.gdb.faults", "extract_features"),
    ("engine.execute", "repro.engine.executor", "Executor.execute"),
    ("plan.build", "repro.engine.plan.planner", "build_plan"),
    ("plan.execute", "repro.engine.plan.planner", "CompiledPlan.execute"),
    ("plan.execute", "repro.engine.plan.planner", "UnionPlan.execute"),
    ("plan.cache_get", "repro.engine.plan.cache", "PlanCache.get"),
    ("baselines.propose", "repro.baselines.common",
     "BaselineTester.proposals"),
    ("baselines.judge", "repro.baselines.common", "BaselineTester.judge"),
    ("state.propose", "repro.synth.state.synthesizer",
     "StatefulSynthesizer.propose"),
    ("state.model_apply", "repro.synth.state.model", "StateModel.apply"),
    ("state.digest", "repro.synth.state.oracle", "state_digest"),
    ("state.digest", "repro.synth.state.oracle", "compare_states"),
    ("obs.coverage", "repro.obs.coverage", "CellCoverage.observe"),
    ("obs.triage", "repro.obs.triage", "CellTriage.add"),
    ("obs.record", "repro.obs.recorder", "FlightRecorder.record"),
    ("obs.events.emit", "repro.runtime.events", "EventLog.emit"),
    ("obs.events.sync", "repro.runtime.events", "EventLog.sync"),
    ("service.tick", "repro.service.scheduler", "CampaignScheduler.tick"),
    ("service.submit", "repro.service.scheduler",
     "CampaignScheduler.submit"),
    ("service.lease", "repro.service.scheduler",
     "CampaignScheduler._lease"),
    ("reduce.replay", "repro.reduce.oracle", "ReductionOracle._side"),
    ("reduce.accepts", "repro.reduce.oracle", "ReductionOracle.accepts"),
    ("reduce.roundtrip", "repro.reduce.query", "roundtrips"),
)


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, original) for a dotted attribute path."""
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _subclasses(cls: type) -> List[type]:
    found, stack = [], [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    return found


class Probe:
    """Per-process record buffer plus the wrappers that fill it.

    One probe is created per benchmark process.  ``out_dir`` receives one
    ``<pid>.jsonl`` file per process that ran work; :func:`read_records`
    folds them.
    """

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._patches: List[Tuple[Any, str, Any]] = []
        self._timer_patches = 0
        self._layers_on = False
        self._forget()
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        """Drop buffered records (a forked child starts empty)."""
        self._stack: List[Tuple[int, str]] = []
        self._seq = 0
        self._req: Any = None
        self._last_query: Optional[float] = None
        self._clear()

    def _clear(self) -> None:
        self._spans: List[Tuple[int, str, float, float, int, Any]] = []
        self._counts: Dict[str, float] = defaultdict(float)
        # [seconds, calibration ms of the task that ran the query]
        self._queries: List[List[Any]] = []
        self._tasks: List[Tuple[str, Any, float, float]] = []

    # -- output -----------------------------------------------------------

    def flush(self) -> None:
        """Append this process's buffered records to its file."""
        if not (self._spans or self._queries or self._tasks
                or self._counts):
            return
        record = {
            "pid": os.getpid(),
            "spans": self._spans,
            "queries": self._queries,
            "tasks": self._tasks,
            "counts": dict(self._counts),
        }
        path = self.out_dir / f"{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._clear()

    def discard(self) -> None:
        """Forget every record written or buffered so far (set-up work)."""
        self._clear()
        for path in self.out_dir.glob("*.jsonl"):
            path.unlink()

    # -- patching ---------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, original: Callable, wrapper: Callable) -> None:
        """Replace *original* in every loaded module that holds it."""
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace or not str(
                    getattr(module, "__name__", "")).startswith("repro"):
                continue
            for name, value in list(namespace.items()):
                if value is original:
                    self._patch(module, name, wrapper)

    def patch(self, module_name: str, path: str,
              make: Callable[[Callable], Callable]) -> None:
        """Wrap a function everywhere it is held, or a method on its class
        and every overriding subclass; *make* builds the wrapper."""
        owner, attr, original = _resolve(module_name, path)
        if isinstance(owner, type):
            for cls in [owner] + _subclasses(owner):
                if attr in cls.__dict__:
                    self._patch(cls, attr, make(cls.__dict__[attr]))
        else:
            self._patch_everywhere(original, make(original))

    def remove_layers(self) -> None:
        """Restore every name :meth:`install_layers` patched."""
        while len(self._patches) > self._timer_patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._layers_on = False

    def install_timers(self) -> None:
        """The boundary timers every run uses (tasks and queries)."""
        for module_name in _PRELOAD:
            importlib.import_module(module_name)
        self.patch("repro.runtime.parallel", "_run_cell",
                   lambda fn: self._task(fn, "runtime.cell", _cell_request))
        self.patch("repro.reduce.runner", "_reduce_path",
                   lambda fn: self._task(fn, "reduce.bundle",
                                         _bundle_request))
        self.patch("repro.runtime.events", "EventLog.emit",
                   self._query_clock)
        self.patch("repro.reduce.oracle", "ReductionOracle._side",
                   self._replay_clock)

    def install_layers(self) -> None:
        """Wrap every layer entry point of :data:`LAYERS` in a span."""
        self._timer_patches = len(self._patches)
        self._layers_on = True
        for name, module_name, path in LAYERS:
            self.patch(module_name, path,
                       lambda fn, name=name: self._wrap(name, fn))

    # -- wrappers ---------------------------------------------------------

    def _enter(self, name: str) -> Tuple[int, int]:
        self._seq += 1
        seq = self._seq
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append((seq, name))
        return seq, parent

    def _exit(self, seq: int, parent: int, start: float) -> None:
        end = perf_counter()
        _, name = self._stack.pop()
        self._spans.append((seq, name, start, end, parent, self._req))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        observe = _OBSERVERS.get(name)
        probe = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            seq, parent = probe._enter(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                probe._exit(seq, parent, start)
            if observe is not None:
                observe(probe, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        """One span per item a generator yields (the work of producing it)."""
        probe = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            items = fn(*args, **kwargs)
            while True:
                seq, parent = probe._enter(name)
                start = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    probe._exit(seq, parent, start)
                yield item

        return wrapper

    def _task(self, fn: Callable, name: str,
              request_of: Callable[[Any], str]) -> Callable:
        """A task boundary: sets the request id, times it, then flushes."""
        probe = self

        @functools.wraps(fn)
        def wrapper(arg: Any) -> Any:
            probe._req = request_of(arg)
            probe._last_query = None
            first_query = len(probe._queries)
            before = sample_ms()
            seq, parent = probe._enter(name)
            start = perf_counter()
            try:
                return fn(arg)
            finally:
                end = perf_counter()
                probe._stack.pop()
                speed = (before + sample_ms()) / 2
                for query in probe._queries[first_query:]:
                    query[1] = speed
                if probe._layers_on:
                    probe._spans.append((seq, name, start, end, parent,
                                         probe._req))
                probe._tasks.append((name, probe._req, start, end))
                probe._req = None
                probe.flush()

        return wrapper

    def _query_clock(self, fn: Callable) -> Callable:
        """Per-query latency from the campaign's own event stream."""
        probe = self

        @functools.wraps(fn)
        def emit(log: Any, kind: str, /, **payload: Any) -> Any:
            if kind == "query":
                now = perf_counter()
                if probe._last_query is not None:
                    probe._queries.append([now - probe._last_query, None])
                probe._last_query = now
            elif kind == "campaign_start":
                probe._last_query = perf_counter()
            return fn(log, kind, **payload)

        return emit

    def _replay_clock(self, fn: Callable) -> Callable:
        """Per-replay latency of the reduction oracle."""
        probe = self

        @functools.wraps(fn)
        def side(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                probe._queries.append([perf_counter() - start, None])

        return side


def _cell_request(spec: Dict[str, Any]) -> str:
    return f"{spec['tester']}/{spec['engine']}/{spec['seed']}"


def _bundle_request(task: Tuple[Any, ...]) -> str:
    return Path(task[0]).name


# -- per-span observers: counts measured where the work happens ----------


def _count_parse(probe: Probe, args: Tuple[Any, ...], result: Any) -> None:
    probe._counts["cypher.parse.bytes"] += len(str(args[0]).encode())


def _count_print(probe: Probe, args: Tuple[Any, ...], result: Any) -> None:
    # Queries printed by a GQS judgement are the synthesized queries.
    if probe._stack and probe._stack[-1][1] == "core.judge":
        probe._counts["core.query_bytes"] += len(result.encode())


def _count_execute(probe: Probe, args: Tuple[Any, ...], result: Any) -> None:
    if getattr(args[0], "last_fired_fault", None) is not None:
        probe._counts["gdb.fault_fired"] += 1


def _count_plan_get(probe: Probe, args: Tuple[Any, ...], result: Any) -> None:
    probe._counts["plan.cache_hits"] += result is not None


def _count_accepts(probe: Probe, args: Tuple[Any, ...], result: Any) -> None:
    probe._counts["reduce.accepted"] += bool(result)


_OBSERVERS: Dict[str, Callable[[Probe, Tuple[Any, ...], Any], None]] = {
    "cypher.parse": _count_parse,
    "cypher.print": _count_print,
    "gdb.execute": _count_execute,
    "plan.cache_get": _count_plan_get,
    "reduce.accepts": _count_accepts,
}


def read_records(out_dir: Path) -> List[Dict[str, Any]]:
    """Load and delete every record file in *out_dir*."""
    records = []
    for path in sorted(Path(out_dir).glob("*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
        path.unlink()
    return records
