"""The flight recorder: self-contained repro bundles for found bugs.

The paper's unit of communication with GDB developers is a reproducible bug
report — the query, the graph it ran on, and the expected vs. actual
results (§5, Figures 1/7/8).  The flight recorder produces exactly that
artifact mechanically: the first time a campaign cell sees a *new* bug
signature (:mod:`repro.obs.triage`), it writes a JSON **bundle** holding
everything needed to replay the discrepancy from a cold start:

* the engine spec (name, fault switch, gate scale — the picklable recipe
  the parallel runner already uses),
* the schema and the full serialized property graph,
* the query text and the session-query counter at fault-fire time (session
  accumulation bugs need it, §5.4.4),
* the **expected** rows (same engine, faults disabled) and the **actual**
  rows (faults as configured), both computed by the deterministic replay
  procedure itself at record time — so ``repro replay BUNDLE`` re-executing
  the same procedure must reproduce them byte-for-byte,
* the per-cell SHA-256-derived seed and the campaign report metadata.

Bundles are per-cell (the filename embeds tester/engine/seed plus a digest
of the signature), so parallel workers never contend for a file and the
bundle set is identical for any worker count.

Recording draws no randomness — replica engines execute the recorded query
deterministically — so campaign results stay byte-identical with the
recorder on or off.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.runtime.results import BugReport

__all__ = [
    "FlightRecorder",
    "ReplayOutcome",
    "load_bundle",
    "replay_bundle",
    "BUNDLE_FORMAT",
    "BUNDLE_FORMAT_V2",
]

BUNDLE_FORMAT = "gqs-bundle/1"

#: Sequence bundles (stateful sessions, :mod:`repro.synth.state`): the
#: graph is the round's *initial* state and ``statements`` holds the full
#: executed sequence, the last statement being the discrepant one.  v1
#: single-query bundles keep loading and replaying unchanged.
BUNDLE_FORMAT_V2 = "gqs-bundle/2"

_KNOWN_FORMATS = (BUNDLE_FORMAT, BUNDLE_FORMAT_V2)


def _execute_side(
    bundle: Dict[str, Any], *, faults_enabled: bool
) -> Dict[str, Any]:
    """Run the bundle's query on a fresh replica engine; JSON-ready outcome.

    The *expected* side disables faults (reference semantics on the same
    dialect); the *actual* side replays the recorded fault configuration and
    session state.  Both are pure functions of the bundle contents.
    """
    with _parked_probe():
        return _execute_side_unprobed(
            bundle, faults_enabled=faults_enabled, queries=_parse_queries(bundle)
        )


def _execute_both_sides(bundle: Dict[str, Any]) -> Tuple[Dict, Dict]:
    """The (expected, actual) outcomes, both run on one parse of the text."""
    with _parked_probe():
        queries = _parse_queries(bundle)
        return (
            _execute_side_unprobed(bundle, faults_enabled=False, queries=queries),
            _execute_side_unprobed(bundle, faults_enabled=True, queries=queries),
        )


@contextmanager
def _parked_probe() -> Iterator[None]:
    """Park the probe: replica work must not leak into the campaign's own
    metrics stream."""
    from repro.obs.metrics import NULL_REGISTRY
    from repro.obs.probe import PROBE
    from repro.obs.trace import NULL_TRACER

    previous = (PROBE.metrics, PROBE.tracer, PROBE.on)
    PROBE.metrics, PROBE.tracer, PROBE.on = NULL_REGISTRY, NULL_TRACER, False
    try:
        yield
    finally:
        PROBE.metrics, PROBE.tracer, PROBE.on = previous


def _parse_queries(bundle: Dict[str, Any]) -> List[Any]:
    """The bundle's statements (or its one query), each parsed once.

    A text that does not parse stays text: the replica engine then raises
    exactly what it raises for that text, at the statement that holds it.
    """
    from repro.cypher.parser import parse_query
    from repro.engine.errors import CypherError

    queries: List[Any] = []
    for text in bundle.get("statements") or [bundle["query"]]:
        try:
            queries.append(parse_query(text))
        except (CypherError, RecursionError):
            queries.append(text)
    return queries


def _execute_side_unprobed(
    bundle: Dict[str, Any], *, faults_enabled: bool, queries: List[Any]
) -> Dict[str, Any]:
    from repro.engine.errors import CypherError, DatabaseCrash, ResourceExhausted
    from repro.gdb.engines import EngineOptions, create_engine
    from repro.graph.model import PropertyGraph
    from repro.graph.schema import GraphSchema

    spec = bundle["engine_spec"]
    engine = create_engine(spec["name"], EngineOptions(
        faults_enabled=faults_enabled and spec.get("faults_enabled", True),
        gate_scale=spec.get("gate_scale", 1.0),
        execution_mode=spec.get("execution_mode", "interpreted"),
    ))
    graph = PropertyGraph.from_dict(bundle["graph"])
    schema = (
        GraphSchema.from_dict(bundle["schema"])
        if bundle.get("schema") is not None
        else None
    )
    engine.load_graph(graph, schema, restart=True)

    statements = bundle.get("statements")
    if statements:
        # v2 sequence replay: the round restarted the engine, so session
        # counters re-accumulate naturally as the sequence re-executes —
        # no counter restore is needed (or correct).
        from repro.synth.state.oracle import state_summary

        last_result = None
        for index, statement in enumerate(queries):
            try:
                last_result = engine.execute(statement)
            except (DatabaseCrash, ResourceExhausted, CypherError) as exc:
                return {
                    "error": f"{type(exc).__name__}: {exc}",
                    "fault_id": (
                        engine.last_fired_fault.fault_id
                        if engine.last_fired_fault
                        else None
                    ),
                    "statement_index": index,
                    "state": state_summary(engine.graph),
                }
        return {
            "columns": list(last_result.columns),
            "rows": last_result.to_table(engine.dialect),
            "fault_id": (
                engine.last_fired_fault.fault_id
                if engine.last_fired_fault
                else None
            ),
            "statement_index": len(statements) - 1,
            "state": state_summary(engine.graph),
        }

    if faults_enabled and bundle.get("session_queries"):
        # Restore the session-accumulation counter to just before the
        # recorded query, so session-gated faults (§5.4.4) refire.
        engine.queries_since_restart = int(bundle["session_queries"]) - 1
    try:
        result = engine.execute(queries[0])
    except (DatabaseCrash, ResourceExhausted, CypherError) as exc:
        return {
            "error": f"{type(exc).__name__}: {exc}",
            "fault_id": (
                engine.last_fired_fault.fault_id
                if engine.last_fired_fault
                else None
            ),
        }
    return {
        "columns": list(result.columns),
        "rows": result.to_table(engine.dialect),
        "fault_id": (
            engine.last_fired_fault.fault_id
            if engine.last_fired_fault
            else None
        ),
    }


class FlightRecorder:
    """Writes one repro bundle per new bug signature into a directory.

    With ``auto_reduce=True`` every bundle is additionally minimized in
    place (``<bundle>.min.json`` sibling) through the delta-debugging
    subsystem (:mod:`repro.reduce`), with the shrink stats collected in
    :attr:`reductions`.  ``reduce_replay_budget`` caps the replica
    executions each minimization may spend; ``None`` means reduce to the
    true fixpoint.
    """

    #: Default per-bundle replay cap for campaign-inline reduction: enough
    #: to finish the graph passes and make a solid dent in the query, while
    #: bounding the inline cost to a few seconds per bundle.
    DEFAULT_REDUCE_BUDGET = 400

    #: Sentinel distinguishing "use the class default" from an explicit
    #: ``None`` (= reduce to the unbudgeted fixpoint).
    _USE_DEFAULT_BUDGET = object()

    def __init__(
        self,
        directory: Union[str, Path],
        auto_reduce: bool = False,
        reduce_replay_budget: Any = _USE_DEFAULT_BUDGET,
    ):
        self.directory = Path(directory)
        self.bundles_written: List[Path] = []
        self.auto_reduce = auto_reduce
        if reduce_replay_budget is self._USE_DEFAULT_BUDGET:
            # Resolved at call time so the class attribute stays the single
            # tunable knob (tests dial it down for speed).
            reduce_replay_budget = type(self).DEFAULT_REDUCE_BUDGET
        self.reduce_replay_budget: Optional[int] = reduce_replay_budget
        #: Shrink-stat dicts (one per auto-reduced bundle, in record order).
        self.reductions: List[Dict[str, Any]] = []

    def bundle_path(
        self, tester: str, engine: str, seed: int, signature: str
    ) -> Path:
        digest = hashlib.sha256(signature.encode("utf-8")).hexdigest()[:12]
        return self.directory / f"{tester}-{engine}-{seed}-{digest}.json"

    def record(
        self,
        *,
        signature: str,
        tester: str,
        seed: int,
        report: BugReport,
        graph,
        schema,
        engine_spec: Dict[str, Any],
        session_queries: Optional[int],
        query_index: int,
        statements: Optional[List[str]] = None,
    ) -> Path:
        """Write the repro bundle for one newly-seen signature.

        ``engine_spec`` describes the engine the report is attributed to;
        ``session_queries`` is its query counter at fault-fire time (None
        when no fault fired or the counter was not observed).  When
        ``statements`` is given the bundle is a v2 *sequence* bundle:
        ``graph`` must then be the round's pristine initial graph and the
        last statement is the discrepant one (``query`` mirrors it for
        uniform display).
        """
        bundle: Dict[str, Any] = {
            "format": BUNDLE_FORMAT_V2 if statements else BUNDLE_FORMAT,
            "signature": signature,
            "tester": tester,
            "engine": report.engine,
            "cell_seed": seed,
            "engine_spec": dict(engine_spec),
            "schema": schema.describe() if schema is not None else None,
            "graph": graph.to_dict(),
            "query": report.query_text,
            "kind": report.kind,
            "detail": report.detail,
            "fault_id": report.fault_id,
            "session_queries": session_queries,
            "sim_time": report.sim_time,
            "query_index": query_index,
        }
        if statements:
            bundle["statements"] = list(statements)
        # Record-time self-replay: the stored expected/actual are produced
        # by the exact procedure `repro replay` re-runs, so a bundle is
        # reproducible by construction.
        bundle["expected"], bundle["actual"] = _execute_both_sides(bundle)
        bundle["discrepant"] = bundle["expected"] != bundle["actual"]

        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.bundle_path(tester, report.engine, seed, signature)
        path.write_text(
            json.dumps(bundle, indent=2, sort_keys=True), encoding="utf-8"
        )
        self.bundles_written.append(path)
        if self.auto_reduce:
            # Imported lazily: repro.reduce replays through this module, so
            # a top-level import would be circular.
            from repro.reduce.runner import reduce_bundle

            outcome = reduce_bundle(
                path, replay_budget=self.reduce_replay_budget
            )
            self.reductions.append(outcome.to_dict())
        return path


def load_bundle(path: Union[str, Path]) -> Dict[str, Any]:
    """Read one flight-recorder bundle, validating the format marker.

    A malformed or truncated file raises :class:`ValueError` with a
    one-line diagnostic naming the file and the parse position, so CLI
    callers can report it and exit instead of dumping a traceback.
    """
    try:
        bundle = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: malformed bundle JSON: {exc.msg} at "
            f"line {exc.lineno} column {exc.colno} (char {exc.pos})"
        ) from None
    if not isinstance(bundle, dict) or bundle.get("format") not in _KNOWN_FORMATS:
        kind = (bundle.get("format") if isinstance(bundle, dict)
                else type(bundle).__name__)
        raise ValueError(
            f"{path}: not a flight-recorder bundle (format={kind!r})"
        )
    return bundle


class ReplayOutcome:
    """Result of replaying a bundle against the recorded outcomes."""

    def __init__(
        self,
        bundle: Dict[str, Any],
        expected: Dict[str, Any],
        actual: Dict[str, Any],
    ):
        self.bundle = bundle
        self.expected = expected
        self.actual = actual

    @property
    def expected_matches(self) -> bool:
        return self.expected == self.bundle.get("expected")

    @property
    def actual_matches(self) -> bool:
        return self.actual == self.bundle.get("actual")

    @property
    def reproduced(self) -> bool:
        """Whether the replay reproduced the recorded discrepancy exactly."""
        return self.expected_matches and self.actual_matches

    @property
    def discrepant(self) -> bool:
        return self.expected != self.actual

    def describe(self) -> str:
        bundle = self.bundle
        lines = [
            f"bundle    {bundle.get('signature')}",
            f"tester    {bundle.get('tester')}  engine {bundle.get('engine')}"
            f"  cell-seed {bundle.get('cell_seed')}",
            f"kind      {bundle.get('kind')}  fault {bundle.get('fault_id')}",
            f"query     {bundle.get('query')}",
        ]
        if bundle.get("statements"):
            lines.insert(
                4,
                f"sequence  {len(bundle['statements'])} statement(s) "
                f"(v2 sequence bundle; query above is the last)",
            )
        for side, payload, match in (
            ("expected", self.expected, self.expected_matches),
            ("actual", self.actual, self.actual_matches),
        ):
            if "error" in payload:
                shown = payload["error"]
            else:
                rows = payload.get("rows", [])
                shown = f"{len(rows)} row(s)"
            if "state" in payload:
                shown += f"  state {payload['state'].get('digest')}"
            verdict = "matches recording" if match else "DIVERGED from recording"
            lines.append(f"{side:<9s} {shown}  [{verdict}]")
        lines.append(
            "discrepancy "
            + ("reproduced" if self.discrepant else "not present on replay")
        )
        return "\n".join(lines)


def replay_bundle(source: Union[str, Path, Dict[str, Any]]) -> ReplayOutcome:
    """Re-execute a bundle's query on replica engines and compare.

    Returns a :class:`ReplayOutcome`; ``outcome.reproduced`` asserts that
    both the expected and the actual side came out byte-identical to what
    the recorder stored — the flight recorder's determinism contract.
    """
    bundle = (
        source if isinstance(source, dict) else load_bundle(source)
    )
    return ReplayOutcome(bundle, *_execute_both_sides(bundle))
