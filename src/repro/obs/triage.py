"""Bug triage: deduplicating the discrepancy stream into distinct bugs.

A 10k-query campaign can emit thousands of :class:`~repro.runtime.results.
BugReport` records that all stem from a handful of root causes.  The paper
reports *deduplicated* bug counts (Tables 3–6) after manual root-cause
analysis; this module plays that role mechanically through **bug
signatures**:

* with fault injection on (the usual simulated-engine setup), a signature is
  ``engine:fault_id`` — the white-box ground truth for "same underlying
  bug";
* with faults off (``fault_id is None`` — black-box discrepancies and the
  organic false positives of §5.4.3), the signature is a **failure
  fingerprint**: the engine, the report kind, the *normalized* discrepancy
  shape (digits and quoted values stripped, exception message reduced to
  its type), and a hash of the minimal feature set of the triggering query
  (its clause/function surface).  Queries differing only in literals or row
  counts collapse into one bug; structurally different failures stay apart.

:class:`CellTriage` accumulates signatures per (tester, engine, seed) cell
— occurrence counts plus the first-seen query/seed/sim-time — and
:func:`merge_triage_snapshots` folds cells in sorted order so grid-level
bug tables are identical for any worker count, the same discipline as the
metrics and coverage merges.

Nothing here draws randomness or changes control flow: campaign results are
byte-identical with triage on or off.
"""

from __future__ import annotations

import hashlib
import re
from typing import Any, Dict, Iterable, List, Tuple

from repro.runtime.results import BugReport

__all__ = [
    "signature_for",
    "normalize_detail",
    "CellTriage",
    "merge_triage_snapshots",
    "distinct_signatures",
]

_NUMBER = re.compile(r"\d+(?:\.\d+)?")
_QUOTED = re.compile(r"'[^']*'|\"[^\"]*\"|`[^`]*`")


def normalize_detail(kind: str, detail: str) -> str:
    """The discrepancy *shape*: the report detail with volatile parts removed.

    Error reports reduce to the exception type (the message often embeds
    engine names or values); logic reports keep the oracle's sentence with
    digits and quoted fragments replaced, so "expected 7, got 4" and
    "expected 12, got 9" share one shape.
    """
    if kind == "error" and ":" in detail:
        return detail.split(":", 1)[0]
    shape = _QUOTED.sub("_", detail)
    shape = _NUMBER.sub("N", shape)
    # Column lists render as ['c0', 'c1']; after substitution collapse the
    # leftover brackets/commas noise.
    shape = re.sub(r"\[[^\]]*\]", "[_]", shape)
    return shape.strip()


def _minimal_feature_set(query_text: str) -> Tuple[str, ...]:
    """The clause/function surface of the triggering query, from its text.

    Parsing the (rare) discrepancy queries is cheap and keeps fingerprints
    purely structural — two queries differing only in literals fingerprint
    identically.
    """
    from repro.cypher.analysis import clause_types_in, functions_in
    from repro.cypher.parser import parse_query

    try:
        query = parse_query(query_text)
    except Exception:
        return ()
    return tuple(
        sorted(set(clause_types_in(query)) | set(functions_in(query)))
    )


def signature_for(report: BugReport) -> str:
    """The deduplication signature of one discrepancy report."""
    if report.fault_id:
        return f"{report.engine}:{report.fault_id}"
    shape = normalize_detail(report.kind, report.detail)
    features = _minimal_feature_set(report.query_text)
    # SHA-256, not the per-process-salted hash(): fingerprints must agree
    # across workers for the grid merge (same rule as derive_cell_seed).
    digest = hashlib.sha256(
        f"{shape}#{','.join(features)}".encode("utf-8")
    ).hexdigest()[:8]
    return f"{report.engine}:{report.kind}:{digest}"


class CellTriage:
    """Signature accumulator for one (tester, engine, seed) campaign cell."""

    def __init__(self, tester: str, engine: str, seed: int):
        self.tester = tester
        self.engine = engine
        self.seed = seed
        self._bugs: Dict[str, Dict[str, Any]] = {}

    def add(self, report: BugReport, query_index: int) -> Tuple[str, bool]:
        """Fold one report in; returns ``(signature, is_new_in_this_cell)``."""
        signature = signature_for(report)
        entry = self._bugs.get(signature)
        if entry is None:
            self._bugs[signature] = {
                "count": 1,
                "kind": report.kind,
                "engine": report.engine,
                "fault_id": report.fault_id,
                "detail": normalize_detail(report.kind, report.detail),
                "first_seen": {
                    "seed": self.seed,
                    "query": query_index,
                    "sim_time": report.sim_time,
                    "query_text": report.query_text,
                },
            }
            return signature, True
        entry["count"] += 1
        return signature, False

    @property
    def signatures(self) -> List[str]:
        return sorted(self._bugs)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready per-cell triage snapshot with stable key order."""
        return {
            "tester": self.tester,
            "engine": self.engine,
            "seed": self.seed,
            "bugs": {sig: dict(self._bugs[sig]) for sig in sorted(self._bugs)},
        }


def _cell_key(snapshot: Dict[str, Any]) -> Tuple[str, str, int]:
    return (
        str(snapshot.get("tester", "?")),
        str(snapshot.get("engine", "?")),
        int(snapshot.get("seed", 0)),
    )


def merge_triage_snapshots(
    snapshots: Iterable[Dict[str, Any]],
) -> Dict[str, Any]:
    """Merge per-cell triage snapshots into one distinct-bug table.

    Cells fold in sorted (tester, engine, seed) order: counts sum, the
    first-seen record comes from the first cell (in that order) holding the
    signature, and each signature lists the testers that hit it — all
    independent of worker count and completion order.
    """
    ordered = sorted(snapshots, key=_cell_key)
    bugs: Dict[str, Dict[str, Any]] = {}
    for snap in ordered:
        tester = snap.get("tester", "?")
        for signature, entry in snap.get("bugs", {}).items():
            merged = bugs.get(signature)
            if merged is None:
                merged = bugs[signature] = {
                    "count": 0,
                    "kind": entry.get("kind"),
                    "engine": entry.get("engine"),
                    "fault_id": entry.get("fault_id"),
                    "detail": entry.get("detail"),
                    "first_seen": dict(entry.get("first_seen", {})),
                    "testers": [],
                }
            merged["count"] += entry.get("count", 0)
            if tester not in merged["testers"]:
                merged["testers"].append(tester)
                merged["testers"].sort()
    return {
        "distinct": len(bugs),
        "occurrences": sum(entry["count"] for entry in bugs.values()),
        "bugs": {sig: bugs[sig] for sig in sorted(bugs)},
    }


def distinct_signatures(reports: Iterable[BugReport]) -> Dict[str, int]:
    """Signature → occurrence count over a flat report stream.

    The post-hoc analogue of :class:`CellTriage` for already-collected
    campaign results (e.g. deduplicating ``CampaignResult.reports`` in the
    experiment summaries without re-running anything).
    """
    counts: Dict[str, int] = {}
    for report in reports:
        signature = signature_for(report)
        counts[signature] = counts.get(signature, 0) + 1
    return {sig: counts[sig] for sig in sorted(counts)}
