"""Campaign outcome types shared by every tester.

They live in the runtime layer so that it does not depend on the
GQS-specific synthesis code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["BugReport", "CampaignResult"]


@dataclass
class BugReport:
    """One reported discrepancy (or crash/hang/exception)."""

    tester: str
    engine: str
    kind: str                  # "logic" | "error"
    detail: str
    query_text: str
    fault_id: Optional[str]    # white-box accounting; None => false positive
    sim_time: float
    n_steps: int = 0

    @property
    def is_false_positive(self) -> bool:
        return self.fault_id is None


@dataclass
class CampaignResult:
    """Aggregated outcome of one testing campaign."""

    tester: str
    engine: str
    queries_run: int = 0
    sim_seconds: float = 0.0
    reports: List[BugReport] = field(default_factory=list)
    timeline: List[Tuple[float, str]] = field(default_factory=list)
    # Per bug-triggering query metadata, for the §5.3 analyses.
    trigger_records: List[Dict[str, Any]] = field(default_factory=list)
    # Judgements aborted by the evaluation resource envelope (blown step
    # budget / recursion limit) — harness conditions, never bugs.
    harness_errors: int = 0

    @property
    def detected_faults(self) -> List[str]:
        seen: List[str] = []
        for report in self.reports:
            if report.fault_id and report.fault_id not in seen:
                seen.append(report.fault_id)
        return seen

    @property
    def false_positive_count(self) -> int:
        return sum(1 for report in self.reports if report.is_false_positive)

    def merge(self, other: "CampaignResult") -> "CampaignResult":
        merged = CampaignResult(self.tester, f"{self.engine}+{other.engine}")
        merged.queries_run = self.queries_run + other.queries_run
        merged.sim_seconds = max(self.sim_seconds, other.sim_seconds)
        merged.reports = self.reports + other.reports
        merged.timeline = sorted(self.timeline + other.timeline)
        merged.trigger_records = self.trigger_records + other.trigger_records
        merged.harness_errors = self.harness_errors + other.harness_errors
        return merged
