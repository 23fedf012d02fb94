"""The unified campaign runtime.

One pluggable kernel (:class:`CampaignKernel`) runs every tester —
GQS and all five baselines — through a single loop, parameterized by the
:class:`TesterProtocol` they implement; :class:`ParallelCampaignRunner`
fans (tester × engine × seed) grids out over a process pool with an
event-stream checkpoint so interrupted grids resume from the last
completed cell.  :class:`CellSupervisor` sandboxes every cell — worker
exceptions, hangs, and crashes become structured failure events,
deterministic retries, and explicit quarantine holes instead of grid
aborts (:mod:`repro.runtime.supervisor`).
"""

from repro.runtime.adapt import (
    ADAPTIVE_STRATEGIES,
    AdaptivePolicy,
    AdaptiveSchedule,
    FeatureArm,
    WeightProfile,
    attach_adaptive_policy,
    default_arms,
    merge_adaptation_snapshots,
)
from repro.runtime.events import EventLog
from repro.runtime.kernel import CampaignKernel
from repro.runtime.parallel import (
    CampaignCell,
    CellConfig,
    CellKey,
    ParallelCampaignRunner,
    derive_cell_seed,
)
from repro.runtime.protocol import Judgement, SessionPolicy, TesterProtocol
from repro.runtime.results import BugReport, CampaignResult
from repro.runtime.supervisor import (
    CellFailedError,
    CellFailure,
    CellOutcome,
    CellSupervisor,
    ChaosConfig,
    mp_context,
)

__all__ = [
    "ADAPTIVE_STRATEGIES",
    "AdaptivePolicy",
    "AdaptiveSchedule",
    "BugReport",
    "CampaignResult",
    "CampaignKernel",
    "CampaignCell",
    "CellConfig",
    "FeatureArm",
    "WeightProfile",
    "attach_adaptive_policy",
    "default_arms",
    "merge_adaptation_snapshots",
    "CellFailedError",
    "CellFailure",
    "CellKey",
    "CellOutcome",
    "CellSupervisor",
    "ChaosConfig",
    "EventLog",
    "Judgement",
    "ParallelCampaignRunner",
    "SessionPolicy",
    "TesterProtocol",
    "derive_cell_seed",
    "mp_context",
]
