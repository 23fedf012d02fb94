"""The unified campaign runtime.

One pluggable kernel (:class:`CampaignKernel`) runs every tester —
GQS and all five baselines — through a single loop, parameterized by the
:class:`TesterProtocol` they implement; :class:`ParallelCampaignRunner`
runs (tester × engine × seed) grids as one job on the campaign scheduler
(:class:`repro.service.scheduler.CampaignScheduler`, in process, no
HTTP), with an event-stream checkpoint so interrupted grids resume from
the last completed cell.  Every cell attempt is sandboxed
(:mod:`repro.runtime.supervisor`): worker exceptions, hangs, and crashes
become structured failure events, deterministic retries, and explicit
quarantine holes instead of grid aborts.
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
from repro.runtime.supervisor import ChaosConfig, mp_context

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
    "CellKey",
    "ChaosConfig",
    "EventLog",
    "Judgement",
    "ParallelCampaignRunner",
    "SessionPolicy",
    "TesterProtocol",
    "derive_cell_seed",
    "mp_context",
]
