"""Per-engine plan cache keyed by exact query text.

A compiled plan bakes the query's literals into its closures, so only an
identical text can reuse one: replays, differential runs and repeated
benchmark rounds hit, while every freshly synthesized query misses and
compiles once.  (The key once also folded in a sorted feature-tag "shape"
fingerprint on the theory that shapes repeat across literals; since the
text was always part of the key, that walk never produced a hit.)

The cache is deliberately observability-friendly: hit/miss/compile (and
dual-mode divergence) tallies accumulate as plain ints and are drained by
the owning engine into ``repro.obs`` counters once per query, following the
same tally-then-flush pattern the engines use for matcher/evaluator calls.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional

__all__ = ["PlanCache"]


class PlanCache:
    """FIFO-bounded mapping from query texts to compiled plans."""

    def __init__(self, capacity: int = 512):
        self.capacity = capacity
        self._plans: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.compiles = 0
        self.divergences = 0
        # Write statements are deliberately routed to the interpreted
        # executor (planner returns a "write clause" fallback); this tally
        # keeps that fallback visible in `== plans ==`.
        self.write_fallbacks = 0

    def get(self, text: str) -> Optional[Any]:
        plan = self._plans.get(text)
        if plan is None:
            self.misses += 1
        else:
            self.hits += 1
        return plan

    def put(self, text: str, plan: Any) -> None:
        self.compiles += 1
        self._plans[text] = plan
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)

    def __len__(self) -> int:
        return len(self._plans)

    def drain(self) -> Dict[str, int]:
        """Return non-zero counters since the last drain, and reset them."""
        out: Dict[str, int] = {}
        if self.hits:
            out["cache_hits"] = self.hits
        if self.misses:
            out["cache_misses"] = self.misses
        if self.compiles:
            out["compiles"] = self.compiles
        if self.divergences:
            out["divergences"] = self.divergences
        if self.write_fallbacks:
            out["write_fallbacks"] = self.write_fallbacks
        self.hits = self.misses = self.compiles = self.divergences = 0
        self.write_fallbacks = 0
        return out
