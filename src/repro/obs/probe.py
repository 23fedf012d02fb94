"""The process-wide observability switch.

Hot paths (the reference executor's clause loops, the matcher, the engine's
``execute``) cannot afford per-call indirection when observability is off,
and must not need plumbing changes every time an instrumentation point is
added.  They therefore share one module-level :class:`Probe` — a stable
holder object whose *fields* are swapped when observability is enabled:

    from repro.obs import PROBE

    if PROBE.on:
        PROBE.metrics.counter("matcher.calls").inc()

``PROBE`` itself is never rebound, so ``from ... import PROBE`` bindings
taken at import time stay valid.  The disabled path is one attribute load
plus a branch; nothing is allocated.

Enabling is scoped (:func:`observed` is a context manager) and per-process:
each campaign cell enables its own registry and writes its snapshot to
the event log, and the log's views merge them (see
:class:`repro.obs.view.RunView`).

Instrumentation MUST NOT perturb the campaign RNG streams: nothing in this
package draws randomness, and probes only ever read campaign state.
Results are byte-identical with observability on or off.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

__all__ = ["Probe", "PROBE", "enable", "disable", "observed"]


class Probe:
    """Holder for the active metrics registry and tracer."""

    __slots__ = ("metrics", "tracer", "on")

    def __init__(self) -> None:
        self.metrics: MetricsRegistry = NULL_REGISTRY
        self.tracer: Tracer = NULL_TRACER
        self.on: bool = False


PROBE = Probe()


def enable(
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[MetricsRegistry, Tracer]:
    """Switch observability on; returns the active (registry, tracer).

    A fresh registry is created when none is given; a fresh tracer feeding
    that registry's timing histograms is created when none is given.
    """
    registry = metrics if metrics is not None else MetricsRegistry()
    active_tracer = tracer if tracer is not None else Tracer(registry)
    PROBE.metrics = registry
    PROBE.tracer = active_tracer
    PROBE.on = not isinstance(active_tracer, NullTracer) or registry is not NULL_REGISTRY
    return registry, active_tracer


def disable() -> None:
    """Switch observability off (back to the shared no-op instruments)."""
    PROBE.metrics = NULL_REGISTRY
    PROBE.tracer = NULL_TRACER
    PROBE.on = False


@contextmanager
def observed(
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> Iterator[Tuple[MetricsRegistry, Tracer]]:
    """Enable observability for a ``with`` block, restoring the prior state.

    Nesting restores whatever was active before, so a scoped enable inside
    an already-observed region hands control back correctly.
    """
    previous = (PROBE.metrics, PROBE.tracer, PROBE.on)
    try:
        yield enable(metrics, tracer)
    finally:
        PROBE.metrics, PROBE.tracer, PROBE.on = previous
