"""Campaign metrics: counters, gauges, and fixed-bucket histograms.

The observability layer serves the paper's own evaluation questions —
where does campaign time go (§5.4 fault-detection timelines), how many
queries does each tester push through each engine (Table 6), and which
stage of the pipeline pays for a detected bug.  Three design rules keep it
compatible with the runtime's determinism guarantees:

* **Fixed bucket edges.**  Histograms never rebucket; every worker uses the
  same edges, so merging per-worker snapshots is a plain element-wise sum.
  Bucket counts sum the same in any order; float ``sum`` fields do not, so
  the log views merge cells in sorted cell order, independent of worker
  count and completion order.
* **Deterministic vs. timing sections.**  A snapshot separates values that
  are functions of the (seeded) campaign alone (``counters``, ``gauges``,
  ``histograms``) from wall-clock profiling data (``timings``).  The former
  are byte-identical for ``jobs=1`` and ``jobs=8``; the latter are real
  ``perf_counter`` measurements and are explicitly excluded from the
  determinism contract (:func:`deterministic_view` strips them).
* **Zero cost when off.**  The default registry is :class:`NullRegistry`,
  whose instruments are shared no-op singletons; hot paths additionally
  guard on :data:`repro.obs.PROBE`'s ``on`` flag so the disabled path costs
  one attribute load and a branch.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_TIME_EDGES",
    "DEFAULT_COUNT_EDGES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "metric_key",
    "merge_snapshots",
    "deterministic_view",
]

# Log-spaced seconds buckets: 1µs .. 100s.  Fixed so that per-worker merges
# are deterministic (see module docstring); wide enough for both per-query
# engine calls and whole-campaign stages.
DEFAULT_TIME_EDGES: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)

# Buckets for discrete sizes (rows, calls, clauses).
DEFAULT_COUNT_EDGES: Tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000,
)


def metric_key(name: str, labels: Dict[str, Any]) -> str:
    """Canonical string key for a (name, labels) pair.

    Labels are sorted, so the key — and with it every snapshot dict — has a
    stable shape regardless of call order.
    """
    if not labels:
        return name
    tail = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}|{tail}"


def split_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`metric_key` (labels come back as strings)."""
    if "|" not in key:
        return key, {}
    name, tail = key.split("|", 1)
    labels: Dict[str, str] = {}
    for part in tail.split(","):
        if "=" in part:
            k, v = part.split("=", 1)
            labels[k] = v
    return name, labels


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins value (merged by max across workers)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A fixed-edge histogram with running sum/count/min/max.

    ``counts[i]`` counts observations ``<= edges[i]``; the final slot counts
    overflow observations beyond the last edge.
    """

    __slots__ = ("edges", "counts", "sum", "count", "min", "max")

    def __init__(self, edges: Sequence[float] = DEFAULT_TIME_EDGES) -> None:
        self.edges = tuple(edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.sum = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = 0
        edges = self.edges
        while index < len(edges) and value > edges[index]:
            index += 1
        self.counts[index] += 1
        self.sum += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def to_dict(self) -> Dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
            "min": self.min,
            "max": self.max,
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # pragma: no cover - trivial
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:  # pragma: no cover - trivial
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:  # pragma: no cover - trivial
        pass


class MetricsRegistry:
    """Creates and holds instruments; produces JSON-ready snapshots.

    Instruments live in per-kind dicts keyed by :func:`metric_key`; asking
    for the same (name, labels) twice returns the same instrument.  Timing
    histograms (``timing=True``) are kept in a separate section because
    their observations are wall-clock measurements (see module docstring).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timings: Dict[str, Histogram] = {}

    # -- instrument access ------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = metric_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = metric_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self,
        name: str,
        edges: Sequence[float] = DEFAULT_TIME_EDGES,
        timing: bool = False,
        **labels: Any,
    ) -> Histogram:
        store = self._timings if timing else self._histograms
        key = metric_key(name, labels)
        instrument = store.get(key)
        if instrument is None:
            instrument = store[key] = Histogram(edges)
        return instrument

    # -- snapshots --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state of every instrument, with sorted, stable keys."""
        return {
            "counters": {k: self._counters[k].value
                         for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {k: self._histograms[k].to_dict()
                           for k in sorted(self._histograms)},
            "timings": {k: self._timings[k].to_dict()
                        for k in sorted(self._timings)},
        }


class NullRegistry(MetricsRegistry):
    """The default, no-op registry: every instrument is a shared no-op."""

    _COUNTER = _NullCounter()
    _GAUGE = _NullGauge()
    _HISTOGRAM = _NullHistogram()

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._COUNTER

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._GAUGE

    def histogram(self, name: str, edges: Sequence[float] = DEFAULT_TIME_EDGES,
                  timing: bool = False, **labels: Any) -> Histogram:
        return self._HISTOGRAM

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}, "timings": {}}


NULL_REGISTRY = NullRegistry()


# ---------------------------------------------------------------------------
# Snapshot algebra
# ---------------------------------------------------------------------------


def _merge_histogram(
    into: Dict[str, Any], item: Dict[str, Any]
) -> Dict[str, Any]:
    if tuple(into["edges"]) != tuple(item["edges"]):
        raise ValueError(
            "cannot merge histograms with different bucket edges"
        )
    merged = {
        "edges": list(into["edges"]),
        "counts": [a + b for a, b in zip(into["counts"], item["counts"])],
        "sum": into["sum"] + item["sum"],
        "count": into["count"] + item["count"],
    }
    mins = [v for v in (into["min"], item["min"]) if v is not None]
    maxs = [v for v in (into["max"], item["max"]) if v is not None]
    merged["min"] = min(mins) if mins else None
    merged["max"] = max(maxs) if maxs else None
    return merged


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge per-worker snapshots into one.

    Counters and histogram buckets sum; gauges take the max.  Integer
    counts merge the same in any order, but float sums (histogram ``sum``)
    round differently, so a byte-stable merge needs a fixed input order:
    :class:`repro.obs.view.RunView` merges cells in sorted cell order.
    """
    counters: Dict[str, Any] = {}
    gauges: Dict[str, Any] = {}
    histograms: Dict[str, Any] = {}
    timings: Dict[str, Any] = {}
    for snap in snapshots:
        for key, value in snap.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        for key, value in snap.get("gauges", {}).items():
            gauges[key] = max(gauges.get(key, value), value)
        for section, store in (("histograms", histograms),
                               ("timings", timings)):
            for key, item in snap.get(section, {}).items():
                if key in store:
                    store[key] = _merge_histogram(store[key], item)
                else:
                    store[key] = {
                        "edges": list(item["edges"]),
                        "counts": list(item["counts"]),
                        "sum": item["sum"],
                        "count": item["count"],
                        "min": item["min"],
                        "max": item["max"],
                    }
    return {
        "counters": {k: counters[k] for k in sorted(counters)},
        "gauges": {k: gauges[k] for k in sorted(gauges)},
        "histograms": {k: histograms[k] for k in sorted(histograms)},
        "timings": {k: timings[k] for k in sorted(timings)},
    }


def deterministic_view(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The seed-determined part of a snapshot (drops wall-clock timings).

    This is the slice covered by the runtime's determinism guarantee:
    identical for metrics on/off replays of the same seeds and for any
    ``jobs`` value.
    """
    return {
        "counters": dict(snapshot.get("counters", {})),
        "gauges": dict(snapshot.get("gauges", {})),
        "histograms": {
            key: {k: (list(v) if isinstance(v, list) else v)
                  for k, v in item.items()}
            for key, item in snapshot.get("histograms", {}).items()
        },
    }
