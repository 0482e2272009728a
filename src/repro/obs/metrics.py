"""Process-local metrics registry: counters, gauges, fixed-bucket histograms.

The registry is deliberately boring: metric objects are plain mutable
cells, names are strings with an optional ``{k=v,...}`` label suffix, and
a snapshot is a JSON-serializable dict with **sorted keys everywhere** so
two runs doing the same simulated work produce byte-identical output.

Three determinism families, by name prefix:

``sim.*``
    Pure functions of the simulated work (box counts, faults, impact).
    Byte-identical across reruns, worker counts, and cache states.
``exec.*``
    Facts about this run's execution (cache hits, retries, failed
    cells).  Identical serial vs ``--jobs N`` from the same cache state.
``wall.*``
    Wall-clock measurements.  Stripped by :func:`strip_wall` before any
    determinism comparison.

The disabled path is cheap by construction: a disabled registry hands
every instrumentation site the shared :data:`NULL_METRIC`, whose methods
are no-ops, so hot loops pay one dict-free method call — or nothing at
all if they hoist the ``enabled`` check (see
:func:`repro.paging.engine.execute_profile`).

Merging is commutative and associative (counters add, histogram buckets
add, gauges take the max), which is what makes per-worker registries
mergeable in *any* completion order with a deterministic result.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "DEFAULT_BUCKET_EDGES",
    "NULL_METRIC",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active",
    "collecting",
    "counter",
    "diff_snapshots",
    "enabled",
    "gauge",
    "histogram",
    "snapshot_to_json",
    "strip_wall",
]

#: Version of the snapshot dict layout; bump when keys move or re-round.
METRICS_SCHEMA_VERSION = 1

#: Default histogram bucket edges: powers of two, 1 .. 2^20.  Fixed edges
#: (never derived from the data) are what keep snapshots deterministic.
DEFAULT_BUCKET_EDGES: Tuple[float, ...] = tuple(float(1 << i) for i in range(21))

Number = Union[int, float]


def _metric_key(name: str, labels: Mapping[str, object]) -> str:
    """Canonical metric identity: ``name{k1=v1,k2=v2}`` with sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing numeric cell."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, n: Number = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        self.value += n


class Gauge:
    """A last/max-value cell; merged across workers by ``max``."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, v: Number) -> None:
        """Overwrite the gauge with ``v``."""
        self.value = v

    def record_max(self, v: Number) -> None:
        """Raise the gauge to ``v`` if larger (merge-safe update)."""
        if v > self.value:
            self.value = v


class Histogram:
    """Fixed-bucket histogram: counts per bucket plus sum and count.

    Bucket ``i`` counts observations ``v`` with
    ``edges[i-1] < v <= edges[i]`` (bucket 0 is ``v <= edges[0]``); the
    final bucket is the overflow ``v > edges[-1]``.  Edges are fixed at
    creation so output never depends on the data distribution.
    """

    __slots__ = ("edges", "counts", "sum", "count")

    def __init__(self, edges: Sequence[float] = DEFAULT_BUCKET_EDGES) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"histogram edges must be non-empty and strictly increasing: {edges}")
        self.edges = edges
        self.counts: List[int] = [0] * (len(edges) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, v: Number, n: int = 1) -> None:
        """Record ``n`` observations of ``v`` (default one)."""
        v = float(v)
        self.counts[bisect_left(self.edges, v)] += n
        self.sum += v * n
        self.count += n


class _NullMetric:
    """Shared no-op stand-in handed out by disabled registries."""

    __slots__ = ()

    def inc(self, n: Number = 1) -> None:
        """No-op."""

    def set(self, v: Number) -> None:
        """No-op."""

    def record_max(self, v: Number) -> None:
        """No-op."""

    def observe(self, v: Number, n: int = 1) -> None:
        """No-op."""


#: The one instance every disabled registry returns.
NULL_METRIC = _NullMetric()


def _num(v: Number) -> Number:
    """Canonicalize a numeric snapshot value (ints stay ints)."""
    return int(v) if isinstance(v, bool) or (isinstance(v, float) and v.is_integer()) else v


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    ``enabled=False`` (the library default) makes every accessor return
    :data:`NULL_METRIC`, so instrumentation sites cost almost nothing
    unless an :func:`repro.obs.observability` scope is active.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def counter(self, name: str, **labels: object):
        """The counter registered under ``name`` + labels (created on first use)."""
        if not self.enabled:
            return NULL_METRIC
        key = _metric_key(name, labels)
        c = self._counters.get(key)
        if c is None:
            c = self._counters[key] = Counter()
        return c

    def gauge(self, name: str, **labels: object):
        """The gauge registered under ``name`` + labels (created on first use)."""
        if not self.enabled:
            return NULL_METRIC
        key = _metric_key(name, labels)
        g = self._gauges.get(key)
        if g is None:
            g = self._gauges[key] = Gauge()
        return g

    def histogram(self, name: str, edges: Sequence[float] = DEFAULT_BUCKET_EDGES, **labels: object):
        """The histogram under ``name`` + labels; ``edges`` must match on reuse."""
        if not self.enabled:
            return NULL_METRIC
        key = _metric_key(name, labels)
        h = self._histograms.get(key)
        if h is None:
            h = self._histograms[key] = Histogram(edges)
        elif h.edges != tuple(float(e) for e in edges):
            raise ValueError(f"histogram {key!r} re-registered with different edges")
        return h

    # ------------------------------------------------------------------ #
    # snapshot / merge
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """Deterministic, JSON-serializable dump of every metric.

        Keys are sorted at every level; integral floats are emitted as
        ints so serial and merged-parallel runs render identically.
        """
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": {k: _num(c.value) for k, c in sorted(self._counters.items())},
            "gauges": {k: _num(g.value) for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: {
                    "edges": list(h.edges),
                    "counts": list(h.counts),
                    "sum": _num(h.sum),
                    "count": h.count,
                }
                for k, h in sorted(self._histograms.items())
            },
        }

    def merge(self, snap: Optional[Mapping[str, object]]) -> None:
        """Fold a snapshot (e.g. a worker delta) into this registry.

        Counters and histogram buckets add; gauges take the max.  All
        three operations are commutative and associative, so merging
        worker deltas in completion order yields the same result as any
        other order — the property the serial-vs-parallel determinism
        tests rely on.  A ``None``/empty snapshot is a no-op.
        """
        if not self.enabled or not snap:
            return
        for key, value in snap.get("counters", {}).items():  # type: ignore[union-attr]
            c = self._counters.get(key)
            if c is None:
                c = self._counters[key] = Counter()
            c.inc(value)
        for key, value in snap.get("gauges", {}).items():  # type: ignore[union-attr]
            g = self._gauges.get(key)
            if g is None:
                g = self._gauges[key] = Gauge()
            g.record_max(value)
        for key, dump in snap.get("histograms", {}).items():  # type: ignore[union-attr]
            h = self._histograms.get(key)
            if h is None:
                h = self._histograms[key] = Histogram(dump["edges"])
            elif list(h.edges) != list(dump["edges"]):
                raise ValueError(f"cannot merge histogram {key!r}: edge mismatch")
            for i, n in enumerate(dump["counts"]):
                h.counts[i] += n
            h.sum += dump["sum"]
            h.count += dump["count"]

    def is_empty(self) -> bool:
        """True iff nothing has been recorded."""
        return not (self._counters or self._gauges or self._histograms)

    def clear(self) -> None:
        """Drop every metric (start of a fresh measurement window)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


# --------------------------------------------------------------------- #
# snapshot utilities
# --------------------------------------------------------------------- #
def strip_wall(snap: Mapping[str, object]) -> Dict[str, object]:
    """Copy of a snapshot without ``wall.*`` entries (wall-clock noise).

    This is the canonical form the determinism tests compare: everything
    left is a pure function of the simulated work and the cache state.
    """
    out: Dict[str, object] = {}
    for section, value in snap.items():
        if isinstance(value, Mapping):
            out[section] = {k: v for k, v in value.items() if not k.startswith("wall.")}
        else:
            out[section] = value
    return out


def diff_snapshots(before: Mapping[str, object], after: Mapping[str, object]) -> Dict[str, object]:
    """The ``after - before`` delta: counter/histogram subtraction, gauges as-is.

    Zero counter deltas are dropped, so the result reads as "what this
    window did" — the form the per-experiment report block renders.
    """
    counters: Dict[str, Number] = {}
    for key, value in after.get("counters", {}).items():  # type: ignore[union-attr]
        delta = value - before.get("counters", {}).get(key, 0)  # type: ignore[union-attr]
        if delta:
            counters[key] = _num(delta)
    histograms: Dict[str, object] = {}
    for key, dump in after.get("histograms", {}).items():  # type: ignore[union-attr]
        prev = before.get("histograms", {}).get(key)  # type: ignore[union-attr]
        counts = list(dump["counts"])
        total, sigma = dump["count"], dump["sum"]
        if prev is not None:
            counts = [a - b for a, b in zip(counts, prev["counts"])]
            total -= prev["count"]
            sigma -= prev["sum"]
        if total:
            histograms[key] = {"edges": list(dump["edges"]), "counts": counts, "sum": _num(sigma), "count": total}
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "counters": counters,
        "gauges": dict(after.get("gauges", {})),  # type: ignore[arg-type]
        "histograms": histograms,
    }


def snapshot_to_json(snap: Mapping[str, object]) -> str:
    """Canonical JSON text for a snapshot: sorted keys, 2-space indent.

    Byte-identical for equal snapshots — the determinism goldens compare
    this exact rendering.
    """
    return json.dumps(snap, sort_keys=True, indent=2) + "\n"


# --------------------------------------------------------------------- #
# ambient registry stack (mirrors repro.exec.engine's engine stack)
# --------------------------------------------------------------------- #
_BASE_REGISTRY = MetricsRegistry(enabled=False)
_STACK: List[MetricsRegistry] = [_BASE_REGISTRY]


def active() -> MetricsRegistry:
    """The innermost registry scoped via :func:`collecting` (or the disabled base)."""
    return _STACK[-1]


def enabled() -> bool:
    """True iff the ambient registry is collecting."""
    return _STACK[-1].enabled


def counter(name: str, **labels: object):
    """Counter accessor on the ambient registry (no-op when disabled)."""
    return _STACK[-1].counter(name, **labels)


def gauge(name: str, **labels: object):
    """Gauge accessor on the ambient registry (no-op when disabled)."""
    return _STACK[-1].gauge(name, **labels)


def histogram(name: str, edges: Sequence[float] = DEFAULT_BUCKET_EDGES, **labels: object):
    """Histogram accessor on the ambient registry (no-op when disabled)."""
    return _STACK[-1].histogram(name, edges, **labels)


@contextmanager
def collecting(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Scope ``registry`` (default: a fresh enabled one) as the ambient sink."""
    reg = registry if registry is not None else MetricsRegistry(enabled=True)
    _STACK.append(reg)
    try:
        yield reg
    finally:
        _STACK.pop()


def _reset() -> None:
    """Restore the pristine module state (test isolation hook)."""
    del _STACK[1:]
    _BASE_REGISTRY.clear()
