"""The metric registry: counters, gauges, time series.

Components publish measurements through metric objects obtained from a
:class:`MetricRegistry`.  The registry is organized around *categories*
(``"cwnd"``, ``"queue"``, ``"engine"``, ...): a metric requested under a
disabled category is a shared null object whose methods do nothing, so
instrumented code pays one no-op method call -- and allocates nothing --
when observability is off.  Hot loops that cannot afford even that use
the ``is not None`` guard idiom instead (see ``repro.sim.engine``).

Metric kinds:

* :class:`Counter`   -- monotonically increasing event count;
* :class:`Gauge`     -- last-write-wins instantaneous value;
* :class:`TimeSeries`-- sampled ``(time, value...)`` rows, optionally
  thinned to a minimum inter-sample interval.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the count."""
        self.value += n

    def snapshot(self) -> Any:
        return self.value


class Gauge:
    """An instantaneous value; the last write wins."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def max(self, value: float) -> None:
        """Keep the running maximum instead of the last write."""
        if value > self.value:
            self.value = value

    def snapshot(self) -> Any:
        return self.value


class TimeSeries:
    """Sampled ``(time, *values)`` rows."""

    __slots__ = ("name", "columns", "rows")

    def __init__(self, name: str, columns: Sequence[str] = ("value",)) -> None:
        self.name = name
        self.columns = tuple(columns)
        self.rows: List[Tuple[float, ...]] = []

    def append(self, time: float, *values: Any) -> None:
        """Record one sample."""
        self.rows.append((time,) + values)

    def __len__(self) -> int:
        return len(self.rows)

    def times(self) -> List[float]:
        return [row[0] for row in self.rows]

    def column(self, name: str) -> List[Any]:
        """All values of one named column, in time order."""
        index = self.columns.index(name) + 1
        return [row[index] for row in self.rows]

    def snapshot(self) -> Any:
        return {"columns": ("time", *self.columns), "n_rows": len(self.rows)}


class _NullMetric:
    """Shared do-nothing stand-in for every metric kind.

    Returned for metrics in disabled categories so publishers never
    need their own enabled/disabled branches.
    """

    __slots__ = ()
    name = "<null>"
    value = 0
    rows: List[Tuple[float, ...]] = []

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def max(self, value: float) -> None:
        pass

    def append(self, time: float, *values: Any) -> None:
        pass

    def times(self) -> List[float]:
        return []

    def column(self, name: str) -> List[Any]:
        return []

    def __len__(self) -> int:
        return 0

    def __bool__(self) -> bool:
        # A null metric is falsy so guards like ``if series:`` skip work.
        return False

    def snapshot(self) -> Any:
        return None


#: The shared null metric every disabled category resolves to.
NULL_METRIC = _NullMetric()


class MetricRegistry:
    """Namespace of metrics, switched on and off by category.

    Metric names are dotted paths whose first segment is the category
    (``"queue.drops.early"`` belongs to category ``"queue"``).  A metric
    requested while its category is disabled resolves to
    :data:`NULL_METRIC`; the registry records nothing for it.

    Args:
        categories: the enabled categories.  ``None`` enables everything
            (the permissive default for ad-hoc use); pass an empty tuple
            for a fully disabled registry.
    """

    def __init__(self, categories: Optional[Iterable[str]] = None) -> None:
        self._all_enabled = categories is None
        self._categories = set(categories) if categories is not None else set()
        self._metrics: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Category switching
    # ------------------------------------------------------------------
    def enabled(self, category: str) -> bool:
        """True if metrics under ``category`` are being recorded."""
        return self._all_enabled or category in self._categories

    def enable(self, category: str) -> None:
        self._categories.add(category)

    @staticmethod
    def category_of(name: str) -> str:
        """The category a dotted metric name belongs to."""
        return name.split(".", 1)[0]

    # ------------------------------------------------------------------
    # Metric factories (idempotent: same name returns the same object)
    # ------------------------------------------------------------------
    def _get(self, name: str, factory) -> Any:
        if not self.enabled(self.category_of(name)):
            return NULL_METRIC
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, lambda: Gauge(name))

    def series(self, name: str, columns: Sequence[str] = ("value",)) -> TimeSeries:
        return self._get(name, lambda: TimeSeries(name, columns))

    # ------------------------------------------------------------------
    # Introspection and export
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def get(self, name: str) -> Optional[Any]:
        """The live metric object, or None if never created."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view of every scalar metric (counters/gauges get
        their value, series a small summary)."""
        return {name: self._metrics[name].snapshot() for name in self.names()}


#: A registry with every category disabled: the default wiring for
#: components built without explicit observability configuration.
NULL_REGISTRY = MetricRegistry(categories=())
