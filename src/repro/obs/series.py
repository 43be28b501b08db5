"""Sampled ``(time, *values)`` rows: the one container the flight
recorder's probes and the forensics report export."""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple


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

    def column(self, name: str) -> List[Any]:
        """All values of one named column, in time order."""
        index = self.columns.index(name) + 1
        return [row[index] for row in self.rows]

    def snapshot(self) -> Any:
        return {"columns": ("time", *self.columns), "n_rows": len(self.rows)}
