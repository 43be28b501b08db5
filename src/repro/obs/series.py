"""Sampled ``(time, *values)`` rows, stored a column at a time: the one
container the flight recorder's probes and the forensics report export."""

from __future__ import annotations

from array import array
from typing import Any, Callable, List, MutableSequence, Optional, Sequence, Tuple

#: Column kinds: a float64 ``array("d")``, an int64 ``array("q")``, or a
#: list of Python objects kept exactly as appended.
KINDS = ("d", "q", "O")


class TimeSeries:
    """Sampled ``(time, *values)`` rows, one stored column per field.

    ``kinds`` has one typecode of :data:`KINDS` per stored column, time
    first; the default is all ``"O"``.  A ``"d"`` or ``"q"`` column
    holds machine words (8 B a sample, not a boxed number in a tuple),
    so it hands back a ``float`` / ``int`` whatever was appended: its
    publisher must already append that type for the exported bytes to
    be what it appended (``tests/test_obs_columns.py`` pins the probes').
    """

    __slots__ = ("name", "columns", "kinds", "data")

    def __init__(
        self,
        name: str,
        columns: Sequence[str] = ("value",),
        kinds: Optional[str] = None,
    ) -> None:
        self.name = name
        self.columns = tuple(columns)
        kinds = kinds if kinds is not None else "O" * (1 + len(self.columns))
        if len(kinds) != 1 + len(self.columns) or set(kinds) - set(KINDS):
            raise ValueError(
                f"series {name!r}: kinds {kinds!r} must give one of "
                f"{'/'.join(KINDS)} for time and each of {self.columns}"
            )
        self.kinds = kinds
        #: The stored columns, time first.
        self.data: List[MutableSequence[Any]] = [
            [] if kind == "O" else array(kind) for kind in kinds
        ]

    def append(self, time: float, *values: Any) -> None:
        """Record one sample; a row that does not fit (wrong width, or a
        value its typed column refuses) leaves the series unchanged."""
        data = self.data
        if 1 + len(values) != len(data):
            raise ValueError(
                f"series {self.name!r}: a row of {1 + len(values)} values "
                f"does not fit its columns {('time', *self.columns)}"
            )
        n_rows = len(data[0])
        try:
            for column, value in zip(data, (time, *values)):
                column.append(value)
        except BaseException:
            for column in data:
                del column[n_rows:]
            raise

    def appenders(self) -> Tuple[Callable[[Any], None], ...]:
        """Each stored column's bound ``append``, time first: a hot
        publisher binds these once and calls one per value, building no
        row.  It must call every one of them per sample."""
        return tuple(column.append for column in self.data)

    @property
    def rows(self) -> List[Tuple[Any, ...]]:
        """Every sample as a ``(time, *values)`` tuple (built on demand)."""
        return list(zip(*self.data))

    def __len__(self) -> int:
        return len(self.data[0])

    def column(self, name: str) -> List[Any]:
        """All values of one named column, in time order."""
        return list(self.data[self.columns.index(name) + 1])

    def snapshot(self) -> Any:
        return {"columns": ("time", *self.columns), "n_rows": len(self)}
