"""Result containers and text rendering for the experiment harness.

Every figure becomes a :class:`FigureResult`: named series over a
common x-axis (CPU counts), rendered as an aligned text table — the
same rows/series the paper plots.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from .._record import Record

__all__ = ["Series", "FigureResult"]


class Series(Record):
    """One line of a figure: a label and y-values over the x-axis."""

    _fields = ("label", "values")

    def __init__(self, label: str, values: List[Optional[float]]) -> None:
        self.label = label
        self.values = values

    def value_at(self, x_axis: Sequence[int], x: int) -> Optional[float]:
        try:
            return self.values[list(x_axis).index(x)]
        except ValueError:
            return None

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"label": self.label, "values": list(self.values)}

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Series":
        return cls(label=str(doc["label"]), values=list(doc["values"]))

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Series":
        return cls.from_dict(json.loads(text))


class FigureResult(Record):
    """A reproduced figure: x-axis + series + provenance notes."""

    _fields = ("figure_id", "title", "xlabel", "ylabel", "x", "series",
               "notes")

    def __init__(
        self,
        figure_id: str,
        title: str,
        xlabel: str,
        ylabel: str,
        x: List[int],
        series: Optional[List[Series]] = None,
        notes: Optional[List[str]] = None,
    ) -> None:
        self.figure_id = figure_id
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.x = x
        self.series = [] if series is None else series
        self.notes = [] if notes is None else notes

    def add_series(self, label: str, values: Sequence[Optional[float]]) -> Series:
        if len(values) != len(self.x):
            raise ValueError(
                f"series {label!r} has {len(values)} values for "
                f"{len(self.x)} x points"
            )
        s = Series(label, list(values))
        self.series.append(s)
        return s

    def get(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series {label!r} in {self.figure_id}")

    def ratio(self, num_label: str, den_label: str, x: int) -> float:
        """Series ratio at one x (e.g. Full/None at 64 CPUs)."""
        num = self.get(num_label).value_at(self.x, x)
        den = self.get(den_label).value_at(self.x, x)
        if num is None or den is None or den == 0:
            raise ValueError(f"cannot form ratio at x={x}")
        return num / den

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-safe form (floats survive the round trip exactly)."""
        return {
            "figure_id": self.figure_id,
            "title": self.title,
            "xlabel": self.xlabel,
            "ylabel": self.ylabel,
            "x": list(self.x),
            "series": [s.to_dict() for s in self.series],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "FigureResult":
        fig = cls(
            figure_id=str(doc["figure_id"]),
            title=str(doc["title"]),
            xlabel=str(doc["xlabel"]),
            ylabel=str(doc["ylabel"]),
            x=[int(v) for v in doc["x"]],
            notes=[str(n) for n in doc.get("notes", [])],
        )
        for sdoc in doc.get("series", []):
            s = Series.from_dict(sdoc)
            # add_series re-validates the length invariant on the way in.
            fig.add_series(s.label, s.values)
        return fig

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FigureResult":
        return cls.from_dict(json.loads(text))

    # -- rendering --------------------------------------------------------------

    def render(self, precision: int = 3) -> str:
        label_w = max(len(self.xlabel), 6)
        col_w = max([len(s.label) for s in self.series] + [precision + 7])
        header = f"{self.figure_id}: {self.title}"
        lines = [header, "=" * len(header)]
        row = f"{self.xlabel:>{label_w}s}"
        for s in self.series:
            row += f"  {s.label:>{col_w}s}"
        lines.append(row)
        for i, x in enumerate(self.x):
            row = f"{x:>{label_w}d}"
            for s in self.series:
                v = s.values[i]
                cell = "-" if v is None else f"{v:.{precision}f}"
                row += f"  {cell:>{col_w}s}"
            lines.append(row)
        lines.append(f"(y-axis: {self.ylabel})")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = [",".join([self.xlabel] + [s.label for s in self.series])]
        for i, x in enumerate(self.x):
            cells = [str(x)]
            for s in self.series:
                v = s.values[i]
                cells.append("" if v is None else repr(v))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"<FigureResult {self.figure_id}: {len(self.series)} series over {self.x}>"
