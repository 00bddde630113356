"""Result containers and paper-style table/chart rendering for experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.units import pretty_size


@dataclass
class Series:
    """One labelled curve: (x, y) points, e.g. size vs bandwidth."""

    label: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one point."""
        self.points.append((x, y))

    def y_at(self, x: float) -> float:
        """The y value at an exact x (raises if absent)."""
        for px, py in self.points:
            if px == x:
                return py
        raise KeyError(f"{self.label}: no point at x={x}")

    @property
    def peak(self) -> float:
        """Maximum y of the series."""
        return max(y for _, y in self.points)


class SweepTable:
    """Several series over a shared x axis, rendered like a paper figure."""

    def __init__(self, title: str, x_label: str = "size",
                 y_label: str = "Gbytes/s", x_is_size: bool = True):
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.x_is_size = x_is_size
        self.series: Dict[str, Series] = {}

    def series_for(self, label: str) -> Series:
        """Get or create the series with this label."""
        if label not in self.series:
            self.series[label] = Series(label)
        return self.series[label]

    def add(self, label: str, x: float, y: float) -> None:
        """Append a point to a labelled series."""
        self.series_for(label).add(x, y)

    def xs(self) -> List[float]:
        """Sorted union of all x values."""
        seen = sorted({x for s in self.series.values() for x, _ in s.points})
        return seen

    def to_dict(self) -> dict:
        """JSON-friendly form (``tca-bench --json``)."""
        return {
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "series": {label: [[x, y] for x, y in s.points]
                       for label, s in self.series.items()},
        }

    def render(self) -> str:
        """Fixed-width table: one row per x, one column per series."""
        labels = list(self.series)
        header = [self.x_label] + labels
        rows: List[List[str]] = []
        for x in self.xs():
            cell = pretty_size(int(x)) if self.x_is_size else f"{x:g}"
            row = [cell]
            for label in labels:
                try:
                    row.append(f"{self.series[label].y_at(x):.3f}")
                except KeyError:
                    row.append("-")
            rows.append(row)
        widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows
                  else len(header[i]) for i in range(len(header))]
        lines = [self.title,
                 f"({self.y_label} per series)",
                 "  ".join(h.rjust(w) for h, w in zip(header, widths))]
        lines += ["  ".join(c.rjust(w) for c, w in zip(row, widths))
                  for row in rows]
        return "\n".join(lines)

    def render_chart(self, width: int = 64, height: int = 14,
                     log_x: bool = True) -> str:
        """ASCII scatter chart of all series (one marker letter each).

        The x axis is logarithmic by default (message-size sweeps span
        decades); y is linear from zero to the maximum observed value.
        """
        points = [(x, y) for s in self.series.values() for x, y in s.points]
        if not points:
            return f"{self.title}\n(no data)"
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        x_lo, x_hi = min(xs), max(xs)
        y_hi = max(ys) or 1.0

        def col_of(x: float) -> int:
            if x_hi == x_lo:
                return 0
            if log_x and x_lo > 0:
                frac = (math.log(x) - math.log(x_lo)) / (
                    math.log(x_hi) - math.log(x_lo))
            else:
                frac = (x - x_lo) / (x_hi - x_lo)
            return min(width - 1, max(0, int(round(frac * (width - 1)))))

        def row_of(y: float) -> int:
            frac = y / y_hi
            return min(height - 1, max(0, int(round(frac * (height - 1)))))

        grid = [[" "] * width for _ in range(height)]
        markers = "ABCDEFGHJK"
        legend = []
        for i, (label, series) in enumerate(self.series.items()):
            marker = markers[i % len(markers)]
            legend.append(f"  {marker} = {label}")
            for x, y in series.points:
                row = height - 1 - row_of(y)
                col = col_of(x)
                cell = grid[row][col]
                grid[row][col] = "*" if cell not in (" ", marker) else marker

        y_width = len(f"{y_hi:.3g}")
        lines = [self.title, f"y: {self.y_label}   x: {self.x_label}"
                             f"{' (log)' if log_x else ''}"]
        for r, row in enumerate(grid):
            y_value = y_hi * (height - 1 - r) / (height - 1)
            label = f"{y_value:.3g}".rjust(y_width) if r % 4 == 0 or r == height - 1 else " " * y_width
            lines.append(f"{label} |" + "".join(row))
        left = pretty_size(int(x_lo)) if self.x_is_size else f"{x_lo:g}"
        right = pretty_size(int(x_hi)) if self.x_is_size else f"{x_hi:g}"
        axis = left + " " * max(1, width - len(left) - len(right)) + right
        lines.append(" " * y_width + " +" + "-" * width)
        lines.append(" " * y_width + "  " + axis)
        lines.extend(legend)
        return "\n".join(lines)
