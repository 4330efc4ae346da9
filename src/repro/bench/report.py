"""Tabular output for the figure drivers."""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Mapping, Sequence


class FigureTable:
    """A figure's data: rows of series values keyed by app/config."""

    def __init__(
        self,
        name: str,
        row_key: str,
        series: Sequence[str],
    ) -> None:
        self.name = name
        self.row_key = row_key
        self.series = list(series)
        self.rows: List[Dict[str, object]] = []

    def add_row(self, key: str, values: Mapping[str, float]) -> None:
        row: Dict[str, object] = {self.row_key: key}
        for column in self.series:
            row[column] = values.get(column, float("nan"))
        self.rows.append(row)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def to_ascii(self, precision: int = 3) -> str:
        headers = [self.row_key] + self.series
        body = [
            [str(row[self.row_key])]
            + [f"{row[col]:.{precision}f}" for col in self.series]
            for row in self.rows
        ]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in body)) if body else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            f"== {self.name} ==",
            "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "  ".join("-" * w for w in widths),
        ]
        for r in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=[self.row_key] + self.series)
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return out.getvalue()

    def column(self, series: str) -> List[float]:
        return [float(row[series]) for row in self.rows]

    def cell(self, key: str, series: str) -> float:
        for row in self.rows:
            if row[self.row_key] == key:
                return float(row[series])
        raise KeyError(f"no row {key!r} in {self.name}")
