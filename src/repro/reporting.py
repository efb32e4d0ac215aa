"""Terminal reporting helpers: ASCII charts and aligned tables.

The benchmark harness and examples regenerate the paper's *figures* as
text; these helpers render series as compact ASCII line charts so the
shape of Fig. 10-style curves is visible directly in test output.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


def ascii_chart(
    series: dict[str, Sequence[float]],
    width: int = 60,
    height: int = 12,
    markers: str = "ox+*",
) -> str:
    """Render one or more aligned series as an ASCII line chart.

    All series share the y-scale; x is the sample index scaled to
    ``width``.  Returns a multi-line string (top row = max value).
    """
    if not series:
        raise ConfigurationError("need at least one series")
    arrays = {name: np.asarray(values, dtype=float) for name, values in series.items()}
    lengths = {a.size for a in arrays.values()}
    if len(lengths) != 1:
        raise ConfigurationError("all series must have equal length")
    n = lengths.pop()
    if n < 2:
        raise ConfigurationError("series need at least two points")
    lo = min(float(np.nanmin(a)) for a in arrays.values())
    hi = max(float(np.nanmax(a)) for a in arrays.values())
    if hi <= lo:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    for k, (_name, values) in enumerate(arrays.items()):
        marker = markers[k % len(markers)]
        for col in range(width):
            idx = int(round(col * (n - 1) / (width - 1)))
            value = values[idx]
            if not np.isfinite(value):
                continue
            row = int(round((value - lo) / (hi - lo) * (height - 1)))
            grid[height - 1 - row][col] = marker
    lines = [f"{hi:11.4g} +" + "".join(grid[0])]
    for row in grid[1:-1]:
        lines.append(" " * 11 + " |" + "".join(row))
    lines.append(f"{lo:11.4g} +" + "".join(grid[-1]))
    legend = "   ".join(
        f"{markers[k % len(markers)]} = {name}" for k, name in enumerate(arrays)
    )
    lines.append(" " * 13 + legend)
    return "\n".join(lines)


def table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], pad: int = 2
) -> str:
    """Aligned text table."""
    if not headers:
        raise ConfigurationError("need headers")
    text_rows = [[str(cell) for cell in row] for row in rows]
    for row in text_rows:
        if len(row) != len(headers):
            raise ConfigurationError("row width must match headers")
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in text_rows)) if text_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    sep = " " * pad

    def fmt(cells: Sequence[str]) -> str:
        return sep.join(
            cell.ljust(width)
            for cell, width in zip(cells, widths, strict=True)
        )

    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in text_rows)
    return "\n".join(lines)
