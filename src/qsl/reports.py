"""Flat key-value report rendering shared by the CLI and the verifier modules."""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence

import numpy as np

# rows per format call of render_csv
_CSV_ROWS = 4096


def format_number(value: float) -> str:
    """12-significant-digit rendering used for all emitted numeric values."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def render_report(report: Mapping) -> str:
    """One ``key=value`` line per entry, insertion-ordered, LF-terminated."""
    lines = []
    for key, value in report.items():
        if isinstance(value, (int, float)):
            lines.append(f"{key}={format_number(value)}")
        else:
            lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


def render_csv(header: Sequence[str], columns: Sequence[np.ndarray]) -> str:
    """CSV with a header line, 12-significant-digit cells, LF line endings.

    ``columns`` are float arrays of one length. Each block of rows is rendered
    by one %-format string, whose ``%.12g`` spells a float as ``format_number``
    does.
    """
    table = np.column_stack(columns)
    line = ",".join(["%.12g"] * table.shape[1]) + "\n"
    parts = [",".join(header) + "\n"]
    for s in range(0, len(table), _CSV_ROWS):
        block = table[s:s + _CSV_ROWS]
        parts.append((line * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def render_json(header: Sequence[str], rows: Iterable[Sequence[float]]) -> str:
    """JSON array of flat row objects carrying exactly the CSV values."""
    out = []
    for row in rows:
        obj = {}
        for key, value in zip(header, row):
            obj[key] = float(format_number(value)) if isinstance(value, float) else value
        out.append(obj)
    return json.dumps(out) + "\n"
