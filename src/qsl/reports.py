"""Flat key-value report rendering shared by the CLI and the verifier modules."""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence


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


def render_csv(header: Sequence[str], rows: Iterable[Sequence[float]]) -> str:
    """CSV with a header line, 12-significant-digit cells, LF line endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_number(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(header: Sequence[str], rows: Iterable[Sequence[float]]) -> str:
    """JSON array of flat row objects carrying exactly the CSV values."""
    out = []
    for row in rows:
        obj = {}
        for key, value in zip(header, row):
            obj[key] = float(format_number(value)) if isinstance(value, float) else value
        out.append(obj)
    return json.dumps(out) + "\n"
