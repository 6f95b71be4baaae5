"""Flat key-value report rendering shared by the CLI and the verifier modules."""

from __future__ import annotations

import itertools
import json
from typing import Iterator, Mapping, Sequence

import numpy as np

# rows per piece of text of render_csv and render_json
_TABLE_ROWS = 4096


def render_report(report: Mapping) -> str:
    """A ``key=value`` line per entry, in order, LF-ended; a float as ``.12g``, else ``str``."""
    lines = (f"{key}={value:.12g}" if isinstance(value, float) else f"{key}={value}"
             for key, value in report.items())
    return "\n".join(lines) + "\n"


def render_csv(header: Sequence[str], columns: Sequence[np.ndarray]) -> Iterator[str]:
    """CSV with a header line, 12-significant-digit cells, LF line endings.

    ``columns`` are float arrays of one length. The header line is the first
    piece of text, and each block of rows the next, rendered by one %-format
    string, whose ``%.12g`` spells a float as ``render_report``'s ``.12g`` does.
    """
    line = ",".join(["%.12g"] * len(columns)) + "\n"
    yield ",".join(header) + "\n"
    for s in range(0, len(columns[0]), _TABLE_ROWS):
        block = np.column_stack([column[s:s + _TABLE_ROWS] for column in columns])
        yield line * len(block) % tuple(block.ravel().tolist())


def render_json(header: Sequence[str], columns: Sequence[np.ndarray]) -> Iterator[str]:
    """JSON array of flat row objects carrying exactly the CSV values, a block of rows per piece.

    Each block's CSV cells are parsed back, float(f"{x:.12g}"), and spelled
    as json spells a float by one json.dumps.
    """
    row = "{" + ", ".join(json.dumps(key).replace("%", "%%") + ": %s" for key in header) + "}"
    yield "["
    for i, block in enumerate(itertools.islice(render_csv(header, columns), 1, None)):
        values = map(float, block[:-1].replace("\n", ",").split(","))
        cells = json.dumps(list(values))[1:-1].split(", ")
        yield (", " if i else "") + ", ".join([row] * (len(cells) // len(header))) % tuple(cells)
    yield "]\n"
