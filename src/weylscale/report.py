"""Machine-readable experiment reports with deterministic serialization.

Reports must come out byte-identical across repeated runs of the same
configuration, so serialization is fully specified here: insertion-ordered
fields, every float printed with 17 significant digits, non-finite floats as
quoted markers, and no wall-clock data in the rendered document (timing stays
on the record object for the caller).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class ReportRecord:
    """One experiment run: resolved inputs, per-cell results, a summary, and the
    contract violations the runner found among them."""

    experiment: str
    config_echo: dict
    cells: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    #: wall-clock seconds; deliberately excluded from the serialized report
    timing_seconds: float | None = None
    #: one line per failing cell and per false ``*_ok`` summary flag, in that
    #: order, as the runner writes them; not serialized either
    violations: list = field(default_factory=list)

    def to_object(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": self.config_echo,
            "cells": self.cells,
            "summary": self.summary,
        }


def format_float(x: float) -> str:
    if math.isfinite(x):
        return "%.17g" % x
    if x != x:
        return '"NaN"'
    return '"INF"' if x > 0 else '"-INF"'


def _format_complex(z: complex) -> str:
    return '{"re": %s, "im": %s}' % (format_float(z.real), format_float(z.imag))


#: One entry of an array row, as format_float and _format_complex write a finite one.
_ROW_ENTRY = {np.dtype(np.float64): "%.17g", np.dtype(np.complex128): '{"re": %.17g, "im": %.17g}'}

#: A complex entry whose imaginary part is +0.0, which ``%.17g`` writes as ``0``.
_REAL_COMPLEX_ENTRY = '{"re": %.17g, "im": 0}'


def _row_text(value: np.ndarray) -> str | None:
    """A finite 1-d or 2-d float64 or complex128 array formatted with one ``%`` per
    row (over the real and imaginary parts of a complex row), empty and single-entry
    arrays included; None otherwise, for the per-entry path of ``_render_array``.
    A complex array whose imaginary parts are all +0.0 (all bits zero: not -0.0,
    nor NaN) is formatted over its real parts alone.

    ``%.17g`` writes a non-finite float as ``nan`` or ``inf``, and nothing else it
    writes holds an ``n``, so such a text falls back to the per-entry path.  No
    config gets there: a report's only arrays are the ``entries`` of matrix
    operators, which ``OperatorSpec.from_matrix`` keeps finite.
    """
    entry = _ROW_ENTRY.get(value.dtype)
    if entry is None or value.ndim not in (1, 2):
        return None
    if value.dtype == np.complex128 and not value.imag.view(np.uint64).any():
        entry, value = _REAL_COMPLEX_ENTRY, value.real
    rows = np.ascontiguousarray(value).view(np.float64)
    row_format = "[" + ", ".join([entry] * value.shape[-1]) + "]"
    if value.ndim == 1:
        text = row_format % tuple(rows.tolist())
    else:
        text = "[" + ", ".join([row_format % tuple(row) for row in rows.tolist()]) + "]"
    return None if "n" in text else text


def _render_str(value: str, pieces: list):
    pieces.append('"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"')


def _render_dict(value: dict, pieces: list):
    pieces.append("{")
    for i, (key, item) in enumerate(value.items()):
        if i:
            pieces.append(", ")
        pieces.append('"' + str(key) + '": ')
        _render_value(item, pieces)
    pieces.append("}")


def _render_items(items, pieces: list):
    pieces.append("[")
    for i, item in enumerate(items):
        if i:
            pieces.append(", ")
        _render_value(item, pieces)
    pieces.append("]")


def _render_array(value: np.ndarray, pieces: list):
    if (text := _row_text(value)) is None:
        _render_items(value.tolist(), pieces)
    else:
        pieces.append(text)


#: How a value of each type a report holds is written, by its exact type (a bool
#: is not written as the int it also is).  A numpy scalar is written as its
#: ``.item()``, the builtin value of the same number.
_RENDER_BY_TYPE = {
    type(None): lambda value, pieces: pieces.append("null"),
    bool: lambda value, pieces: pieces.append("true" if value else "false"),
    int: lambda value, pieces: pieces.append(str(value)),
    float: lambda value, pieces: pieces.append(format_float(value)),
    complex: lambda value, pieces: pieces.append(_format_complex(value)),
    str: _render_str,
    dict: _render_dict,
    list: _render_items,
    tuple: _render_items,
    np.ndarray: _render_array,
}


def _render_value(value, pieces: list):
    item = value
    render = _RENDER_BY_TYPE.get(type(item))
    if render is None and isinstance(value, np.generic):
        item = value.item()
        render = _RENDER_BY_TYPE.get(type(item))
    if render is None:
        raise TypeError(f"cannot serialize value of type {type(value)!r}")
    render(item, pieces)


def render_object(record: ReportRecord) -> str:
    """Self-contained structured document (JSON-compatible when finite)."""
    pieces: list = []
    _render_value(record.to_object(), pieces)
    return "".join(pieces) + "\n"


def _cell_value_text(value) -> str:
    pieces: list = []
    _render_value(value, pieces)
    text = "".join(pieces)
    return text.strip('"') if isinstance(value, str) else text


def render_table(record: ReportRecord) -> str:
    """Flat tab-separated rows, one per grid cell, with summary comments."""
    lines = [f"# experiment\t{record.experiment}"]
    for key, value in record.config_echo.items():
        lines.append(f"# config.{key}\t{_cell_value_text(value)}")
    if record.cells:
        columns: list = []
        for cell in record.cells:
            for key in cell:
                if key not in columns:
                    columns.append(key)
        lines.append("\t".join(columns))
        for cell in record.cells:
            lines.append("\t".join(_cell_value_text(cell.get(col)) for col in columns))
    for key, value in record.summary.items():
        lines.append(f"# summary.{key}\t{_cell_value_text(value)}")
    return "\n".join(lines) + "\n"


def render(record: ReportRecord, output_format: str) -> str:
    if output_format == "table":
        return render_table(record)
    return render_object(record)

