"""Reference renderer for the report writer's type table.

``weylscale.report`` writes the builtin types a report holds through a table
keyed by the exact type.  The tests check its documents against the ones
written here by an ``isinstance`` chain over every value, which shares only the
package's float, complex and array-row formatting.
"""

import numpy as np

from weylscale.report import _format_complex, _row_text, format_float


def render_value(value, pieces: list):
    if value is None:
        pieces.append("null")
    elif isinstance(value, (bool, np.bool_)):
        pieces.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        pieces.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        pieces.append(format_float(float(value)))
    elif isinstance(value, (complex, np.complexfloating)):
        pieces.append(_format_complex(complex(value)))
    elif isinstance(value, str):
        pieces.append('"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(value, np.ndarray) and (text := _row_text(value)) is not None:
        pieces.append(text)
    elif isinstance(value, dict):
        pieces.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                pieces.append(", ")
            pieces.append('"' + str(key) + '": ')
            render_value(item, pieces)
        pieces.append("}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        items = value.tolist() if isinstance(value, np.ndarray) else value
        pieces.append("[")
        for i, item in enumerate(items):
            if i:
                pieces.append(", ")
            render_value(item, pieces)
        pieces.append("]")
    else:
        raise TypeError(f"cannot serialize value of type {type(value)!r}")


def render_object(record) -> str:
    pieces: list = []
    render_value(record.to_object(), pieces)
    return "".join(pieces) + "\n"


def _cell_value_text(value) -> str:
    pieces: list = []
    render_value(value, pieces)
    text = "".join(pieces)
    return text.strip('"') if isinstance(value, str) else text


def render_table(record) -> str:
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
