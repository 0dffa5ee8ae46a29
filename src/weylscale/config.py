"""Experiment configuration: YAML documents with exact-expression numbers.

Worked equilibrium cases live at exact spectral points (logarithms,
rationals), and the exact eigenvalue comparisons downstream depend on
hitting them without decimal round-off.  Numeric fields therefore accept, besides
plain decimals, the exact expressions ``"e"``, ``"pi"``, ``"p/q"`` quotients
(read left to right), and ``"ln(x)"`` / ``"sqrt(x)"`` / ``"exp(x)"`` with a
numeric argument, evaluated once at parse time.  An expression nests at most
``MAX_EXPRESSION_DEPTH`` functions and quotients and has balanced
parentheses; any other is a config error.

The operator is always a matrix, given in one of two ways: ``operator:
{matrix: rows}`` is the covariance itself, and ``operator: {kms: {beta: b,
matrix: rows}}`` a Hamiltonian whose ``beta``-KMS state has the covariance.
An entry of the rows is a number, a complex literal or an ``[re, im]`` pair,
and so is an entry of the ``vectors.explicit`` block.  Every such numeric
block, rows of equal length, becomes one complex array, each entry read as
:func:`parse_complex` reads it.  The explicit vectors stay that one array,
its rows, up to the suites.  Every mapping but the free-form
``experiment`` section takes only its own keys: an unknown key, at the top
or inside a section, is a config error naming it, and so are both
``vectors`` sources at once.

``ExperimentConfig.from_file`` reads a UTF-8 file as YAML 1.1 with PyYAML's
safe loader, except that PyYAML does not build one node per matrix or vector
entry.  The block reader takes out the numeric rows of two layouts:

- the ``<indent>- [tok, tok, ...]`` lines directly under a ``matrix:`` key line;
- a one-line ``<indent>explicit: [[tok, ...], [tok, ...], ...]``;

and reads a block whose rows hold only the bytes ``0123456789.eE+-j", `` with
the JSON parser, eight rows a call, cast by numpy to the complex array that
``from_dict`` takes as it stands.  The JSON values are the values of PyYAML's
document: a JSON integer is a YAML 1.1 int; any other JSON number is a YAML
1.1 float, ``sign * float(rest)``, or a string (``1e-05``, ``1.0e5``) that
:func:`parse_number` reads as ``float()`` does, as JSON does; and a quoted
literal is a string that :func:`parse_complex` reads as ``complex()`` does,
as numpy's cast does.  Each block leaves a stand-in tagged
``!weylscale-rows`` in its place, and PyYAML, loading the rest of the text,
builds the block wherever it builds the stand-in.  Any other block (of other
bytes, such as ``true`` or a comment; one JSON refuses, such as ``.5``,
``+1`` or ``010``; ragged or empty rows; a literal ``complex()`` refuses; an
int too large for a float), and any ``matrix:`` or ``explicit:`` line in
another layout, sends the whole file through PyYAML, so ``012`` is octal 10
and ``190:20`` sexagesimal.  Anchors, tags, ``.inf``, ``1_000`` and ``[re,
im]`` pairs on those lines do the same.  So does a stand-in that PyYAML
builds as anything but a one-item sequence of its key or not at all (text in
a block scalar, say), a node of the file's own under that tag, and a rest
that is not valid YAML, so errors keep PyYAML's message, line and column.
"""

from __future__ import annotations

import functools
import io
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigInvalid, WeylscaleError
from .spectral import INF, OperatorSpec
from .kms import TWO_ROUTE_TOL, _time_grid, default_time_grid
from .states import GRAM_PSD_TOL

#: PyYAML's libyaml-backed safe loader when it was built with libyaml; the
#: constructors are the same Python ones, so the parsed documents are too.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_FUNCTIONS = {"ln": math.log, "log": math.log, "sqrt": math.sqrt, "exp": math.exp}
_CONSTANTS = {"e": math.e, "pi": math.pi, "inf": INF, "INF": INF}

#: A function name and the rest of the expression: its argument, in
#: parentheses or, without them, all of the rest (``"ln2/3"`` is ``ln(2/3)``).
_FUNC_RE = re.compile(r"(ln|log|sqrt|exp)\s*(.*)", re.DOTALL)

#: Deepest nesting of functions and quotients in one exact expression.
MAX_EXPRESSION_DEPTH = 100


def _balanced(text: str) -> bool:
    """Whether every parenthesis of ``text`` closes one opened before it, and all close."""
    depth = 0
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def _last_quotient_slash(text: str) -> int:
    """Index of the last ``/`` outside parentheses of a balanced ``text``, or -1."""
    depth, slash = 0, -1
    for i, char in enumerate(text):
        if char in "()":
            depth += 1 if char == "(" else -1
        elif char == "/" and depth == 0:
            slash = i
    return slash


def parse_number(value, where: str = "value", _depth: int = 0) -> float:
    """Resolve a decimal or exact-expression scalar to a float.

    A chain of quotients is read left to right (``"1/2/4"`` is 0.125), and a
    function applies to its parenthesized argument (``"ln(2)/3"``) or, without
    parentheses, to all of the rest of the text (``"ln2/3"``).
    """
    if _depth > MAX_EXPRESSION_DEPTH:
        raise ConfigInvalid(f"{where}: expression nested more than {MAX_EXPRESSION_DEPTH} levels deep")
    if isinstance(value, bool):
        raise ConfigInvalid(f"{where}: expected a number, got a boolean")
    if isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError as exc:
            raise ConfigInvalid(f"{where}: {value!r} is too large for a float") from exc
    if isinstance(value, str):
        text = value.strip()
        if text in _CONSTANTS:
            return _CONSTANTS[text]
        # the parts a balanced text is split into below are balanced, so check once
        if _depth == 0 and not _balanced(text):
            raise ConfigInvalid(f"{where}: unbalanced parentheses in {value!r}")
        match = _FUNC_RE.fullmatch(text)
        if match:
            fn, arg = match.groups()
            if arg.startswith("("):
                # "ln(2)/3" is a quotient: the function's parentheses must close at the end
                arg = arg[1:-1] if arg.endswith(")") and _balanced(arg[1:-1]) else None
            if arg is not None:
                try:
                    return _FUNCTIONS[fn](parse_number(arg, where, _depth + 1))
                except (ValueError, OverflowError) as exc:
                    raise ConfigInvalid(f"{where}: cannot evaluate {value!r} ({exc})") from exc
        slash = _last_quotient_slash(text)
        if slash >= 0:
            denominator = parse_number(text[slash + 1 :], where, _depth + 1)
            if denominator == 0:
                raise ConfigInvalid(f"{where}: zero denominator in {value!r}")
            return parse_number(text[:slash], where, _depth + 1) / denominator
        try:
            return float(text)
        except ValueError:
            pass
    raise ConfigInvalid(f"{where}: cannot parse number {value!r}")


def parse_complex(value, where: str = "value") -> complex:
    """A number, a '1+2j' string, or an [re, im] pair."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ConfigInvalid(f"{where}: complex pair needs exactly two entries")
        return complex(parse_number(value[0], where), parse_number(value[1], where))
    if isinstance(value, str) and "j" in value:
        try:
            return complex(value.replace(" ", ""))
        except ValueError as exc:
            raise ConfigInvalid(f"{where}: cannot parse complex {value!r}") from exc
    return complex(parse_number(value, where))


def _parse_integer(value, where: str, minimum: int | None = None) -> int:
    """A strictly integral number; a fractional or non-finite value is rejected."""
    number = parse_number(value, where)
    if not math.isfinite(number) or number != int(number):
        raise ConfigInvalid(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigInvalid(f"{where}: must be at least {minimum}")
    return int(number)


def _built(where: str, build, *args):
    """``build(*args)``, with a model error re-raised as a config error at ``where``."""
    try:
        return build(*args)
    except WeylscaleError as exc:
        raise ConfigInvalid(f"{where}: {exc}") from exc


def _allocated(where: str, build, *args):
    """``build(*args)``, with numpy's refusal of an array size (``MemoryError``,
    or ``ValueError`` past its largest array) re-raised as a config error at ``where``."""
    try:
        return build(*args)
    except (MemoryError, ValueError) as exc:
        raise ConfigInvalid(f"{where}: {exc}") from exc


#: Most points of a grid: numpy allocates no float64 array of more bytes than
#: the largest ``intp``, and ``linspace`` fails on an ``IndexError`` near 2**63 points.
_MAX_GRID_POINTS = np.iinfo(np.intp).max // 8


def _cast_block(rows: list, where: str) -> np.ndarray:
    """The rows at ``where`` as one complex array, every entry read by
    :func:`parse_complex`, so every message names ``where[i][j]``."""
    if any(len(row) != len(rows[0]) for row in rows):
        raise ConfigInvalid(f"{where}: rows of unequal length")
    return np.array(
        [[parse_complex(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)] for i, row in enumerate(rows)],
        dtype=complex,
    )


def _is_cast(block) -> bool:
    """Whether ``block`` is one the file reader cast already: a non-empty 2-D complex array."""
    return isinstance(block, np.ndarray) and block.dtype == complex and block.ndim == 2 and block.size > 0


def _explicit_vectors(explicit) -> np.ndarray:
    """The ``vectors.explicit`` block as the rows of one array, every entry a finite complex number."""
    if not _is_cast(explicit):
        if not isinstance(explicit, list) or not explicit:
            raise ConfigInvalid("vectors.explicit: expected a non-empty list of vectors")
        for i, vec in enumerate(explicit):
            if not isinstance(vec, list):
                raise ConfigInvalid(f"vectors.explicit[{i}]: expected a list of numbers")
        explicit = _cast_block(explicit, "vectors.explicit")
    finite = np.isfinite(explicit).all(axis=1)
    if not finite.all():
        raise ConfigInvalid(f"vectors.explicit[{int(np.argmin(finite))}]: NaN or infinite entries")
    return explicit


def _parse_operator(rows, where: str) -> OperatorSpec:
    """The matrix operator of the rows at ``where``, ``operator.matrix`` or ``operator.kms.matrix``."""
    if not _is_cast(rows):
        if not isinstance(rows, list) or not rows or not all(isinstance(row, list) for row in rows):
            raise ConfigInvalid(f"{where}: expected a nested list")
        # cast outside _built: an entry's message already names where it is
        rows = _cast_block(rows, where)
    return _built(where, OperatorSpec.from_matrix, rows)


def _parse_grid(section, where: str, default: np.ndarray | None = None) -> np.ndarray:
    if section is None:
        if default is None:
            raise ConfigInvalid(f"{where}: missing grid")
        return default
    if isinstance(section, list):
        return np.asarray([parse_number(x, f"{where}[{i}]") for i, x in enumerate(section)])
    if isinstance(section, dict):
        _known(section, where, ("start", "stop", "count"))
        for key in ("start", "stop", "count"):
            if key not in section:
                raise ConfigInvalid(f"{where}.{key}: missing")
        count = _parse_integer(section["count"], f"{where}.count", minimum=1)
        if count > _MAX_GRID_POINTS:
            raise ConfigInvalid(f"{where}.count: {count} points exceed the largest array numpy allocates")
        start = parse_number(section["start"], f"{where}.start")
        stop = parse_number(section["stop"], f"{where}.stop")
        if not math.isfinite(stop - start):
            raise ConfigInvalid(f"{where}: start and stop must be finite, with a finite difference")
        return _allocated(f"{where}.count", np.linspace, start, stop, count)
    raise ConfigInvalid(f"{where}: expected a list or start/stop/count mapping")


def _parse_time_grid(section) -> np.ndarray:
    """The t_grid: finite points in strictly increasing order, at least one."""
    return _built("t_grid", _time_grid, _parse_grid(section, "t_grid", default_time_grid()))


def _section(raw: dict, key: str) -> dict:
    """The mapping under ``key``; absent or null is empty, any other value an error."""
    section = raw.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigInvalid(f"{key}: expected a mapping")
    return section


def _known(section: dict, where: str, keys: tuple) -> dict:
    """``section``, the mapping at ``where`` ("" at the top), when each of its keys is one of ``keys``."""
    for key in section:
        if key not in keys:
            raise ConfigInvalid(f"{where}.{key}: unknown key" if where else f"{key}: unknown key")
    return section


#: The report formats, of ``output.format`` and of the CLI's ``--format``.
OUTPUT_FORMATS = ("object", "table")


_DEFAULT_TOLERANCES = {
    "gram": GRAM_PSD_TOL,
    "residual": 1e-10,
    "gns": 1e-5,
    "arithmetic": 1e-12,
    "pointwise": 1e-14,
    "two_route": TWO_ROUTE_TOL,
}


def check_tolerance(value: float, where: str) -> float:
    """A tolerance must be a number at least 0; NaN and negatives fail every cell."""
    if not value >= 0:
        raise ConfigInvalid(f"{where}: must be at least 0, got {value}")
    return value


# -- reading a file: numeric blocks cast directly, the rest by PyYAML ----------

#: The bytes a block may hold.  They keep brackets, backslash escapes, ``J``
#: and the letters of ``true``, ``NaN`` and ``Infinity`` out of its JSON text,
#: so the text's values are numbers and quoted literals without escapes.
_BLOCK_BYTES = b'0123456789.eE+-j", '

#: The tag of a block's stand-in in the text PyYAML reads.
_ROWS_TAG = "!weylscale-rows"

#: Rows per JSON read: the 16384 entry objects of a whole 128 x 128 block,
#: held at once, raised a spectral-scan run's peak RSS by 0.8 MB.
_CAST_ROWS = 8


def _read_block(rows: list[str]) -> np.ndarray | None:
    """The complex array ``_cast_block`` makes of the flow rows ``[row]``,
    ``[row]``, ..., or None when they do not take the JSON read.

    Every ``_CAST_ROWS`` rows are read as one JSON array of rows and cast to
    float64, the cheaper cast, or, when they hold a quoted literal, to
    complex, whose cast of a string is ``complex()``'s.  A block of other
    bytes, a text JSON refuses, rows of unequal width, an empty block, a
    literal ``complex()`` refuses and an int past the largest float are None,
    and the file goes through PyYAML whole.
    """
    if "".join(rows).encode().translate(None, _BLOCK_BYTES):
        return None
    texts = ("],[".join(rows[start : start + _CAST_ROWS]) for start in range(0, len(rows), _CAST_ROWS))
    try:
        chunks = [np.array(json.loads(f"[[{text}]]"), complex if '"' in text else float) for text in texts]
        block = np.concatenate(chunks, dtype=complex)  # refuses chunks of another width
    except (ValueError, OverflowError):
        return None
    return block if block.size else None


def _take_rows(text: str) -> tuple[str, dict] | None:
    """``text`` with its row blocks replaced by tagged stand-ins, and each stand-in's block.

    The rows under a ``matrix:`` key line become ``matrix: !weylscale-rows``
    and the one row ``- "<i>"``, and an ``explicit: [[...]]`` line becomes
    ``explicit: !weylscale-rows ["<i>"]``, ``i`` counting the blocks from 0.
    Both keep the place of the block in the YAML structure, so wherever
    PyYAML builds the stand-in, :class:`_RowsLoader` puts the block there.  A
    block is the complex array :func:`_read_block` makes of its rows, under
    the key ``"<i>"``.  None when there is no block, or when a line that
    starts with ``matrix:`` or ``explicit:`` (after its indent) is not in this
    layout or its rows do not take the JSON read.
    """
    lines = text.split("\n")
    kept, blocks = [], {}
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        body = line.lstrip(" ")
        index = str(len(blocks))
        if body.startswith("matrix:"):
            first = lines[i] if i < len(lines) else ""
            if body != "matrix:" or not first.lstrip(" ").startswith("- ["):
                return None
            prefix = first[: first.index("-")] + "- ["
            start = i
            while i < len(lines) and lines[i].startswith(prefix):
                i += 1
            rows = lines[start:i]
            if not all(row.endswith("]") for row in rows):
                return None
            block = _read_block([row[len(prefix) : -1] for row in rows])
            kept += [f"{line} {_ROWS_TAG}", f'{prefix[:-1]}"{index}"']
        elif body.startswith("explicit:"):
            if not (body.startswith("explicit: [[") and body.endswith("]]")):
                return None
            block = _read_block(body[12:-2].split("], ["))
            kept.append(f'{line[: len(line) - len(body)]}explicit: {_ROWS_TAG} ["{index}"]')
        else:
            kept.append(line)
            continue
        if block is None:
            return None
        blocks[index] = block
    return ("\n".join(kept), blocks) if blocks else None


class _RowsLoader(_YAML_LOADER):
    """PyYAML's safe loader, building each tagged stand-in as the block it stands for.

    ``blocks`` maps each stand-in's key to its block; a stand-in built takes
    its block out of it.  A tagged node that is not a sequence of one key
    still in ``blocks`` raises ``ConstructorError``.
    """

    def __init__(self, stream, blocks: dict):
        super().__init__(stream)
        self.blocks = blocks

    def construct_rows(self, node):
        items = self.construct_sequence(node)
        if len(items) == 1 and type(items[0]) is str and items[0] in self.blocks:
            return self.blocks.pop(items[0])
        raise yaml.constructor.ConstructorError(None, None, "a stand-in holds no block", node.start_mark)


_RowsLoader.add_constructor(_ROWS_TAG, _RowsLoader.construct_rows)


def _load_yaml(text: str, name: str):
    """The document PyYAML's safe loader builds from ``text``, read as the file ``name``.

    The rows ``_take_rows`` finds are cast here and only the rest goes
    through PyYAML.  If that rest is not valid YAML, or a stand-in did not
    become its block (text in a block scalar, say, or a node of the file's
    own under the stand-ins' tag), the whole text goes through PyYAML, so
    the document and any error (line and column included) are PyYAML's.
    """
    taken = _take_rows(text)
    if taken is not None:
        stripped, blocks = taken
        try:
            document = yaml.load(stripped, Loader=functools.partial(_RowsLoader, blocks=blocks))
        except yaml.YAMLError:
            pass
        else:
            if not blocks:
                return document
    stream = io.StringIO(text)
    stream.name = name
    return yaml.load(stream, Loader=_YAML_LOADER)


@dataclass
class ExperimentConfig:
    """Resolved experiment inputs shared by every suite."""

    operator: OperatorSpec | None = None
    hamiltonian: OperatorSpec | None = None
    beta: float | None = None
    dimension: int | None = None
    vectors_explicit: np.ndarray | None = None
    random_count: int | None = None
    random_sets: int = 1
    seed: int | None = None
    h_values: tuple[float, ...] = ()
    t_grid: np.ndarray = field(default_factory=default_time_grid)
    cutoff: int = 40
    tolerances: dict = field(default_factory=lambda: dict(_DEFAULT_TOLERANCES))
    output_format: str = "object"

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigInvalid("top level: expected a mapping")
        _known(raw, "", ("space", "operator", "vectors", "h_values", "h_grid", "t_grid", "cutoff", "tolerances",
                         "output", "experiment"))
        config = cls()

        space = _known(_section(raw, "space"), "space", ("dimension",))
        if "dimension" in space:
            config.dimension = _parse_integer(space["dimension"], "space.dimension", minimum=1)

        operator = raw.get("operator")
        if operator is not None:
            if not isinstance(operator, dict) or set(operator) not in ({"matrix"}, {"kms"}):
                raise ConfigInvalid("operator: expected a mapping with one key, 'matrix' or 'kms'")
            if "matrix" in operator:
                config.operator = _parse_operator(operator["matrix"], "operator.matrix")
            else:
                kms_section = operator["kms"]
                if not isinstance(kms_section, dict) or set(kms_section) != {"beta", "matrix"}:
                    raise ConfigInvalid("operator.kms: expected a mapping with keys 'beta' and 'matrix'")
                config.beta = parse_number(kms_section["beta"], "operator.kms.beta")
                config.hamiltonian = _parse_operator(kms_section["matrix"], "operator.kms.matrix")

        vectors = raw.get("vectors")
        if vectors is not None:
            if not isinstance(vectors, dict):
                raise ConfigInvalid("vectors: expected a mapping")
            _known(vectors, "vectors", ("explicit", "random"))
            if len(vectors) > 1:
                raise ConfigInvalid("vectors: give either 'explicit' or 'random', not both")
            if "explicit" in vectors:
                config.vectors_explicit = _explicit_vectors(vectors["explicit"])
            elif "random" in vectors:
                random_section = vectors["random"]
                if not isinstance(random_section, dict):
                    raise ConfigInvalid("vectors.random: expected a mapping")
                _known(random_section, "vectors.random", ("seed", "count", "sets"))
                if "seed" not in random_section:
                    raise ConfigInvalid("vectors.random.seed: required for reproducibility")
                config.seed = _parse_integer(
                    random_section["seed"], "vectors.random.seed", minimum=0
                )
                config.random_count = _parse_integer(
                    random_section.get("count", 1), "vectors.random.count", minimum=1
                )
                config.random_sets = _parse_integer(
                    random_section.get("sets", 1), "vectors.random.sets", minimum=1
                )
            else:
                raise ConfigInvalid("vectors: needs 'explicit' or 'random'")

        if "h_values" in raw and "h_grid" in raw:
            raise ConfigInvalid("h_values: give either h_values or h_grid, not both")
        if "h_values" in raw:
            if not isinstance(raw["h_values"], list):
                raise ConfigInvalid("h_values: expected a list of numbers")
            config.h_values = tuple(
                parse_number(x, f"h_values[{i}]") for i, x in enumerate(raw["h_values"])
            )
        elif "h_grid" in raw:
            config.h_values = tuple(_parse_grid(raw["h_grid"], "h_grid").tolist())

        config.t_grid = _parse_time_grid(raw.get("t_grid"))

        if "cutoff" in raw:
            config.cutoff = _parse_integer(raw["cutoff"], "cutoff")

        for key, value in _known(_section(raw, "tolerances"), "tolerances", tuple(_DEFAULT_TOLERANCES)).items():
            where = f"tolerances.{key}"
            config.tolerances[key] = check_tolerance(parse_number(value, where), where)

        config.output_format = _known(_section(raw, "output"), "output", ("format",)).get("format", "object")
        if config.output_format not in OUTPUT_FORMATS:
            raise ConfigInvalid(f"output.format: expected 'object' or 'table', got {config.output_format!r}")
        return config

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text, name = handle.read(), handle.name
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigInvalid(f"config file: {exc}") from exc
        try:
            raw = _load_yaml(text, name)
        except yaml.YAMLError as exc:
            raise ConfigInvalid(f"config file: invalid YAML ({exc})") from exc
        except ValueError as exc:  # from PyYAML's constructors: an int over Python's digit limit, say
            raise ConfigInvalid(f"config file: {exc}") from exc
        return cls.from_dict(raw or {})

    # -- derived views --------------------------------------------------------

    def space_dimension(self) -> int:
        if self.dimension is not None:
            return self.dimension
        if self.operator is not None:
            return self.operator.dimension
        if self.hamiltonian is not None:
            return self.hamiltonian.dimension
        raise ConfigInvalid("space.dimension: required when no matrix operator fixes it")

    def rng(self) -> np.random.Generator:
        if self.seed is None:
            raise ConfigInvalid("vectors.random.seed: required for reproducibility")
        return np.random.default_rng(self.seed)


def random_complex_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Standard complex Gaussian sample as the rows of a ``(count, dim)`` array,
    deterministic given the generator state.

    One draw of ``count * 2 * dim`` normals fills the rows in order, each
    row's ``dim`` real parts before its ``dim`` imaginary parts, so a row is
    the vector that drawing its real and then its imaginary part would give.
    """
    parts = rng.standard_normal((count, 2, dim))
    return (parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2)
