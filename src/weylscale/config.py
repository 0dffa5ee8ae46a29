"""Experiment configuration: YAML documents with exact-expression numbers.

Worked equilibrium cases live at exact spectral points (logarithms,
rationals), and interval-endpoint semantics downstream depend on hitting
them without decimal round-off.  Numeric fields therefore accept, besides
plain decimals, the exact expressions ``"e"``, ``"pi"``, ``"p/q"`` rationals,
and ``"ln(x)"`` / ``"sqrt(x)"`` / ``"exp(x)"`` with a numeric argument,
evaluated once at parse time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from .errors import ConfigInvalid, WeylscaleError
from .spectral import INF, OperatorSpec
from .kms import default_time_grid

#: PyYAML's libyaml-backed safe loader when it was built with libyaml; the
#: constructors are the same Python ones, so the parsed documents are too.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_FUNCTIONS = {"ln": math.log, "log": math.log, "sqrt": math.sqrt, "exp": math.exp}
_CONSTANTS = {"e": math.e, "pi": math.pi, "inf": INF, "INF": INF}

_FUNC_RE = re.compile(r"^(ln|log|sqrt|exp)\s*\(?\s*([^)]*?)\s*\)?$")


def parse_number(value, where: str = "value") -> float:
    """Resolve a decimal or exact-expression scalar to a float."""
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
        match = _FUNC_RE.match(text)
        if match:
            fn, arg = match.groups()
            try:
                return _FUNCTIONS[fn](parse_number(arg, where))
            except (ValueError, OverflowError) as exc:
                raise ConfigInvalid(f"{where}: cannot evaluate {value!r} ({exc})") from exc
        if "/" in text:
            num, _, den = text.partition("/")
            denominator = parse_number(den, where)
            if denominator == 0:
                raise ConfigInvalid(f"{where}: zero denominator in {value!r}")
            return parse_number(num, where) / denominator
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


def _parse_multiplicity(value, where: str) -> float:
    if isinstance(value, str) and value.strip() in ("INF", "inf"):
        return INF
    number = parse_number(value, where)
    if number == INF:
        return INF
    if not math.isfinite(number) or number != int(number) or number <= 0:
        raise ConfigInvalid(f"{where}: multiplicity must be a positive integer or INF")
    return int(number)


def _parse_integer(value, where: str, minimum: int | None = None) -> int:
    """A strictly integral number; a fractional or non-finite value is rejected."""
    number = parse_number(value, where)
    if not math.isfinite(number) or number != int(number):
        raise ConfigInvalid(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise ConfigInvalid(f"{where}: must be at least {minimum}")
    return int(number)


def _real_rows(rows: list) -> np.ndarray | None:
    """The matrix as one float array when every entry is a plain int or float.

    ``type(x)`` rather than ``isinstance`` keeps booleans out; any other entry,
    or an int too large for a float, returns None so the per-entry parser
    reports it.
    """
    if not all(type(x) in (int, float) for row in rows for x in row):
        return None
    try:
        return np.array(rows, dtype=float)
    except OverflowError:
        return None


def _parse_operator(section, where: str) -> OperatorSpec:
    if not isinstance(section, dict):
        raise ConfigInvalid(f"{where}: expected a mapping with 'matrix' or 'atoms'")
    if "matrix" in section:
        rows = section["matrix"]
        if not isinstance(rows, list) or not rows or not all(isinstance(row, list) for row in rows):
            raise ConfigInvalid(f"{where}.matrix: expected a nested list")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ConfigInvalid(f"{where}.matrix: rows of unequal length")
        entries = _real_rows(rows)
        if entries is None:
            entries = [
                [parse_complex(x, f"{where}.matrix[{i}][{j}]") for j, x in enumerate(row)]
                for i, row in enumerate(rows)
            ]
        try:
            return OperatorSpec.from_matrix(entries)
        except WeylscaleError as exc:
            raise ConfigInvalid(f"{where}.matrix: {exc}") from exc
    if "atoms" in section:
        if not isinstance(section["atoms"], list):
            raise ConfigInvalid(f"{where}.atoms: expected a list of [value, multiplicity] pairs")
        pairs = []
        for i, item in enumerate(section["atoms"]):
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ConfigInvalid(f"{where}.atoms[{i}]: expected [value, multiplicity]")
            pairs.append(
                (
                    parse_number(item[0], f"{where}.atoms[{i}].value"),
                    _parse_multiplicity(item[1], f"{where}.atoms[{i}].multiplicity"),
                )
            )
        try:
            return OperatorSpec.from_atoms(pairs)
        except WeylscaleError as exc:
            raise ConfigInvalid(f"{where}.atoms: {exc}") from exc
    raise ConfigInvalid(f"{where}: needs 'matrix' or 'atoms'")


def _parse_grid(section, where: str, default: np.ndarray | None = None) -> np.ndarray:
    if section is None:
        if default is None:
            raise ConfigInvalid(f"{where}: missing grid")
        return default
    if isinstance(section, list):
        return np.asarray([parse_number(x, f"{where}[{i}]") for i, x in enumerate(section)])
    if isinstance(section, dict):
        for key in ("start", "stop", "count"):
            if key not in section:
                raise ConfigInvalid(f"{where}.{key}: missing")
        count = _parse_integer(section["count"], f"{where}.count", minimum=1)
        start = parse_number(section["start"], f"{where}.start")
        stop = parse_number(section["stop"], f"{where}.stop")
        if not math.isfinite(stop - start):
            raise ConfigInvalid(f"{where}: start and stop must be finite, with a finite difference")
        return np.linspace(start, stop, count)
    raise ConfigInvalid(f"{where}: expected a list or start/stop/count mapping")


def _parse_time_grid(section) -> np.ndarray:
    """The t_grid: finite points in strictly increasing order, at least one."""
    grid = _parse_grid(section, "t_grid", default_time_grid())
    if grid.size == 0:
        raise ConfigInvalid("t_grid: needs at least one point")
    if not np.all(np.isfinite(grid)):
        raise ConfigInvalid("t_grid: points must be finite")
    if np.any(np.diff(grid) <= 0):
        raise ConfigInvalid("t_grid: points must be strictly increasing")
    return grid


def _section(raw: dict, key: str) -> dict:
    """The mapping under ``key``; absent or null is empty, any other value an error."""
    section = raw.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigInvalid(f"{key}: expected a mapping")
    return section


_DEFAULT_TOLERANCES = {
    "gram": 1e-10,
    "residual": 1e-10,
    "gns": 1e-5,
    "arithmetic": 1e-12,
    "pointwise": 1e-14,
    "two_route": 1e-12,
}


def check_tolerance(value: float, where: str) -> float:
    """A tolerance must be a number at least 0; NaN and negatives fail every cell."""
    if not value >= 0:
        raise ConfigInvalid(f"{where}: must be at least 0, got {value}")
    return value


@dataclass
class ExperimentConfig:
    """Resolved experiment inputs shared by every suite."""

    operator: OperatorSpec | None = None
    hamiltonian: OperatorSpec | None = None
    beta: float | None = None
    dimension: int | None = None
    vectors_explicit: tuple | None = None
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
        known = {
            "space",
            "operator",
            "vectors",
            "h_values",
            "h_grid",
            "t_grid",
            "cutoff",
            "tolerances",
            "output",
            "experiment",
        }
        for key in raw:
            if key not in known:
                raise ConfigInvalid(f"{key}: unknown section")
        config = cls()

        space = _section(raw, "space")
        if "dimension" in space:
            config.dimension = _parse_integer(space["dimension"], "space.dimension", minimum=1)

        operator = raw.get("operator")
        if operator is not None:
            if not isinstance(operator, dict):
                raise ConfigInvalid("operator: expected a mapping")
            if "kms" in operator:
                kms_section = operator["kms"]
                if not isinstance(kms_section, dict) or "beta" not in kms_section:
                    raise ConfigInvalid("operator.kms: needs 'beta' and a hamiltonian")
                config.beta = parse_number(kms_section["beta"], "operator.kms.beta")
                ham = {
                    k: v for k, v in kms_section.items() if k in ("matrix", "atoms")
                }
                if not ham:
                    raise ConfigInvalid("operator.kms: needs 'matrix' or 'atoms' for the hamiltonian")
                config.hamiltonian = _parse_operator(ham, "operator.kms")
            else:
                config.operator = _parse_operator(operator, "operator")

        vectors = raw.get("vectors")
        if vectors is not None:
            if not isinstance(vectors, dict):
                raise ConfigInvalid("vectors: expected a mapping")
            if "explicit" in vectors:
                explicit = vectors["explicit"]
                if not isinstance(explicit, list) or not explicit:
                    raise ConfigInvalid("vectors.explicit: expected a non-empty list of vectors")
                for i, vec in enumerate(explicit):
                    if not isinstance(vec, list):
                        raise ConfigInvalid(f"vectors.explicit[{i}]: expected a list of numbers")
                config.vectors_explicit = tuple(
                    np.asarray(
                        [parse_complex(x, f"vectors.explicit[{i}][{j}]") for j, x in enumerate(vec)]
                    )
                    for i, vec in enumerate(explicit)
                )
                for i, vec in enumerate(config.vectors_explicit):
                    if not np.all(np.isfinite(vec)):
                        raise ConfigInvalid(f"vectors.explicit[{i}]: NaN or infinite entries")
            elif "random" in vectors:
                random_section = vectors["random"]
                if not isinstance(random_section, dict):
                    raise ConfigInvalid("vectors.random: expected a mapping")
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

        for key, value in _section(raw, "tolerances").items():
            if key not in _DEFAULT_TOLERANCES:
                raise ConfigInvalid(f"tolerances.{key}: unknown tolerance")
            where = f"tolerances.{key}"
            config.tolerances[key] = check_tolerance(parse_number(value, where), where)

        config.output_format = _section(raw, "output").get("format", "object")
        if config.output_format not in ("object", "table"):
            raise ConfigInvalid(f"output.format: expected 'object' or 'table', got {config.output_format!r}")
        return config

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                raw = yaml.load(handle, Loader=_YAML_LOADER)
        except OSError as exc:
            raise ConfigInvalid(f"config file: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigInvalid(f"config file: invalid YAML ({exc})") from exc
        return cls.from_dict(raw or {})

    # -- derived views --------------------------------------------------------

    def space_dimension(self) -> int:
        if self.dimension is not None:
            return self.dimension
        if self.operator is not None and self.operator.is_matrix:
            return self.operator.matrix.shape[0]
        if self.hamiltonian is not None and self.hamiltonian.is_matrix:
            return self.hamiltonian.matrix.shape[0]
        raise ConfigInvalid("space.dimension: required when no matrix operator fixes it")

    def rng(self) -> np.random.Generator:
        if self.seed is None:
            raise ConfigInvalid("vectors.random.seed: required for reproducibility")
        return np.random.default_rng(self.seed)

    def tolerance(self, name: str) -> float:
        return self.tolerances[name]


def random_complex_vectors(rng: np.random.Generator, count: int, dim: int) -> list[np.ndarray]:
    """Standard complex Gaussian sample, deterministic given the generator state."""
    return [
        (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2)
        for _ in range(count)
    ]
