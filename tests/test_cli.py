import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weylscale
from weylscale.cli import build_parser, main
from weylscale.config import MAX_EXPRESSION_DEPTH, ExperimentConfig, parse_complex, parse_number
from weylscale.errors import ConfigInvalid
from weylscale.report import ReportRecord, render_object, render_table
from weylscale.runner import (
    SUITES,
    run_gns_check,
    run_kms_verify,
    run_positivity_scan,
    run_rescale_fock,
    run_restrict_scan,
)


class TestNumberParsing:
    @pytest.mark.parametrize(
        "text, expected",
        [
            (0.25, 0.25),
            (3, 3.0),
            ("e", math.e),
            ("pi", math.pi),
            ("ln2", math.log(2)),
            ("ln(2)", math.log(2)),
            ("log(4)", math.log(4)),
            ("sqrt(2)", math.sqrt(2)),
            ("exp(1.5)", math.exp(1.5)),
            ("3/4", 0.75),
            ("1/3", 1.0 / 3.0),
            ("-2.5e-1", -0.25),
            # quotients are read left to right
            ("1/2/4", 0.125),
            ("8/2/2", 2.0),
            ("exp(1)/exp(1)/2", 0.5),
            # a function's parentheses bound its argument; without them it takes the rest
            ("ln(1/2)/3", math.log(0.5) / 3),
            ("ln(2)/3", math.log(2) / 3),
            ("ln2/3", math.log(2 / 3)),
            ("exp(ln(9)/2)", math.exp(math.log(9) / 2)),
            ("lnln(4)", math.log(math.log(4))),
            ("sqrt( 4 )", 2.0),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_number(text) == expected

    def test_rejected(self):
        for bad in ("spam", "1/0", None, [1], "ln(-1)", "sqrt(-4)", "exp(1000)", "log(0)", 10**400):
            with pytest.raises(ConfigInvalid):
                parse_number(bad)

    @pytest.mark.parametrize("text", ["sqrt(4", "sqrt4)", "ln(2", "(1/2", "1/(2", "ln(2))"])
    def test_unbalanced_parentheses_rejected(self, text):
        with pytest.raises(ConfigInvalid, match=r"^beta: unbalanced parentheses in "):
            parse_number(text, "beta")

    def test_quotient_zero_denominator_anywhere_in_a_chain(self):
        for text in ("1/0/2", "1/2/0"):
            with pytest.raises(ConfigInvalid, match="zero denominator"):
                parse_number(text)

    def test_nesting_depth_is_bounded(self):
        assert parse_number("sqrt" * MAX_EXPRESSION_DEPTH + "4") == pytest.approx(1.0)
        for deep in ("sqrt" * (MAX_EXPRESSION_DEPTH + 1) + "4", "1/" * (MAX_EXPRESSION_DEPTH + 1) + "1"):
            with pytest.raises(ConfigInvalid, match=f"^beta: expression nested more than {MAX_EXPRESSION_DEPTH} levels deep$"):
                parse_number(deep, "beta")

    def test_complex_forms(self):
        assert parse_complex("1+2j") == 1 + 2j
        assert parse_complex([1, -1]) == 1 - 1j
        assert parse_complex("ln2") == math.log(2)


class TestConfigValidation:
    def test_random_vectors_need_seed(self):
        with pytest.raises(ConfigInvalid, match="seed"):
            ExperimentConfig.from_dict(
                {"operator": {"matrix": [[2]]}, "vectors": {"random": {"count": 3}}}
            )

    def test_empty_explicit_vectors_rejected(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_dict(
                {"operator": {"matrix": [[2]]}, "vectors": {"explicit": []}}
            )

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigInvalid, match="unknown"):
            ExperimentConfig.from_dict({"operators": {}})

    def test_kms_source(self):
        config = ExperimentConfig.from_dict(
            {"operator": {"kms": {"matrix": [["ln2"]], "beta": 1}}}
        )
        assert config.beta == 1.0
        assert config.hamiltonian.matrix[0, 0] == pytest.approx(math.log(2))

    def test_h_grid_expansion(self):
        config = ExperimentConfig.from_dict(
            {"operator": {"matrix": [[2]]}, "h_grid": {"start": 0.5, "stop": 2.5, "count": 9}}
        )
        assert len(config.h_values) == 9
        assert config.h_values[0] == 0.5 and config.h_values[-1] == 2.5

    @pytest.mark.parametrize(
        "section",
        [
            {"h_grid": {"start": 0.5, "stop": 2.5, "count": 2.7}},
            {"vectors": {"random": {"count": 2.5, "seed": 1}}},
            {"vectors": {"random": {"count": 2, "seed": 1.9}}},
            {"vectors": {"random": {"count": 2, "sets": 1.5, "seed": 1}}},
            {"vectors": {"random": {"count": 2, "seed": ".inf"}}},
            {"vectors": {"random": {"count": 2, "seed": -1}}},
            {"cutoff": 30.5},
            {"space": {"dimension": 2.5}},
        ],
    )
    def test_non_integral_fields_rejected(self, section):
        raw = {"operator": {"matrix": [[2]]}, **section}
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_dict(raw)

    def test_integral_floats_accepted(self):
        config = ExperimentConfig.from_dict(
            {
                "operator": {"matrix": [[2]]},
                "vectors": {"random": {"count": 3.0, "sets": 2.0, "seed": 4.0}},
                "h_grid": {"start": 0.5, "stop": 1.5, "count": 3.0},
                "cutoff": 20.0,
            }
        )
        assert (config.random_count, config.random_sets, config.seed) == (3, 2, 4)
        assert len(config.h_values) == 3 and config.cutoff == 20

    @pytest.mark.parametrize(
        "operator",
        [
            {"matrix": [[float("nan")]]},
            {"matrix": [[1.0, float("inf")], [float("inf"), 1.0]]},
            {"matrix": [[1.0, 2.0], [3.0, 1.0]]},
            {"atoms": [[0.0, 1]]},
            {"kms": {"matrix": [[float("nan")]], "beta": 1}},
        ],
    )
    def test_invalid_matrix_or_atoms_is_config_error(self, operator):
        with pytest.raises(ConfigInvalid, match="operator"):
            ExperimentConfig.from_dict({"operator": operator})

    def test_non_finite_explicit_vector_rejected(self):
        with pytest.raises(ConfigInvalid, match="vectors.explicit"):
            ExperimentConfig.from_dict(
                {"operator": {"matrix": [[2]]}, "vectors": {"explicit": [[float("nan")]]}}
            )


POSITIVITY_CONFIG = """
operator:
  matrix:
    - [1.5, 0, 0]
    - [0, 2, 0]
    - [0, 0, 4]
vectors:
  random: {count: 6, sets: 5, seed: 11}
h_values: [0.5, 1.0, 1.5, 2.0]
"""

KMS_CONFIG = """
operator:
  kms:
    matrix: [["ln2"]]
    beta: 1
vectors:
  random: {count: 2, seed: 3}
h_values: [0.25, 0.5, 1.0, 2.0]
"""

GNS_CONFIG = """
operator:
  matrix: [[2.0]]
vectors:
  random: {count: 3, seed: 9}
cutoff: 30
"""

RESCALE_CONFIG = """
space: {dimension: 2}
vectors:
  random: {count: 5, seed: 21}
h_values: [0.25, 0.5, 0.75]
"""

RESTRICT_CONFIG = """
operator:
  kms:
    matrix: [["ln2", 0], [0, "ln(4)"]]
    beta: 1
vectors:
  random: {count: 20, seed: 13}
h_values: [1.8, 2.0, 2.5]
"""


def _config(text):
    import yaml

    return ExperimentConfig.from_dict(yaml.safe_load(text))


@pytest.mark.parametrize(
    "text", [POSITIVITY_CONFIG, KMS_CONFIG, GNS_CONFIG, RESCALE_CONFIG, RESTRICT_CONFIG]
)
def test_file_loader_parses_like_safe_load(text):
    import yaml

    from weylscale.config import _YAML_LOADER

    assert yaml.load(text, Loader=_YAML_LOADER) == yaml.safe_load(text)


class TestSuites:
    def test_positivity_scan_cells(self):
        record = run_positivity_scan(_config(POSITIVITY_CONFIG))
        assert [cell["ok"] for cell in record.cells] == [True] * 4
        assert record.summary["h_max"] == 1.5
        assert record.summary["empirical_threshold"] == 1.5
        assert record.summary["first_failing_h"] == 2.0

    def test_kms_verify_paths(self):
        record = run_kms_verify(_config(KMS_CONFIG))
        paths = {cell["h"]: cell["path"] for cell in record.cells}
        assert paths == {0.25: "rescaled", 0.5: "rescaled", 1.0: "unrescaled", 2.0: "restricted"}
        assert all(cell["ok"] for cell in record.cells)
        assert record.summary["modular_exponential_ok"]
        assert record.summary["max_residual"] <= 1e-10

    def test_gns_check(self):
        record = run_gns_check(_config(GNS_CONFIG))
        assert all(cell["ok"] for cell in record.cells)
        assert record.summary["doubling_identity_ok"]

    def test_rescale_fock(self):
        record = run_rescale_fock(_config(RESCALE_CONFIG))
        assert all(cell["ok"] for cell in record.cells)
        assert record.summary["identity_quasi_equivalent_ok"]
        assert record.summary["finite_rank_quasi_equivalent_ok"]
        occupations = [cell["occupation_expectation"] for cell in record.cells]
        assert occupations == pytest.approx([1.5, 0.5, 1.0 / 6.0])

    def test_restrict_scan(self):
        record = run_restrict_scan(_config(RESTRICT_CONFIG))
        assert all(cell["ok"] for cell in record.cells)
        assert all(cell["subspace_dimension"] == 1 for cell in record.cells)
        assert record.summary["trace_property_ok"]
        assert record.summary["trace_property_deviation"] == 0.0

    def test_missing_operator_is_config_error(self):
        with pytest.raises(ConfigInvalid):
            run_positivity_scan(_config("h_values: [1.0]\n"))


class TestRendering:
    def test_seventeen_digit_floats(self):
        record = ReportRecord("demo", {"x": 1 / 3}, [{"value": 2.0 / 3.0, "ok": True}], {})
        text = render_object(record)
        assert "0.33333333333333331" in text
        assert "0.66666666666666663" in text

    def test_object_is_json_compatible(self):
        import json

        record = ReportRecord(
            "demo",
            {"x": 0.5},
            [{"value": complex(1.0, -2.0), "flag": None, "ok": True}],
            {"done_ok": True},
        )
        parsed = json.loads(render_object(record))
        assert parsed["cells"][0]["value"] == {"re": 1.0, "im": -2.0}
        assert parsed["summary"]["done_ok"] is True

    def test_table_rows(self):
        record = ReportRecord(
            "demo", {"x": 0.5}, [{"h": 1.0, "ok": True}, {"h": 2.0, "ok": False}], {"n": 2}
        )
        lines = render_table(record).strip().split("\n")
        assert lines[0] == "# experiment\tdemo"
        assert lines[1] == "# config.x\t0.5"
        assert lines[2] == "h\tok"
        assert lines[3] == "1\ttrue"
        assert lines[4] == "2\tfalse"


_SPECIAL_FLOATS = [
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    0.0,
    5e-324,
    2.2250738585072014e-308 / 3,
    1 / 3,
    -1e300,
    7.0,
]


def _special_array(dtype, shape):
    count = int(np.prod(shape))
    values = [_SPECIAL_FLOATS[k % len(_SPECIAL_FLOATS)] for k in range(count)]
    if np.dtype(dtype).kind == "c":
        # pair the special values with each other as real and imaginary parts
        shifted = [_SPECIAL_FLOATS[(3 * k + 1) % len(_SPECIAL_FLOATS)] for k in range(count)]
        values = [complex(a, b) for a, b in zip(values, shifted)]
    with np.errstate(over="ignore"):  # -1e300 becomes -inf in single precision
        return np.array(values, dtype=dtype).reshape(shape)


class TestArrayRendering:
    def test_format_float_special_values(self):
        from weylscale.report import format_float

        assert [format_float(x) for x in (math.nan, math.inf, -math.inf, -0.0, 5e-324)] == [
            '"NaN"',
            '"INF"',
            '"-INF"',
            "-0",
            "4.9406564584124654e-324",
        ]
        assert format_float(np.float64(1 / 3)) == "0.33333333333333331"

    @pytest.mark.parametrize("render", [render_object, render_table])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128, np.complex64])
    @pytest.mark.parametrize("shape", [(10,), (4, 5), (2, 3, 4), (0,), (3, 0)])
    def test_array_renders_like_python_lists(self, render, dtype, shape):
        array = _special_array(dtype, shape)
        as_lists = array.tolist()
        fast = render(
            ReportRecord("demo", {"entries": array}, [{"row": array, "ok": True}], {"a": array})
        )
        generic = render(
            ReportRecord("demo", {"entries": as_lists}, [{"row": as_lists, "ok": True}], {"a": as_lists})
        )
        assert fast == generic

    def test_operator_echo_renders_like_complex_lists(self, rng):
        from weylscale.runner import _operator_echo
        from weylscale.spectral import OperatorSpec

        matrix = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        op = OperatorSpec.from_matrix(matrix + matrix.conj().T + 20 * np.eye(5))
        echo = _operator_echo(op)
        assert echo["entries"] is op.matrix
        listed = dict(echo, entries=[[complex(x) for x in row] for row in op.matrix.tolist()])
        for render in (render_object, render_table):
            assert render(ReportRecord("demo", {"operator": echo})) == render(
                ReportRecord("demo", {"operator": listed})
            )


def _per_entry_operator(rows):
    """The reference: every entry through parse_complex, then from_matrix."""
    from weylscale.spectral import OperatorSpec

    entries = [
        [parse_complex(x, f"operator.matrix[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    return OperatorSpec.from_matrix(entries)


class TestMatrixParsing:
    @pytest.mark.parametrize(
        "rows",
        [
            [[2, 0.5], [0.5, 3]],
            [[1.5, -0.0, 0], [-0.0, 2, 1e-300], [0, 1e-300, 2**60 + 1]],
            [[3, 1, 0], [1, 3, 1], [0, 1, 3]],
            [[1 / 3]],
            [["ln2", 0], [0, "ln(4)"]],
            [[2, "1+2j"], ["1-2j", 7]],
            [[2, [0, 1]], [[0, -1], 2]],
            [[2, 0.5], [0.5, "3"]],
        ],
    )
    def test_other_rows_parse_entry_by_entry(self, rows):
        parsed = ExperimentConfig.from_dict({"operator": {"matrix": rows}}).operator
        reference = _per_entry_operator(rows)
        assert parsed.matrix.dtype == reference.matrix.dtype
        assert parsed.matrix.tobytes() == reference.matrix.tobytes()
        assert parsed.eigenvalues.tobytes() == reference.eigenvalues.tobytes()
        assert parsed.atoms == reference.atoms

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([[1, True], [True, 1]], "operator.matrix[0][1]: expected a number, got a boolean"),
            ([[1.0, 0], [0, False]], "operator.matrix[1][1]: expected a number, got a boolean"),
            ([[float("nan"), 0], [0, 1]], "operator.matrix: matrix has NaN or infinite entries"),
            ([[float("nan"), "0"], [0, 1]], "operator.matrix: matrix has NaN or infinite entries"),
            ([[1, 2], [3]], "operator.matrix: rows of unequal length"),
            ([[1, "2"], [3]], "operator.matrix: rows of unequal length"),
            ([1, 2], "operator.matrix: expected a nested list"),
            ([[1, 2], [3, "x"]], "operator.matrix[1][1]: cannot parse number 'x'"),
            ([[10**400]], "operator.matrix[0][0]: 1000"),
        ],
    )
    def test_rejections_name_the_entry(self, rows, message):
        with pytest.raises(ConfigInvalid) as info:
            ExperimentConfig.from_dict({"operator": {"matrix": rows}})
        assert str(info.value).startswith(message)


class TestCommandLine:
    def _write(self, tmp_path, text):
        path = tmp_path / "config.yaml"
        path.write_text(text)
        return str(path)

    def test_success_exit_code_and_output(self, tmp_path, capsys):
        config = self._write(tmp_path, GNS_CONFIG)
        out = tmp_path / "report.json"
        assert main(["gns-check", "--config", config, "--out", str(out)]) == 0
        assert out.read_text().startswith('{"experiment": "gns-check"')

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = self._write(tmp_path, "operator: {matrix: [[2]]}\n")
        assert main(["positivity-scan", "--config", config]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["gns-check", "--config", "/nonexistent.yaml"]) == 2

    def test_contract_violation_exit_code(self, tmp_path, capsys):
        # a scale outside (0, 1] cannot meet the rescale-fock cell contract
        config = self._write(
            tmp_path,
            """
space: {dimension: 1}
vectors:
  random: {count: 2, seed: 5}
h_values: [1.5]
""",
        )
        code = main(["rescale-fock", "--config", config, "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 3
        assert "contract violation" in err

    def test_non_finite_covariance_is_config_error(self, tmp_path, capsys):
        config = self._write(
            tmp_path,
            """
operator:
  matrix: [[.nan]]
vectors:
  random: {count: 2, seed: 4}
""",
        )
        with np.errstate(invalid="ignore"):
            code = main(["gns-check", "--config", config, "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "NaN or infinite" in capsys.readouterr().err

    def test_two_mode_cutoff_nine_within_memory_cap(self, tmp_path):
        # One doubled matrix at this size is 1.5 GiB; the run must fit in 1 GiB
        # of address space, which it only does if no doubled matrix is built.
        config = self._write(
            tmp_path,
            """
operator:
  matrix: [[2.0, 0.5], [0.5, 1.5]]
vectors:
  explicit: [[0.3, "0.3j"], ["-0.3j", 0.3]]
cutoff: 9
""",
        )
        limit = 2**30

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        # one BLAS thread: per-thread buffers would otherwise count against the cap
        threads = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env = {**os.environ, **threads, "PYTHONPATH": str(Path(weylscale.__file__).parents[1])}
        out = tmp_path / "r.json"
        result = subprocess.run(
            [sys.executable, "-m", "weylscale", "gns-check", "--config", config, "--out", str(out)],
            env=env,
            preexec_fn=cap_address_space,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert out.read_text().startswith('{"experiment": "gns-check"')

    def test_byte_identical_reruns(self, tmp_path, capsys):
        config = self._write(tmp_path, KMS_CONFIG)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["kms-verify", "--config", config, "--out", str(first)]) == 0
        assert main(["kms-verify", "--config", config, "--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_table_format_flag(self, tmp_path, capsys):
        config = self._write(tmp_path, GNS_CONFIG)
        assert main(["gns-check", "--config", config, "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# experiment\tgns-check")

    def test_negative_seed_override_is_config_error(self, tmp_path, capsys):
        config = self._write(tmp_path, GNS_CONFIG)
        out = tmp_path / "r.json"
        assert main(["gns-check", "--config", config, "--seed", "-1", "--out", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_kms_verify_nan_scale_is_invalid_cell(self, tmp_path, capsys):
        config = self._write(tmp_path, KMS_CONFIG.replace("[0.25, 0.5, 1.0, 2.0]", "[.nan, 0.5]"))
        out = tmp_path / "r.json"
        assert main(["kms-verify", "--config", config, "--out", str(out)]) == 3
        capsys.readouterr()
        text = out.read_text()
        assert text.count('"h": "NaN", "pair": 0, "path": "invalid"') == 1
        assert text.count('"path": "rescaled"') == 2

    def test_seed_override_changes_draws(self, tmp_path, capsys):
        config = self._write(tmp_path, GNS_CONFIG)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["gns-check", "--config", config, "--out", str(a)]) == 0
        assert main(["gns-check", "--config", config, "--seed", "123", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("override", [False, True], ids=["config-key", "--seed"])
    def test_a_seed_past_2_53_is_kept_exact(self, tmp_path, capsys, override):
        # 2^53 + 1 has no float: read through one it became 2^53, and drew 2^53's vectors
        reports = {}
        for seed in (2**53 + 1, 2**53):
            config = self._write(tmp_path, GNS_CONFIG if override else GNS_CONFIG.replace("seed: 9", f"seed: {seed}"))
            out = tmp_path / f"{seed}.json"
            argv = ["gns-check", "--config", config, "--out", str(out)]
            assert main(argv + (["--seed", str(seed)] if override else [])) == 0
            reports[seed] = json.loads(out.read_text())
        capsys.readouterr()
        assert reports[2**53 + 1]["config"]["vectors"]["seed"] == 9007199254740993
        assert reports[2**53 + 1]["cells"] != reports[2**53]["cells"]


class TestWorkedConfigurations:
    def test_two_level_threshold_grid(self):
        # 9-point grid over (0.5, 2.5): passes up to the spectral bottom 1.5,
        # two-point failure with a scan witness beyond it
        record = run_positivity_scan(
            _config(
                """
operator:
  matrix: [[1.5, 0], [0, 2]]
vectors:
  random: {count: 6, sets: 5, seed: 17}
h_grid: {start: 0.5, stop: 2.5, count: 9}
"""
            )
        )
        assert all(cell["ok"] for cell in record.cells)
        assert record.summary["empirical_threshold"] == 1.5
        by_h = {cell["h"]: cell for cell in record.cells}
        assert by_h[1.5]["two_point_pass"] is True
        assert by_h[1.75]["two_point_pass"] is False
        assert by_h[1.75]["witness_min_eigenvalue"] < -1e-8

    def test_identity_covariance_all_pass(self):
        record = run_positivity_scan(
            _config(
                """
operator:
  matrix: [[1, 0], [0, 1]]
vectors:
  random: {count: 4, sets: 3, seed: 23}
h_values: [0.25, 0.5, 0.75, 1.0]
"""
            )
        )
        assert all(cell["gram_all_psd"] and cell["ok"] for cell in record.cells)
        assert record.summary["first_failing_h"] is None

    def test_plain_covariance_restrict_scan(self):
        # no KMS data: subspace geometry and the dichotomy only
        record = run_restrict_scan(
            _config(
                """
operator:
  matrix: [[1, 0], [0, 3]]
vectors:
  random: {count: 10, seed: 29}
h_values: [1.5, 2.0, 2.5]
"""
            )
        )
        assert all(cell["ok"] for cell in record.cells)
        assert [cell["subspace_dimension"] for cell in record.cells] == [1, 1, 1]
        assert all(cell["dichotomy_exact"] for cell in record.cells)
        assert record.summary["trace_property_deviation"] == 0.0


def test_tolerance_override_can_force_failure(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text(GNS_CONFIG)
    out = tmp_path / "r.json"
    assert main(["gns-check", "--config", str(path), "--out", str(out)]) == 0
    # an impossibly tight tolerance turns the same run into a contract failure
    code = main(["gns-check", "--config", str(path), "--tol", "1e-20", "--out", str(out)])
    capsys.readouterr()
    assert code == 3


def test_restrict_scan_decreasing_grid_nesting():
    record = run_restrict_scan(
        _config(
            """
operator:
  matrix: [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
vectors:
  random: {count: 5, seed: 31}
h_values: [2.5, 1.5]
"""
        )
    )
    # grid runs downward: the later, smaller scale keeps a larger subspace
    assert [cell["subspace_dimension"] for cell in record.cells] == [1, 2]
    assert all(cell["nested"] and cell["ok"] for cell in record.cells)


def test_restrict_scan_at_an_exact_eigenvalue_keeps_the_correspondence(tmp_path):
    # 1.9999999999999998 is the middle covariance eigenvalue: e^ln3 rounds below lambda_star
    path = tmp_path / "config.yaml"
    path.write_text(
        'operator: {kms: {matrix: [["ln2", 0, 0], [0, "ln3", 0], [0, 0, "ln4"]], beta: 1}}\n'
        "vectors: {random: {count: 2, seed: 1}}\n"
        "h_values: [1.9999999999999998]\n"
    )
    out = tmp_path / "r.json"
    assert main(["restrict-scan", "--config", str(path), "--out", str(out)]) == 0
    (cell,) = json.loads(out.read_text())["cells"]
    assert cell["subspace_dimension"] == 1 and cell["spectral_correspondence"] is True


def test_restrict_scan_with_an_energy_whose_exponential_overflows(tmp_path):
    # e^800 is beyond the largest float; that atom's covariance value rounds to 1,
    # so neither the covariance nor the modular selection holds it
    path = tmp_path / "config.yaml"
    path.write_text(
        "operator: {kms: {matrix: [[0.5, 0], [0, 800.0]], beta: 1}}\n"
        "vectors: {random: {count: 2, seed: 1}}\n"
        "h_values: [1.5]\n"
    )
    out = tmp_path / "r.json"
    assert main(["restrict-scan", "--config", str(path), "--out", str(out)]) == 0
    (cell,) = json.loads(out.read_text())["cells"]
    assert cell["subspace_dimension"] == 1 and cell["spectral_correspondence"] is True


def test_table_union_of_cell_keys():
    from weylscale.report import render_table

    record = ReportRecord(
        "demo",
        {},
        [{"h": 3.5, "error": "out of range", "ok": False}, {"h": 2.0, "extra": 1, "ok": True}],
        {},
    )
    lines = render_table(record).strip().split("\n")
    assert lines[1] == "h\terror\tok\textra"
    assert lines[2] == "3.5\tout of range\tfalse\tnull"
    assert lines[3] == "2\tnull\ttrue\t1"


@pytest.mark.parametrize("h_values", ["[0, -1]", "[.inf]", "[1.0, .nan]", "[-.inf]"])
def test_positivity_scan_rejects_invalid_scale(tmp_path, capsys, h_values):
    path = tmp_path / "config.yaml"
    path.write_text(
        f"operator: {{matrix: [[2]]}}\nvectors: {{explicit: [[1], [0.5]]}}\nh_values: {h_values}\n"
    )
    assert main(["positivity-scan", "--config", str(path)]) == 2
    assert "h_values" in capsys.readouterr().err


def test_positivity_scan_nan_matrix_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text("operator: {matrix: [[.nan]]}\nvectors: {explicit: [[1]]}\nh_values: [1]\n")
    assert main(["positivity-scan", "--config", str(path)]) == 2
    assert "NaN or infinite" in capsys.readouterr().err


#: case -> (suite, config whose value at a key has the wrong shape); the case
#: is that key, then after a space what is wrong when the key repeats
_SHAPE_ERRORS = {
    "h_values": ("positivity-scan", "operator: {matrix: [[2]]}\nvectors: {explicit: [[1]]}\nh_values: 5\n"),
    "vectors.explicit[0]": ("positivity-scan", "operator: {matrix: [[2]]}\nvectors: {explicit: [1, 2]}\nh_values: [1]\n"),
    "vectors.explicit[1]": ("positivity-scan", "operator: {matrix: [[2]]}\nvectors: {explicit: [[1, 2], 3]}\nh_values: [1]\n"),
    "operator with atoms": ("positivity-scan", "operator: {atoms: 5}\nh_values: [1]\n"),
    "operator with an unknown key": ("positivity-scan", "operator: {foo: 1}\nh_values: [1]\n"),
    "operator.kms without beta": ("kms-verify", "operator: {kms: {matrix: [[1]]}}\nh_values: [1]\n"),
    "operator.kms without matrix": ("kms-verify", "operator: {kms: {beta: 1}}\nh_values: [1]\n"),
    "operator.matrix[0][1]": ("positivity-scan", "operator: {matrix: [[2, [0, 1, 2]]]}\nh_values: [1]\n"),
    "vectors as a number": ("positivity-scan", "operator: {matrix: [[2]]}\nvectors: 5\nh_values: [1]\n"),
    "vectors.random": ("positivity-scan", "operator: {matrix: [[2]]}\nvectors: {random: 5}\nh_values: [1]\n"),
    "h_grid null": ("positivity-scan", "operator: {matrix: [[2]]}\nvectors: {explicit: [[1]]}\nh_grid: null\n"),
    "h_grid as a number": ("positivity-scan", "operator: {matrix: [[2]]}\nvectors: {explicit: [[1]]}\nh_grid: 5\n"),
    "h_grid.count": ("positivity-scan", "operator: {matrix: [[2]]}\nvectors: {explicit: [[1]]}\nh_grid: {start: 1, stop: 2}\n"),
    "space": ("rescale-fock", "space: 5\nh_values: [0.5]\n"),
}


@pytest.mark.parametrize("case", list(_SHAPE_ERRORS))
def test_config_shape_error_names_its_key(tmp_path, capsys, case):
    suite, text = _SHAPE_ERRORS[case]
    path = tmp_path / "config.yaml"
    path.write_text(text)
    assert main([suite, "--config", str(path)]) == 2
    assert f"config error: {case.split(' ')[0]}:" in capsys.readouterr().err


@pytest.mark.parametrize("suite", list(SUITES))
@pytest.mark.parametrize(
    "operator", ["{atoms: [[2, 1]]}", "{kms: {beta: 1, atoms: [[1, 1]]}}"], ids=["atoms", "kms.atoms"]
)
def test_atoms_operator_is_a_config_error_in_every_suite(tmp_path, capsys, suite, operator):
    path = tmp_path / "config.yaml"
    path.write_text(f"operator: {operator}\nvectors: {{random: {{count: 2, seed: 1}}}}\nh_values: [0.5]\n")
    assert main([suite, "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    assert "config error: operator" in capsys.readouterr().err


@pytest.mark.parametrize("suite", list(SUITES))
def test_matrix_entry_above_half_the_largest_float_is_a_config_error(tmp_path, capsys, suite):
    # (m + m^H) / 2 would overflow to inf, and the spectrum be NaN
    matrix = "[[1.0e+308, 0.0], [0.0, 2.0]]"
    where, operator = "operator.matrix", f"{{matrix: {matrix}}}"
    if suite in ("kms-verify", "restrict-scan"):
        where, operator = "operator.kms.matrix", f"{{kms: {{beta: 1, matrix: {matrix}}}}}"
    path = tmp_path / "config.yaml"
    path.write_text(f"operator: {operator}\nvectors: {{random: {{count: 2, seed: 1}}}}\nh_values: [1.5]\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([suite, "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == (
        f"config error: {where}: matrix entry magnitude 1.000e+308 exceeds 8.988e+307, half the largest float\n"
    )


@pytest.mark.parametrize("key, value", [("space", "0"), ("tolerances", "[]"), ("output", "0"), ("output", '""')])
def test_falsy_section_of_wrong_shape_is_config_error(tmp_path, capsys, key, value):
    path = tmp_path / "config.yaml"
    path.write_text(f"h_values: [0.5]\n{key}: {value}\n")
    assert main(["rescale-fock", "--config", str(path)]) == 2
    assert f"config error: {key}: expected a mapping" in capsys.readouterr().err


def test_null_sections_keep_the_defaults(tmp_path, capsys):
    plain = tmp_path / "plain.yaml"
    plain.write_text("h_values: [0.5]\n")
    null = tmp_path / "null.yaml"
    null.write_text("h_values: [0.5]\nspace: null\ntolerances: null\noutput: null\n")
    reports = []
    for path in (plain, null):
        out = tmp_path / f"{path.stem}.json"
        assert main(["rescale-fock", "--config", str(path), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


def test_rescale_fock_checks_explicit_vector_dimension(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text("space: {dimension: 2}\nvectors: {explicit: [[1, 2, 3]]}\nh_values: [0.5]\n")
    assert main(["rescale-fock", "--config", str(path)]) == 2
    assert "config error: vectors.explicit: expected dimension 2" in capsys.readouterr().err


@pytest.mark.parametrize("h", [6e-17, 0.001, 0.003, 0.01, 0.02, 0.05])
def test_rescale_fock_small_scales_pass(tmp_path, capsys, h):
    # (1+c)/(1-c) loses about eps/h^2 to the cancellation in 1 - c
    path = tmp_path / "config.yaml"
    path.write_text(f"space: {{dimension: 1}}\nh_values: [{h}]\n")
    assert main(["rescale-fock", "--config", str(path), "--out", str(tmp_path / "r")]) == 0


def test_rescale_fock_flags_a_wrong_mixture_coordinate(tmp_path, capsys, monkeypatch):
    import weylscale.fock
    import weylscale.runner

    h_values = [0.001, 0.05, 0.5]
    monkeypatch.setattr(
        weylscale.runner, "c_parameter", lambda h: weylscale.fock.c_parameter(h) * (1 + 1e-9)
    )
    path = tmp_path / "config.yaml"
    path.write_text(f"space: {{dimension: 1}}\nh_values: {h_values}\n")
    out = tmp_path / "r.json"
    assert main(["rescale-fock", "--config", str(path), "--out", str(out)]) == 3
    cells = json.loads(out.read_text())["cells"]
    for h, cell in zip(h_values, cells):
        assert not cell["ok"]
        assert cell["exponent_deviation"] > 1e-14 * h**-2


@pytest.mark.parametrize("h", [5.5e-17, 1e-200, 5e-324])
def test_rescale_fock_scale_below_float_resolution_is_failed_cell(tmp_path, capsys, h):
    # (1 - h) / (1 + h) rounds to exactly 1, which h_of_c rejects
    path = tmp_path / "config.yaml"
    path.write_text(f"space: {{dimension: 1}}\nh_values: [{h!r}]\n")
    out = tmp_path / "r.json"
    assert main(["rescale-fock", "--config", str(path), "--out", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    (cell,) = json.loads(out.read_text())["cells"]
    assert cell == {"h": h, "error": "scale below float resolution: c rounds to 1", "ok": False}


@pytest.mark.parametrize("h", [1 - 1e-13, math.nextafter(1.0, 0.0)])
def test_rescale_fock_scale_unresolved_from_one_is_failed_cell(tmp_path, capsys, h):
    # 1/h is within ATOM_MERGE_TOL of 1, where the spectral calculus reads (1/h) I as I
    path = tmp_path / "config.yaml"
    path.write_text(f"space: {{dimension: 1}}\nh_values: [{h!r}]\n")
    out = tmp_path / "r.json"
    assert main(["rescale-fock", "--config", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.rstrip().endswith("failed: error")
    (cell,) = json.loads(out.read_text())["cells"]
    message = "scale just below 1: 1/h is not resolved from 1 at ATOM_MERGE_TOL"
    assert cell == {"h": h, "error": message, "ok": False}


def test_rescale_fock_scale_resolved_from_one_is_not_quasi_equivalent(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text(f"space: {{dimension: 1}}\nh_values: [{1 - 1e-11!r}]\n")
    out = tmp_path / "r.json"
    assert main(["rescale-fock", "--config", str(path), "--out", str(out)]) == 0
    (cell,) = json.loads(out.read_text())["cells"]
    assert cell["quasi_equivalent_to_fock"] is False and cell["ok"] is True


def _count_builds(monkeypatch):
    """Count every call of the two scale-model builders, under each name they are bound to."""
    import weylscale.restriction
    import weylscale.runner

    calls = {"rescaled_modular": 0, "restricted_model": 0}
    for name, modules in (
        ("rescaled_modular", [weylscale.runner]),
        ("restricted_model", [weylscale.runner, weylscale.restriction]),
    ):
        original = getattr(modules[0], name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_kms_verify_builds_each_scale_model_once(monkeypatch):
    text = KMS_CONFIG.replace("count: 2", "count: 3").replace("[0.25, 0.5, 1.0, 2.0]", "[0.5, 2.0]")
    calls = _count_builds(monkeypatch)
    record = run_kms_verify(_config(text))
    assert [(cell["h"], cell["pair"]) for cell in record.cells] == [
        (h, pair) for h in (0.5, 2.0) for pair in range(3)
    ]
    assert all(cell["ok"] for cell in record.cells)
    assert calls == {"rescaled_modular": 1, "restricted_model": 1}


def test_restrict_scan_reuses_its_model_for_the_extension(monkeypatch):
    calls = _count_builds(monkeypatch)
    record = run_restrict_scan(_config(RESTRICT_CONFIG))
    assert [cell["dichotomy_exact"] for cell in record.cells] == [True] * 3
    assert calls["restricted_model"] == 3


def test_restrict_scan_builds_its_covariance_once(monkeypatch):
    """One covariance_from_hamiltonian call per run, under each name it is bound to."""
    import weylscale.restriction
    import weylscale.runner

    calls = []
    original = weylscale.runner.covariance_from_hamiltonian

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (weylscale.runner, weylscale.restriction):
        monkeypatch.setattr(module, "covariance_from_hamiltonian", counted)
    record = run_restrict_scan(_config(RESTRICT_CONFIG))
    assert len(record.cells) == 3 and all(cell["spectral_correspondence"] for cell in record.cells)
    assert len(calls) == 1


# a matrix Hamiltonian whose covariance has the eigenvalue 1.3130352854993315
_NEAR_EIGENVALUE = """
operator:
  kms: {beta: 1, matrix: [[0.3, 0, 0], [0, 0.9, 0], [0, 0, 2.0]]}
vectors:
  random: {count: 2, seed: 3}
h_values: [%r]
"""


@pytest.mark.parametrize("suite", ["kms-verify", "restrict-scan"])
@pytest.mark.parametrize(
    "h, message",
    [
        # one ulp and 1e-13 relative below the eigenvalue, where A^(h)/h has spectrum 1
        (1.3130352854993312, "too close below the covariance eigenvalue 1.3130352854993315"),
        (1.3130352854993315 * (1 - 1e-13), "too close below the covariance eigenvalue"),
    ],
)
def test_restricted_scale_without_a_model_is_failed_cell(tmp_path, capsys, suite, h, message):
    path = tmp_path / "config.yaml"
    path.write_text(_NEAR_EIGENVALUE % h)
    out = tmp_path / "r.json"
    assert main([suite, "--config", str(path), "--out", str(out)]) == 3
    cells = json.loads(out.read_text())["cells"]
    assert cells and all(cell["h"] == h and not cell["ok"] for cell in cells)
    assert all(f"scale parameter {h!r}" in cell["error"] for cell in cells)
    assert all(message in cell["error"] for cell in cells)
    if suite == "kms-verify":
        assert [cell["path"] for cell in cells] == ["restricted", "restricted"]


@pytest.mark.parametrize("suite", ["kms-verify", "restrict-scan"])
@pytest.mark.parametrize("h", [1 + 2**-52, 1.0000000001, 1.0000001])
def test_restricted_scale_just_above_one_passes(tmp_path, capsys, suite, h):
    # lambda_star = (h+1)/(h-1) is finite for every float h > 1: 2^53 at one ulp above 1
    path = tmp_path / "config.yaml"
    path.write_text(_NEAR_EIGENVALUE % h)
    out = tmp_path / "r.json"
    assert main([suite, "--config", str(path), "--out", str(out)]) == 0
    cells = json.loads(out.read_text())["cells"]
    assert cells and all(cell["h"] == h and cell["ok"] and "error" not in cell for cell in cells)
    assert all(cell["lambda_star"] == (h + 1) / (h - 1) for cell in cells)
    key = "modular_bounded" if suite == "kms-verify" else "spectral_correspondence"
    assert all(cell[key] is True for cell in cells)
    if suite == "kms-verify":
        assert [cell["path"] for cell in cells] == ["restricted", "restricted"]


_LARGE_ENTRIES = (
    "operator:\n"
    "  kms: {beta: 1, matrix: [[0.6, 0.3, 0.1], [0.3, 0.9, 0.2], [0.1, 0.2, 1.4]]}\n"
    "vectors: {explicit: [[%r, 2.0, -3.1], [0.7, %r, 1.3]]}\n"
    "h_values: %s\n"
)


@pytest.mark.parametrize("entry", [1e4, 1e6])
def test_restricted_membership_is_relative_to_the_vector(tmp_path, capsys, entry):
    # the projected vectors miss the subspace by round-off that grows with their norm
    path = tmp_path / "config.yaml"
    path.write_text(_LARGE_ENTRIES % (entry, -entry, "[1.3]"))
    out = tmp_path / "r.json"
    code = main(["kms-verify", "--config", str(path), "--out", str(out)])
    (cell,) = json.loads(out.read_text())["cells"]
    assert cell["path"] == "restricted" and "error" not in cell
    assert all(math.isfinite(cell[key]) for key in ("max_r0", "rescaled_max_rbeta"))
    # the residuals grow with the vectors past the absolute 1e-10 (to about 6e-8 and
    # 5e-4), and so does the bound they are held to, 1e-10 * max(1, ||A|| ||f|| ||g||)
    assert max(cell["max_r0"], cell["max_rbeta"]) > 1e-10
    assert code == 0 and cell["ok"]


@pytest.mark.parametrize("entry", [1.0, 1e4, 1e6])
def test_kms_bound_scaled_by_the_vectors_still_catches_a_wrong_kernel(
    tmp_path, capsys, monkeypatch, entry
):
    # a sign error in F makes every boundary residual about |2F|, which grows with the
    # vectors as fast as the scaled bound does, so every path still fails it
    from weylscale import kms

    terms = kms._F_terms
    monkeypatch.setattr(kms, "_F_terms", lambda *coords: tuple(-t for t in terms(*coords)))
    path = tmp_path / "config.yaml"
    path.write_text(_LARGE_ENTRIES % (entry, -entry, "[0.5, 1.0, 1.3]"))
    out = tmp_path / "r.json"
    assert main(["kms-verify", "--config", str(path), "--out", str(out)]) == 3
    cells = json.loads(out.read_text())["cells"]
    assert [cell["path"] for cell in cells] == ["rescaled", "unrescaled", "restricted"]
    assert not any(cell["ok"] or "error" in cell for cell in cells)


@pytest.mark.parametrize(
    "energy, h",
    # covariance 3: A/h overflows; covariance 1.313...: A/h is finite, its matrix would not be
    [("ln2", 1e-308), ("ln2", 5e-324), ("2.0", 1e-308)],
)
def test_kms_verify_scale_whose_covariance_overflows_is_failed_cell(tmp_path, capsys, energy, h):
    path = tmp_path / "config.yaml"
    text = KMS_CONFIG.replace('"ln2"', energy).replace("[0.25, 0.5, 1.0, 2.0]", f"[{h!r}, 0.5]")
    path.write_text(text)
    out = tmp_path / "r.json"
    assert main(["kms-verify", "--config", str(path), "--out", str(out)]) == 3
    cells = json.loads(out.read_text())["cells"]
    failed = [cell for cell in cells if cell["h"] == h]
    assert [cell["pair"] for cell in failed] == [0, 1]
    assert all(cell["path"] == "rescaled" and not cell["ok"] for cell in failed)
    assert all("too small: the covariance over h overflows" in cell["error"] for cell in failed)
    assert len({cell["error"] for cell in failed}) == 1
    assert all(cell["ok"] for cell in cells if cell["h"] == 0.5)
    # the scale's failed build leaves the next scale's cells as a run without it gives them
    path.write_text(text.replace(f"[{h!r}, 0.5]", "[0.5]"))
    assert main(["kms-verify", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["cells"] == [cell for cell in cells if cell["h"] == 0.5]


def test_kms_verify_pair_whose_products_overflow_is_failed_cell(tmp_path, capsys):
    # A/h is finite at h = 1e-300, but A/h times entries near 1e6 is not: the
    # pair is an error cell before any array product, not a cell of NaN residuals
    path = tmp_path / "config.yaml"
    path.write_text(
        "operator:\n"
        "  kms: {beta: 1, matrix: [[0.6, 0.3, 0.1], [0.3, 0.9, 0.2], [0.1, 0.2, 1.4]]}\n"
        "vectors: {explicit: [[1e6, 2, -3.1], [0.7, -1e6, 1.3]]}\n"
        "h_values: [1e-300, 0.5]\n"
    )
    out = tmp_path / "r.json"
    assert main(["kms-verify", "--config", str(path), "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    tiny, moderate = report["cells"]
    assert tiny["path"] == "rescaled" and not tiny["ok"]
    assert tiny["error"].startswith("overflow:") and "max_r0" not in tiny
    assert moderate["path"] == "rescaled" and "error" not in moderate
    assert math.isfinite(report["summary"]["max_residual"])


def test_positivity_scan_kernel_overflow_is_failed_cell(tmp_path, capsys):
    # an admissible scale (h_max is 2) whose kernel entries would overflow
    path = tmp_path / "config.yaml"
    path.write_text(
        "operator: {matrix: [[2, 0], [0, 3]]}\n"
        "vectors: {explicit: [[1e200, 0], [0, 1e200]]}\n"
        "h_values: [1]\n"
    )
    out = tmp_path / "r.json"
    assert main(["positivity-scan", "--config", str(path), "--out", str(out)]) == 3
    report = json.loads(out.read_text())
    (cell,) = report["cells"]
    assert cell["h"] == 1 and not cell["ok"]
    assert cell["error"].startswith("overflow:") and "gram_all_psd" not in cell
    assert report["summary"]["h_max"] == 2 and report["summary"]["first_failing_h"] is None


def test_gns_check_doubled_axis_beyond_cap_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text(
        "operator: {matrix: [[2, 0], [0, 3]]}\n"
        "vectors: {random: {count: 1, seed: 1}}\n"
        "cutoff: 10\n"
    )
    out = tmp_path / "r.json"
    assert main(["gns-check", "--config", str(path), "--out", str(out)]) == 2
    assert "doubled Fock space axis 14641 exceeds cap 10000" in capsys.readouterr().err
    assert not out.exists()


def test_gns_check_scales_a_vector_of_overflowing_norm_to_unit_length(tmp_path):
    """A vector whose squared norm overflows is scaled to unit length, not to zero,
    and the run prints no warning: its report is the report of the unit vector."""
    env = {**os.environ, "PYTHONPATH": str(Path(weylscale.__file__).parents[1])}
    reports = {}
    for entry in ("1.0", "1.0e+155", "1.0e+200"):
        path = tmp_path / f"{entry}.yaml"
        path.write_text(f"operator: {{matrix: [[2.0]]}}\nvectors: {{explicit: [[{entry}]]}}\ncutoff: 24\n")
        out = tmp_path / f"{entry}.json"
        result = subprocess.run(
            [sys.executable, "-m", "weylscale", "gns-check", "--config", str(path), "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0 and "Warning" not in result.stderr, result.stderr
        reports[entry] = out.read_bytes()
    assert reports["1.0e+155"] == reports["1.0e+200"] == reports["1.0"]


_SUITE_CONFIGS = {
    "positivity-scan": POSITIVITY_CONFIG,
    "kms-verify": KMS_CONFIG,
    "gns-check": GNS_CONFIG,
    "rescale-fock": RESCALE_CONFIG,
    "restrict-scan": RESTRICT_CONFIG,
}


@pytest.mark.parametrize("value", [".nan", "-1"])
@pytest.mark.parametrize("key", ["gram", "residual", "gns", "arithmetic", "pointwise", "two_route"])
def test_nan_or_negative_tolerance_is_config_error(tmp_path, capsys, key, value):
    path = tmp_path / "config.yaml"
    path.write_text(f"{RESCALE_CONFIG}tolerances: {{{key}: {value}}}\n")
    out = tmp_path / "r.json"
    assert main(["rescale-fock", "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: tolerances.{key}: must be at least 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "-1"])
@pytest.mark.parametrize("suite", list(_SUITE_CONFIGS))
def test_nan_or_negative_tol_override_is_config_error(tmp_path, capsys, suite, value):
    path = tmp_path / "config.yaml"
    path.write_text(_SUITE_CONFIGS[suite])
    out = tmp_path / "r.json"
    assert main([suite, "--config", str(path), "--tol", value, "--out", str(out)]) == 2
    assert "config error: --tol: must be at least 0" in capsys.readouterr().err
    assert not out.exists()


def test_infinite_tolerance_still_accepted(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text(f"{RESCALE_CONFIG}tolerances: {{pointwise: .inf}}\n")
    assert main(["rescale-fock", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    assert main(["rescale-fock", "--config", str(path), "--tol", "inf", "--out", str(tmp_path / "b")]) == 0


def test_scipy_is_loaded_only_by_gns_check(tmp_path):
    paths = {}
    for suite, text in _SUITE_CONFIGS.items():
        paths[suite] = str(tmp_path / f"{suite}.yaml")
        Path(paths[suite]).write_text(text)
    script = f"""
import sys
import weylscale.cli as cli
paths = {paths!r}
for suite in ("positivity-scan", "kms-verify", "rescale-fock", "restrict-scan"):
    assert cli.main([suite, "--config", paths[suite], "--out", paths[suite] + ".out"]) == 0
print("scipy" in sys.modules)
assert cli.main(["gns-check", "--config", paths["gns-check"], "--out", paths["gns-check"] + ".out"]) == 0
print("scipy.linalg" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(weylscale.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


def test_overrides_do_not_carry_to_the_next_call(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text(KMS_CONFIG)
    argv = ["kms-verify", "--config", str(path), "--out"]
    overrides = ["--seed", "5", "--tol", "1e-3", "--format", "table"]
    build_parser.cache_clear()
    assert main(argv + [str(tmp_path / "a")] + overrides) == 0
    assert main(argv + [str(tmp_path / "b")]) == 0
    build_parser.cache_clear()
    assert main(argv + [str(tmp_path / "fresh")]) == 0
    capsys.readouterr()
    after = (tmp_path / "b").read_bytes()
    assert after == (tmp_path / "fresh").read_bytes()
    assert after != (tmp_path / "a").read_bytes()


KMS_TEMPLATE = "operator:\n  kms: {{matrix: {}, beta: {}}}\nvectors:\n  random: {{count: 2, seed: 3}}\nh_values: [1.5]\n"


@pytest.mark.parametrize("suite", ["positivity-scan", "gns-check", "restrict-scan", "kms-verify"])
def test_non_positive_hamiltonian_is_config_error(tmp_path, capsys, suite):
    path = tmp_path / "config.yaml"
    path.write_text(KMS_TEMPLATE.format("[[-1, 0], [0, 2]]", 1))
    assert main([suite, "--config", str(path)]) == 2
    assert "config error: operator.kms: hamiltonian spectrum reaches -1.0 <= 0" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["positivity-scan", "kms-verify"])
def test_nan_inverse_temperature_is_named(tmp_path, capsys, suite):
    path = tmp_path / "config.yaml"
    path.write_text(KMS_TEMPLATE.format("[[2]]", ".nan"))
    assert main([suite, "--config", str(path)]) == 2
    assert "config error: operator.kms: inverse temperature nan must be positive" in capsys.readouterr().err


def test_gns_check_covariance_below_identity_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text("operator: {matrix: [[0.5]]}\nvectors:\n  random: {count: 2, seed: 3}\n")
    assert main(["gns-check", "--config", str(path)]) == 2
    assert "config error: operator/cutoff: spectrum reaches 0.5 < 1" in capsys.readouterr().err


def test_failing_summary_flag_is_listed(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text(
        "operator:\n  kms: {matrix: [[0.6, 0.3, 0.1], [0.3, 0.9, 0.2], [0.1, 0.2, 1.4]], beta: 1}\n"
        "vectors:\n  random: {count: 2, seed: 3}\nh_values: [1.0]\n"
    )
    argv = ["kms-verify", "--config", str(path), "--tol", "0", "--out", str(tmp_path / "r.json")]
    assert main(argv) == 3
    assert "contract violation: summary.modular_exponential_ok" in capsys.readouterr().err


def _run(tmp_path, suite: str, text: str) -> int:
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return main([suite, "--config", str(path), "--out", str(tmp_path / "report.json")])


@pytest.mark.parametrize(
    "beta, matrix",
    # the residual grows like e^(2 beta lambda) eps: 8.1e-10 at [[8]], 1.2e-8 at [[10]], and at
    # beta 0.05 about 24 times tol * ||Delta||, so the bound must scale with A -> Delta's conditioning
    [("1", "[[8]]"), ("1", "[[10]]"), ("0.05", "[[290]]")],
)
def test_an_ill_conditioned_modular_exponential_passes(tmp_path, capsys, beta, matrix):
    config = (
        f"operator: {{kms: {{beta: {beta}, matrix: {matrix}}}}}\n"
        "vectors: {random: {count: 2, seed: 3}}\nh_values: [1]\n"
    )
    assert _run(tmp_path, "kms-verify", config) == 0
    summary = json.loads((tmp_path / "report.json").read_text())["summary"]
    assert summary["modular_exponential_ok"] and summary["modular_exponential_residual"] > 1e-10
    assert "contract violation" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "matrix, h_values",
    # the upper boundary row rounds at ||Delta||^beta = (a + 1) / (a - 1) times the rounding of
    # A g and g: max_rbeta is 2.3e-10 at [[16]], where ||A|| ||f|| ||g|| alone bounds it by 1e-10
    [("[[16]]", "[1]"), ("[[0.3, 0.1], [0.1, 18]]", "[0.5, 1]")],
)
def test_kms_residuals_at_a_large_beta_lambda_pass(tmp_path, capsys, matrix, h_values):
    config = (
        f"operator: {{kms: {{beta: 1, matrix: {matrix}}}}}\n"
        f"vectors: {{random: {{count: 2, seed: 3}}}}\nh_values: {h_values}\n"
    )
    assert _run(tmp_path, "kms-verify", config) == 0
    assert "contract violation" not in capsys.readouterr().err


def test_a_large_covariance_passes_the_doubling_identity(tmp_path, capsys):
    # 7.45e-9 is one ulp of the 5e7 entries of T1^2 and T2^2
    config = "operator: {matrix: [[1e8]]}\nvectors: {explicit: [[1e-9]]}\ncutoff: 8\n"
    assert _run(tmp_path, "gns-check", config) == 0
    summary = json.loads((tmp_path / "report.json").read_text())["summary"]
    assert summary["doubling_identity_ok"] and summary["doubling_identity_residual"] > 1e-10
    assert "contract violation" not in capsys.readouterr().err


@pytest.mark.parametrize("matrix", ["[[2]]", "[[1e8]]"])
def test_a_wrong_doubling_identity_is_listed(tmp_path, capsys, monkeypatch, matrix):
    import weylscale.fock

    class WrongT2(weylscale.fock.GnsModel):
        def __init__(self, *args):
            super().__init__(*args)
            self.T2 = self.T2 * (1 + 1e-6)

    monkeypatch.setattr("weylscale.runner.GnsModel", WrongT2)
    config = f"operator: {{matrix: {matrix}}}\nvectors: {{explicit: [[1e-9]]}}\ncutoff: 8\n"
    assert _run(tmp_path, "gns-check", config) == 3
    assert capsys.readouterr().err.splitlines()[1:] == ["contract violation: summary.doubling_identity_ok"]


@pytest.mark.parametrize(
    "h_values, tol, summary_fails",
    # at tol 0 every cell fails, then the modular exponential flag; at the default
    # tolerance only the error cells of the negative scale fail, and no flag
    [("[1.0, -1.0]", ["--tol", "0"], True), ("[1.0, -1.0, 0.5]", [], False)],
    ids=["every-cell-and-a-flag", "error-cells-only"],
)
def test_violations_list_each_failing_cell_in_order_then_the_summary_flags(tmp_path, capsys, h_values, tol, summary_fails):
    path, out = tmp_path / "config.yaml", tmp_path / "r.json"
    path.write_text(
        "operator:\n  kms: {matrix: [[0.6, 0.3, 0.1], [0.3, 0.9, 0.2], [0.1, 0.2, 1.4]], beta: 1}\n"
        f"vectors:\n  random: {{count: 2, seed: 3}}\nh_values: {h_values}\n"
    )
    assert main(["kms-verify", "--config", str(path), "--out", str(out), *tol]) == 3
    report = json.loads(out.read_text())
    timing, *lines = capsys.readouterr().err.splitlines()
    assert timing.startswith("kms-verify: ") and timing.endswith("s")
    failing = [cell for cell in report["cells"] if not cell["ok"]]
    flags = [f"summary.{key}" for key, ok in report["summary"].items() if key.endswith("_ok") and not ok]
    assert bool(flags) == summary_fails and (len(failing) < len(report["cells"])) != summary_fails
    assert len(lines) == len(failing) + len(flags)
    for line, cell in zip(lines, failing):
        keys = repr({"h": float(cell["h"]), "pair": cell["pair"], "path": cell["path"]})[:-1]
        assert line.startswith(f"contract violation: {keys}, ") and " failed: " in line
        assert line.endswith(" failed: error") == ("error" in cell)
    assert lines[len(failing) :] == [f"contract violation: {flag}" for flag in flags]


def test_rescale_fock_takes_the_dimension_from_the_operator(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    matrix = "operator: {matrix: [[2, 0], [0, 3]]}\nh_values: [0.5]\n"
    path.write_text(matrix + "vectors: {explicit: [[1, 0]]}\n")
    assert main(["rescale-fock", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 0
    path.write_text(matrix + "vectors: {explicit: [[1, 0, 0]]}\n")
    assert main(["rescale-fock", "--config", str(path)]) == 2
    assert "config error: vectors.explicit: expected dimension 2" in capsys.readouterr().err


def test_module_entry_point_matches_main(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_text(KMS_CONFIG)
    direct, spawned = tmp_path / "direct.json", tmp_path / "spawned.json"
    code = main(["kms-verify", "--config", str(path), "--out", str(direct)])
    env = {**os.environ, "PYTHONPATH": str(Path(weylscale.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "weylscale", "kms-verify", "--config", str(path), "--out", str(spawned)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == code == 0, result.stderr
    assert spawned.read_bytes() == direct.read_bytes()


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_bytes(b"operator: {matrix: [[2]]}\nvectors: {explicit: [[1]]}\nh_values: [\xff]\n")
    assert main(["positivity-scan", "--config", str(path)]) == 2
    assert "config error: config file: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err


@pytest.mark.parametrize("expression", ["ln" * 3000 + "2", "1/" * 3000 + "1"])
def test_deeply_nested_expression_is_config_error(tmp_path, capsys, expression):
    path = tmp_path / "config.yaml"
    path.write_text(f'operator: {{matrix: [[2]]}}\nvectors: {{explicit: [[1]]}}\nh_values: ["{expression}"]\n')
    assert main(["positivity-scan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: h_values[0]: expression nested more than {MAX_EXPRESSION_DEPTH} levels deep" in err


def test_chained_quotients_are_read_left_to_right(tmp_path):
    path, out = tmp_path / "config.yaml", tmp_path / "report.json"
    path.write_text(
        'operator: {matrix: [[2]]}\nvectors: {explicit: [[1]]}\nh_values: ["1/2/4", "8/2/2", "ln(9)/2/ln(3)"]\n'
    )
    assert main(["positivity-scan", "--config", str(path), "--out", str(out)]) == 0
    cells = json.loads(out.read_text())["cells"]
    assert [cell["h"] for cell in cells] == [0.125, 2.0, math.log(9) / 2 / math.log(3)]


@pytest.mark.parametrize("expression", ["sqrt(4", "sqrt4)"])
def test_unbalanced_function_argument_is_config_error(tmp_path, capsys, expression):
    path = tmp_path / "config.yaml"
    path.write_text(f'operator: {{matrix: [[2]]}}\nvectors: {{explicit: [[1]]}}\nh_values: ["{expression}"]\n')
    assert main(["positivity-scan", "--config", str(path)]) == 2
    assert f"config error: h_values[0]: unbalanced parentheses in '{expression}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scalar, message",
    [
        ("1" + "0" * 5000, "config file: Exceeds the limit (4300 digits) for integer string conversion"),
        ("2001-13-45", "config file: month must be in 1..12"),
    ],
    ids=["int-over-digit-limit", "impossible-date"],
)
def test_scalar_pyyaml_cannot_construct_is_config_error(tmp_path, capsys, scalar, message):
    path, out = tmp_path / "config.yaml", tmp_path / "report.json"
    path.write_text(f"operator: {{matrix: [[2]]}}\nvectors: {{explicit: [[1]]}}\nh_values: [{scalar}]\n")
    assert main(["positivity-scan", "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


class TestSuiteRegistry:
    def test_tol_sets_each_suite_primary_tolerance(self):
        assert {name: suite.tolerance for name, suite in SUITES.items()} == {
            "positivity-scan": "gram",
            "kms-verify": "residual",
            "gns-check": "gns",
            "rescale-fock": "pointwise",
            "restrict-scan": "residual",
        }

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_help_is_first_docstring_line(self):
        parser = build_parser()
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        helps = {choice.dest: choice.help for choice in action._choices_actions}
        assert helps == {name: suite.__doc__.splitlines()[0] for name, suite in SUITES.items()}

    def test_bench_span_targets_resolve(self):
        # bench/spans.py patches these attributes by name for --trace runs
        path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        for module_name, attribute, _ in spans.TARGETS:
            owner = importlib.import_module(module_name)
            *path_to_owner, name = attribute.split(".")
            for part in path_to_owner:
                owner = getattr(owner, part)
            assert name in vars(owner), f"{module_name}.{attribute}"


@pytest.mark.parametrize("suite", ["kms-verify", "restrict-scan"])
@pytest.mark.parametrize(
    "t_grid", ["[]", "[2, 1]", "[1, 1]", "{start: 1, stop: 0, count: 3}", "[.nan, 1]", "[.inf]"]
)
def test_invalid_time_grid_is_config_error(tmp_path, capsys, suite, t_grid):
    text = {"kms-verify": KMS_CONFIG, "restrict-scan": RESTRICT_CONFIG}[suite]
    path = tmp_path / "config.yaml"
    path.write_text(f"{text}t_grid: {t_grid}\n")
    out = tmp_path / "r.json"
    assert main([suite, "--config", str(path), "--out", str(out)]) == 2
    assert "config error: t_grid:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["h_grid", "t_grid"])
@pytest.mark.parametrize(
    "grid",
    [
        "{start: 1, stop: .inf, count: 1}",
        "{start: -.inf, stop: 1, count: 3}",
        "{start: -1.0e308, stop: 1.0e308, count: 3}",
    ],
)
def test_grid_without_a_finite_span_is_config_error(tmp_path, capsys, key, grid):
    # numpy's linspace would warn and fill the grid with NaN
    text = POSITIVITY_CONFIG
    if key == "h_grid":
        text = text.replace("h_values: [0.5, 1.0, 1.5, 2.0]\n", "")
    path = tmp_path / "config.yaml"
    path.write_text(f"{text}{key}: {grid}\n")
    assert main(["positivity-scan", "--config", str(path)]) == 2
    assert f"config error: {key}: start and stop must be finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# property test: every positivity-scan config gets a clean verdict

_bad_numbers = st.sampled_from([0.0, -1.0, math.inf, -math.inf, math.nan])


def _mostly(valid, invalid):
    # about one invalid draw in eight keeps most configs valid, so the suite
    # itself runs and not only the validation
    return st.integers(0, 7).flatmap(lambda k: invalid if k == 7 else valid)


_scales = _mostly(st.floats(min_value=1e-3, max_value=1e3), _bad_numbers)
_counts = _mostly(
    st.integers(min_value=1, max_value=4),
    st.one_of(st.integers(min_value=-1, max_value=0), st.floats(min_value=0.0, max_value=4.5)),
)


def _poison(draw, rows):
    """Replace one entry of a nested list by a non-finite or non-positive number, sometimes."""
    bad = draw(_mostly(st.none(), _bad_numbers))
    if bad is not None:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = bad


# a scalar where a list, a mapping or a vector belongs
_scalars = st.sampled_from([5, -1, 0.5])


def _or_scalar(draw, value):
    """``value``, or now and then a scalar in its place."""
    return draw(_mostly(st.just(value), _scalars))


def _explicit_vectors(draw, vectors):
    """Poison an entry, and now and then put a scalar in place of one vector."""
    _poison(draw, vectors)
    index = draw(st.integers(0, len(vectors) - 1))
    vectors[index] = _or_scalar(draw, vectors[index])
    return {"explicit": vectors}


@st.composite
def positivity_configs(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    diagonal = draw(st.lists(st.floats(min_value=0.9, max_value=4.0), min_size=dim, max_size=dim))
    matrix = np.diag(diagonal).tolist()
    _poison(draw, matrix)
    config = {"operator": _or_scalar(draw, {"matrix": matrix})}
    if draw(st.booleans()):
        config["h_values"] = _or_scalar(draw, draw(st.lists(_scales, min_size=1, max_size=4)))
    else:
        config["h_grid"] = {
            "start": draw(_scales),
            "stop": draw(_scales),
            "count": draw(_counts),
        }
    if draw(st.booleans()):
        random = {"count": draw(_counts), "seed": draw(_mostly(st.integers(0, 99), _bad_numbers))}
        if draw(st.booleans()):
            random["sets"] = draw(_counts)
        config["vectors"] = {"random": random}
    else:
        entries = st.floats(min_value=-2.0, max_value=2.0)
        vectors = draw(
            st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=1, max_size=4)
        )
        config["vectors"] = _explicit_vectors(draw, vectors)
    return config


@settings(max_examples=60)
@given(positivity_configs())
@example({"operator": {"matrix": [[2.0]]}, "vectors": {"explicit": [[1.0]]}, "h_values": 5})
def test_positivity_scan_configs_get_clean_verdicts(config):
    import yaml

    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "config.yaml")
        with open(path, "w", encoding="utf-8") as handle:
            yaml.safe_dump(config, handle)
        reports = []
        for name in ("a.json", "b.json"):
            out = os.path.join(workdir, name)
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(["positivity-scan", "--config", path, "--out", out])
            assert code in (0, 2, 3)
            if code == 2:
                assert not os.path.exists(out)
                continue
            with open(out, "rb") as handle:
                reports.append(handle.read())
        assert len(set(reports)) <= 1


# ---------------------------------------------------------------------------
# property test: the other four suites, with bad scales and seed overrides

class _HugeInt:
    """An int literal beyond Python's 4300-digit limit; only ``_ConfigDumper`` writes it."""


class _ConfigDumper(yaml.SafeDumper):
    """``yaml.safe_dump``'s dumper, which also writes ``_HugeInt`` as a plain int literal."""


_ConfigDumper.add_representer(
    _HugeInt, lambda dumper, _: dumper.represent_scalar("tag:yaml.org,2002:int", "1" + "0" * 5000)
)

# numbers no suite can use as a scale or inverse temperature, in every input form
_bad_scalars = st.one_of(
    _bad_numbers,
    st.sampled_from(["ln(-1)", "exp(1000)", 10**400, "ln" * 3000 + "2", "1/" * 3000 + "1", _HugeInt()]),
)


def _scale_list(draw, low, high):
    """One to three scales from [low, high], with the occasional unusable one."""
    valid = st.one_of(st.floats(min_value=low, max_value=high), st.just(high))
    return draw(st.lists(_mostly(valid, _bad_scalars), min_size=1, max_size=3))


def _diagonal(draw, dim, low, high):
    matrix = np.diag(
        draw(st.lists(st.floats(min_value=low, max_value=high), min_size=dim, max_size=dim))
    ).tolist()
    _poison(draw, matrix)
    return matrix


def _vectors(draw, dim, pairs=False):
    if draw(st.booleans()):
        random = {"count": draw(_counts), "seed": draw(_mostly(st.integers(0, 99), _bad_scalars))}
        return {"random": random}
    count = 2 * draw(st.integers(1, 2)) if pairs else draw(st.integers(1, 3))
    entries = st.floats(min_value=-1e4, max_value=1e4)
    vectors = draw(
        st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=count, max_size=count)
    )
    return _explicit_vectors(draw, vectors)


#: time grids every suite must reject as a config error (exit 2)
_BAD_T_GRIDS = (
    [],
    [1.0, -1.0],
    [0.5, 0.5],
    [math.nan, 1.0],
    [math.inf],
    {"start": 1.0, "stop": -1.0, "count": 3},
)


def _near_eigenvalue(draw, matrix, beta):
    """Now and then a scale one ulp or 1e-13 relative below a covariance eigenvalue."""
    lam = draw(st.sampled_from([row[i] for i, row in enumerate(matrix)]))
    usable = all(isinstance(x, float) and 0 < x < math.inf for x in (lam, beta))
    if not usable or draw(_mostly(st.just(True), st.just(False))):
        return []
    w = math.exp(-beta * lam)
    eigenvalue = (1.0 + w) / (1.0 - w)  # the covariance map of weylscale.kms
    return [draw(st.sampled_from([math.nextafter(eigenvalue, 0), eigenvalue * (1 - 1e-13)]))]


@st.composite
def suite_configs(draw):
    """(suite, config, --seed override) with each suite's usable ranges mostly hit."""
    suite = draw(st.sampled_from(["kms-verify", "gns-check", "rescale-fock", "restrict-scan"]))
    dim = draw(st.integers(min_value=1, max_value=3))
    t_grid = st.just({"start": -1.0, "stop": 1.0, "count": 3})
    config: dict = {"t_grid": draw(_mostly(t_grid, st.sampled_from(_BAD_T_GRIDS)))}
    if suite == "kms-verify":
        beta = draw(_mostly(st.floats(min_value=0.2, max_value=3.0), _bad_scalars))
        matrix = _diagonal(draw, dim, 0.2, 2.0)
        config["operator"] = {"kms": {"beta": beta, "matrix": matrix}}
        config["vectors"] = _vectors(draw, dim, pairs=True)
        # rescaled below 1, unrescaled at 1, restricted above; A/h overflows at the tiny
        # scales, and the modular map of A^(h)/h is singular just below an eigenvalue
        scales = _scale_list(draw, 0.05, 2.0)
        scales += draw(st.sampled_from([[], [1.0], [5e-324], [1e-308]]))
        scales += _near_eigenvalue(draw, matrix, beta)
        config["h_values"] = _or_scalar(draw, scales)
    elif suite == "gns-check":
        # one mode at a low cutoff keeps the truncated Fock space small
        config["operator"] = {"matrix": _diagonal(draw, 1, 1.0, 3.0)}
        config["cutoff"] = draw(_mostly(st.integers(4, 6), st.sampled_from([0, 3, 4.5])))
        config["vectors"] = _vectors(draw, 1)
    elif suite == "rescale-fock":
        config["space"] = _or_scalar(draw, {"dimension": dim})
        config["vectors"] = _vectors(draw, dim)
        config["h_values"] = _or_scalar(draw, _scale_list(draw, 0.05, 1.0))
    else:
        if draw(st.booleans()):
            # beta * energy <= 1 puts the covariance spectrum above coth(1/2) > 2
            beta = draw(_mostly(st.floats(min_value=0.2, max_value=0.5), _bad_scalars))
            config["operator"] = {"kms": {"beta": beta, "matrix": _diagonal(draw, dim, 0.2, 2.0)}}
        else:
            config["operator"] = {"matrix": _diagonal(draw, dim, 2.0, 4.0)}
        config["vectors"] = {
            "random": {"count": draw(_counts), "seed": draw(_mostly(st.integers(0, 99), _bad_scalars))}
        }
        config["h_values"] = _or_scalar(draw, _scale_list(draw, 1.05, 2.0))
    seed = draw(_mostly(st.none() | st.integers(0, 99), st.integers(-3, -1)))
    return suite, config, seed


_KMS_EXAMPLE = {
    "operator": {"kms": {"beta": 1.0, "matrix": [[0.5, 0.0], [0.0, 1.5]]}},
    "vectors": {"random": {"count": 1, "seed": 3}},
    "t_grid": {"start": -1.0, "stop": 1.0, "count": 3},
}


_NEAR_EIGENVALUE_EXAMPLE = {
    "operator": {"kms": {"beta": 1.0, "matrix": [[0.3, 0, 0], [0, 0.9, 0], [0, 0, 2.0]]}},
    "h_values": [1.3130352854993312],
}
# A/h is finite at covariance 1.313..., the matrix of A/h would overflow
_OVERFLOWING_MATRIX_EXAMPLE = {
    "operator": {"kms": {"beta": 1.0, "matrix": [[2.0]]}},
    "h_values": [1e-308],
}
_LARGE_VECTORS_EXAMPLE = {
    "operator": {
        "kms": {"beta": 1.0, "matrix": [[0.6, 0.3, 0.1], [0.3, 0.9, 0.2], [0.1, 0.2, 1.4]]}
    },
    "vectors": {"explicit": [[1e6, 2.0, -3.1], [0.7, -1e6, 1.3]]},
    "h_values": [1.3],
}


@settings(max_examples=80)
@given(suite_configs())
@example(("kms-verify", {**_KMS_EXAMPLE, "h_values": [math.nan, 0.5]}, None))
@example(("restrict-scan", {**_KMS_EXAMPLE, "h_values": [1.5]}, -1))
@example(("kms-verify", {**_KMS_EXAMPLE, "h_values": [0.5, 2.0], "t_grid": [2.0, 1.0]}, None))
@example(("kms-verify", {**_KMS_EXAMPLE, "h_values": [0.5], "tolerances": {"residual": math.nan}}, None))
@example(("kms-verify", {**_KMS_EXAMPLE, "h_values": [1e-308, 5e-324]}, None))
@example(("kms-verify", {**_KMS_EXAMPLE, **_OVERFLOWING_MATRIX_EXAMPLE}, None))
@example(("kms-verify", {**_KMS_EXAMPLE, **_NEAR_EIGENVALUE_EXAMPLE}, None))
@example(("restrict-scan", {**_KMS_EXAMPLE, **_NEAR_EIGENVALUE_EXAMPLE}, None))
@example(("kms-verify", {**_KMS_EXAMPLE, **_LARGE_VECTORS_EXAMPLE}, None))
@example(("kms-verify", {**_KMS_EXAMPLE, **_LARGE_VECTORS_EXAMPLE, "h_values": [1e-300]}, None))
@example(("kms-verify", {**_KMS_EXAMPLE, "h_values": [0.5, _HugeInt()]}, None))
def test_suite_configs_get_clean_verdicts(drawn):
    suite, config, seed = drawn
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "config.yaml")
        with open(path, "w", encoding="utf-8") as handle:
            yaml.dump(config, handle, Dumper=_ConfigDumper)
        argv = [suite, "--config", path] + ([] if seed is None else ["--seed", str(seed)])
        reports = []
        for name in ("a.json", "b.json"):
            out = os.path.join(workdir, name)
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(argv + ["--out", out])
            assert code in (0, 2, 3)
            # a drawn bad grid is the very object in _BAD_T_GRIDS
            if any(config["t_grid"] is grid for grid in _BAD_T_GRIDS):
                assert code == 2
            if code == 2:
                assert not os.path.exists(out)
                continue
            with open(out, "rb") as handle:
                reports.append(handle.read())
        assert len(set(reports)) <= 1
