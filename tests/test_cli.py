import contextlib
import io
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylscale
from weylscale.cli import main
from weylscale.config import ExperimentConfig, parse_complex, parse_number
from weylscale.errors import ConfigInvalid
from weylscale.report import ReportRecord, render_object, render_table
from weylscale.runner import (
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
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_number(text) == expected

    def test_rejected(self):
        for bad in ("spam", "1/0", None, [1]):
            with pytest.raises(ConfigInvalid):
                parse_number(bad)

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

    def test_atoms_with_infinite_multiplicity(self):
        config = ExperimentConfig.from_dict(
            {"operator": {"atoms": [[2.0, "INF"], [1.0, 3]]}}
        )
        assert config.operator.atoms[0].value == 1.0
        assert config.operator.atoms[1].infinite

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

    def test_seed_override_changes_draws(self, tmp_path, capsys):
        config = self._write(tmp_path, GNS_CONFIG)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["gns-check", "--config", config, "--out", str(a)]) == 0
        assert main(["gns-check", "--config", config, "--seed", "123", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()


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


@st.composite
def positivity_configs(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    diagonal = draw(st.lists(st.floats(min_value=0.9, max_value=4.0), min_size=dim, max_size=dim))
    matrix = np.diag(diagonal).tolist()
    _poison(draw, matrix)
    config = {"operator": {"matrix": matrix}}
    if draw(st.booleans()):
        config["h_values"] = draw(st.lists(_scales, min_size=1, max_size=4))
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
        _poison(draw, vectors)
        config["vectors"] = {"explicit": vectors}
    return config


@settings(max_examples=60)
@given(positivity_configs())
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
