"""Inputs that once ended in a traceback or a warning, or ran on a key they ignored,
and the config errors no other test reaches, each with the clean verdict it gets.

Each row is a suite, a config text, the exit code and the start of one line
the run prints on standard error.  The run goes through ``cli.main`` with
every warning turned into an error, so a warning fails the row as a traceback
does.  The sizes refused are beyond any address space (1e17 points, or a
3e6 x 3e6 kernel of 131 TiB), and refused before any vector is drawn, so no
row takes more than a few megabytes.
"""

import json
import warnings

import pytest

from weylscale import cli, runner
from weylscale.cli import build_parser, main

GNS_HUGE = "operator: {matrix: [[%s]]}\nvectors: {explicit: [[1.0]]}\ncutoff: 8\n"
NOT_UNITARY = "contract violation: {'kind': 'expectation', 'index': 0, 'error': \"displacement of amplitude %s is not unitary"

#: name: (suite, config text, exit code, start of a line on standard error)
ROWS = {
    # eigenvalues spanning more than the largest float: their gaps overflow
    "snap-gap-overflow": (
        "positivity-scan",
        "operator: {matrix: [[8.9e+307, 8.9e+307], [8.9e+307, 1.0]]}\n"
        "vectors: {explicit: [[1.0, 0.0]]}\nh_values: [1.0]\n",
        2,
        "config error: operator: spectrum reaches -5.5",
    ),
    # displacement amplitudes past expm's range
    **{
        f"gns-covariance-{value}": ("gns-check", GNS_HUGE % value, 3, NOT_UNITARY % amplitude)
        for value, amplitude in (("1.0e+100", "5e+49"), ("1.0e+200", "5e+99"), ("1.0e+300", "5e+149"))
    },
    # sizes no machine allocates
    "h-grid-count-1e17": (
        "rescale-fock",
        "h_grid: {start: 1, stop: 2, count: 1e17}\n",
        2,
        "config error: h_grid.count: ",
    ),
    "h-grid-count-1e19": (
        "rescale-fock",
        "h_grid: {start: 1, stop: 2, count: 1e19}\n",
        2,
        "config error: h_grid.count: ",
    ),
    "random-count-1e17": (
        "rescale-fock",
        "space: {dimension: 2}\nvectors: {random: {count: 1e17, seed: 1}}\nh_values: [0.5]\n",
        2,
        "config error: vectors.random.count: ",
    ),
    # one vector of that dimension cannot be allocated, whatever the count
    "space-dimension-1e17": (
        "rescale-fock",
        "space: {dimension: 1e17}\nvectors: {random: {count: 1, seed: 1}}\nh_values: [0.5]\n",
        2,
        "config error: space.dimension: ",
    ),
    # positivity-scan's kernel buffer, count x count, before any cell
    "positivity-kernel-3e6": (
        "positivity-scan",
        "operator: {matrix: [[1.5]]}\nvectors: {random: {count: 3000000, seed: 3}}\nh_values: [1.2]\n",
        2,
        "config error: vectors.random.count: Unable to allocate",
    ),
    # a key a mapping does not take, or both vector sources, which a run once ignored
    "space-unknown-key": (
        "rescale-fock",
        "space: {dimensoin: 4}\nh_values: [0.5]\n",
        2,
        "config error: space.dimensoin: unknown key",
    ),
    "vectors-unknown-key": (
        "rescale-fock",
        "space: {dimension: 2}\nvectors: {random: {count: 2, seed: 3}, sets: 2}\nh_values: [0.5]\n",
        2,
        "config error: vectors.sets: unknown key",
    ),
    "vectors-both-sources": (
        "positivity-scan",
        "operator: {matrix: [[1.5]]}\nvectors: {explicit: [[1]], random: {count: 50, seed: 3}}\nh_values: [1.2]\n",
        2,
        "config error: vectors: give either 'explicit' or 'random', not both",
    ),
    "random-unknown-key": (
        "positivity-scan",
        "operator: {matrix: [[1.5]]}\nvectors: {random: {cuont: 50, seed: 3}}\nh_values: [1.2]\n",
        2,
        "config error: vectors.random.cuont: unknown key",
    ),
    "h-grid-unknown-key": (
        "rescale-fock",
        "h_grid: {start: 0.5, stop: 1, count: 3, step: 9}\n",
        2,
        "config error: h_grid.step: unknown key",
    ),
    "t-grid-unknown-key": (
        "kms-verify",
        "operator: {kms: {beta: 1, matrix: [[1.0]]}}\nvectors: {random: {count: 1, seed: 3}}\n"
        "h_values: [1.0]\nt_grid: {start: 0, stop: 1, count: 3, step: 9}\n",
        2,
        "config error: t_grid.step: unknown key",
    ),
    # each time-grid rule, by its message
    **{
        f"t-grid-{name}": (
            "kms-verify",
            "operator: {kms: {beta: 1, matrix: [[1.0]]}}\nvectors: {random: {count: 1, seed: 3}}\n"
            f"h_values: [1.0]\nt_grid: {grid}\n",
            2,
            f"config error: t_grid: {message}",
        )
        for name, grid, message in (
            ("empty", "[]", "needs at least one point"),
            ("nan", "[0.0, .nan]", "points must be finite"),
            ("inf", "[0.0, .inf]", "points must be finite"),
            ("repeated", "[1.0, 1.0]", "points must be strictly increasing"),
        )
    },
    "output-unknown-key": (
        "rescale-fock",
        "h_values: [0.5]\noutput: {fromat: table}\n",
        2,
        "config error: output.fromat: unknown key",
    ),
    # config errors no other test reaches
    "vectors-without-a-source": (
        "rescale-fock",
        "space: {dimension: 2}\nvectors: {}\nh_values: [0.5]\n",
        2,
        "config error: vectors: needs 'explicit' or 'random'",
    ),
    "tolerance-unknown": (
        "rescale-fock",
        "h_values: [0.5]\ntolerances: {grma: 1}\n",
        2,
        "config error: tolerances.grma: unknown key",
    ),
    "top-level-unknown-key": (
        "rescale-fock",
        "h_values: [0.5]\nh_vaules: [1]\n",
        2,
        "config error: h_vaules: unknown key",
    ),
    "output-format-unknown": (
        "rescale-fock",
        "h_values: [0.5]\noutput: {format: csv}\n",
        2,
        "config error: output.format: expected 'object' or 'table', got 'csv'",
    ),
    "space-dimension-required": (
        "rescale-fock",
        "vectors: {random: {count: 1, seed: 1}}\nh_values: [0.5]\n",
        2,
        "config error: space.dimension: required when no matrix operator fixes it",
    ),
    # without space, rescale-fock takes its dimension from the matrix operator
    **{
        f"dimension-from-{name}": (
            "rescale-fock",
            f"operator: {operator}\nvectors: {{explicit: [[1, 0, 0]]}}\nh_values: [0.5]\n",
            2,
            "config error: vectors.explicit: expected dimension 2",
        )
        for name, operator in (
            ("operator-matrix", "{matrix: [[2, 0], [0, 3]]}"),
            ("operator-kms-matrix", "{kms: {beta: 1, matrix: [[2, 0], [0, 3]]}}"),
        )
    },
    # at beta 1e-8 the restricted paths' lambda_star = 3^(1e8) overflows a float: it is infinite
    **{
        f"lambda-star-overflow-{suite}": (
            suite,
            "operator: {kms: {beta: 1e-8, matrix: [[1.5, 0], [0, 3]]}}\nh_values: [2.0]\n"
            "vectors: {random: {count: 1, seed: 1}}\n",
            0,
            f"{suite}: ",
        )
        for suite in ("kms-verify", "restrict-scan")
    },
    # rescale-fock's unit vector takes one entry, not a row of a dim x dim identity
    "rescale-fock-dimension-1e6": (
        "rescale-fock",
        "space: {dimension: 1e6}\nvectors: {random: {count: 1, seed: 1}}\nh_values: [0.5]\n",
        0,
        "rescale-fock: ",
    ),
}


@pytest.mark.parametrize("name", list(ROWS))
def test_input_gets_a_clean_verdict(tmp_path, capsys, name):
    suite, text, code, line = ROWS[name]
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([suite, "--config", str(path), "--out", str(tmp_path / "report.json")]) == code
    assert any(err.startswith(line) for err in capsys.readouterr().err.splitlines()), line


@pytest.mark.parametrize("suite", ["kms-verify", "restrict-scan"])
def test_an_overflowing_lambda_star_is_reported_infinite(tmp_path, capsys, suite):
    test_input_gets_a_clean_verdict(tmp_path, capsys, f"lambda-star-overflow-{suite}")
    (cell,) = json.loads((tmp_path / "report.json").read_text())["cells"]
    assert cell["lambda_star"] == "INF" and cell["ok"] is True
    if suite == "kms-verify":
        assert cell["modular_bounded"] is True


def test_positivity_kernel_is_refused_before_any_vector_is_drawn(tmp_path, capsys, monkeypatch):
    def draw(*args):
        raise AssertionError("vectors drawn before the kernel buffer was allocated")

    monkeypatch.setattr(runner, "random_complex_vectors", draw)
    test_input_gets_a_clean_verdict(tmp_path, capsys, "positivity-kernel-3e6")


@pytest.mark.parametrize(
    "out, reason",
    [("missing/report.json", "No such file or directory"), (".", "Is a directory")],
    ids=["missing-directory", "a-directory"],
)
def test_an_unwritable_out_is_a_config_error(tmp_path, capsys, out, reason):
    path = tmp_path / "config.yaml"
    path.write_text("operator: {matrix: [[2, 0], [0, 3]]}\nvectors: {random: {count: 6, seed: 3}}\nh_values: [1]\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["positivity-scan", "--config", str(path), "--out", str(tmp_path / out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: --out: ") and reason in line


@pytest.mark.parametrize(
    "out",
    ["missing/report.json", ".", "missing/deeper/report.json", "config.yaml/report.json"],
    ids=["missing-directory", "a-directory", "two-missing", "a-file-as-directory"],
)
def test_an_unwritable_out_is_found_before_the_suite_runs(tmp_path, capsys, monkeypatch, out):
    build_parser()  # the cached parser names the real suites
    calls = []

    def suite(config):
        """A suite that only records its calls."""
        calls.append(config)

    monkeypatch.setitem(runner.SUITES, "positivity-scan", suite)
    path = tmp_path / "config.yaml"
    path.write_text("operator: {matrix: [[2, 0], [0, 3]]}\nvectors: {random: {count: 6, seed: 3}}\nh_values: [1]\n")
    target = tmp_path / out
    with pytest.raises(OSError) as opened:
        open(target, "w", encoding="utf-8")
    assert main(["positivity-scan", "--config", str(path), "--out", str(target)]) == 2
    assert calls == []
    # the line the open after the suite would print
    assert capsys.readouterr().err.splitlines() == [f"config error: --out: {opened.value}"]


@pytest.mark.parametrize("exists", [False, True], ids=["new-path", "existing-file"])
@pytest.mark.parametrize(
    "config",
    ["operator: {matrix: [[2, 0], [0, 3]]}\nh_values: [1]\n", "operator: {matrix: [[2, 0], [0, 3]]}\nbogus: 1\n"],
    ids=["refused-by-the-suite", "refused-by-the-reader"],
)
def test_a_config_error_creates_or_changes_no_out_file(tmp_path, capsys, exists, config):
    path = tmp_path / "config.yaml"
    path.write_text(config)
    out = tmp_path / "report.json"
    if exists:
        out.write_text("earlier report\n")
    before = out.stat() if exists else None
    assert main(["positivity-scan", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    if exists:
        after = out.stat()
        assert out.read_text() == "earlier report\n"
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    else:
        assert not out.exists()


def test_an_out_that_fails_after_the_check_is_still_a_config_error(tmp_path, capsys, monkeypatch):
    # a path that passes the check and then cannot be opened, as when its
    # directory goes away while the suite runs
    monkeypatch.setattr(cli, "_out_error", lambda path: None)
    path = tmp_path / "config.yaml"
    path.write_text("operator: {matrix: [[2, 0], [0, 3]]}\nvectors: {random: {count: 6, seed: 3}}\nh_values: [1]\n")
    assert main(["positivity-scan", "--config", str(path), "--out", str(tmp_path / "missing" / "report.json")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: --out: [Errno 2] No such file or directory: ")
