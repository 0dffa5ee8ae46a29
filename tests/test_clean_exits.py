"""Inputs that once ended in a traceback or a warning, each with the clean verdict it gets.

Each row is a suite, a config text, the exit code and the start of one line
the run prints on standard error.  The run goes through ``cli.main`` with
every warning turned into an error, so a warning fails the row as a traceback
does.  The sizes refused are beyond any address space (1e17 points, or a
3e6 x 3e6 kernel of 131 TiB), so no row takes more real memory than its
drawn vectors: about 100 MB for a moment, for the 3e6 vectors of the kernel row.
"""

import warnings

import pytest

from weylscale.cli import main

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
