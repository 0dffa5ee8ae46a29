"""Scale relations of whole runs: the scaling isomorphism makes a verdict at
``(A, h)`` the verdict at ``(cA, ch)``, so every scale ``c`` must agree.

The factors ``c`` are powers of two, so the scaled covariance and scales are
the unscaled ones to the bit, and the random vectors are the same draws.  The
relation is agreement across ``c``, not a passing run: the rows just past
``h_max`` (``rho <= 1e-7``) exit 3 at every scale, since no coherent witness
resolves a violation that small.
"""

import json

import pytest

from weylscale.cli import main

SCALES = [2.0**k for k in (0, 5, 10, 20)]

#: relative distances past h_max, from inside the ATOM_MERGE_TOL band to far beyond it
RHOS = [3e-13, 4.5e-13, 6e-13, 9e-13, 1.1e-12, 1.5e-12, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.6]


def _run(tmp_path, suite: str, text: str) -> tuple[int, dict]:
    path, out = tmp_path / "config.yaml", tmp_path / "report.json"
    path.write_text(text, encoding="utf-8")
    code = main([suite, "--config", str(path), "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("rho", RHOS)
def test_positivity_verdicts_agree_at_every_scale(tmp_path, capsys, rho):
    outcomes = set()
    for c in SCALES:
        text = (
            f"operator: {{matrix: [[{1.5 * c!r}, 0], [0, {2 * c!r}]]}}\n"
            "vectors: {random: {count: 8, sets: 2, seed: 3}}\n"
            f"h_values: [{1.5 * c * (1 + rho)!r}]\n"
        )
        code, report = _run(tmp_path, "positivity-scan", text)
        (cell,) = report["cells"]
        outcomes.add((cell["regime"], cell["two_point_pass"], cell["witness_scale"] is not None, code))
    capsys.readouterr()
    assert len(outcomes) == 1, outcomes
    ((regime, two_point_pass, _, _),) = outcomes
    # on the bottom eigenvector the two-point slack is the regime rule's
    assert two_point_pass is (regime == "admissible")


@pytest.mark.parametrize("c", [1.0, 1024.0])
def test_a_scale_in_the_rounding_band_of_h_max_is_admissible(tmp_path, capsys, c):
    # h_max (1 + 2^-41): 1.5000000000006821 and 1536.0000000006985
    text = (
        f"operator: {{matrix: [[{1.5 * c!r}, 0], [0, {2 * c!r}]]}}\n"
        "vectors: {random: {count: 8, sets: 2, seed: 3}}\n"
        f"h_values: [{1.5 * c * (1 + 2.0**-41)!r}]\n"
    )
    code, report = _run(tmp_path, "positivity-scan", text)
    (cell,) = report["cells"]
    assert code == 0 and cell["regime"] == "admissible" and cell["two_point_pass"] is True


def test_restrict_scan_agrees_at_every_scale(tmp_path, capsys):
    outcomes = set()
    for c in SCALES:
        text = (
            f"operator: {{matrix: [[{1.5 * c!r}, 0, 0], [0, {2 * c!r}, 0], [0, 0, {3 * c!r}]]}}\n"
            "vectors: {random: {count: 4, seed: 5}}\n"
            f"h_values: [{1.2 * c!r}, {1.7 * c!r}, {2.5 * c!r}]\n"
        )
        code, report = _run(tmp_path, "restrict-scan", text)
        cells = tuple(
            (cell["subspace_dimension"], cell["rescaled_dominates_identity"], cell["nested"], cell["dichotomy_exact"])
            for cell in report["cells"]
        )
        outcomes.add((cells, code))
    capsys.readouterr()
    assert len(outcomes) == 1, outcomes
    ((cells, code),) = outcomes
    assert code == 0 and [cell[0] for cell in cells] == [3, 2, 1]
