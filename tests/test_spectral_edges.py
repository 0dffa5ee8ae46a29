"""Every suite at the edges of the spectrum: scales at a covariance eigenvalue and
one or two ulps either side, and eigenvalue clusters one ulp either side of the
merge tolerance.  Each run must end in a verdict (exit 0, 2 or 3), and where
``bench/check.py`` has a numpy-only rule the report must agree with it."""

import contextlib
import importlib.util
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylscale import covariance_from_hamiltonian, make_operator
from weylscale.cli import main
from weylscale.spectral import ATOM_MERGE_TOL


def _load_check():
    path = Path(__file__).resolve().parents[1] / "bench" / "check.py"
    spec = importlib.util.spec_from_file_location("bench_check", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


check = _load_check()


def _step(value: float, ulps: int) -> float:
    """``value`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        value = float(np.nextafter(value, math.inf if ulps > 0 else -math.inf))
    return value


def _partner(value: float, cluster) -> float:
    """The second value of a cluster: ``value`` repeated bit for bit, or the merge
    tolerance above it moved by ``cluster`` ulps."""
    return value if cluster == "repeat" else _step(value + ATOM_MERGE_TOL, cluster)


def _diag(values) -> str:
    n = len(values)
    return repr([[float(values[i]) if i == j else 0 for j in range(n)] for i in range(n)])


@st.composite
def edges(draw):
    """(beta, energies, cluster, index, ulps): the scale goes ``ulps`` from eigenvalue
    ``index``; with a ``cluster`` the two lowest eigenvalues form one (see _partner)."""
    beta = draw(st.sampled_from([0.5, 1.0, 2.0]))
    start = draw(st.floats(0.2, 1.0))
    gaps = draw(st.lists(st.floats(0.05, 0.8), min_size=1, max_size=2))
    energies = [float(e) for e in np.cumsum([start, *gaps])]
    cluster = draw(st.sampled_from([None, "repeat", -1, 0, 1]))
    if cluster is not None:
        energies[1] = _partner(energies[0], cluster)
    index = draw(st.integers(0, len(energies) - 1))
    ulps = draw(st.sampled_from([-2, -1, 0, 1, 2]))
    return beta, energies, cluster, index, ulps


def _run(workdir: str, suite: str, text: str):
    """Exit code and report (None without one) of ``suite`` on the config ``text``."""
    path = Path(workdir) / f"{suite}.yaml"
    out = Path(workdir) / f"{suite}.json"
    path.write_text(text)
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([suite, "--config", str(path), "--out", str(out)])
    assert code in (0, 2, 3), (suite, code, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    return code, json.loads(out.read_text()) if out.exists() else None


@settings(max_examples=40)
@given(edges())
# the covariance map merges the two lowest energies, 1e-12 and one ulp apart, and
# the exponential does not: restrict-scan's correspondence check once raised there
@example((2.0, [0.9, 0.9000000000010001, 1.4], 1, 0, 0))
def test_every_suite_at_spectral_edges(drawn):
    beta, energies, cluster, index, ulps = drawn
    _, covariance = check.covariance_of(np.diag(energies), beta)
    covariance = np.sort(covariance)
    if cluster is not None:
        covariance[1] = _partner(covariance[0], cluster)
    package = covariance_from_hamiltonian(make_operator(np.diag(energies)), beta).eigenvalues
    # the numpy covariance is given as a diagonal matrix, whose eigenvalues the
    # package takes over bit for bit; the KMS suites build their own from H
    h = _step(float(covariance[index]), ulps)
    h_kms = _step(float(package[index]), ulps)
    vectors = "vectors: {random: {count: 1, seed: 5}}\n"
    kms = f"operator:\n  kms: {{beta: {beta!r}, matrix: {_diag(energies)}}}\n"
    matrix = f"operator:\n  matrix: {_diag(covariance)}\n"
    grid = "t_grid: [-1.0, 0.0, 1.0]\n"
    with tempfile.TemporaryDirectory() as workdir:
        _, positivity = _run(
            workdir,
            "positivity-scan",
            matrix + "vectors: {random: {count: 3, seed: 5}}\n" + f"h_values: [{h!r}]\n",
        )
        # check.py's rule; a merged cluster is represented by its mean
        assert abs(positivity["summary"]["h_max"] - covariance[0]) <= 1e-10 * covariance[0]
        _, restrict = _run(workdir, "restrict-scan", matrix + vectors + f"h_values: [{h!r}]\n")
        _, restrict_kms = _run(
            workdir, "restrict-scan", kms + vectors + grid + f"h_values: [{h_kms!r}]\n"
        )
        _, verify = _run(workdir, "kms-verify", kms + vectors + grid + f"h_values: [{h_kms!r}]\n")
        _run(workdir, "gns-check", f"operator:\n  matrix: {_diag(covariance[:2])}\ncutoff: 4\n" + vectors)
        _run(
            workdir,
            "rescale-fock",
            "space: {dimension: 2}\n" + vectors + f"h_values: [{1 / h!r}, {_step(1.0, ulps)!r}]\n",
        )
    for report in (restrict_kms, verify):
        for cell in report["cells"]:
            if "lambda_star" in cell:
                want = check.lambda_star(h_kms, beta)
                assert abs(cell["lambda_star"] - want) <= 1e-12 * want
    if cluster in (None, "repeat"):
        # gap-separated or bit-equal: no eigenvalue moves when snapped, so h_max is
        # numpy's bottom exactly, and the subspace is the eigenvalues in (h, h_star]
        # as numpy counts them
        assert positivity["summary"]["h_max"] == covariance[0]
        (cell,) = restrict["cells"]
        h_star = float(np.max(covariance))
        if "error" in cell:
            assert not 1 < h < h_star
        else:
            selected = covariance[(covariance > h) & (covariance <= h_star)]
            assert cell["subspace_dimension"] == len(selected)
