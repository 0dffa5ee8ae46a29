"""Correctness checker for suite reports, computed with numpy alone.

It never imports the program under test.  Every expected value comes from
the generator's own record of a job's inputs (``Job.spec``): spectra from
``numpy.linalg.eigvalsh``, closed forms written out below, and properties
the method must have (finite residuals within the suite tolerance).

``check_report`` returns a ``Verdict``: the list of disagreements, and the
number of cells that fail only by the known restricted-path fault of
kms-verify (an absolute two-route tolerance on a residual that grows with
the modular values; see ``two_route_within``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

#: The suites' default tolerances; the generated configs override none.
TOLERANCES = {
    "gram": 1e-10,
    "residual": 1e-10,
    "gns": 1e-5,
    "arithmetic": 1e-12,
    "pointwise": 1e-14,
    "two_route": 1e-12,
}

#: Beyond h_max the witness search must find an eigenvalue below this.
WITNESS_EIG_THRESHOLD = -1e-8

RESIDUAL_KEYS = ("max_r0", "max_rbeta", "rescaled_max_r0", "rescaled_max_rbeta")


@dataclass
class Verdict:
    problems: list = field(default_factory=list)
    fault_cells: int = 0

    def expect(self, condition: bool, message: str) -> bool:
        if not condition:
            self.problems.append(message)
        return bool(condition)

    def close(self, where: str, got, want: float, rel: float, absolute: float = 0.0) -> bool:
        value = number(got)
        ok = math.isfinite(value) and abs(value - want) <= max(absolute, rel * abs(want))
        return self.expect(ok, f"{where}: got {got!r}, expected {want!r}")

    def small(self, where: str, got, bound: float) -> bool:
        value = number(got)
        return self.expect(
            math.isfinite(value) and value <= bound, f"{where}: {got!r} not finite or above {bound!r}"
        )


def number(value) -> float:
    """Report floats; non-finite values are written as quoted markers."""
    if isinstance(value, bool) or value is None:
        return math.nan
    if isinstance(value, (int, float)):
        return float(value)
    return {"NaN": math.nan, "INF": math.inf, "-INF": -math.inf}.get(value, math.nan)


def modular_top(cov_values: np.ndarray, beta: float) -> float:
    """Largest value of ((a+1)/(a-1))^(1/beta) over a covariance spectrum."""
    return float(np.max(((cov_values + 1.0) / (cov_values - 1.0)) ** (1.0 / beta)))


def two_route_within(residual: float, modular_max: float) -> bool:
    """The two-route residual is an absolute spectral distance between two
    constructions of one modular operator, so its round-off grows with the
    largest modular value; the checker scales the suite tolerance by it."""
    return residual <= TOLERANCES["two_route"] * max(1.0, modular_max)


def j_h(lam, h: float, beta: float):
    power = lam ** beta
    return ((1.0 - h + (1.0 + h) * power) / (1.0 + h + (1.0 - h) * power)) ** (1.0 / beta)


def lambda_star(h: float, beta: float) -> float:
    return ((h + 1.0) / (h - 1.0)) ** (1.0 / beta)


def covariance_of(hamiltonian: np.ndarray, beta: float) -> tuple[float, np.ndarray]:
    energies = np.linalg.eigvalsh(hamiltonian)
    return float(energies[0]), 1.0 / np.tanh(beta * energies / 2.0)


# ---------------------------------------------------------------------------
# per-suite checks


def gram_min_eigenvalue(covariance: np.ndarray, vectors: np.ndarray, h: float) -> tuple[float, float]:
    """Minimum eigenvalue and max entry of M_jk = exp(-i h Im<f_j,f_k>/2) exp(-<d, A d>/4)."""
    f = vectors.T
    form = f.conj().T @ covariance @ f
    diag = np.real(np.diag(form))
    quad = diag[:, None] + diag[None, :] - 2.0 * np.real(form)
    sym = np.imag(f.conj().T @ f)
    kernel = np.exp(-0.5j * h * sym) * np.exp(-0.25 * quad)
    return float(np.linalg.eigvalsh(kernel)[0]), float(np.max(np.abs(kernel)))


def check_positivity(report: dict, spec: dict, v: Verdict) -> None:
    covariance = spec["covariance"]
    vectors = spec["vectors"]
    eigenvalues, eigenvectors = np.linalg.eigh(covariance)
    h_max = float(eigenvalues[0])
    e = eigenvectors[:, 0]
    v.close("summary.h_max", report["summary"]["h_max"], h_max, 1e-10)
    cells = report["cells"]
    if not v.expect(len(cells) == len(spec["h_values"]), "cell count"):
        return
    threshold = first_failing = None
    for cell, h in zip(cells, spec["h_values"]):
        where = f"cell h={h}"
        v.expect(cell["h"] == h, f"{where}: h echoed as {cell['h']!r}")
        admissible = h <= h_max
        v.expect(cell["regime"] == ("admissible" if admissible else "beyond"), f"{where}: regime")
        min_eig, peak = gram_min_eigenvalue(covariance, vectors, h)
        v.close(f"{where}: gram_min_eigenvalue", cell["gram_min_eigenvalue"], min_eig, 0.0, 1e-9)
        psd = min_eig >= -TOLERANCES["gram"] * len(vectors) * peak
        v.expect(cell["gram_all_psd"] == psd, f"{where}: gram_all_psd")
        lhs = abs(np.vdot(e, 1j * e).imag) ** 2
        rhs = (np.vdot(e, covariance @ e).real / h) * (np.vdot(1j * e, covariance @ (1j * e)).real / h)
        v.close(f"{where}: two_point_lhs", cell["two_point_lhs"], lhs, 1e-9)
        v.close(f"{where}: two_point_rhs", cell["two_point_rhs"], rhs, 1e-9)
        v.expect(cell["two_point_pass"] == admissible, f"{where}: two_point_pass")
        if admissible:
            v.expect(psd, f"{where}: admissible kernel not PSD")
            v.expect(cell["witness_scale"] is None, f"{where}: witness inside the admissible range")
        else:
            witness = number(cell["witness_min_eigenvalue"])
            v.expect(witness < WITNESS_EIG_THRESHOLD, f"{where}: no Gram violation witness")
        v.expect(cell["ok"] is True, f"{where}: ok")
        if psd and admissible:
            threshold = h if threshold is None else max(threshold, h)
        elif first_failing is None:
            first_failing = h
    v.expect(report["summary"]["empirical_threshold"] == threshold, "summary.empirical_threshold")
    v.expect(report["summary"]["first_failing_h"] == first_failing, "summary.first_failing_h")


def _kms_cell(cell: dict, h: float, spec: dict, eps: float, cov: np.ndarray, v: Verdict) -> None:
    beta = spec["beta"]
    where = f"cell h={h} pair={cell.get('pair')}"
    residual_tol = TOLERANCES["residual"]
    residuals_ok = all(
        v.small(f"{where}: {key}", cell[key], residual_tol) for key in RESIDUAL_KEYS if key in cell
    )
    if h > 1:
        v.expect(cell["path"] == "restricted", f"{where}: path")
        v.close(f"{where}: lambda_star", cell["lambda_star"], lambda_star(h, beta), 1e-12)
        v.expect(cell["modular_bounded"] is True, f"{where}: modular_bounded")
        selected = cov[cov > h]
        modular_max = modular_top(selected / h, beta)
        other_checks = residuals_ok and cell["modular_bounded"] is True
    elif h == 1:
        v.expect(cell["path"] == "unrescaled", f"{where}: path")
        strip = number(cell["strip_sup"])
        v.expect(math.isfinite(strip) and strip > 0, f"{where}: strip_sup")
        v.expect(cell["ok"] == residuals_ok, f"{where}: ok")
        return
    else:
        v.expect(cell["path"] == "rescaled", f"{where}: path")
        v.close(f"{where}: delta_bottom", cell["delta_bottom"], math.log(j_h(math.exp(eps), h, beta)), 1e-9)
        v.expect(cell["delta_bottom_exact"] is True, f"{where}: delta_bottom_exact")
        strip = number(cell["strip_sup"])
        v.expect(math.isfinite(strip) and strip > 0, f"{where}: strip_sup")
        modular_max = modular_top(cov / h, beta)
        other_checks = residuals_ok and cell["delta_bottom_exact"] is True
    two_route = number(cell["two_route_residual"])
    v.expect(
        math.isfinite(two_route) and two_route_within(two_route, modular_max),
        f"{where}: two_route_residual {cell['two_route_residual']!r} above the scaled tolerance",
    )
    absolute_ok = two_route <= TOLERANCES["two_route"]
    v.expect(cell["ok"] == (other_checks and absolute_ok), f"{where}: ok")
    if other_checks and not absolute_ok and h > 1:
        v.fault_cells += 1


def check_kms(report: dict, spec: dict, v: Verdict) -> None:
    eps, cov = covariance_of(spec["hamiltonian"], spec["beta"])
    summary = report["summary"]
    v.close("summary.epsilon", summary["epsilon"], eps, 1e-10, 1e-12)
    v.close("summary.h_star", summary["h_star"], float(np.max(cov)), 1e-9)
    v.expect(summary["modular_exponential_ok"] is True, "summary.modular_exponential_ok")
    v.small("summary.modular_exponential_residual", summary["modular_exponential_residual"], TOLERANCES["residual"])
    cells = report["cells"]
    expected = [(h, p) for h in spec["h_values"] for p in range(spec["pairs"])]
    if not v.expect(len(cells) == len(expected), "cell count"):
        return
    for cell, (h, pair) in zip(cells, expected):
        v.expect(cell["h"] == h and cell["pair"] == pair, f"cell h={h} pair={pair}: order")
        _kms_cell(cell, h, spec, eps, cov, v)
    largest = max((number(c[k]) for c in cells for k in RESIDUAL_KEYS if k in c), default=0.0)
    v.expect(number(summary["max_residual"]) == largest, "summary.max_residual")


def check_restrict(report: dict, spec: dict, v: Verdict) -> None:
    beta = spec["beta"]
    _, cov = covariance_of(spec["hamiltonian"], beta)
    h_star = float(np.max(cov))
    v.close("summary.h_star", report["summary"]["h_star"], h_star, 1e-9)
    v.expect(number(report["summary"]["trace_property_deviation"]) == 0.0, "summary.trace_property_deviation")
    v.expect(report["summary"]["trace_property_ok"] is True, "summary.trace_property_ok")
    cells = report["cells"]
    if not v.expect(len(cells) == len(spec["h_values"]), "cell count"):
        return
    residual_tol = TOLERANCES["residual"]
    for cell, h in zip(cells, spec["h_values"]):
        where = f"cell h={h}"
        v.expect(cell["h"] == h, f"{where}: h echoed as {cell['h']!r}")
        selected = cov[(cov > h) & (cov <= h_star)]
        v.expect(cell["subspace_dimension"] == len(selected), f"{where}: subspace_dimension")
        v.close(f"{where}: rescaled_bottom", cell["rescaled_bottom"], float(np.min(selected)) / h, 1e-9)
        v.expect(number(cell["rescaled_bottom"]) >= 1.0, f"{where}: rescaled_bottom below 1")
        v.expect(cell["rescaled_dominates_identity"] is True, f"{where}: rescaled_dominates_identity")
        v.expect(cell["nested"] is True, f"{where}: nested")
        excluded = len(selected) < len(cov)
        v.expect(cell["dichotomy_exact"] is (True if excluded else None), f"{where}: dichotomy_exact")
        v.close(f"{where}: lambda_star", cell["lambda_star"], lambda_star(h, beta), 1e-12)
        v.expect(cell["spectral_correspondence"] is True, f"{where}: spectral_correspondence")
        for key in RESIDUAL_KEYS:
            v.small(f"{where}: {key}", cell[key], residual_tol)
        v.expect(cell["ok"] is True, f"{where}: ok")


def check_fock(report: dict, spec: dict, v: Verdict) -> None:
    summary = report["summary"]
    for key in ("identity_quasi_equivalent_ok", "finite_rank_quasi_equivalent_ok"):
        v.expect(summary[key] is True, f"summary.{key}")
    cells = report["cells"]
    if not v.expect(len(cells) == len(spec["h_values"]), "cell count"):
        return
    for cell, h in zip(cells, spec["h_values"]):
        where = f"cell h={h}"
        v.expect(cell["h"] == h, f"{where}: h echoed as {cell['h']!r}")
        v.close(f"{where}: occupation_expectation", cell["occupation_expectation"], (1 - h) / (2 * h), 1e-12, 1e-15)
        v.close(f"{where}: c", cell["c"], (1 - h) / (1 + h), 1e-12, 1e-15)
        v.expect(cell["quasi_equivalent_to_fock"] is (h == 1), f"{where}: quasi_equivalent_to_fock")
        v.small(f"{where}: occupation_deviation", cell["occupation_deviation"], TOLERANCES["arithmetic"])
        v.small(f"{where}: roundtrip_deviation", cell["roundtrip_deviation"], 1e-14)
        v.small(f"{where}: exponent_deviation", cell["exponent_deviation"], 1e-14)
        v.small(f"{where}: mixture_pointwise_deviation", cell["mixture_pointwise_deviation"], TOLERANCES["pointwise"])
        v.expect(cell["ok"] is True, f"{where}: ok")


def check_gns(report: dict, spec: dict, v: Verdict) -> None:
    tol = TOLERANCES["gns"]
    count = len(spec["vectors"])
    cells = report["cells"]
    expectation = [c for c in cells if c["kind"] == "expectation"]
    relation = [c for c in cells if c["kind"] == "relation"]
    v.expect(len(expectation) == count, "expectation cell count")
    v.expect(len(relation) == (count if count > 1 else 1), "relation cell count")
    v.expect(len(expectation) + len(relation) == len(cells), "unknown cell kind")
    for cell in expectation:
        v.small(f"expectation {cell['index']}: closed_form_deviation", cell["closed_form_deviation"], tol)
        v.expect(cell["ok"] is True, f"expectation {cell['index']}: ok")
    for cell in relation:
        v.small(f"relation {cell['index']}: weyl_relation_residual", cell["weyl_relation_residual"], tol)
        v.small(f"relation {cell['index']}: commutant_residual", cell["commutant_residual"], tol)
        v.expect(cell["ok"] is True, f"relation {cell['index']}: ok")
    summary = report["summary"]
    v.small("summary.doubling_identity_residual", summary["doubling_identity_residual"], 1e-10)
    v.expect(summary["doubling_identity_ok"] is True, "summary.doubling_identity_ok")
    largest = max((number(c["closed_form_deviation"]) for c in expectation), default=0.0)
    v.expect(number(summary["max_closed_form_deviation"]) == largest, "summary.max_closed_form_deviation")
    v.expect(report["config"]["cutoff"] == spec["cutoff"], "config.cutoff echo")


CHECKS = {
    "positivity-scan": check_positivity,
    "kms-verify": check_kms,
    "restrict-scan": check_restrict,
    "rescale-fock": check_fock,
    "gns-check": check_gns,
}


def check_report(suite: str, spec: dict, text: str | None) -> Verdict:
    """Check one rendered report against the job's inputs."""
    verdict = Verdict()
    if text is None:
        verdict.problems.append("no report written")
        return verdict
    try:
        report = json.loads(text)
        verdict.expect(report["experiment"] == suite, "experiment name")
        echoed = report["config"]["h_values"]
        verdict.expect(echoed == list(spec.get("h_values", echoed)), "config.h_values echo")
        CHECKS[suite](report, spec, verdict)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        verdict.problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return verdict


def job_outcome(job, exit_code: int, text: str | None) -> tuple[bool, bool, list]:
    """(passed, known_fault, problems) for one reference run of a job.

    A job passes with exit code 0 and no disagreement.  It fails by the
    known fault when the only failing cells are restricted-path cells whose
    two-route residual exceeds the absolute tolerance but not the scaled one,
    and the program says so with exit code 3.
    """
    verdict = check_report(job.suite, job.spec, text)
    problems = list(verdict.problems)
    if exit_code == 0 and verdict.fault_cells:
        problems.append(f"exit code 0 with {verdict.fault_cells} failing cells")
    if exit_code == 0 and not problems:
        return True, False, problems
    known = exit_code == 3 and not problems and verdict.fault_cells > 0
    if exit_code not in (0, 3) or (exit_code == 3 and not verdict.fault_cells):
        problems.append(f"exit code {exit_code}")
    return False, known, problems
