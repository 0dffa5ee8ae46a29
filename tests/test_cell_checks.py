"""Each suite's named checks, one at a time: a config, or a patched internal, on
which a single check decides the cell, asserted by the name the CLI prints.

Every ``contract violation:`` line on standard error ends with ``failed:`` and
the names of the cell's failing checks; an error cell fails the check ``error``.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import weylscale.runner
from weylscale.cli import main
from weylscale.restriction import NonRegularFunctional
from weylscale.states import RescaledFockState, TwoPointCheck

POSITIVITY = """
operator:
  matrix: [[%s, 0, 0], [0, 2, 0], [0, 0, 4]]
vectors:
  random: {count: 6, sets: 5, seed: 11}
h_values: %s
"""

KMS = """
operator:
  kms: {matrix: [["ln2"]], beta: 1}
vectors:
  %s
h_values: %s
"""

GNS = """
operator:
  matrix: [[2.0]]
vectors:
  random: {count: 3, seed: 9}
cutoff: 30
"""

SMALL_BETA = """
operator:
  kms: {beta: 1e-8, matrix: [[1.5, 0], [0, 3]]}
vectors:
  random: {count: 1, seed: 1}
h_values: [1.0]
"""

RESTRICT = """
operator:
  matrix: [[1, 0], [0, 3]]
vectors:
  random: {count: 10, seed: 29}
h_values: [1.5, 2.0, 2.5]
"""


def _run(tmp_path, capsys, suite, text):
    """Exit code, report cells and, per failing cell, the check names its stderr line ends with."""
    path = tmp_path / "config.yaml"
    path.write_text(text)
    out = tmp_path / "r.json"
    code = main([suite, "--config", str(path), "--out", str(out)])
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("contract violation: {")]
    assert all(" failed: " in line for line in lines)
    return code, json.loads(out.read_text())["cells"], [line.rsplit(" failed: ", 1)[1] for line in lines]


def test_scale_past_h_max_by_more_than_rounding_is_beyond(tmp_path, capsys):
    # 9e-7 past h_max = 1: the two-point check fails there, and the scan finds a witness
    code, cells, failed = _run(tmp_path, capsys, "positivity-scan", POSITIVITY % (1.0, "[1.0000009]"))
    assert code == 0 and failed == []
    (cell,) = cells
    assert cell["regime"] == "beyond" and cell["two_point_pass"] is False
    assert cell["witness_scale"] is not None


@pytest.mark.parametrize(
    "matrix, h_values",
    # every phi(s e) of the fixed sweep is about 0 at these sizes; the sweep on e / sqrt(h) finds the witness
    [("[[100, 0], [0, 133]]", "[50, 110, 160]"), ("[[30, 0], [0, 40]]", "[30.3]")],
)
def test_beyond_cells_of_a_large_covariance_find_a_witness(tmp_path, capsys, matrix, h_values):
    text = f"operator: {{matrix: {matrix}}}\nvectors: {{random: {{count: 8, seed: 3}}}}\nh_values: {h_values}\n"
    code, cells, failed = _run(tmp_path, capsys, "positivity-scan", text)
    assert code == 0 and failed == []
    beyond = [cell for cell in cells if cell["regime"] == "beyond"]
    assert beyond and all(cell["witness_scale"] is not None for cell in beyond)


def test_beyond_cell_whose_two_point_check_passes_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        weylscale.runner, "two_point_criterion", lambda *args: TwoPointCheck(lhs=1.0, rhs=1.0, verdict=True)
    )
    code, cells, failed = _run(tmp_path, capsys, "positivity-scan", POSITIVITY % (1.5, "[1.0, 2.0]"))
    assert code == 3
    assert [cell["regime"] for cell in cells] == ["admissible", "beyond"]
    assert [cell["ok"] for cell in cells] == [True, False]
    assert failed == ["two_point_fails"]


def test_admissible_cell_whose_kernel_is_not_psd_fails(tmp_path, capsys, monkeypatch):
    original = weylscale.runner.check_sigma_h_positivity
    monkeypatch.setattr(
        weylscale.runner,
        "check_sigma_h_positivity",
        lambda *args: dataclasses.replace(original(*args), verdict=False),
    )
    code, cells, failed = _run(tmp_path, capsys, "positivity-scan", POSITIVITY % (1.5, "[1.0]"))
    assert code == 3
    (cell,) = cells
    assert cell["regime"] == "admissible" and cell["gram_all_psd"] is False
    assert failed == ["gram_all_psd"]


def test_admissible_cell_whose_two_point_check_fails_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        weylscale.runner, "two_point_criterion", lambda *args: TwoPointCheck(lhs=2.0, rhs=1.0, verdict=False)
    )
    code, cells, failed = _run(tmp_path, capsys, "positivity-scan", POSITIVITY % (1.5, "[1.0]"))
    assert code == 3
    (cell,) = cells
    assert cell["regime"] == "admissible" and cell["gram_all_psd"] is True
    assert failed == ["two_point_pass"]


def test_beyond_cell_without_a_witness_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(weylscale.runner, "scan_for_gram_violation", lambda *args: None)
    code, cells, failed = _run(tmp_path, capsys, "positivity-scan", POSITIVITY % (1.5, "[2.0]"))
    assert code == 3
    (cell,) = cells
    assert cell["regime"] == "beyond" and cell["witness_scale"] is None
    assert failed == ["witness_found"]


def test_positivity_error_cell_names_its_error(tmp_path, capsys):
    text = "operator: {matrix: [[2, 0], [0, 3]]}\nvectors: {explicit: [[1e200, 0], [0, 1e200]]}\nh_values: [1]\n"
    code, cells, failed = _run(tmp_path, capsys, "positivity-scan", text)
    assert code == 3 and failed == ["error"]
    assert cells[0]["error"].startswith("overflow:")


def test_kms_residual_just_over_its_bound_fails(tmp_path, capsys, monkeypatch):
    # vectors of norm 0.1 keep ||A|| ||f|| ||g|| ||Delta||^beta = 3 * 0.01 * 2 below 1, so
    # the bound is tol = 1e-10 itself, which a residual of 1e-9 exceeds tenfold
    original = weylscale.runner.kms_boundary_residuals

    def residuals(*args):
        report = original(*args)
        return dataclasses.replace(report, r0=np.full_like(report.r0, 1e-9))

    monkeypatch.setattr(weylscale.runner, "kms_boundary_residuals", residuals)
    code, cells, failed = _run(tmp_path, capsys, "kms-verify", KMS % ('explicit: [[0.1], ["0.1j"]]', "[1.0]"))
    assert code == 3
    (cell,) = cells
    assert cell["path"] == "unrescaled" and cell["max_r0"] == 1e-9
    assert failed == ["kms_within"]


def test_rescaled_two_route_residual_over_tolerance_fails(tmp_path, capsys, monkeypatch):
    original = weylscale.runner.rescaled_modular
    monkeypatch.setattr(
        weylscale.runner,
        "rescaled_modular",
        lambda *args: dataclasses.replace(original(*args), two_route_residual=1e-6),
    )
    code, cells, failed = _run(tmp_path, capsys, "kms-verify", KMS % ("random: {count: 2, seed: 3}", "[0.5]"))
    assert code == 3
    assert [cell["path"] for cell in cells] == ["rescaled", "rescaled"]
    assert all(cell["two_route_residual"] == 1e-6 for cell in cells)
    assert failed == ["two_route", "two_route"]


def test_rescaled_delta_bottom_off_the_generator_fails(tmp_path, capsys, monkeypatch):
    # inf_spectrum is read by kms-verify's rescaled path alone
    monkeypatch.setattr(weylscale.runner, "inf_spectrum", lambda op: -1.0)
    code, cells, failed = _run(tmp_path, capsys, "kms-verify", KMS % ("random: {count: 2, seed: 3}", "[0.5]"))
    assert code == 3
    assert [cell["delta_bottom_exact"] for cell in cells] == [False, False]
    assert failed == ["delta_bottom_exact"] * 2


def test_modular_exponential_bound_grows_as_one_over_beta(tmp_path, capsys):
    # the power 1/beta carries the rounding of (a+1)/(a-1) to Delta 1/beta-fold: at beta
    # 1e-8 the residual 6.8e-8 is within tol ||Delta|| / beta = 1e-10 e^3 / 1e-8 = 0.20
    code, _, failed = _run(tmp_path, capsys, "kms-verify", SMALL_BETA)
    summary = json.loads((tmp_path / "r.json").read_text())["summary"]
    assert code == 0 and failed == []
    assert summary["modular_exponential_ok"] and summary["modular_exponential_residual"] > 1e-8


def test_modular_exponential_ten_times_its_bound_fails(tmp_path, capsys, monkeypatch):
    # spectral_distance is read by kms-verify's modular exponential check alone
    residual = 10 * 1e-10 * math.exp(3.0) / 1e-8
    monkeypatch.setattr(weylscale.runner, "spectral_distance", lambda *args: residual)
    code, cells, failed = _run(tmp_path, capsys, "kms-verify", SMALL_BETA)
    summary = json.loads((tmp_path / "r.json").read_text())["summary"]
    assert code == 3 and failed == [] and all(cell["ok"] for cell in cells)
    assert summary["modular_exponential_residual"] == residual
    assert summary["modular_exponential_ok"] is False


def _patch_restricted_model(monkeypatch, **changes):
    original = weylscale.runner.restricted_model
    monkeypatch.setattr(
        weylscale.runner, "restricted_model", lambda *args, **kw: dataclasses.replace(original(*args, **kw), **changes)
    )


def test_restricted_modular_above_lambda_star_fails(tmp_path, capsys, monkeypatch):
    # at h = 2 the restricted modular operator has norm 2, above 1.5 (lambda_star is 3)
    _patch_restricted_model(monkeypatch, lam_star=1.5)
    code, cells, failed = _run(tmp_path, capsys, "kms-verify", KMS % ("random: {count: 2, seed: 3}", "[2.0]"))
    assert code == 3
    assert [cell["path"] for cell in cells] == ["restricted", "restricted"]
    assert [cell["modular_bounded"] for cell in cells] == [False, False]
    assert failed == ["modular_bounded"] * 2


def test_restricted_two_route_residual_over_tolerance_fails(tmp_path, capsys, monkeypatch):
    _patch_restricted_model(monkeypatch, two_route_residual=1e-6)
    code, cells, failed = _run(tmp_path, capsys, "kms-verify", KMS % ("random: {count: 2, seed: 3}", "[2.0]"))
    assert code == 3
    assert [cell["path"] for cell in cells] == ["restricted", "restricted"]
    assert failed == ["two_route"] * 2


def test_restricted_rescaled_residual_over_its_bound_fails(tmp_path, capsys, monkeypatch):
    original = weylscale.runner.restricted_kms_residuals

    def residuals(*args, rescaled=False):
        report = original(*args, rescaled=rescaled)
        return dataclasses.replace(report, r0=np.full_like(report.r0, 1.0)) if rescaled else report

    monkeypatch.setattr(weylscale.runner, "restricted_kms_residuals", residuals)
    code, cells, failed = _run(tmp_path, capsys, "kms-verify", KMS % ("random: {count: 2, seed: 3}", "[2.0]"))
    assert code == 3
    assert [cell["rescaled_max_r0"] for cell in cells] == [1.0, 1.0]
    assert failed == ["rescaled_kms_within"] * 2


def test_kms_scale_without_a_model_fails_every_pair_with_its_error(tmp_path, capsys):
    code, cells, failed = _run(tmp_path, capsys, "kms-verify", KMS % ("random: {count: 2, seed: 3}", "[.nan]"))
    assert code == 3
    assert [cell["pair"] for cell in cells] == [0, 1]
    assert all(cell["error"] == "scale must be positive" for cell in cells)
    assert failed == ["error", "error"]


def test_cell_whose_arrays_cannot_be_allocated_is_an_error_cell(tmp_path, capsys, monkeypatch):
    # as the KMS strip tables of a long t_grid fail; nothing is allocated for real
    def refused(*args):
        raise MemoryError("Unable to allocate 5.96 GiB for an array with shape (2, 5, 20000000, 2)")

    monkeypatch.setattr(weylscale.runner, "kms_boundary_residuals", refused)
    code, cells, failed = _run(tmp_path, capsys, "kms-verify", KMS % ("random: {count: 2, seed: 3}", "[1.0]"))
    assert code == 3
    assert [cell["error"] for cell in cells] == [
        "Unable to allocate 5.96 GiB for an array with shape (2, 5, 20000000, 2)"
    ] * 2
    assert failed == ["error"] * 2


def test_gns_commutant_over_tolerance_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(weylscale.runner, "commutant_residual", lambda *args: 1.0)
    code, cells, failed = _run(tmp_path, capsys, "gns-check", GNS)
    assert code == 3
    relations = [cell for cell in cells if cell["kind"] == "relation"]
    assert len(relations) == 3 and not any(cell["ok"] for cell in relations)
    assert all(cell["ok"] for cell in cells if cell["kind"] == "expectation")
    assert failed == ["commutant"] * 3


def test_gns_relation_over_tolerance_fails(tmp_path, capsys, monkeypatch):
    # twice the 1e-5 tolerance: the check fails it unless loosened by 2 or more
    monkeypatch.setattr(weylscale.runner, "weyl_relation_residual", lambda *args: 2e-5)
    code, cells, failed = _run(tmp_path, capsys, "gns-check", GNS)
    assert code == 3
    relations = [cell for cell in cells if cell["kind"] == "relation"]
    assert len(relations) == 3 and not any(cell["ok"] for cell in relations)
    assert all(cell["ok"] for cell in cells if cell["kind"] == "expectation")
    assert failed == ["weyl_relation"] * 3


def test_gns_expectation_off_the_closed_form_fails(tmp_path, capsys, monkeypatch):
    # each vacuum value moved by twice the 1e-5 tolerance
    expectation = weylscale.runner.gns_expectation
    monkeypatch.setattr(weylscale.runner, "gns_expectation", lambda *args: expectation(*args) + 2e-5)
    code, cells, failed = _run(tmp_path, capsys, "gns-check", GNS)
    assert code == 3
    expectations = [cell for cell in cells if cell["kind"] == "expectation"]
    assert len(expectations) == 3 and not any(cell["ok"] for cell in expectations)
    assert all(cell["ok"] for cell in cells if cell["kind"] == "relation")
    assert failed == ["closed_form"] * 3


def test_extension_nonzero_off_the_subspace_breaks_the_dichotomy(tmp_path, capsys, monkeypatch):
    class Leaky(NonRegularFunctional):
        """Exact at 0, but nonzero off the restricted subspace."""

        def value(self, f):
            return super().value(f) or 0.5

    monkeypatch.setattr(weylscale.runner, "NonRegularFunctional", Leaky)
    code, cells, failed = _run(tmp_path, capsys, "restrict-scan", RESTRICT)
    assert code == 3
    assert [cell["dichotomy_exact"] for cell in cells] == [False] * 3
    assert failed == ["dichotomy_exact"] * 3


def test_rescaled_covariance_below_identity_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(weylscale.runner, "dominates_identity", lambda op: False)
    code, cells, failed = _run(tmp_path, capsys, "restrict-scan", RESTRICT)
    assert code == 3
    assert [cell["rescaled_dominates_identity"] for cell in cells] == [False] * 3
    assert failed == ["rescaled_dominates_identity"] * 3


RESTRICT_KMS = """
operator:
  kms: {matrix: [[0.5, 0], [0, 1.5]], beta: 1}
vectors:
  random: {count: 4, seed: 29}
h_values: [1.5, 2.0]
"""


def test_spectral_correspondence_off_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(weylscale.runner, "_spectral_correspondence", lambda *args: False)
    code, cells, failed = _run(tmp_path, capsys, "restrict-scan", RESTRICT_KMS)
    assert code == 3
    assert [cell["spectral_correspondence"] for cell in cells] == [False, False]
    assert failed == ["spectral_correspondence"] * 2


def test_rescale_fock_mixture_off_the_functional_fails(tmp_path, capsys, monkeypatch):
    class Shifted(RescaledFockState):
        def value(self, f):
            return super().value(f) + 1e-9

    monkeypatch.setattr(weylscale.runner, "RescaledFockState", Shifted)
    text = "space: {dimension: 1}\nvectors: {explicit: [[0.5]]}\nh_values: [0.5, 1.5]\n"
    code, cells, failed = _run(tmp_path, capsys, "rescale-fock", text)
    assert code == 3
    assert cells[0]["mixture_pointwise_deviation"] > 1e-14 and cells[1]["error"] == "scale outside (0, 1]"
    assert failed == ["mixture_pointwise", "error"]


RESCALE = "h_values: [0.5, 1.0]\n"

#: occupations of about 5e4 and 5e6, which round by an ulp: far above 1e-12, but not relative to them
SMALL_SCALES = "h_values: [1e-5, 1e-7]\nspace: {dimension: 2}\nvectors: {random: {count: 3, seed: 3}}\n"


def test_rescale_fock_occupation_bound_grows_with_the_occupation(tmp_path, capsys):
    code, cells, failed = _run(tmp_path, capsys, "rescale-fock", SMALL_SCALES)
    assert code == 0
    assert [cell["ok"] for cell in cells] == [True, True]
    assert cells[0]["occupation_deviation"] > 1e-12 and cells[1]["occupation_deviation"] > 1e-12


def test_rescale_fock_occupation_off_its_closed_form_fails(tmp_path, capsys, monkeypatch):
    # each occupation moved by twice the 1e-12 arithmetic tolerance
    occupation = weylscale.runner.one_particle_number_expectation
    monkeypatch.setattr(weylscale.runner, "one_particle_number_expectation", lambda *args: occupation(*args) + 2e-12)
    code, cells, failed = _run(tmp_path, capsys, "rescale-fock", RESCALE)
    assert code == 3
    assert [cell["ok"] for cell in cells] == [False, False]
    assert failed == ["occupation"] * 2


def test_rescale_fock_large_occupation_off_its_closed_form_fails(tmp_path, capsys, monkeypatch):
    # each occupation moved by twice its bound, 1e-12 times the occupation
    occupation = weylscale.runner.one_particle_number_expectation
    monkeypatch.setattr(
        weylscale.runner, "one_particle_number_expectation", lambda *args: occupation(*args) * (1 + 2e-12)
    )
    code, cells, failed = _run(tmp_path, capsys, "rescale-fock", SMALL_SCALES)
    assert code == 3
    assert [cell["ok"] for cell in cells] == [False, False]
    assert failed == ["occupation"] * 2


def test_rescale_fock_quasi_equivalent_below_one_fails(tmp_path, capsys, monkeypatch):
    # every scale read as quasi-equivalent to Fock: right at h = 1 only
    monkeypatch.setattr(weylscale.runner, "is_quasi_equivalent_to_fock", lambda op: True)
    code, cells, failed = _run(tmp_path, capsys, "rescale-fock", RESCALE)
    assert code == 3
    assert [cell["ok"] for cell in cells] == [False, True]
    assert failed == ["quasi_equivalence"]


def test_rescale_fock_roundtrip_off_by_more_than_its_bound_fails(tmp_path, capsys, monkeypatch):
    # h recovered from c twice the 1e-14 bound away
    h_of_c = weylscale.runner.h_of_c
    monkeypatch.setattr(weylscale.runner, "h_of_c", lambda c: h_of_c(c) + 2e-14)
    code, cells, failed = _run(tmp_path, capsys, "rescale-fock", RESCALE)
    assert code == 3
    assert [cell["ok"] for cell in cells] == [False, False]
    assert failed == ["roundtrip"] * 2
