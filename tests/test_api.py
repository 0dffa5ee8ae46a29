"""The public names of weylscale, and a caller for every public function.

Adding or dropping a public name means editing NAMES here and saying so in
CHANGES.md in the same change.
"""

import ast
import inspect
import sys

import weylscale
import weylscale.cli as cli

from conftest import ROOT

#: public functions no suite calls yet, each with the ROADMAP item that will call it
PLANNED = {
    "F_function": 22,
    "Phi_function": 22,
    "time_evolution": 22,
    "two_point_function": 22,
    "limit_to_trace_state": 23,
}

NAMES = [
    "Atom",
    "ConfigInvalid",
    "DimensionMismatch",
    "DomainViolation",
    "F_function",
    "GnsModel",
    "GramFactors",
    "GramReport",
    "GramViolationWitness",
    "INF",
    "InvalidMatrix",
    "KmsModel",
    "KmsWitnessReport",
    "MixtureMeasure",
    "MixtureState",
    "ModelMismatch",
    "NonRegularFunctional",
    "OperatorSpec",
    "OutOfRange",
    "Phi_function",
    "QuasiFreeState",
    "RescaledFockState",
    "RescaledKmsModel",
    "RestrictedModel",
    "SpectrumBelowOne",
    "StateFunctional",
    "TraceLimitReport",
    "TraceState",
    "TwoPointReport",
    "WeylWord",
    "WeylscaleError",
    "apply_function",
    "c_parameter",
    "check_sigma_h_positivity",
    "check_trace_property",
    "commutant_residual",
    "covariance_from_hamiltonian",
    "default_time_grid",
    "evaluate_state",
    "gamma_iso",
    "gns_expectation",
    "gram_factors",
    "gram_matrix",
    "h_max",
    "h_of_c",
    "inf_spectrum",
    "inner",
    "is_quasi_equivalent_to_fock",
    "is_trace_class_minus_identity",
    "j_h_function",
    "kms_boundary_residuals",
    "kms_model",
    "lambda_star",
    "limit_to_trace_state",
    "make_operator",
    "modular_operator",
    "nonregular_extension",
    "one_particle_number_expectation",
    "op_norm",
    "quadratic_form",
    "quasi_free_functional",
    "rescale_functional",
    "rescaled_kms_residuals",
    "rescaled_modular",
    "restricted_kms_residuals",
    "restricted_model",
    "scan_for_gram_violation",
    "sigma",
    "spectral_correspondence_check",
    "spectral_distance",
    "time_evolution",
    "trace_state",
    "two_point_criterion",
    "two_point_function",
    "universally_invariant_functional",
    "weyl_adjoint",
    "weyl_multiply",
    "weyl_relation_residual",
    "word_distance",
]


def test_public_names_are_pinned():
    assert sorted(weylscale.__all__) == NAMES


def test_every_public_function_has_a_caller(first_jobs, capsys):
    """Each public function is called by one of the first suite-mix jobs, imported by
    the acceptance criteria or planned for a ROADMAP item, and no planned one is called."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(job.argv()) for job in first_jobs.values()]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(cli.SUITES)
    functions = {name: getattr(weylscale, name) for name in weylscale.__all__}
    functions = {name: f for name, f in functions.items() if inspect.isfunction(f)}
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    accepted = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "weylscale"
        for alias in node.names
    }
    reached = {name for name, f in functions.items() if f.__code__ in called}
    assert set(PLANNED) <= set(functions)
    assert sorted(reached & set(PLANNED)) == [], "called by a suite, so no longer planned"
    assert sorted(set(functions) - reached - accepted - set(PLANNED)) == [], "public functions with no caller"
