import math

import numpy as np
import pytest

from weylscale import (
    INF,
    NonRegularFunctional,
    OperatorSpec,
    WeylWord,
    check_sigma_h_positivity,
    check_trace_property,
    evaluate_state,
    inf_spectrum,
    kms_model,
    lambda_star,
    limit_to_trace_state,
    make_operator,
    nonregular_extension,
    op_norm,
    quasi_free_functional,
    restricted_kms_residuals,
    restricted_model,
    spectral_correspondence_check,
    trace_state,
    weyl_multiply,
)
from weylscale.errors import (
    ModelMismatch,
    OutOfRange,
    ScaleOutOfRange,
    SpectralVariantHasNoVectors,
    VectorOutsideSubspace,
)

from conftest import random_covariance, random_vector, random_word

LOG2 = math.log(2.0)


class TestRestrictedModel:
    def test_two_level_example(self):
        model = restricted_model(make_operator(np.diag([1.0, 3.0])), 2.0)
        assert model.subspace_dimension == 1
        assert [a.value for a in model.restricted_covariance.atoms] == [3.0]
        assert inf_spectrum(model.rescaled_covariance) == pytest.approx(1.5)

    def test_out_of_range_scales(self):
        covariance = make_operator(np.diag([1.0, 3.0]))
        for h in (0.5, 1.0, 3.0, 3.5):
            with pytest.raises(ScaleOutOfRange):
                restricted_model(covariance, h)

    def test_kms_scalar_case(self):
        model = restricted_model(make_operator([[3.0]]), 2.0, beta=1.0)
        assert model.lam_star == pytest.approx(3.0)
        values = [a.value for a in model.restricted_modular.atoms]
        assert values == pytest.approx([2.0])
        assert 2.0 <= values[0] < model.lam_star
        assert model.two_route_residual <= 1e-12

    def test_spectral_variant(self):
        model = restricted_model(make_operator([(1.0, INF), (3.0, 2)]), 2.0)
        assert model.subspace_dimension == 2
        assert [a.value for a in model.restricted_covariance.atoms] == [3.0]

    def test_modular_norm_bounded_by_lambda_star(self):
        model = restricted_model(make_operator(np.diag([1.0, 2.0, 3.0])), 1.5, beta=1.0)
        assert op_norm(model.restricted_modular) <= model.lam_star + 1e-12

    def test_unbounded_regime_attains_lambda_star(self):
        base = kms_model(OperatorSpec.from_atoms([(LOG2, 1)]), 1.0, unbounded_above=True)
        model = restricted_model(base.covariance, 2.0, beta=1.0)
        assert op_norm(model.restricted_modular) == model.lam_star
        assert inf_spectrum(model.rescaled_covariance) == 1.0


class TestLambdaStar:
    def test_values(self):
        assert lambda_star(3.0, 1.0) == pytest.approx(2.0)
        assert lambda_star(3.0, 2.0) == pytest.approx(math.sqrt(2.0))

    def test_pole_guard(self):
        with pytest.raises(OutOfRange):
            lambda_star(1.0 + 1e-12, 1.0)
        with pytest.raises(OutOfRange):
            lambda_star(2.0, 0.0)


class TestSpectralCorrespondence:
    def test_scalar_case(self):
        hamiltonian = make_operator([[LOG2]])
        covariance = make_operator([[3.0]])
        assert spectral_correspondence_check(covariance, hamiltonian, 1.0, 2.0) is True

    def test_two_level_sweep(self):
        hamiltonian = make_operator(np.diag([LOG2, math.log(4.0)]))
        covariance = make_operator(np.diag([3.0, 5.0 / 3.0]))
        for h in (1.2, 1.5, 2.0, 2.5, 2.9):
            assert spectral_correspondence_check(covariance, hamiltonian, 1.0, h) is True

    def test_empty_selections_agree(self):
        hamiltonian = make_operator([[LOG2]])
        covariance = make_operator([[3.0]])
        assert spectral_correspondence_check(covariance, hamiltonian, 1.0, 3.5) is True

    def test_model_mismatch(self):
        hamiltonian = make_operator([[LOG2]])
        with pytest.raises(ModelMismatch):
            spectral_correspondence_check(make_operator([[2.5]]), hamiltonian, 1.0, 2.0)


class TestRestrictedResiduals:
    def test_two_level_kms(self, rng):
        hamiltonian = make_operator(np.diag([LOG2, math.log(4.0)]))
        base = kms_model(hamiltonian, 1.0)
        model = restricted_model(base.covariance, 2.0, beta=1.0)
        f = model.projection.apply(random_vector(rng, 2))
        g = model.projection.apply(random_vector(rng, 2))
        for rescaled in (False, True):
            report = restricted_kms_residuals(model, f, g, rescaled=rescaled)
            assert report.max_residual <= 1e-10

    def test_scalar_kms(self):
        model = restricted_model(make_operator([[3.0]]), 2.0, beta=1.0)
        f = np.array([1.0])
        for rescaled in (False, True):
            report = restricted_kms_residuals(model, f, f, rescaled=rescaled)
            assert report.max_residual <= 1e-10

    def test_vector_outside_subspace(self):
        model = restricted_model(make_operator(np.diag([1.0, 3.0])), 2.0, beta=1.0)
        inside = np.array([0.0, 1.0])
        outside = np.array([1.0, 0.0])
        with pytest.raises(VectorOutsideSubspace):
            restricted_kms_residuals(model, outside, inside)

    def test_needs_modular_data(self):
        model = restricted_model(make_operator(np.diag([1.0, 3.0])), 2.0)
        with pytest.raises(ModelMismatch):
            restricted_kms_residuals(model, np.array([0.0, 1.0]), np.array([0.0, 1.0]))


class TestNonRegularExtension:
    def test_values_on_and_off_subspace(self):
        phi = nonregular_extension(make_operator(np.diag([1.0, 3.0])), 2.0)
        assert phi.value([0.0, 1.0]) == pytest.approx(np.exp(-3.0 / 8.0))
        assert phi.value([1.0, 0.0]) == 0.0
        assert phi.value([0.0, 0.0]) == 1.0

    def test_dichotomy_along_excluded_direction(self):
        phi = nonregular_extension(make_operator(np.diag([1.0, 3.0])), 2.0)
        excluded = np.array([1.0, 0.0])
        values = [phi.value(t * excluded) for t in (0.0, 1e-6, 0.5, 1.0, 2.0)]
        assert values[0] == 1.0
        assert all(v == 0.0 for v in values[1:])

    def test_usable_by_word_evaluation(self):
        phi = nonregular_extension(make_operator(np.diag([1.0, 3.0])), 2.0)
        word = WeylWord.generator([0.0, 1.0], 2.0) + WeylWord.generator([1.0, 0.0], 5.0)
        assert evaluate_state(phi, word) == pytest.approx(2 * np.exp(-3.0 / 8.0))

    def test_restriction_is_positive_at_scale_h(self, rng):
        # the restriction of the original state stays quasi-free at scale h
        covariance = make_operator(np.diag([1.0, 3.0]))
        model = restricted_model(covariance, 2.0)
        phi = quasi_free_functional(covariance)
        basis = model.projection.basis()[:, 0]
        for _ in range(20):
            coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            vectors = [c * basis for c in coeffs]
            report = check_sigma_h_positivity(phi, vectors, 2.0)
            assert report.min_eigenvalue >= -1e-10

    def test_extension_is_positive_at_scale_one(self, rng):
        # mixed on/off-subspace vectors, kernel at the unscaled symplectic form
        phi = nonregular_extension(make_operator(np.diag([1.0, 3.0])), 2.0)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        for _ in range(30):
            vectors = []
            for _ in range(5):
                c1, c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                vectors.append(c1 * e1 + c2 * e2 if rng.uniform() < 0.5 else c2 * e2)
            report = check_sigma_h_positivity(phi, vectors, 1.0)
            assert report.min_eigenvalue >= -1e-10

    def test_from_a_kms_model_equals_the_extension(self, rng):
        # restrict-scan evaluates the extension on the scale's KMS model
        covariance = random_covariance(rng, 5, 1.2, 4.0)
        values = covariance.eigenvalues
        h = 0.5 * (values[1] + values[2])
        model = restricted_model(covariance, h, beta=0.7)
        phi, reference = NonRegularFunctional(model), nonregular_extension(covariance, h)
        basis = model.projection.basis()
        for _ in range(10):
            inside = basis @ random_vector(rng, basis.shape[1])
            for f in (inside, random_vector(rng, 5), 1e3 * inside):
                assert phi.value(f) == reference.value(f)
        assert phi.value(inside) != 0.0

    def test_needs_a_matrix_model(self):
        model = restricted_model(make_operator([(1.0, INF), (3.0, 2)]), 2.0)
        with pytest.raises(SpectralVariantHasNoVectors):
            NonRegularFunctional(model)

    def test_nesting_of_subspaces(self):
        covariance = make_operator(np.diag([1.2, 2.0, 3.0]))
        previous = None
        for h in (1.1, 1.5, 2.1, 2.8):
            selection = set(restricted_model(covariance, h).projection.selected_indices)
            if previous is not None:
                assert selection <= previous
            previous = selection


class TestTraceState:
    def test_cancelling_pair(self):
        omega = trace_state()
        f = np.array([0.7, -0.2j])
        u, v = WeylWord.generator(f), WeylWord.generator(-f)
        assert evaluate_state(omega, weyl_multiply(u, v, 1.0)) == 1.0
        assert evaluate_state(omega, weyl_multiply(v, u, 1.0)) == 1.0

    def test_non_cancelling_pair(self):
        omega = trace_state()
        u = WeylWord.generator([1.0, 0.0])
        v = WeylWord.generator([0.0, 1.0])
        assert evaluate_state(omega, weyl_multiply(u, v, 1.0)) == 0.0
        assert evaluate_state(omega, weyl_multiply(v, u, 1.0)) == 0.0

    def test_trace_property_exact_on_random_words(self, rng):
        pairs = [(random_word(rng, 2), random_word(rng, 2)) for _ in range(100)]
        assert check_trace_property(trace_state(), pairs) == 0.0

    def test_trace_property_exact_at_other_scales(self, rng):
        pairs = [(random_word(rng, 2), random_word(rng, 2)) for _ in range(20)]
        assert check_trace_property(trace_state(), pairs, h=2.7) == 0.0


class TestTraceLimit:
    def test_excluded_direction_is_identically_zero(self):
        covariance = make_operator(np.diag([1.0, 3.0]))
        report = limit_to_trace_state(covariance, [1.0, 0.0], [1.1, 1.5, 2.0, 2.9])
        assert report.values == (0.0,) * 4
        assert not report.stays_in_top_eigenspace
        assert report.eventual_value == 0.0

    def test_mixed_direction_is_identically_zero(self):
        covariance = make_operator(np.diag([1.0, 3.0]))
        report = limit_to_trace_state(covariance, [0.5, 0.5], [1.1, 1.5, 2.0, 2.9])
        assert report.values == (0.0,) * 4

    def test_top_eigenvector_is_flagged(self):
        covariance = make_operator(np.diag([1.0, 3.0]))
        grid = [1.1, 1.5, 2.0, 2.9]
        report = limit_to_trace_state(covariance, [0.0, 1.0], grid)
        assert report.stays_in_top_eigenspace
        assert report.top_overlap == pytest.approx(1.0)
        expected = tuple(np.exp(-3.0 / (4 * h)) for h in grid)
        assert report.values == pytest.approx(expected)
        # the tail tends to exp(-||f||^2/4), not the trace-state value 0
        assert abs(report.eventual_value - np.exp(-0.25)) < 0.05
