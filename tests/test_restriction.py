import math

import numpy as np
import pytest

from weylscale import (
    INF,
    NonRegularFunctional,
    OperatorSpec,
    RescaledFockState,
    WeylWord,
    check_sigma_h_positivity,
    check_trace_property,
    covariance_from_hamiltonian,
    evaluate_state,
    gamma_iso,
    inf_spectrum,
    j_h_function,
    kms_model,
    lambda_star,
    limit_to_trace_state,
    make_operator,
    modular_operator,
    nonregular_extension,
    op_norm,
    quasi_free_functional,
    rescale_functional,
    restricted_kms_residuals,
    restricted_model,
    spectral_correspondence_check,
    trace_state,
    weyl_multiply,
)
from weylscale.errors import DimensionMismatch, ModelMismatch, OutOfRange
from weylscale.restriction import _member

from weylscale.spectral import ATOM_MERGE_TOL

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
            with pytest.raises(OutOfRange, match=rf"scale parameter {h} outside \(1, 3.0\)"):
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
        base = kms_model(OperatorSpec.from_atoms([(LOG2, 1)]).with_declared_bounds(supremum=INF), 1.0)
        model = restricted_model(base.covariance, 2.0, beta=1.0)
        assert op_norm(model.restricted_modular) == model.lam_star
        assert inf_spectrum(model.rescaled_covariance) == 1.0


class TestSubspaceSelection:
    """The subspace of a restricted model: covariance eigenvalues in (h, h_star]."""

    def test_scale_at_an_eigenvalue_excludes_it(self):
        covariance = make_operator(np.diag([1.5, 2.0, 3.0]))
        assert restricted_model(covariance, 2.0).selected_indices == (2,)
        assert restricted_model(covariance, 1.5).selected_indices == (1, 2)
        assert restricted_model(covariance, np.nextafter(2.0, 0.0)).selected_indices == (1, 2)

    def test_top_is_selected_just_below_it(self):
        model = restricted_model(make_operator(np.diag([1.0, 3.0])), np.nextafter(3.0, 0.0))
        assert model.selected_indices == (1,)
        assert np.allclose(model.project(np.eye(2)), np.diag([0.0, 1.0]), atol=1e-12)

    def test_atoms_at_the_scale_are_excluded(self):
        model = restricted_model(make_operator([(1.5, INF), (3.0, 2)]), 1.5)
        assert model.selected_indices == ()
        assert [a.value for a in model.restricted_covariance.atoms] == [3.0]
        assert model.subspace_dimension == 2

    def test_cluster_is_selected_or_excluded_as_one(self):
        # 2.0 and 2.0 + TOL/2 snap to their mean, which lies above 2.0
        values = [1.5, 2.0, 2.0 + 0.5 * ATOM_MERGE_TOL, 3.0]
        covariance = make_operator(np.diag(values))
        cluster = covariance.eigenvalues[1]
        assert covariance.eigenvalues[2] == cluster > 2.0
        assert restricted_model(covariance, 2.0).selected_indices == (1, 2, 3)
        assert restricted_model(covariance, cluster).selected_indices == (3,)
        atoms = make_operator([(1.5, INF), (values[1], 1), (values[2], 1), (3.0, 1)])
        assert restricted_model(atoms, 2.0).subspace_dimension == 3
        assert restricted_model(atoms, atoms.atoms[1].value).subspace_dimension == 1

    def test_projection_is_idempotent_and_self_adjoint(self, rng):
        covariance = random_covariance(rng, 5)
        values = covariance.eigenvalues
        model = restricted_model(covariance, 0.5 * (values[1] + values[2]))
        assert model.selected_indices == (2, 3, 4)
        p = model.project(np.eye(5))
        assert np.max(np.abs(p @ p - p)) <= 1e-10
        assert np.max(np.abs(p - p.conj().T)) <= 1e-10
        assert model.residual(model.project(random_vector(rng, 5))) <= 1e-12

    def test_degenerate_top_eigenspace_is_flagged(self, rng):
        gaussian = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(gaussian)
        covariance = make_operator(q @ np.diag([1.5, 3.0, 3.0]).astype(complex) @ q.conj().T)
        assert covariance.eigenvalues[1] == covariance.eigenvalues[2]
        f = covariance.eigenvectors[:, 1:] @ random_vector(rng, 2)
        report = limit_to_trace_state(covariance, f, [2.0, 2.9])
        assert report.stays_in_top_eigenspace
        assert report.top_overlap == pytest.approx(np.linalg.norm(f))
        mixed = f + 0.1 * covariance.eigenvectors[:, 0]
        assert not limit_to_trace_state(covariance, mixed, [2.0, 2.9]).stays_in_top_eigenspace

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_membership_is_relative_to_the_norm(self, rng, c):
        # a rotated basis, so a projection rounds at a multiple of ||f||: about 1e-10 at
        # c = 1e6, where an absolute SUBSPACE_TOL would count no vector a member
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        covariance = make_operator(q @ np.diag([1.5, 2.0, 3.0]).astype(complex) @ q.conj().T)
        model = restricted_model(covariance, 1.7)
        v = model.basis() @ random_vector(rng, 2)
        assert _member(c * v, model.project(c * v))
        off = v + 1e-9 * np.linalg.norm(v) * covariance.eigenvectors[:, 0]
        # off the subspace by 1e-9 relative, which the floor of 1e-12 hides only below norm 1e-3
        assert _member(c * off, model.project(c * off)) is (c < 1)
        top = covariance.eigenvectors[:, 2]
        assert limit_to_trace_state(covariance, c * top, [2.0, 2.9]).stays_in_top_eigenspace
        assert not limit_to_trace_state(covariance, c * off, [2.0, 2.9]).stays_in_top_eigenspace

    def test_extension_is_the_rescaled_gaussian_on_compressed_coordinates(self, rng):
        covariance = random_covariance(rng, 4)
        h = float(0.5 * (covariance.eigenvalues[1] + covariance.eigenvalues[2]))
        model = restricted_model(covariance, h)
        f = model.basis() @ random_vector(rng, 2)
        coords = model.compress(f)
        scaled = model.restricted_covariance.eigenvalues / h
        expected = complex(np.exp(-0.25 * float(np.vdot(coords, scaled * coords).real)))
        assert NonRegularFunctional(model).value(f) == expected


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

    def test_energies_merged_by_the_covariance_map_only(self):
        # at beta = 2 the covariance map shrinks the gap 1e-12 + 1 ulp between the two
        # lowest energies below the merge tolerance, and the exponential widens it
        hamiltonian = make_operator(np.diag([0.9, 0.9000000000010001, 1.4]))
        covariance = covariance_from_hamiltonian(hamiltonian, 2.0)
        assert len(hamiltonian.atoms) == 3 and len(covariance.atoms) == 2
        h_star = op_norm(covariance)
        for h in (1.05, 1.2, 1.39, float(np.nextafter(h_star, 0.0))):
            assert spectral_correspondence_check(covariance, hamiltonian, 2.0, h) is True

    @pytest.mark.parametrize(
        "beta, energies",
        [
            (1.0, [LOG2, math.log(3.0), math.log(4.0)]),
            (0.2, [0.1, 0.9, 4.0, 17.0]),
            (3.7, [0.05, 0.3, 0.8, 1.6]),
        ],
    )
    def test_scales_within_two_ulps_of_an_eigenvalue(self, beta, energies):
        # at a boundary atom the two selections may round apart; both are right
        hamiltonian = make_operator(np.diag(energies))
        covariance = covariance_from_hamiltonian(hamiltonian, beta)
        for value in covariance.eigenvalues:
            below, above = np.nextafter(value, 0.0), np.nextafter(value, np.inf)
            scales = (np.nextafter(below, 0.0), below, value, above, np.nextafter(above, np.inf))
            for h in scales:
                assert spectral_correspondence_check(covariance, hamiltonian, beta, float(h)) is True

    def test_mismatch_beyond_rounding_fails(self, monkeypatch):
        from weylscale import restriction

        hamiltonian = make_operator(np.diag([LOG2, math.log(3.0), math.log(4.0)]))
        covariance = covariance_from_hamiltonian(hamiltonian, 1.0)
        h = float(covariance.eigenvalues[1])
        exact = restriction.lambda_star
        monkeypatch.setattr(restriction, "lambda_star", lambda h, beta: exact(h, beta) * (1 + 1e-9))
        assert spectral_correspondence_check(covariance, hamiltonian, 1.0, h) is False


class TestRestrictedResiduals:
    def test_two_level_kms(self, rng):
        hamiltonian = make_operator(np.diag([LOG2, math.log(4.0)]))
        base = kms_model(hamiltonian, 1.0)
        model = restricted_model(base.covariance, 2.0, beta=1.0)
        f = model.project(random_vector(rng, 2))
        g = model.project(random_vector(rng, 2))
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
        with pytest.raises(DimensionMismatch, match="vector f has projection residual 1.000e"):
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
        basis = model.basis()[:, 0]
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
        basis = model.basis()
        for _ in range(10):
            inside = basis @ random_vector(rng, basis.shape[1])
            for f in (inside, random_vector(rng, 5), 1e3 * inside):
                assert phi.value(f) == reference.value(f)
        assert phi.value(inside) != 0.0

    def test_needs_a_matrix_model(self):
        model = restricted_model(make_operator([(1.0, INF), (3.0, 2)]), 2.0)
        with pytest.raises(ModelMismatch, match="operation needs concrete eigenvectors"):
            NonRegularFunctional(model)

    def test_nesting_of_subspaces(self):
        covariance = make_operator(np.diag([1.2, 2.0, 3.0]))
        previous = None
        for h in (1.1, 1.5, 2.1, 2.8):
            selection = set(restricted_model(covariance, h).selected_indices)
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


NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda: weyl_multiply(WeylWord.identity(1), WeylWord.identity(1), NAN),
        lambda: gamma_iso(WeylWord.identity(1), NAN),
        lambda: RescaledFockState(NAN),
        lambda: rescale_functional(trace_state(), NAN),
        lambda: j_h_function(2.0, NAN, 1.0),
        lambda: j_h_function(2.0, 0.5, NAN),
        lambda: lambda_star(NAN, 1.0),
        lambda: lambda_star(3.0, NAN),
        lambda: modular_operator(make_operator([[3.0]]), NAN),
        lambda: covariance_from_hamiltonian(make_operator([[LOG2]]), NAN),
    ],
    ids=[
        "weyl_multiply",
        "gamma_iso",
        "RescaledFockState",
        "rescale_functional",
        "j_h_function-h",
        "j_h_function-beta",
        "lambda_star-h",
        "lambda_star-beta",
        "modular_operator",
        "covariance_from_hamiltonian",
    ],
)
def test_nan_scale_or_inverse_temperature_rejected(call):
    # each guard reads "not x > 0", which NaN fails, rather than "x <= 0", which it passes;
    # a scale or inverse temperature out of its domain is OutOfRange wherever it is checked
    with pytest.raises(
        OutOfRange, match=r"^(scale parameter|inverse temperature) nan (must be positive|too close)"
    ):
        call()
