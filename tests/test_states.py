import numpy as np
import pytest

from weylscale import (
    INF,
    MixtureMeasure,
    MixtureState,
    NonRegularFunctional,
    QuasiFreeState,
    RescaledFockState,
    StateFunctional,
    TraceState,
    WeylWord,
    check_sigma_h_positivity,
    evaluate_state,
    gamma_iso,
    gram_factors,
    gram_matrix,
    h_max,
    make_operator,
    nonregular_extension,
    quasi_free_functional,
    rescale_functional,
    scan_for_gram_violation,
    sigma,
    two_point_criterion,
)
from weylscale.errors import DimensionMismatch, SpectrumBelowOne
from weylscale.spectral import dominates_identity, scalar_value
from weylscale.states import WITNESS_SCALES

from conftest import random_covariance, random_vector, random_word


class TestQuasiFreeFunctional:
    def test_fock_value(self):
        phi = quasi_free_functional(make_operator(np.eye(1)))
        assert phi.value([1.0]) == pytest.approx(np.exp(-0.25))

    def test_diagonal_covariance(self):
        phi = quasi_free_functional(make_operator(np.diag([1.0, 3.0])))
        assert phi.value([0.0, 1.0]) == pytest.approx(np.exp(-0.75))

    def test_sub_vacuum_rejected_unless_unchecked(self):
        below = make_operator(0.9 * np.eye(2))
        with pytest.raises(SpectrumBelowOne, match="spectrum reaches 0.9 < 1"):
            quasi_free_functional(below)
        phi = QuasiFreeState(below)
        assert phi.value([1.0, 0.0]) == pytest.approx(np.exp(-0.225))

    def test_conjugation_symmetry(self, rng):
        phi = quasi_free_functional(random_covariance(rng, 3))
        f = random_vector(rng, 3)
        assert phi.value(-f) == pytest.approx(np.conj(phi.value(f)))


class TestEvaluateState:
    def test_doubled_norm(self):
        phi = quasi_free_functional(make_operator(2 * np.eye(2)))
        f = np.array([1.0, 1.0])  # norm^2 = 2, <f, 2f> = 4
        assert evaluate_state(phi, WeylWord.generator(f)) == pytest.approx(np.exp(-1.0))

    def test_identity_word_normalization(self, rng):
        for phi in (
            quasi_free_functional(random_covariance(rng, 2)),
            RescaledFockState(0.5),
            TraceState(),
        ):
            assert evaluate_state(phi, WeylWord.identity(2)) == 1.0

    def test_trace_state_kills_nonzero_generators(self):
        assert evaluate_state(TraceState(), WeylWord.generator([0.1, 0.0])) == 0.0

    def test_dimension_mismatch(self):
        phi = quasi_free_functional(make_operator(np.eye(2)))
        with pytest.raises(DimensionMismatch):
            evaluate_state(phi, WeylWord.generator([1.0]))


class TestRescaleFunctional:
    def test_gaussian_covariance_divides(self):
        phi = rescale_functional(quasi_free_functional(make_operator(np.eye(2))), 0.5)
        assert phi.covariance.atoms[0].value == 2.0
        f = np.array([1.0, 1.0])
        assert phi.value(f) == pytest.approx(np.exp(-np.vdot(f, f).real / 2))

    def test_identity_rescaling(self, rng):
        base = quasi_free_functional(random_covariance(rng, 2))
        same = rescale_functional(base, 1.0)
        f = random_vector(rng, 2)
        assert same.value(f) == pytest.approx(base.value(f))

    def test_rescaled_fock_closed_form(self):
        phi = RescaledFockState(0.5)
        f = np.array([0.6, 0.8j])
        assert phi.value(f) == pytest.approx(np.exp(-1.0 / (4 * 0.5)))
        composed = rescale_functional(RescaledFockState(1.0), 0.5)
        assert composed.value(f) == pytest.approx(phi.value(f))

    def test_trace_state_is_unchanged(self):
        phi = TraceState()
        assert rescale_functional(phi, 0.3) is phi

    def test_generic_functional_is_evaluated_at_f_over_sqrt_h(self, rng):
        # a mixture has no closed-form rescaling, so the generic wrapper serves it
        base = MixtureState(MixtureMeasure(((0.0, 0.25), (0.5, 0.75))))
        phi = rescale_functional(base, 0.4)
        assert not isinstance(phi, MixtureState)
        for _ in range(5):
            f = random_vector(rng, 3)
            assert phi.value(f) == base.value(f / np.sqrt(0.4))

    def test_generic_functional_kernel(self, rng):
        # gram_matrix takes the wrapper entry by entry, and the kernel at scale h
        # equals the rescaled kernel at scale 1 on the sqrt(h)-stretched vectors
        base = MixtureState(MixtureMeasure(((0.0, 0.25), (0.5, 0.75))))
        h = 0.4
        vectors = [random_vector(rng, 2) for _ in range(4)]
        lhs = gram_matrix(base, vectors, h)
        rhs = gram_matrix(rescale_functional(base, h), [np.sqrt(h) * f for f in vectors], 1.0)
        assert rhs.shape == (4, 4)
        assert np.max(np.abs(lhs - rhs)) <= 1e-14


def per_entry_kernel(phi, vectors, h):
    """Reference kernel, one sigma and one phi.value per entry."""
    n = len(vectors)
    kernel = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            phase = np.exp(-0.5j * h * sigma(vectors[j], vectors[k]))
            kernel[j, k] = phase * phi.value(vectors[j] - vectors[k])
    return kernel


class TestBatchedKernel:
    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: QuasiFreeState(random_covariance(rng, 5)),
            lambda rng: QuasiFreeState(make_operator([(2.5, INF)])),
            lambda rng: RescaledFockState(0.6),
        ],
        ids=["quasi-free-matrix", "quasi-free-scalar", "rescaled-fock"],
    )
    def test_closed_forms_match_per_entry(self, rng, build):
        phi = build(rng)
        assert type(phi).difference_values is not StateFunctional.difference_values
        vectors = [2.0 * random_vector(rng, 5) for _ in range(40)]
        for h in (0.3, 1.0, 2.7):
            kernel = gram_matrix(phi, vectors, h)
            reference = per_entry_kernel(phi, vectors, h)
            assert np.max(np.abs(kernel - reference)) <= 1e-12 * np.max(np.abs(reference))
            # phi(0) = 1 exactly: the difference forms vanish on the diagonal
            assert np.all(kernel.diagonal() == 1.0)

    def test_trace_state_falls_back_to_entries(self, rng):
        phi = TraceState()
        assert type(phi).difference_values is StateFunctional.difference_values
        vectors = [np.zeros(3)] + [random_vector(rng, 3) for _ in range(6)]
        vectors.append(vectors[2].copy())
        kernel = gram_matrix(phi, vectors, 1.7)
        reference = per_entry_kernel(phi, vectors, 1.7)
        assert np.max(np.abs(kernel - reference)) <= 1e-12
        assert kernel[2, 7] != 0

    def test_nonregular_falls_back_to_entries(self, rng):
        phi = nonregular_extension(make_operator(np.diag([1.0, 3.0, 4.0])), 2.0)
        assert isinstance(phi, NonRegularFunctional)
        assert type(phi).difference_values is StateFunctional.difference_values
        # the surviving subspace at h = 2 is spanned by the last two axes
        on_subspace = [np.concatenate([[0.0], random_vector(rng, 2)]) for _ in range(4)]
        vectors = on_subspace + [random_vector(rng, 3) for _ in range(3)]
        kernel = gram_matrix(phi, vectors, 2.0)
        reference = per_entry_kernel(phi, vectors, 2.0)
        assert np.max(np.abs(kernel - reference)) <= 1e-12
        assert np.count_nonzero(kernel) > len(vectors)


def full_kernel(phi, vectors, h):
    """Reference kernel: the full formula, phases and phi differences on all n^2 entries."""
    rows = np.stack([np.asarray(v, dtype=complex) for v in vectors])
    phases = np.exp(-0.5j * h * (rows.conj() @ rows.T).imag)
    if isinstance(phi, (QuasiFreeState, RescaledFockState)):
        if isinstance(phi, RescaledFockState):
            gram = rows.conj() @ rows.T
        elif phi.covariance.is_matrix:
            gram = rows.conj() @ phi.covariance.matrix @ rows.T
        else:
            gram = scalar_value(phi.covariance) * (rows.conj() @ rows.T)
        diagonal = gram.diagonal().real
        forms = diagonal[:, None] + diagonal[None, :] - 2.0 * gram.real
        if isinstance(phi, RescaledFockState):
            values = np.exp(-forms / (4.0 * phi.h)).astype(complex)
        else:
            values = np.exp(-0.25 * forms).astype(complex)
    else:
        n = rows.shape[0]
        values = np.empty((n, n), dtype=complex)
        for j in range(n):
            for k in range(n):
                values[j, k] = phi.value(rows[j] - rows[k])
    return phases * values


_MIXTURE = MixtureMeasure(((0.0, 0.25), (0.5, 0.75)))

#: a functional for vectors in C^n, and the most vectors it is tried on: the
#: functionals evaluated entry by entry stop short of the closed forms' 160
_FUNCTIONALS = {
    "quasi-free-matrix": (lambda rng, n: QuasiFreeState(random_covariance(rng, n)), 160),
    "quasi-free-scalar": (lambda rng, n: QuasiFreeState(make_operator([(2.5, INF)])), 160),
    "rescaled-fock": (lambda rng, n: RescaledFockState(0.6), 160),
    "mixture": (lambda rng, n: MixtureState(_MIXTURE), 48),
    "trace": (lambda rng, n: TraceState(), 48),
    "rescaled-wrapper": (lambda rng, n: rescale_functional(MixtureState(_MIXTURE), 0.4), 48),
}


class TestLowerTriangleKernel:
    """The kernel built from its lower triangle against the full formula."""

    @pytest.mark.parametrize(
        "name, dim, count",
        [
            (name, dim, count)
            for name, (_, most) in _FUNCTIONALS.items()
            for dim in (1, 4, 12)
            for count in (1, 13, most)
        ],
    )
    def test_kernel_is_the_full_formula_mirrored(self, rng, name, dim, count):
        phi = _FUNCTIONALS[name][0](rng, dim)
        vectors = [random_vector(rng, dim) for _ in range(count)]
        vectors[count // 2] = vectors[0].copy()  # a repeat: the trace kernel is not the identity
        for h in (0.7, 2.3):
            kernel = gram_matrix(phi, vectors, h)
            reference = full_kernel(phi, vectors, h)
            lower = np.tril_indices(count, -1)
            assert kernel[lower].tobytes() == reference[lower].tobytes()
            # the reference's diagonal phase carries the rounding of Im<f, f> = 0 in
            # its imaginary part, which eigvalsh never reads; gram_matrix's is exact
            assert kernel.diagonal().real.tobytes() == reference.diagonal().real.tobytes()
            assert np.all(kernel.diagonal().imag == 0.0)
            assert np.array_equal(kernel, kernel.conj().T)
            report = check_sigma_h_positivity(phi, vectors, h)
            assert report.min_eigenvalue.hex() == float(np.linalg.eigvalsh(reference)[0]).hex()
            # an (m, n) array of rows is read as it is, with the same kernel
            assert gram_matrix(phi, np.stack(vectors), h).tobytes() == kernel.tobytes()
        if name == "trace" and count > 1:
            assert kernel[count // 2, 0] == 1.0

    def test_rows_of_the_wrong_dimension(self, rng):
        phi = QuasiFreeState(random_covariance(rng, 3))
        with pytest.raises(DimensionMismatch, match=r"vector of shape \(2,\) against functional over C\^3"):
            gram_matrix(phi, np.zeros((4, 2)), 1.0)
        with pytest.raises(DimensionMismatch, match=r"vector of shape \(2,\)"):
            gram_matrix(phi, [np.zeros(3), np.zeros(2)], 1.0)

    def test_no_vectors_give_an_empty_kernel(self):
        assert gram_matrix(RescaledFockState(0.5), [], 1.0).shape == (0, 0)
        assert gram_matrix(RescaledFockState(0.5), np.zeros((0, 3)), 1.0).shape == (0, 0)


#: the functionals a scan runs through one kernel buffer: a closed form of each kind,
#: and two evaluated entry by entry
_SCANNED = {
    "quasi-free-matrix": lambda rng: QuasiFreeState(random_covariance(rng, 3)),
    "rescaled-fock": lambda rng: RescaledFockState(0.6),
    "mixture": lambda rng: MixtureState(_MIXTURE),
    "trace": lambda rng: TraceState(),
}


class TestKernelBuffer:
    """Kernels assembled from a set's factors into one buffer, scale after scale."""

    @pytest.mark.parametrize("name", sorted(_SCANNED))
    def test_a_shuffled_grid_through_one_buffer_gives_the_fresh_kernels(self, rng, name):
        phi = _SCANNED[name](rng)
        vectors = np.stack([random_vector(rng, 3) for _ in range(24)])
        vectors[7] = vectors[2]  # a repeat: the trace kernel is not the identity
        factors = gram_factors(phi, vectors)
        buffer = gram_matrix(phi, vectors, 9.0)  # another scale's kernel to start from
        for h in rng.permutation([0.3, 0.7, 1.0, 1.5, 2.3, 4.0]):
            report = check_sigma_h_positivity(phi, factors, h, out=buffer)
            assert report.kernel is buffer
            assert buffer.tobytes() == gram_matrix(phi, vectors, h).tobytes()
            fresh = check_sigma_h_positivity(phi, vectors, h)
            assert report.min_eigenvalue.hex() == fresh.min_eigenvalue.hex()
            assert report.verdict == fresh.verdict

    def test_a_psd_scale_after_a_violating_one_passes_its_verdict(self):
        # the scale read after a violating one is judged on its own kernel: were
        # the buffer read as it stands, the verdict (positivity-scan's
        # gram_all_psd) would be the violating kernel's
        covariance = make_operator(np.diag([1.5, 2.0, 4.0]))
        phi = QuasiFreeState(covariance)
        s = scan_for_gram_violation(covariance, 2.0).scale
        e = covariance.eigenvectors[:, 0]
        family = [0.0 * e, s * e, s * 1j * e, s * (e + 1j * e) / np.sqrt(2), 2 * s * e, 2 * s * 1j * e]
        factors = gram_factors(phi, family)
        violating = check_sigma_h_positivity(phi, factors, 2.0)
        assert not violating.verdict
        assert check_sigma_h_positivity(phi, factors, 1.0, out=violating.kernel).verdict

    def test_a_buffer_of_another_shape_or_type_is_refused(self, rng):
        phi = RescaledFockState(0.6)
        factors = gram_factors(phi, [random_vector(rng, 2) for _ in range(4)])
        for buffer in (np.empty((3, 3), dtype=complex), np.empty((4, 4))):
            with pytest.raises(DimensionMismatch, match="^kernel buffer of shape"):
                check_sigma_h_positivity(phi, factors, 1.0, out=buffer)

    def test_the_factors_of_no_vectors_have_no_verdict(self):
        factors = gram_factors(RescaledFockState(0.6), [])
        assert factors.size == 0
        with pytest.raises(DimensionMismatch, match="^positivity check of an empty vector set"):
            check_sigma_h_positivity(RescaledFockState(0.6), factors, 1.0)


class TestGramMatrix:
    def test_fock_pair(self):
        phi = quasi_free_functional(make_operator(np.eye(1)))
        kernel = gram_matrix(phi, [np.zeros(1), np.ones(1)], 1.0)
        expected = np.array([[1.0, np.exp(-0.25)], [np.exp(-0.25), 1.0]])
        assert np.allclose(kernel, expected, atol=1e-14)

    def test_single_zero_vector(self):
        phi = RescaledFockState(0.7)
        assert np.allclose(gram_matrix(phi, [np.zeros(3)], 2.0), [[1.0]])

    def test_trace_state_gives_identity_kernel(self):
        kernel = gram_matrix(TraceState(), [np.zeros(2), np.array([1.0, 0]), np.array([0, 1j])], 1.7)
        assert np.allclose(kernel, np.eye(3))

    def test_hermitian(self, rng):
        phi = quasi_free_functional(random_covariance(rng, 3))
        vectors = [random_vector(rng, 3) for _ in range(5)]
        kernel = gram_matrix(phi, vectors, 1.3)
        assert np.max(np.abs(kernel - kernel.conj().T)) <= 1e-12

    def test_rescaling_kernel_identity(self, rng):
        # the kernel at scale h equals the kernel of the rescaled functional
        # at scale 1 on the sqrt(h)-stretched vectors, entry by entry
        for _ in range(10):
            covariance = random_covariance(rng, 2)
            phi = quasi_free_functional(covariance)
            h = float(rng.uniform(0.2, h_max(covariance)))
            vectors = [random_vector(rng, 2) for _ in range(4)]
            lhs = gram_matrix(phi, vectors, h)
            rhs = gram_matrix(
                rescale_functional(phi, h), [np.sqrt(h) * f for f in vectors], 1.0
            )
            assert np.max(np.abs(lhs - rhs)) <= 1e-14

    def test_rescaled_state_is_isomorphic_image(self, rng):
        # evaluating through the inverse isomorphism equals evaluating the
        # rescaled functional directly
        phi = quasi_free_functional(random_covariance(rng, 2))
        h = 0.4
        for _ in range(10):
            u = random_word(rng, 2)
            lhs = evaluate_state(phi, gamma_iso(u, h, "inverse"))
            rhs = evaluate_state(rescale_functional(phi, h), u)
            assert abs(lhs - rhs) <= 1e-12


class TestPositivityVerdicts:
    def test_fock_passes(self, rng):
        phi = quasi_free_functional(make_operator(np.eye(2)))
        vectors = [random_vector(rng, 2) for _ in range(6)]
        assert check_sigma_h_positivity(phi, vectors, 1.0).verdict

    def test_rescaled_fock_below_one_passes(self, rng):
        phi = RescaledFockState(0.5)
        for _ in range(5):
            vectors = [random_vector(rng, 2) for _ in range(6)]
            report = check_sigma_h_positivity(phi, vectors, 1.0)
            assert report.verdict
            assert report.min_eigenvalue >= -1e-10

    def test_rescaled_fock_above_one_fails_on_witness_scan(self):
        # the functional exp(-||f||^2/(4*2)) is the Gaussian with covariance 1/2
        witness = scan_for_gram_violation(make_operator(0.5 * np.eye(1)), 1.0)
        assert witness is not None
        assert witness.min_eigenvalue < -1e-8

    def test_quasi_free_psd_up_to_spectral_bottom(self, rng):
        covariance = make_operator(np.diag([1.5, 2.0, 4.0]))
        phi = quasi_free_functional(covariance)
        for h in (0.5, 1.0, 1.5):
            for _ in range(5):
                vectors = [random_vector(rng, 3) for _ in range(6)]
                report = check_sigma_h_positivity(phi, vectors, h)
                assert report.min_eigenvalue >= -1e-10

    @pytest.mark.parametrize("vectors", [[], np.zeros((0, 2))], ids=["list", "array"])
    def test_an_empty_vector_set_has_no_verdict(self, vectors):
        phi = quasi_free_functional(make_operator(np.eye(2)))
        with pytest.raises(DimensionMismatch, match="^positivity check of an empty vector set"):
            check_sigma_h_positivity(phi, vectors, 1.0)

    def test_beyond_the_bottom_scan_finds_violation(self):
        covariance = make_operator(np.diag([1.5, 2.0, 4.0]))
        for h in (1.6, 2.0):
            witness = scan_for_gram_violation(covariance, h)
            assert witness is not None and witness.min_eigenvalue < -1e-8


class TestWitnessScan:
    @pytest.mark.parametrize("bottom", [1.5, 30.0, 100.0, 1e4, 1.6e6])
    @pytest.mark.parametrize("past", [0.01, 0.1, 0.6])
    def test_a_witness_at_any_size_of_covariance(self, bottom, past):
        # past bottom ~ 30 every phi(s e) of the fixed sweep is about 0; the sweep on
        # e / sqrt(h) sees the kernels of A/h at scale 1, whatever the size of A
        covariance = make_operator(np.diag([bottom, 4 * bottom / 3]))
        h = bottom * (1 + past)
        witness = scan_for_gram_violation(covariance, h)
        assert witness is not None and witness.min_eigenvalue < -1e-8
        roots = (1.0, np.sqrt(h))
        assert any(witness.scale == s / root for root in roots for s in WITNESS_SCALES)

    def test_the_first_sweep_keeps_its_scales(self):
        witness = scan_for_gram_violation(make_operator(np.diag([1.5, 2.0])), 1.65)
        assert witness.scale in WITNESS_SCALES

    def test_admissible_scales_have_no_witness(self):
        covariance = make_operator(np.diag([100.0, 133.0]))
        assert scan_for_gram_violation(covariance, 99.0) is None


class TestTwoPointCriterion:
    @pytest.mark.parametrize("norm", [1e-7, 1.0, 1e7])
    @pytest.mark.parametrize("h, expected", [(1.0, True), (1.5 * (1 - 2e-12), True), (1.5 * (1 + 2e-12), False), (3.0, False)])
    def test_verdict_does_not_move_with_the_norm(self, norm, h, expected):
        # an absolute slack passed 1e-7 e and 1e-7 ie at h = 3, twice h_max
        covariance = make_operator(np.diag([1.5, 2.0]))
        e = norm * covariance.eigenvectors[:, 0]
        assert two_point_criterion(covariance, e, 1j * e, h).verdict is expected

    @pytest.mark.parametrize("c", [2.0**-20, 1.0, 2.0**20])
    @pytest.mark.parametrize("rho", [-1e-12, 0.5e-12, 0.9e-12, 1.1e-12, 1.5e-12])
    def test_slack_on_the_bottom_eigenvector_is_the_regime_rule(self, c, rho):
        covariance = make_operator(np.diag([1.5 * c, 2.0 * c]))
        e = covariance.eigenvectors[:, 0]
        h = 1.5 * c * (1 + rho)
        assert two_point_criterion(covariance, e, 1j * e, h).verdict is dominates_identity(covariance, h)

    def test_boundary_case_passes(self):
        f = np.array([1.0])
        check = two_point_criterion(make_operator(np.eye(1)), f, 1j * f, 1.0)
        assert check.lhs == pytest.approx(1.0)
        assert check.rhs == pytest.approx(1.0)
        assert check.verdict

    def test_shifted_scale_fails(self):
        f = np.array([1.0])
        check = two_point_criterion(make_operator(np.eye(1)), f, 1j * f, 1.2)
        assert check.lhs == pytest.approx(1.0)
        assert check.rhs == pytest.approx((1 / 1.2) ** 2)
        assert not check.verdict

    def test_equal_vectors_always_pass(self, rng):
        f = random_vector(rng, 2)
        check = two_point_criterion(random_covariance(rng, 2), f, f, 2.5)
        assert check.lhs == 0.0
        assert check.verdict

    def test_witness_pair_fails_beyond_h_max(self, rng):
        covariance = random_covariance(rng, 3, low=1.2, high=2.0)
        bottom_vector = covariance.eigenvectors[:, 0]
        h = h_max(covariance) * 1.05
        check = two_point_criterion(covariance, bottom_vector, 1j * bottom_vector, h)
        assert not check.verdict


class TestHMax:
    @pytest.mark.parametrize(
        "data, expected",
        [
            (np.diag([1.5, 2.0, 4.0]), 1.5),
            (np.eye(3), 1.0),
            ([(1.0, INF), (3.0, 2)], 1.0),
        ],
    )
    def test_examples(self, data, expected):
        assert h_max(make_operator(data)) == expected

    def test_below_one_rejected(self):
        with pytest.raises(SpectrumBelowOne):
            h_max(make_operator(0.9 * np.eye(2)))
