import dataclasses
import math

import numpy as np
import pytest

from weylscale import (
    F_function,
    Phi_function,
    covariance_from_hamiltonian,
    default_time_grid,
    inf_spectrum,
    j_h_function,
    kms_boundary_residuals,
    kms_model,
    make_operator,
    modular_operator,
    op_norm,
    quadratic_form,
    rescaled_kms_residuals,
    rescaled_modular,
    restricted_kms_residuals,
    restricted_model,
    time_evolution,
    two_point_function,
)
from weylscale.kms import (
    STRIP_FRACTIONS, _boundary_report, _F_terms, _log_spectrum, _modular_coordinates, _Phi_terms,
)
from weylscale.errors import DomainViolation, OutOfRange
from weylscale.spectral import INF, apply_function, spectral_distance

from conftest import random_covariance, random_vector

LOG2 = math.log(2.0)


@pytest.fixture
def scalar_model():
    return kms_model(make_operator([[LOG2]]), beta=1.0)


@pytest.fixture
def two_mode_model():
    return kms_model(make_operator(np.diag([0.5, 1.5])), beta=2.0)


class TestCovariance:
    def test_scalar_log_two(self):
        covariance = covariance_from_hamiltonian(make_operator([[LOG2]]), 1.0)
        assert inf_spectrum(covariance) == pytest.approx(3.0, abs=1e-14)

    def test_ground_state_limit(self):
        covariance = covariance_from_hamiltonian(make_operator([[5.0]]), 20.0)
        assert inf_spectrum(covariance) == pytest.approx(1.0, abs=1e-12)

    def test_norm_formula(self, scalar_model):
        epsilon, beta = scalar_model.epsilon, scalar_model.beta
        expected = (math.exp(beta * epsilon) + 1) / (math.exp(beta * epsilon) - 1)
        assert op_norm(scalar_model.covariance) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(3.0, abs=1e-14)

    def test_rejects_bad_inputs(self):
        with pytest.raises(OutOfRange, match="^hamiltonian spectrum reaches -0.5 <= 0$"):
            covariance_from_hamiltonian(make_operator([[-0.5]]), 1.0)
        with pytest.raises(OutOfRange, match="^inverse temperature 0.0 must be positive$"):
            covariance_from_hamiltonian(make_operator([[1.0]]), 0.0)


class TestModularOperator:
    def test_scalar_values(self):
        a3 = make_operator([[3.0]])
        assert inf_spectrum(modular_operator(a3, 1.0)) == pytest.approx(2.0)
        assert inf_spectrum(modular_operator(a3, 2.0)) == pytest.approx(math.sqrt(2.0))

    def test_singular_at_one(self):
        with pytest.raises(DomainViolation):
            modular_operator(make_operator(np.diag([1.0, 3.0])), 1.0)

    def test_exponential_identity(self, two_mode_model):
        # the modular operator is the exponential of the hamiltonian
        exponential = apply_function(two_mode_model.hamiltonian, math.exp)
        assert spectral_distance(two_mode_model.modular, exponential) <= 1e-10

    def test_functional_calculus_route_back(self, two_mode_model):
        # ((A+1)/(A-1))^(1/beta) rebuilt from the covariance agrees with e^h
        rebuilt = apply_function(
            two_mode_model.covariance,
            lambda lam: ((lam + 1) / (lam - 1)) ** (1 / two_mode_model.beta),
        )
        exponential = apply_function(two_mode_model.hamiltonian, math.exp)
        assert spectral_distance(rebuilt, exponential) <= 1e-10


class TestTimeEvolution:
    def test_zero_time_identity(self, scalar_model):
        assert np.allclose(time_evolution(scalar_model.modular, 0.0), np.eye(1))

    def test_group_law(self, two_mode_model, rng):
        for _ in range(5):
            s, t = rng.uniform(-3, 3, 2)
            left = time_evolution(two_mode_model.modular, s) @ time_evolution(
                two_mode_model.modular, t
            )
            right = time_evolution(two_mode_model.modular, s + t)
            assert np.max(np.abs(left - right)) <= 1e-12

    def test_scalar_half_period(self):
        modular = make_operator([[2.0]])
        value = time_evolution(modular, math.pi / LOG2)[0, 0]
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_form_invariance(self, two_mode_model, rng):
        covariance = two_mode_model.covariance
        for _ in range(5):
            t = float(rng.uniform(-4, 4))
            transport = time_evolution(two_mode_model.modular, t)
            f, g = random_vector(rng, 2), random_vector(rng, 2)
            assert abs(
                quadratic_form(covariance, transport @ f, transport @ g)
                - quadratic_form(covariance, f, g)
            ) <= 1e-12


class TestFAndPhi:
    def test_scalar_at_time_zero(self, scalar_model):
        f = np.array([1.0])
        value = F_function(scalar_model.covariance, scalar_model.modular, f, f, 0.0)
        assert value == pytest.approx(3.0)  # (1/2)(A+1) + (1/2)(A-1) = A

    def test_orthogonal_eigenvectors_vanish(self, two_mode_model):
        f = np.array([1.0, 0.0])
        g = np.array([0.0, 1.0])
        assert abs(F_function(two_mode_model.covariance, two_mode_model.modular, f, g, 0.3)) <= 1e-14

    def test_conjugation_symmetry(self, two_mode_model, rng):
        f = random_vector(rng, 2)
        for t in (-1.3, 0.4, 2.6):
            forward = F_function(two_mode_model.covariance, two_mode_model.modular, f, f, t)
            backward = F_function(two_mode_model.covariance, two_mode_model.modular, f, f, -t)
            assert backward == pytest.approx(np.conj(forward), abs=1e-13)

    def test_phi_on_real_axis_equals_f(self, two_mode_model, rng):
        f, g = random_vector(rng, 2), random_vector(rng, 2)
        for t in (-2.0, 0.0, 1.5):
            phi_val = Phi_function(
                two_mode_model.covariance, two_mode_model.modular, two_mode_model.beta, f, g, t
            )
            f_val = F_function(two_mode_model.covariance, two_mode_model.modular, f, g, t)
            assert abs(phi_val - f_val) <= 1e-12

    def test_scalar_at_top_boundary(self, scalar_model):
        f = np.array([1.0])
        value = Phi_function(
            scalar_model.covariance, scalar_model.modular, 1.0, f, f, 1j
        )
        # (1/2) 4 Delta^{-1} + (1/2) 2 Delta = 1 + 2 = 3 = F(f, f; 0)
        assert value == pytest.approx(3.0, abs=1e-12)

    def test_outside_strip_rejected(self, scalar_model):
        f = np.array([1.0])
        with pytest.raises(OutOfRange, match=r"^Im z = -0.1 outside \[0, 1.0\]$"):
            Phi_function(scalar_model.covariance, scalar_model.modular, 1.0, f, f, -0.1j)
        with pytest.raises(OutOfRange, match=r"^Im z = 1.5 outside \[0, 1.0\]$"):
            Phi_function(scalar_model.covariance, scalar_model.modular, 1.0, f, f, 1.5j)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_time_or_height_not_finite_rejected(self, scalar_model, t):
        f = np.array([1.0])
        covariance, modular = scalar_model.covariance, scalar_model.modular
        for evaluate in (
            lambda: F_function(covariance, modular, f, f, t),
            lambda: time_evolution(modular, t),
            lambda: Phi_function(covariance, modular, 1.0, f, f, complex(t, 0.5)),
            lambda: Phi_function(covariance, modular, 1.0, f, f, complex(0.5, math.nan)),
        ):
            with pytest.raises(OutOfRange, match="^strip times and heights must be finite$"):
                evaluate()

    @pytest.mark.parametrize("delta", [0.5, -2.0])
    def test_modular_spectrum_below_one_rejected(self, delta):
        # the powers have one evaluator, exact only for a spectrum at or above 1
        covariance, modular, f = make_operator([[3.0]]), make_operator([[delta]]), np.array([1.0])
        for evaluate in (
            lambda: F_function(covariance, modular, f, f, 0.3),
            lambda: time_evolution(modular, 0.3),
            lambda: Phi_function(covariance, modular, 1.0, f, f, 0.3 + 0.5j),
        ):
            with pytest.raises(OutOfRange, match="^modular spectrum reaches below 1$"):
                evaluate()

    def test_strip_bound(self, scalar_model):
        f = np.array([1.0])
        report = kms_boundary_residuals(scalar_model, f, f)
        # |Phi| <= ||A + I|| on the strip for this model
        assert report.strip_sup <= 4.0 + 1e-12


class TestBoundaryResiduals:
    def test_scalar_model(self, scalar_model):
        f = np.array([1.0])
        report = kms_boundary_residuals(scalar_model, f, f, np.arange(-5.0, 5.5, 0.5))
        assert report.max_residual <= 1e-10

    def test_zero_vector_exact(self, scalar_model):
        report = kms_boundary_residuals(scalar_model, np.zeros(1), np.ones(1))
        assert report.max_residual == 0.0

    def test_two_mode_random_pair(self, two_mode_model, rng):
        f, g = random_vector(rng, 2), random_vector(rng, 2)
        report = kms_boundary_residuals(two_mode_model, f, g)
        assert report.max_residual <= 1e-10
        assert np.all(report.r0 >= 0) and np.all(report.r_beta >= 0)

    @pytest.mark.parametrize("grid, message", [
        ([0.0, -1.0], "points must be strictly increasing"),
        ([0.0, 0.0], "points must be strictly increasing"),
        ([0.0, math.nan], "points must be finite"),
        ([math.nan], "points must be finite"),
        ([-1.0, math.inf], "points must be finite"),
        ([], "needs at least one point"),
        ([[0.0, 1.0]], "points must form one list"),
        (0.5, "points must form one list"),
    ])
    def test_grid_must_increase(self, scalar_model, grid, message):
        with pytest.raises(OutOfRange, match=f"^{message}$"):
            kms_boundary_residuals(scalar_model, np.ones(1), np.ones(1), grid)

    def test_default_grid(self):
        grid = default_time_grid()
        assert len(grid) == 21
        assert grid[0] == -5.0 and grid[-1] == 5.0


def _four_paths():
    """(report, covariance, f, g) on each KMS path of one model: A, A/h, A^(h) and
    A^(h)/h, with f and g the vectors of the path's space."""
    model = kms_model(make_operator([[0.4, 0.1, 0.0], [0.1, 0.9, 0.2], [0.0, 0.2, 1.6]]), beta=1.5)
    rng = np.random.default_rng(5)
    f, g = 3.0 * random_vector(rng, 3), 2.0 * random_vector(rng, 3)
    rescaled = rescaled_modular(model, 0.5)
    low, middle = model.covariance.eigenvalues[:2]
    restricted = restricted_model(model.covariance, (low + middle) / 2, beta=1.5)
    pf, pg = restricted.project(f), restricted.project(g)
    return [
        (kms_boundary_residuals(model, f, g), model.covariance, f, g),
        (rescaled_kms_residuals(rescaled, f, g), rescaled.covariance_h, f, g),
        (restricted_kms_residuals(restricted, pf, pg), restricted.restricted_covariance, pf, pg),
        (restricted_kms_residuals(restricted, pf, pg, rescaled=True), restricted.rescaled_covariance, pf, pg),
    ]


def _path_bound(covariance, f, g, tol):
    """tol * max(1, ||A|| ||f|| ||g|| (a+1)/(a-1)), a the bottom of the path's covariance."""
    a = inf_spectrum(covariance)
    size = op_norm(covariance) * float(np.linalg.norm(f)) * float(np.linalg.norm(g))
    return tol * max(1.0, size * (a + 1.0) / (a - 1.0))


@pytest.mark.parametrize("path", range(4), ids=["unrescaled", "rescaled", "restricted", "restricted-rescaled"])
def test_each_report_is_within_its_own_paths_bound(path):
    report, covariance, f, g = _four_paths()[path]
    tol = 1e-10
    bound = _path_bound(covariance, f, g, tol)
    assert report.within(tol) is (report.max_residual <= bound) is True
    for factor, within in ((1 - 1e-9, True), (1 + 1e-9, False)):
        moved = dataclasses.replace(report, r0=np.full_like(report.r0, bound * factor))
        assert moved.within(tol) is within


def test_the_four_paths_have_four_bounds():
    # so a report given another path's covariance would be held to another bound
    bounds = {_path_bound(covariance, f, g, 1.0) for _, covariance, f, g in _four_paths()}
    assert len(bounds) == 4 and min(bounds) > 1.0


def dense_power(op, z):
    """op^{iz} rebuilt as V diag(delta^{iz}) V*, the reference for the eigenbasis route."""
    v = op.eigenvectors
    return v @ np.diag(np.exp(1j * z * np.log(op.eigenvalues.astype(complex)))) @ v.conj().T


def dense_boundary_rows(covariance, modular, beta, f, g, grid):
    """F, F_rev, Phi(t), Phi(t + i beta) and the strip supremum, one dense product per point."""
    a = covariance.matrix
    eye = np.eye(a.shape[0])

    def F(x, y, t):
        u = dense_power(modular, t)
        return 0.5 * np.vdot(x, u @ (a + eye) @ y) + 0.5 * np.vdot(y, u.conj().T @ (a - eye) @ x)

    def Phi(z):
        first = np.vdot(f, (a + eye) @ dense_power(modular, z) @ g)
        second = np.vdot(g, (a - eye) @ dense_power(modular, -z) @ f)
        return 0.5 * first + 0.5 * second

    return (
        np.array([F(f, g, t) for t in grid]),
        np.array([F(g, f, -t) for t in grid]),
        np.array([Phi(t) for t in grid]),
        np.array([Phi(t + 1j * beta) for t in grid]),
        max(abs(Phi(t + 1j * frac * beta)) for frac in STRIP_FRACTIONS for t in grid),
    )


def _two_sided(log_delta, terms, z):
    """sum_k p_k delta_k^{iz} + m_k delta_k^{-iz} for every entry of the array z, one
    complex exp per sample: the reference for the tables."""
    (plus, minus), exponent = terms, 1j * np.multiply.outer(z, log_delta)
    return np.exp(exponent) @ plus + np.exp(-exponent) @ minus


def test_the_reversed_kernel_reads_the_swapped_tables(rng):
    # F(g, f; -t) from the tables of t swapped is F(g, f; z) at z = -t, bit for bit
    model = kms_model(random_covariance(rng, 12, 0.3, 2.5), beta=1.2)
    f, g = random_vector(rng, 12), random_vector(rng, 12)
    grid = default_time_grid()
    report = _boundary_report(model.covariance, model.modular, model.beta, f, g, grid)
    fc, gc, afc, agc = _modular_coordinates(model.covariance, model.modular, f, g)
    F_rev = _two_sided(_log_spectrum(model.modular), _F_terms(gc, fc, agc, afc), -grid)
    assert report.r_beta.tobytes() == np.abs(report.Phi_upper - F_rev).tobytes()


def test_single_points_are_the_per_sample_values(rng):
    # F, Phi and Delta^{it}, read from the tables, keep the bits of one complex exp per sample
    model = kms_model(random_covariance(rng, 12, 0.3, 2.5), beta=1.2)
    f, g = random_vector(rng, 12), random_vector(rng, 12)
    covariance, modular, log_delta = model.covariance, model.modular, _log_spectrum(model.modular)
    coords = _modular_coordinates(covariance, modular, f, g)
    for t, s in ((0.7, 0.0), (-3.1, 0.4), (-0.0, 1.2), (12.5, 0.9)):
        F_ref = _two_sided(log_delta, _F_terms(*coords), t)
        assert F_function(covariance, modular, f, g, t) == complex(F_ref)
        Phi_ref = _two_sided(log_delta, _Phi_terms(*coords), complex(t, s))
        assert Phi_function(covariance, modular, 1.2, f, g, complex(t, s)) == complex(Phi_ref)
        v = modular.eigenvectors
        transport = (v * np.exp(1j * t * log_delta)) @ v.conj().T
        assert time_evolution(modular, t).tobytes() == transport.tobytes()


class TestEigenbasisBoundary:
    """The eigenbasis evaluation against dense Delta^{iz} matrices at n = 64."""

    @staticmethod
    def _compare(covariance, modular, beta, f, g):
        grid = default_time_grid()
        report = _boundary_report(covariance, modular, beta, f, g, grid)
        F_vals, F_rev, lower, upper, strip_sup = dense_boundary_rows(
            covariance, modular, beta, f, g, grid
        )
        scale = max(1.0, float(np.max(np.abs(lower))), float(np.max(np.abs(upper))))
        for got, want in (
            (report.F_values, F_vals),
            (report.Phi_lower, lower),
            (report.Phi_upper, upper),
            (report.r0, np.abs(lower - F_vals)),
            (report.r_beta, np.abs(upper - F_rev)),
        ):
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert report.strip_sup == pytest.approx(strip_sup, rel=1e-12)
        return report

    def test_equilibrium_model(self, rng):
        model = kms_model(random_covariance(rng, 64, 0.3, 2.5), beta=1.2)
        f, g = random_vector(rng, 64), random_vector(rng, 64)
        report = self._compare(model.covariance, model.modular, model.beta, f, g)
        assert report.max_residual <= 1e-12

    def test_non_commuting_pair(self, rng):
        # A never passes through the modular eigenbasis, so the formula holds
        # for any Hermitian pair; here the boundary rows genuinely differ
        covariance = random_covariance(rng, 64, 1.1, 3.0)
        modular = random_covariance(rng, 64, 1.5, 6.0)
        f, g = random_vector(rng, 64), random_vector(rng, 64)
        report = self._compare(covariance, modular, 0.8, f, g)
        assert report.max_residual > 1e-3

    def test_single_points_match_dense(self, rng):
        covariance = random_covariance(rng, 6, 1.1, 3.0)
        modular = random_covariance(rng, 6, 1.5, 6.0)
        f, g = random_vector(rng, 6), random_vector(rng, 6)
        a = covariance.matrix
        eye = np.eye(6)
        t, z = 0.7, -1.1 + 0.35j
        u = dense_power(modular, t)
        F_dense = 0.5 * np.vdot(f, u @ (a + eye) @ g) + 0.5 * np.vdot(g, u.conj().T @ (a - eye) @ f)
        Phi_dense = 0.5 * np.vdot(f, (a + eye) @ dense_power(modular, z) @ g) + 0.5 * np.vdot(
            g, (a - eye) @ dense_power(modular, -z) @ f
        )
        assert F_function(covariance, modular, f, g, t) == pytest.approx(F_dense, rel=1e-12)
        assert Phi_function(covariance, modular, 0.8, f, g, z) == pytest.approx(Phi_dense, rel=1e-12)


class TestJh:
    def test_worked_value(self):
        assert j_h_function(2.0, 1.0 / 3.0, 1.0) == pytest.approx(1.25)

    def test_h_one_is_identity(self):
        for lam in (1.0, 2.5, 7.0):
            assert j_h_function(lam, 1.0, 2.0) == pytest.approx(lam)

    def test_agrees_with_rescaled_covariance_route(self):
        # (A_h + 1)/(A_h - 1) at A = 3, h = 1/3 gives 10/8
        assert j_h_function(2.0, 1.0 / 3.0, 1.0) == pytest.approx(10.0 / 8.0)

    def test_strictly_increasing(self):
        for h in np.arange(0.1, 1.0, 0.1):
            for beta in (0.5, 1.0, 2.0):
                grid = np.linspace(1.0, 100.0, 200)
                values = [j_h_function(lam, h, beta) for lam in grid]
                assert np.all(np.diff(values) > 0)

    def test_bounded_above_one(self):
        for h in (0.2, 0.5, 0.9):
            assert j_h_function(1.0, h, 1.0) == pytest.approx(1.0)
            assert j_h_function(1.3, h, 1.0) > 1.0

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            j_h_function(0.5, 0.5, 1.0)
        with pytest.raises(OutOfRange):
            j_h_function(1.0, 0.5, 0.0)
        with pytest.raises(OutOfRange):
            j_h_function(1.0, -0.5, 1.0)
        # beyond the pole in the restriction regime h > 1
        with pytest.raises(OutOfRange):
            j_h_function(2.5, 3.0, 1.0)


class TestRescaledModular:
    def test_scalar_worked_case(self, scalar_model):
        rescaled = rescaled_modular(scalar_model, 1.0 / 3.0)
        assert inf_spectrum(rescaled.modular_h) == pytest.approx(1.25)
        assert rescaled.delta_bottom == pytest.approx(math.log(1.25))
        assert rescaled.two_route_residual <= 1e-12

    def test_degenerate_at_one(self, scalar_model):
        rescaled = rescaled_modular(scalar_model, 1.0)
        assert spectral_distance(rescaled.modular_h, scalar_model.modular) <= 1e-12

    def test_bottom_matches_generator_spectrum_exactly(self, two_mode_model):
        for h in (0.25, 0.5, 0.75):
            rescaled = rescaled_modular(two_mode_model, h)
            assert inf_spectrum(rescaled.generator_h) == rescaled.delta_bottom
            assert rescaled.delta_bottom > 0

    def test_two_route_agreement(self, two_mode_model):
        for h in (0.25, 0.5, 0.75):
            assert rescaled_modular(two_mode_model, h).two_route_residual <= 1e-12

    def test_out_of_range(self, scalar_model):
        with pytest.raises(OutOfRange):
            rescaled_modular(scalar_model, 0.0)
        with pytest.raises(OutOfRange):
            rescaled_modular(scalar_model, 1.5)

    def test_atom_model_reads_its_bounds_from_the_atoms(self):
        # H has atoms 2 log 2 (infinite multiplicity) and log 2, given top first
        model = kms_model(make_operator([(2 * LOG2, INF), (LOG2, 1)]), beta=1.0)
        assert inf_spectrum(model.covariance) == pytest.approx(5.0 / 3.0)
        assert op_norm(model.covariance) == pytest.approx(3.0)
        assert op_norm(model.modular) == pytest.approx(4.0)

    def test_atom_model_rescales_bottom_and_top(self):
        model = kms_model(make_operator([(2 * LOG2, INF), (LOG2, 1)]), beta=1.0)
        rescaled = rescaled_modular(model, 0.5)
        # A/h has the bottom and top of A over h
        assert inf_spectrum(rescaled.covariance_h) == inf_spectrum(model.covariance) / 0.5
        assert op_norm(rescaled.covariance_h) == op_norm(model.covariance) / 0.5
        # j_h maps the top 4 of Delta to 13/7, below its limit (1+h)/(1-h) = 3
        assert op_norm(rescaled.modular_h) == pytest.approx(j_h_function(4.0, 0.5, 1.0))
        assert op_norm(rescaled.modular_h) == pytest.approx(13.0 / 7.0)
        assert op_norm(rescaled.generator_h) == pytest.approx(math.log(13.0 / 7.0))
        assert rescaled.two_route_residual <= 1e-12


class TestRescaledBoundary:
    def test_scalar_value_at_zero(self, scalar_model):
        rescaled = rescaled_modular(scalar_model, 1.0 / 3.0)
        f = np.array([1.0])
        # (1/2)(A_h + 1) + (1/2)(A_h - 1) = A_h = 9
        covariance, modular = rescaled.covariance_h, rescaled.modular_h
        assert Phi_function(covariance, modular, rescaled.base.beta, f, f, 0.0) == pytest.approx(9.0)
        assert F_function(covariance, modular, f, f, 0.0) == pytest.approx(9.0)

    def test_residuals_small(self, scalar_model, two_mode_model, rng):
        for model in (scalar_model, two_mode_model):
            dim = model.covariance.matrix.shape[0]
            f, g = random_vector(rng, dim), random_vector(rng, dim)
            for h in (0.25, 0.5, 0.75):
                report = rescaled_kms_residuals(rescaled_modular(model, h), f, g)
                assert report.max_residual <= 1e-10

    def test_h_one_degenerates_to_unrescaled(self, two_mode_model, rng):
        f, g = random_vector(rng, 2), random_vector(rng, 2)
        rescaled_report = rescaled_kms_residuals(rescaled_modular(two_mode_model, 1.0), f, g)
        plain_report = kms_boundary_residuals(two_mode_model, f, g)
        assert np.max(np.abs(rescaled_report.F_values - plain_report.F_values)) <= 1e-12
        assert np.max(np.abs(rescaled_report.Phi_lower - plain_report.Phi_lower)) <= 1e-12


class TestTwoPoint:
    def test_equal_vectors_flags_discrepancy(self):
        covariance = make_operator([[3.0]])
        modular = modular_operator(covariance, 1.0)
        f = np.array([1.0])
        report = two_point_function(covariance, modular, f, f, 0.0)
        # closed-form prefactor cancels at f = g, leaving exp(-F/2) = exp(-3/2)
        assert report.formula_value == pytest.approx(np.exp(-1.5))
        # the simulator sees omega(W_f W_f) = phi(2f) = exp(-<f,Af>)
        assert abs(report.oracle_value - np.exp(-3.0)) <= 1e-5
        assert not report.formula_matches_oracle

    def test_zero_first_vector_agrees(self):
        covariance = make_operator([[3.0]])
        modular = modular_operator(covariance, 1.0)
        g = np.array([0.8])
        report = two_point_function(covariance, modular, np.zeros(1), g, 1.2)
        assert abs(report.formula_value - np.exp(-0.25 * 3.0 * 0.64)) <= 1e-12
        assert report.formula_matches_oracle

    def test_oracle_matches_direct_closed_form(self, rng):
        covariance = make_operator([[2.0]])
        modular = modular_operator(covariance, 1.0)
        f = random_vector(rng, 1) * 0.6
        g = random_vector(rng, 1) * 0.6
        t = 0.9
        report = two_point_function(covariance, modular, f, g, t)
        moved = time_evolution(modular, t) @ g
        phase = np.exp(-0.5j * np.vdot(f, moved).imag)
        direct = phase * np.exp(-0.25 * quadratic_form(covariance, f + moved, f + moved).real)
        assert abs(report.oracle_value - direct) <= 1e-5

    def test_derived_value_at_equal_vectors(self):
        covariance = make_operator([[3.0]])
        f = np.array([1.0])
        report = two_point_function(covariance, modular_operator(covariance, 1.0), f, f, 0.0)
        # exp(-3/4 - 3/4 - 3/2) = exp(-3), the oracle's phi(2f), where the literal value is exp(-3/2)
        assert report.derived_value == pytest.approx(np.exp(-3.0), rel=1e-14)
        assert report.derived_matches_oracle and not report.formula_matches_oracle

    @pytest.mark.parametrize("dim", [1, 2])
    def test_derived_value_matches_the_oracle(self, rng, dim):
        for _ in range(6):
            covariance = random_covariance(rng, dim)
            modular = modular_operator(covariance, float(rng.uniform(0.5, 2.0)))
            f, g = random_vector(rng, dim) * 0.6, random_vector(rng, dim) * 0.6
            report = two_point_function(covariance, modular, f, g, float(rng.uniform(-3.0, 3.0)))
            assert abs(report.derived_value - report.oracle_value) <= 1e-12
            assert report.derived_matches_oracle
