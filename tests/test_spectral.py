import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylscale import (
    INF,
    OperatorSpec,
    apply_function,
    inf_spectrum,
    is_trace_class_minus_identity,
    make_operator,
    op_norm,
    quadratic_form,
)
from weylscale.errors import (
    DimensionMismatch,
    DomainViolation,
    InvalidMatrix,
    ModelMismatch,
    OutOfRange,
    SpectrumBelowOne,
)
from weylscale.spectral import ATOM_MERGE_TOL, dominates_identity, require_dominates_identity

from conftest import random_covariance


class TestMakeOperator:
    def test_diagonal_matrix(self):
        op = make_operator(np.diag([1.0, 3.0]))
        assert op.is_matrix
        assert [a.value for a in op.atoms] == [1.0, 3.0]

    def test_single_infinite_atom(self):
        op = make_operator([(2.0, INF)])
        assert not op.is_matrix
        assert len(op.atoms) == 1
        assert op.atoms[0].value == 2.0
        assert op.atoms[0].infinite

    def test_offdiagonal_eigenvalues(self):
        # characteristic polynomial l^2 - 4l + 3 = 0, roots 1 and 3
        op = make_operator([[2, 1j], [-1j, 2]])
        assert np.allclose([a.value for a in op.atoms], [1.0, 3.0], atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidMatrix, match="conjugate-symmetry residual 1.000e"):
            make_operator([[0.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, entry):
        # checked once here, so no consumer (GnsModel, Gram kernels) sees them
        with np.errstate(invalid="ignore"), pytest.raises(InvalidMatrix, match="matrix has NaN or infinite entries"):
            make_operator([[entry]])

    def test_entries_up_to_half_the_largest_float(self):
        # (m + m^H) / 2 and its residual stay finite up to the bound, and no entry past it is summed
        bound = np.finfo(float).max / 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert make_operator([[bound, 0], [0, 1]]).eigenvalues == pytest.approx([1.0, bound], rel=1e-15)
            for matrix, magnitude in [
                ([[np.nextafter(bound, np.inf), 0], [0, 1]], "8.988e\\+307"),
                ([[1, 1e308], [-1e308, 1]], "1.000e\\+308"),
                ([[1, 1.7e308 + 1.7e308j], [1.7e308 - 1.7e308j, 1]], "inf"),
            ]:
                with pytest.raises(InvalidMatrix, match=f"entry magnitude {magnitude} exceeds 8.988e\\+307, half"):
                    make_operator(matrix)

    def test_non_positive_atom_rejected(self):
        with pytest.raises(OutOfRange, match="atom value 0.0 is not strictly positive and finite"):
            make_operator([(0.0, 2)])
        with pytest.raises(OutOfRange, match="atom multiplicity 0 is not a positive integer"):
            make_operator([(1.0, 0)])

    @pytest.mark.parametrize("pair", [(2.0, math.nan), (math.inf, 1), (math.nan, 1)])
    def test_nan_multiplicity_or_non_finite_atom_rejected(self, pair):
        # every atom is finite: a spectrum has a finite top, read by op_norm
        with pytest.raises(OutOfRange, match=r"atom (value inf|value nan|multiplicity nan) is not"):
            OperatorSpec.from_atoms([pair])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: OperatorSpec.from_atoms([]),
            lambda: OperatorSpec.from_matrix(np.zeros((0, 0))),
            lambda: OperatorSpec.from_eigen(np.zeros(0), np.zeros((0, 0), complex)),
        ],
        ids=["atoms", "matrix", "eigen"],
    )
    def test_empty_spectrum_rejected(self, build):
        # h_max, inf_spectrum and op_norm all read the atoms at the ends
        with pytest.raises(DimensionMismatch, match="^operator has an empty spectrum$"):
            build()

    def test_atoms_rebuild_from_atoms_and_tuples(self):
        op = make_operator([(3.0, 2), (1.0, INF), (5.0, 1)])
        mixed = [op.atoms[0], tuple(op.atoms[1]), op.atoms[2]]
        assert type(mixed[0]) is not tuple and type(mixed[1]) is tuple
        for data in (op.atoms, mixed):
            rebuilt = make_operator(data)
            assert not rebuilt.is_matrix and rebuilt.atoms == op.atoms

    def test_atoms_sorted_and_merged(self):
        op = make_operator([(3.0, 2), (1.0, 1), (3.0 + 1e-14, INF)])
        assert [a.value for a in op.atoms] == pytest.approx([1.0, 3.0], abs=1e-12)
        assert op.atoms[1].infinite

    def test_atom_values_are_group_means(self, rng):
        # singletons skip np.mean; the atoms must match the mean of every group
        from weylscale.spectral import ATOM_MERGE_TOL, _merge_sorted_values

        values = np.sort(
            np.concatenate([rng.uniform(0.1, 5.0, 40), 2.0 + ATOM_MERGE_TOL * rng.uniform(0, 0.5, 4)])
        ).tolist()
        atoms = _merge_sorted_values(values, [1.0] * len(values))
        start = 0
        for atom in atoms:
            group = values[start : start + int(atom.multiplicity)]
            assert atom.value == float(np.mean(group))
            start += len(group)
        assert start == len(values)
        assert any(atom.multiplicity == 4 for atom in atoms)

    def test_operator_is_immutable(self):
        op = make_operator(np.diag([1.0, 2.0]))
        with pytest.raises(AttributeError):
            op.variant = "spectral"
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestApplyFunction:
    def test_square_map(self):
        out = apply_function(make_operator(np.diag([1.0, 3.0])), lambda x: x**2)
        assert [a.value for a in out.atoms] == [1.0, 9.0]

    def test_moebius_on_atoms(self):
        out = apply_function(
            make_operator([(3.0, INF)]), lambda x: (x + 1) / (x - 1)
        )
        assert out.atoms[0].value == 2.0
        assert out.atoms[0].infinite

    def test_singular_point_rejected(self):
        with pytest.raises(DomainViolation):
            apply_function(make_operator(np.diag([1.0, 3.0])), lambda x: (x + 1) / (x - 1))

    def test_composition_exact_on_spectra(self):
        op = make_operator(np.diag([1.5, 2.0, 4.0]))
        f = lambda x: x / 2
        g = lambda x: math.exp(x)
        chained = apply_function(apply_function(op, f), g)
        direct = apply_function(op, lambda x: g(f(x)))
        assert [a.value for a in chained.atoms] == [a.value for a in direct.atoms]

    def test_matrix_reconstruction(self):
        op = make_operator([[2, 1j], [-1j, 2]])
        squared = apply_function(op, lambda x: x**2)
        assert np.allclose(squared.matrix, op.matrix @ op.matrix, atol=1e-10)

    def test_an_order_keeping_map_shares_the_eigenvectors(self, rng):
        op = make_operator(random_covariance(rng, 5).matrix)
        increasing = apply_function(op, lambda x: x / 2)
        assert increasing.eigenvectors is op.eigenvectors
        decreasing = apply_function(op, lambda x: 1 / x)
        assert not np.shares_memory(decreasing.eigenvectors, op.eigenvectors)
        assert np.array_equal(decreasing.eigenvectors, op.eigenvectors[:, ::-1])
        assert not decreasing.eigenvectors.flags.writeable

    def test_monotone_map_commutes_with_infimum(self):
        op = make_operator([(1.0, INF), (3.0, 2)])
        mapped = apply_function(op, math.exp)
        assert inf_spectrum(mapped) == math.exp(inf_spectrum(op))


class TestSpectrumBounds:
    @pytest.mark.parametrize(
        "data, expected_inf, expected_norm",
        [
            (np.diag([1.5, 2.0, 4.0]), 1.5, 4.0),
            ([(1.0, INF)], 1.0, 1.0),
            ([(1.0, INF), (3.0, 2)], 1.0, 3.0),
        ],
    )
    def test_examples(self, data, expected_inf, expected_norm):
        op = make_operator(data)
        assert inf_spectrum(op) == expected_inf
        assert op_norm(op) == expected_norm

    def test_reads_are_the_ends_of_the_snapped_spectrum(self):
        op = make_operator(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert inf_spectrum(op) == op.eigenvalues[0] == pytest.approx(1.0)
        assert op_norm(op) == op.eigenvalues[-1] == pytest.approx(3.0)
        atoms = make_operator([(3.0, 2), (1.0, INF)])
        assert (inf_spectrum(atoms), op_norm(atoms)) == (1.0, 3.0)


class TestTraceClass:
    def test_rescaled_fock_covariance_is_not(self):
        # A_h = (1/h) I with h = 0.5 has the single atom 2 with infinite multiplicity
        assert is_trace_class_minus_identity(make_operator([(2.0, INF)])) is False

    def test_finite_excess_is(self):
        assert is_trace_class_minus_identity(make_operator([(1.0, INF), (2.0, 5)])) is True

    def test_identity_is(self):
        assert is_trace_class_minus_identity(make_operator(np.eye(3))) is True
        assert is_trace_class_minus_identity(make_operator([(1.0, INF)])) is True

    def test_spectrum_below_one_rejected(self):
        with pytest.raises(SpectrumBelowOne):
            is_trace_class_minus_identity(make_operator([(0.5, 1)]))


class TestIdentityBound:
    @pytest.mark.parametrize(
        "bottom, expected",
        [(1.0, True), (1.0 - ATOM_MERGE_TOL, True), (1.0 - 2 * ATOM_MERGE_TOL, False), (0.5, False)],
    )
    def test_slack_is_the_atom_merge_tolerance(self, bottom, expected):
        op = make_operator([(bottom, 1), (3.0, INF)])
        assert dominates_identity(op) is expected

    @pytest.mark.parametrize("c", [2.0**-20, 1.0, 2.0**20])
    @pytest.mark.parametrize("offset, expected", [(-2e-12, True), (0.0, True), (2e-12, False)])
    def test_scale_slack_is_relative(self, c, offset, expected):
        # (A, h) and (cA, ch) get one verdict: the slack is ATOM_MERGE_TOL of A/h, not of h
        op = make_operator(np.diag([1.5 * c, 2.0 * c]))
        assert dominates_identity(op, 1.5 * c * (1 + offset)) is expected

    def test_default_scale_is_one(self):
        op = make_operator([(1.0 - ATOM_MERGE_TOL, 1)])
        assert dominates_identity(op) is dominates_identity(op, 1.0) is True

    def test_bottom_atom_decides_whatever_the_order(self):
        assert not dominates_identity(make_operator([(3.0, INF), (0.5, 1)]))
        assert require_dominates_identity(make_operator([(3.0, INF), (1.5, 1)])) == 1.5

    def test_raising_form_returns_the_bottom(self):
        assert require_dominates_identity(make_operator(np.diag([1.5, 2.0]))) == 1.5
        with pytest.raises(SpectrumBelowOne, match="spectrum reaches 0.9 < 1"):
            require_dominates_identity(make_operator(0.9 * np.eye(2)))


class TestQuadraticForm:
    def test_diagonal(self):
        op = make_operator(np.diag([1.0, 3.0]))
        assert quadratic_form(op, [0, 1], [0, 1]) == pytest.approx(3.0)

    def test_zero_vector(self):
        op = make_operator(np.diag([1.0, 3.0]))
        assert quadratic_form(op, [0, 0], [1, 1]) == 0

    def test_orthogonality(self):
        op = make_operator(np.eye(2))
        assert quadratic_form(op, [1, 0], [0, 1]) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            quadratic_form(make_operator(np.eye(2)), [1, 0, 0], [0, 1, 0])

    def test_spectral_variant_has_no_vectors(self):
        with pytest.raises(ModelMismatch, match="operation needs concrete eigenvectors"):
            quadratic_form(make_operator([(2.0, INF)]), [1], [1])

    def test_conjugate_linearity_first_slot(self, rng):
        op = random_covariance(rng, 3)
        f = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        g = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert quadratic_form(op, 2j * f, g) == pytest.approx(
            -2j * quadratic_form(op, f, g)
        )


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.5, max_value=9.0), min_size=1, max_size=6))
def test_eigendecomposition_round_trip(values):
    rng = np.random.default_rng(7)
    dim = len(values)
    gaussian = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(gaussian)
    matrix = q @ np.diag(values).astype(complex) @ q.conj().T
    op = OperatorSpec.from_matrix(matrix)
    rebuilt = op.eigenvectors @ np.diag(op.eigenvalues).astype(complex) @ op.eigenvectors.conj().T
    scale = max(1.0, float(np.max(np.abs(op.matrix))))
    assert np.max(np.abs(rebuilt - op.matrix)) <= 1e-10 * scale
