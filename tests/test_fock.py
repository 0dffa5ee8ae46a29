import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylscale import (
    GnsModel,
    MixtureMeasure,
    RescaledFockState,
    WeylWord,
    c_parameter,
    commutant_residual,
    evaluate_state,
    gns_expectation,
    h_of_c,
    is_quasi_equivalent_to_fock,
    make_operator,
    one_particle_number_expectation,
    quasi_free_functional,
    universally_invariant_functional,
    weyl_multiply,
    weyl_relation_residual,
)
from weylscale.errors import DimensionMismatch, OutOfRange, SpectrumBelowOne
from weylscale import fock
from weylscale.cli import main
from weylscale.fock import _kron_difference_max, _reliable_slot
from weylscale.spectral import INF
from weylscale.weyl import sigma

from conftest import random_covariance, random_vector, residual_operands
from fock_reference import (
    annihilation,
    commutant_weyl_operator,
    creation,
    field_operator,
    reliable_block,
    weyl_operator,
)


def _displacement(alpha, cutoff):
    """The per-mode displacement of amplitude ``alpha`` of a one-mode model."""
    return GnsModel(make_operator([[2.0]]), cutoff=cutoff)._mode_displacement(alpha)


class TestTruncatedDisplacement:
    def test_zero_amplitude_is_identity(self):
        op = _displacement(0.0, 10)
        assert np.allclose(op, np.eye(11))

    def test_vacuum_element_closed_form(self):
        op = _displacement(1.0, 30)
        assert abs(op[0, 0] - np.exp(-0.5)) <= 1e-8

    def test_unitarity_defect(self):
        op = _displacement(0.3 + 0.9j, 30)
        assert np.max(np.abs(op.conj().T @ op - np.eye(op.shape[0]))) <= 1e-6

    def test_cutoff_floor(self):
        with pytest.raises(OutOfRange, match="^cutoff 3 below hard floor 4$"):
            GnsModel(make_operator([[2.0]]), cutoff=3)

    def test_multimode_tensor(self):
        model = GnsModel(make_operator(np.eye(2)), cutoff=8)
        op, _ = fock._slot_pair(model, ([0.5, -0.5j], [0.0, 0.0]))
        assert op.shape == (81, 81)  # two modes of 9 levels
        # top-left block of the tensor product is D1[0,0] times the second factor
        first = model._mode_displacement(0.5)
        second = model._mode_displacement(-0.5j)
        assert np.allclose(op[:9, :9], first[0, 0] * second)


class TestGnsModel:
    def test_doubling_identity(self, rng):
        model = GnsModel(random_covariance(rng, 2), cutoff=8)
        residual = np.max(np.abs(model.T1 @ model.T1 - model.T2 @ model.T2 - np.eye(2)))
        assert residual <= 1e-10
        assert np.all(np.linalg.eigvalsh(model.T1) >= -1e-12)
        assert np.all(np.linalg.eigvalsh(model.T2) >= -1e-12)

    def test_scalar_slot_values(self):
        model = GnsModel(make_operator([[2.0]]), cutoff=10)
        first, second = model.slot_amplitudes([1.0])
        assert abs(first[0]) == pytest.approx(np.sqrt(3 / 2) / np.sqrt(2))
        assert abs(second[0]) == pytest.approx(np.sqrt(1 / 2) / np.sqrt(2))

    def test_fock_case_second_slot_trivial(self):
        model = GnsModel(make_operator(np.eye(1)), cutoff=10)
        op = weyl_operator(model, [0.7])
        single = model._mode_displacement(1j * 0.7 / np.sqrt(2))
        assert np.allclose(op, np.kron(single, np.eye(11)), atol=1e-12)

    def test_zero_vector_gives_identity(self):
        model = GnsModel(make_operator([[2.0]]), cutoff=10)
        assert np.allclose(weyl_operator(model, [0.0]), np.eye(121))

    def test_covariance_below_identity_rejected(self):
        with pytest.raises(SpectrumBelowOne, match="spectrum reaches 0.9 < 1"):
            GnsModel(make_operator(np.diag([0.9, 2.0])), cutoff=8)

    def test_doubled_cap_refuses_axes_beyond_it(self):
        # two modes at cutoff 10: the doubled axis is 11^4 = 14641 > DOUBLED_DIM_CAP
        model = GnsModel(make_operator(np.diag([2.0, 3.0])), cutoff=10)
        assert model.slot_dimension**2 > fock.DOUBLED_DIM_CAP
        with pytest.raises(OutOfRange, match="doubled Fock space axis 14641 exceeds cap 10000"):
            fock.check_doubled_cap(model)
        # cutoff 9 gives an axis of exactly 10^4, which the cap allows
        fock.check_doubled_cap(GnsModel(make_operator(np.diag([2.0, 3.0])), cutoff=9))

    @pytest.mark.parametrize("modes, cutoff", [(2, 10), (128, 8)])
    def test_a_model_beyond_the_cap_takes_expectations_and_refuses_residuals(self, modes, cutoff):
        # the reliable block of 128 modes would need an array of 128 axes, past numpy's 64
        covariance = make_operator(np.diag(np.linspace(1.5, 3.0, modes)))
        model = GnsModel(covariance, cutoff=cutoff)
        assert model._reliable is None
        f = np.full(modes, 0.5 / np.sqrt(modes))
        word = WeylWord.generator(f)
        closed_form = evaluate_state(quasi_free_functional(covariance), word)
        assert abs(gns_expectation(model, word) - closed_form) <= 1e-5
        for residual in (weyl_relation_residual, commutant_residual):
            with pytest.raises(OutOfRange, match=f"doubled Fock space axis {(cutoff + 1) ** (2 * modes)} exceeds cap"):
                residual(model, f, 1j * f)


class TestGnsExpectation:
    def test_matches_closed_form_scalar(self):
        model = GnsModel(make_operator([[2.0]]), cutoff=40)
        value = gns_expectation(model, WeylWord.generator([1.0]))
        assert abs(value - np.exp(-0.5)) <= 1e-6

    def test_identity_word(self):
        model = GnsModel(make_operator([[2.0]]), cutoff=12)
        assert gns_expectation(model, WeylWord.identity(1)) == pytest.approx(1.0)

    def test_weyl_relation_collapses(self):
        model = GnsModel(make_operator([[2.0]]), cutoff=12)
        f = np.array([0.4 + 0.3j])
        word = weyl_multiply(WeylWord.generator(f), WeylWord.generator(-f), 1.0)
        assert gns_expectation(model, word) == pytest.approx(1.0)

    def test_oracle_equivalence_random_models(self, rng):
        # truncated simulator against the Gaussian closed form, 1 and 2 modes
        for dim in (1, 2):
            for _ in range(3):
                covariance = random_covariance(rng, dim, low=1.0, high=3.0)
                model = GnsModel(covariance, cutoff=40)
                phi = quasi_free_functional(covariance)
                word = WeylWord(dim)
                for _ in range(3):
                    vec = random_vector(rng, dim)
                    norm = np.linalg.norm(vec)
                    if norm > 1:
                        vec = vec / norm
                    word = word + WeylWord.generator(vec, complex(rng.standard_normal(), rng.standard_normal()))
                deviation = abs(gns_expectation(model, word) - evaluate_state(phi, word))
                assert deviation <= 1e-5

    def test_dimension_mismatch(self):
        model = GnsModel(make_operator([[2.0]]), cutoff=10)
        with pytest.raises(DimensionMismatch):
            gns_expectation(model, WeylWord.generator([1.0, 0.0]))


class TestRepresentationResiduals:
    def test_weyl_relation_complex_pair(self):
        model = GnsModel(make_operator([[2.0]]), cutoff=40)
        assert weyl_relation_residual(model, [1.0], [1j]) <= 1e-5

    def test_weyl_relation_random_pairs(self, rng):
        model = GnsModel(make_operator([[1.5]]), cutoff=40)
        for _ in range(3):
            f, g = random_vector(rng, 1), random_vector(rng, 1)
            f, g = f / max(1, np.linalg.norm(f)), g / max(1, np.linalg.norm(g))
            assert weyl_relation_residual(model, f, g) <= 1e-5

    def test_commutant_fock_case(self):
        model = GnsModel(make_operator(np.eye(1)), cutoff=16)
        assert commutant_residual(model, [0.8], [0.5j]) <= 1e-12

    def test_commutant_at_cutoff_forty(self):
        model = GnsModel(make_operator([[2.0]]), cutoff=40)
        assert commutant_residual(model, [1.0], [1.0]) <= 1e-5
        assert commutant_residual(model, [1.0], [1j]) <= 1e-5

    def test_commutant_zero_vector_exact(self):
        model = GnsModel(make_operator([[2.0]]), cutoff=10)
        assert commutant_residual(model, [0.0], [0.6]) == 0.0

    def test_commutant_operator_is_also_multiplicative(self):
        model = GnsModel(make_operator([[2.0]]), cutoff=16)
        f, g = np.array([0.3]), np.array([0.2j])
        lhs = commutant_weyl_operator(model, f) @ commutant_weyl_operator(model, g)
        rhs = np.exp(-0.5j * sigma(f, g)) * commutant_weyl_operator(model, f + g)
        idx = reliable_block(model)
        diff = (lhs - rhs).ravel()[idx[:, None] * lhs.shape[0] + idx[None, :]]
        assert np.max(np.abs(diff)) <= 1e-8


def _dense_residuals(model, f, g):
    """Relation and commutant residuals from the doubled matrices, on reliable_block."""
    f, g = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
    idx = reliable_block(model)
    a, b = weyl_operator(model, f), weyl_operator(model, g)
    c = commutant_weyl_operator(model, g)
    phase = np.exp(-0.5j * sigma(f, g))
    relation = a[idx] @ b[:, idx] - phase * weyl_operator(model, f + g)[np.ix_(idx, idx)]
    commutator = a[idx] @ c[:, idx] - c[idx] @ a[:, idx]
    return float(np.max(np.abs(relation))), float(np.max(np.abs(commutator)))


class TestFactorizedResiduals:
    """The slot-product residuals against the doubled-matrix reference."""

    def _assert_matches_dense(self, model, f, g):
        relation, commutant = _dense_residuals(model, f, g)
        assert abs(weyl_relation_residual(model, f, g) - relation) <= 1e-14
        assert abs(commutant_residual(model, f, g) - commutant) <= 1e-14

    @pytest.mark.parametrize("cutoff", [10, 24, 40])
    def test_one_mode(self, rng, cutoff):
        model = GnsModel(make_operator([[1.7]]), cutoff=cutoff)
        for _ in range(2):
            self._assert_matches_dense(model, random_vector(rng, 1), random_vector(rng, 1))

    @pytest.mark.parametrize("cutoff", [4, 6])
    def test_two_mode_rotated_covariance(self, rng, cutoff):
        model = GnsModel(random_covariance(rng, 2), cutoff=cutoff)
        for _ in range(2):
            self._assert_matches_dense(model, random_vector(rng, 2), random_vector(rng, 2))

    @pytest.mark.parametrize("modes, cutoff", [(1, 5), (2, 4), (2, 7)])
    def test_reliable_slot_digits(self, modes, cutoff):
        model = GnsModel(make_operator(np.eye(modes)), cutoff=cutoff)
        base = cutoff + 1
        expected = [
            i
            for i in range(model.slot_dimension)
            if all((i // base**m) % base <= cutoff // 2 for m in range(modes))
        ]
        assert _reliable_slot(model).tolist() == expected

    def test_no_doubled_matrix_allocated(self, rng):
        model = GnsModel(random_covariance(rng, 2), cutoff=6)
        f, g = random_vector(rng, 2), random_vector(rng, 2)
        doubled_matrix_bytes = 16 * model.slot_dimension ** 4
        tracemalloc.start()
        try:
            weyl_relation_residual(model, f, g)
            commutant_residual(model, f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < doubled_matrix_bytes / 10

    def test_gns_check_at_the_cap_allocates_no_doubled_matrix(self, tmp_path, capsys):
        # two modes at cutoff 9: the doubled axis is 100^2 = 10^4, the largest the cap admits
        import scipy.linalg  # noqa: F401  (imported up front, as its import is not the run's)

        config = tmp_path / "gns.yaml"
        config.write_text(
            "operator: {matrix: [[2, 0.5], [0.5, 1.5]]}\n"
            "vectors: {explicit: [[0.3, -0.2], [0.1, 0.25]]}\n"
            "cutoff: 9\n"
        )
        doubled_matrix_bytes = 16 * 100**4
        tracemalloc.start()
        try:
            code = main(["gns-check", "--config", str(config), "--out", str(tmp_path / "r")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < doubled_matrix_bytes / 100


class TestDisplacementCache:
    """A model builds each per-mode displacement once and hands it out read-only."""

    @staticmethod
    def _count_expm(monkeypatch):
        calls, original = [], fock.expm

        def counting(matrix):
            calls.append(matrix.shape)
            return original(matrix)

        monkeypatch.setattr(fock, "expm", counting)
        return calls

    @pytest.mark.parametrize("count, expected", [(1, 6), (3, 12)])
    def test_gns_check_expm_calls(self, monkeypatch, tmp_path, capsys, count, expected):
        # one vector: f for the expectation, then g = i f and f + g, two slots
        # each; three vectors: f for each expectation, then f + g for each pair
        config = tmp_path / "gns.yaml"
        config.write_text(
            f"operator: {{matrix: [[1.6]]}}\n"
            f"vectors: {{random: {{count: {count}, seed: 3}}}}\n"
            f"cutoff: 40\n"
        )
        calls = self._count_expm(monkeypatch)
        assert main(["gns-check", "--config", str(config), "--out", str(tmp_path / "r")]) == 0
        assert len(calls) == expected

    def test_residuals_reuse_expectation_matrices(self, monkeypatch):
        model = GnsModel(make_operator([[1.6]]), cutoff=12)
        f, g = np.array([0.4 + 0.1j]), np.array([-0.2 + 0.3j])
        calls = self._count_expm(monkeypatch)
        for vec in (f, g):
            gns_expectation(model, WeylWord.generator(vec))
        assert len(calls) == 4
        commutant_residual(model, f, g)
        assert len(calls) == 4
        weyl_relation_residual(model, f, g)
        assert len(calls) == 6

    def test_cached_matrix_is_read_only(self):
        model = GnsModel(make_operator([[1.6]]), cutoff=8)
        first, _ = fock._slot_pair(model, model.slot_amplitudes([0.5j]))
        with pytest.raises(ValueError):
            first[0, 0] = 1.0
        with pytest.raises(ValueError):
            model._mode_displacement(0.25)[1, 1] = 0.0

    @pytest.mark.parametrize("modes, cutoff", [(1, 24), (2, 5)])
    def test_reused_model_matches_fresh_models(self, rng, modes, cutoff):
        covariance = random_covariance(rng, modes)
        vectors = [0.6 * random_vector(rng, modes) for _ in range(3)]
        reused = GnsModel(covariance, cutoff=cutoff)

        def results(model_for):
            values = [gns_expectation(model_for(), WeylWord.generator(f)) for f in vectors]
            for f, g in zip(vectors, vectors[1:] + vectors[:1]):
                values.append(weyl_relation_residual(model_for(), f, g))
                values.append(commutant_residual(model_for(), f, g))
            return values

        cached = results(lambda: reused)
        fresh = results(lambda: GnsModel(covariance, cutoff=cutoff))
        assert cached == fresh
        assert results(lambda: reused) == fresh

    def test_signed_zero_amplitudes_kept_apart(self):
        model = GnsModel(make_operator([[1.6]]), cutoff=6)
        positive = model._mode_displacement(0.0)
        negative = model._mode_displacement(-0.0j)
        assert positive is not negative
        assert len(model._displacements) == 2
        assert model._mode_displacement(complex(0.0, 0.0)) is positive


def _one_shot_kron_difference_max(p, q, r, s):
    """Max-norm of P (x) Q - R (x) S in one broadcast over all rows."""
    diff = p[:, None, :, None] * q[None, :, None, :]
    diff -= r[:, None, :, None] * s[None, :, None, :]
    return float(np.max(np.abs(diff)))


class TestBlockedKronDifferenceMax:
    @staticmethod
    def _complex(rng, shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("side", range(1, 32))
    def test_equals_one_shot_broadcast(self, rng, side):
        p, q = self._complex(rng, (side, side)), self._complex(rng, (side, side))
        r, s = self._complex(rng, (side, side)), self._complex(rng, (side, side))
        near_r = p + 1e-13 * self._complex(rng, (side, side))
        near_s = q * (1 + 1e-15 * self._complex(rng, (side, side)))
        for args in [(p, q, r, s), (p, q, near_r, near_s), (p, q, p, q)]:
            assert _kron_difference_max(*args) == _one_shot_kron_difference_max(*args)

    @pytest.mark.parametrize("side", [11, 13])
    def test_blocks_that_do_not_divide_the_side(self, rng, side):
        step = fock._KRON_BLOCK_ENTRIES // side**2
        assert 1 < step < side**2 and side**2 % step != 0
        p, q = self._complex(rng, (side, side)), self._complex(rng, (side, side))
        for entry in (0, side**2 - 1):
            # the largest entry sits in the first block, then in the short last one
            r = p.copy()
            r.flat[entry] += 5.0
            assert _kron_difference_max(p, q, r, q) == _one_shot_kron_difference_max(p, q, r, q)
        r = p.copy()
        r.flat[-1] = np.nan
        with pytest.raises(OutOfRange, match="^GNS max-norm operands not finite or above 1e\\+150: no row bound$"):
            _kron_difference_max(p, q, r, q)

    def test_peak_memory_at_side_21(self, rng):
        p, q, r, s = (self._complex(rng, (21, 21)) for _ in range(4))
        tracemalloc.start()
        try:
            _kron_difference_max(p, q, r, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit(rng, side):
    return np.exp(2j * np.pi * rng.uniform(size=(side, side)))


class TestBoundedKronDifferenceMax:
    """Rows and columns skipped by their bounds leave the one-shot evaluation's float,
    bit for bit; operands that _bounds cannot bound raise OutOfRange."""

    @staticmethod
    def _assert_exact(p, q, r, s):
        bounds = fock._bounds(p.ravel(), q.ravel(), r.ravel(), s.ravel())
        with warnings.catch_warnings(record=True) as bounded_warnings:
            warnings.simplefilter("always")
            if bounds is None:
                with pytest.raises(OutOfRange, match="^GNS max-norm operands not finite or above"):
                    _kron_difference_max(p, q, r, s)
                assert bounded_warnings == []
                return
            bounded = _kron_difference_max(p, q, r, s)
        with warnings.catch_warnings(record=True) as one_shot_warnings:
            warnings.simplefilter("always")
            expected = _one_shot_kron_difference_max(p, q, r, s)
        assert bounded == expected
        assert [str(w.message) for w in bounded_warnings] == [str(w.message) for w in one_shot_warnings]
        entries = np.abs(p.reshape(-1, 1, 1) * q[None] - r.reshape(-1, 1, 1) * s[None]).reshape(p.size, -1)
        assert np.all(entries.max(axis=1) <= bounds[0])
        assert np.all(entries.max(axis=0) <= bounds[1])

    @settings(max_examples=25)
    @given(
        cutoff=st.integers(4, 40),
        covariance=st.floats(1.0, 3.0),
        radii=st.tuples(st.floats(0.0, 0.7), st.floats(0.0, 0.7)),
        phases=st.tuples(st.floats(0.0, 6.3), st.floats(0.0, 6.3)),
    )
    def test_gns_slot_products(self, cutoff, covariance, radii, phases):
        # amplitudes |alpha| = T1 |f| / sqrt(2) <= 1 for f, g and f + g
        model = GnsModel(make_operator([[covariance]]), cutoff=cutoff)
        f, g = (np.array([radius / model._t1[0] * np.exp(1j * phase)]) for radius, phase in zip(radii, phases))
        for operands in residual_operands(model, f, g):
            self._assert_exact(*operands)

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), sides=st.tuples(st.integers(6, 13), st.integers(9, 21)))
    def test_rotated_operands_with_one_ulp_perturbations(self, seed, sides):
        # R = e^{i theta} P and S = e^{-i theta} Q, then some real and imaginary parts moved by one ulp
        rng = np.random.default_rng(seed)
        p, q = _complex(rng, (sides[0],) * 2), _complex(rng, (sides[1],) * 2)
        phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        r, s = phase * p, q / phase
        for operand in (r.view(float), s.view(float)):
            moved = rng.random(operand.shape) < 0.3
            operand[moved] = np.nextafter(operand[moved], np.where(rng.random(moved.sum()) < 0.5, -np.inf, np.inf))
        self._assert_exact(p, q, r, s)

    @settings(max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        edge=st.sampled_from(["zero rows", "orthogonal", "subnormal", "huge", "nan", "inf"]),
        exponent=st.integers(150, 300),
    )
    def test_edge_operands(self, seed, edge, exponent):
        rng = np.random.default_rng(seed)
        p, q = _complex(rng, (9, 9)), _complex(rng, (13, 13))
        r, s = p * np.exp(0.3j) + 1e-9 * _complex(rng, (9, 9)), q * np.exp(-0.3j)
        operands = [p, q, r, s]
        if edge == "zero rows":
            rows = rng.random(81) < 0.5
            p.flat[rows] = r.flat[rows] = 0.0
        elif edge == "orthogonal":
            # disjoint supports: <p, r> = 0
            p.flat[:40] = 0.0
            r.flat[40:] = 0.0
        elif edge == "subnormal":
            p *= 2.0**-1060
            r *= 2.0**-1060
        elif edge == "huge":
            scaled = rng.integers(4)
            operands[scaled] = operands[scaled] * 10.0**exponent
        else:
            infinities = [complex(np.inf, 0), complex(-np.inf, 0), complex(0, np.inf), complex(0, -np.inf)]
            value = np.nan if edge == "nan" else infinities[rng.integers(4)]
            target = operands[rng.integers(4)]
            target.flat[rng.integers(target.size)] = value
        if edge in ("huge", "nan", "inf"):
            # beyond _KRON_BOUND_LIMIT or not finite: no bound, so _assert_exact expects the raise
            p, q, r, s = operands
            assert fock._bounds(p.ravel(), q.ravel(), r.ravel(), s.ravel()) is None
        self._assert_exact(*operands)

    def test_maximum_in_a_row_the_unrounded_bound_would_skip(self):
        # Unit-modulus operands rotated by a phase: every entry is rounding, and in
        # some cases the largest computed entry exceeds |p - mu r| max|q| + |r| max|mu q - s|,
        # its row's bound in exact arithmetic, so only the rounding term keeps that row.
        beyond = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            p, q = _unit(rng, 9), _unit(rng, 20)
            phase = np.exp(2j * np.pi * rng.uniform())
            r, s = phase * p, q / phase
            z = np.vdot(r, p)
            mu = z / abs(z)
            unrounded = np.abs(p - mu * r).ravel() * np.abs(q).max() + np.abs(r).ravel() * np.abs(mu * q - s).max()
            rows = np.abs(p.reshape(-1, 1, 1) * q[None] - r.reshape(-1, 1, 1) * s[None]).reshape(81, -1).max(axis=1)
            beyond += rows.max() > unrounded[np.argmax(rows)]
            assert _kron_difference_max(p, q, r, s) == _one_shot_kron_difference_max(p, q, r, s)
        assert beyond > 0

    def test_maximum_in_a_column_the_unrounded_bound_would_skip(self):
        # The same operands, from the column side: in some cases the largest computed entry
        # exceeds max|p - mu r| |q| + max|r| |mu q - s|, its column's bound in exact arithmetic
        beyond = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            p, q = _unit(rng, 9), _unit(rng, 20)
            phase = np.exp(2j * np.pi * rng.uniform())
            r, s = phase * p, q / phase
            z = np.vdot(r, p)
            mu = z / abs(z)
            unrounded = np.abs(p - mu * r).max() * np.abs(q).ravel() + np.abs(r).max() * np.abs(mu * q - s).ravel()
            columns = np.abs(p.reshape(-1, 1, 1) * q[None] - r.reshape(-1, 1, 1) * s[None]).reshape(81, -1).max(axis=0)
            beyond += columns.max() > unrounded[np.argmax(columns)]
            assert _kron_difference_max(p, q, r, s) == _one_shot_kron_difference_max(p, q, r, s)
        assert beyond > 0


class TestNumberOperator:
    def test_truncated_matches_closed_form(self):
        covariance = make_operator([[2.0]])
        model = GnsModel(covariance, cutoff=40)
        f = np.array([0.8])
        a = annihilation(model, f)
        truncated = (a.conj().T @ a)[0, 0].real
        closed = one_particle_number_expectation(covariance, f)
        assert abs(truncated - closed) <= 1e-4

    @pytest.mark.parametrize(
        "data, f, expected",
        [
            ([(2.0, INF)], [1.0], 0.5),  # rescaled Fock at h = 1/2
            (np.eye(2), [1.0, 0.0], 0.0),
            (np.diag([1.0, 3.0]), [0.0, 1.0], 1.0),
        ],
    )
    def test_closed_form_examples(self, data, f, expected):
        assert one_particle_number_expectation(make_operator(data), f) == pytest.approx(expected)

    def test_spectrum_below_one_rejected(self):
        with pytest.raises(SpectrumBelowOne):
            one_particle_number_expectation(make_operator([(0.5, 1)]), [1.0])


class TestQuasiEquivalence:
    def test_rescaled_fock_not_quasi_equivalent(self):
        assert is_quasi_equivalent_to_fock(make_operator([(2.0, INF)])) is False

    def test_identity_is(self):
        assert is_quasi_equivalent_to_fock(make_operator([(1.0, INF)])) is True

    def test_finite_rank_excess_is(self):
        assert is_quasi_equivalent_to_fock(make_operator([(1.0, INF), (5.0, 3)])) is True


class TestMixtureParameter:
    def test_third(self):
        assert c_parameter(1 / 3) == pytest.approx(0.5)

    def test_fock_limit(self):
        assert c_parameter(1.0) == 0.0
        assert h_of_c(0.0) == 1.0

    def test_round_trip(self):
        h = 0.7
        assert abs(h_of_c(c_parameter(h)) - h) <= 1e-14
        c = c_parameter(h)
        assert abs((1 + c) / (1 - c) - 1 / h) <= 1e-14

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            c_parameter(0.0)
        with pytest.raises(OutOfRange):
            h_of_c(1.0)


class TestUniversalInvariance:
    def test_point_mass_at_zero_is_fock(self, rng):
        phi = universally_invariant_functional(MixtureMeasure(((0.0, 1.0),)))
        fock = quasi_free_functional(make_operator(np.eye(2)))
        f = random_vector(rng, 2)
        assert phi.value(f) == pytest.approx(fock.value(f), abs=1e-14)

    def test_point_mass_matches_rescaled_fock(self, rng):
        h = 0.35
        phi = universally_invariant_functional(MixtureMeasure(((c_parameter(h), 1.0),)))
        rescaled = RescaledFockState(h)
        for _ in range(20):
            f = random_vector(rng, 3)
            assert abs(phi.value(f) - rescaled.value(f)) <= 1e-14

    def test_two_term_sum(self):
        phi = universally_invariant_functional(MixtureMeasure(((0.0, 0.5), (0.5, 0.5))))
        expected = (np.exp(-0.25) + np.exp(-0.75)) / 2
        assert phi.value([1.0]) == pytest.approx(expected)

    def test_invariant_under_random_unitary(self, rng):
        phi = universally_invariant_functional(MixtureMeasure(((0.2, 0.3), (0.6, 0.7))))
        gaussian = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(gaussian)
        vectors = [random_vector(rng, 3) for _ in range(20)]
        assert max(abs(phi.value(q @ f) - phi.value(f)) for f in vectors) <= 1e-12

    def test_anisotropic_gaussian_is_not_invariant(self):
        phi = quasi_free_functional(make_operator(np.diag([1.0, 3.0])))
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        f = np.array([1.0, 0.0])
        assert abs(phi.value(swap @ f) - phi.value(f)) > 0.1

    def test_measure_validation(self):
        with pytest.raises(OutOfRange, match="^weights sum to 0.5, expected 1$"):
            MixtureMeasure(((0.5, 0.5),))
        with pytest.raises(OutOfRange, match=r"^support point 1.0 outside \[0, 1\)$"):
            MixtureMeasure(((1.0, 1.0),))
        with pytest.raises(OutOfRange, match="^measure needs at least one support point$"):
            MixtureMeasure(())
        with pytest.raises(OutOfRange, match="^weight nan is not positive$"):
            MixtureMeasure(((0.5, float("nan")),))  # NaN passes both w <= 0 and |sum - 1| > tol


class TestLadderOperators:
    def test_vacuum_annihilated_in_fock_case(self):
        model = GnsModel(make_operator(np.eye(1)), cutoff=14)
        a = annihilation(model, [1.0])
        assert np.linalg.norm(a[:, 0]) == 0.0

    def test_antilinear_in_the_argument(self):
        model = GnsModel(make_operator(np.eye(1)), cutoff=14)
        a = annihilation(model, [1.0])
        scaled = annihilation(model, [2j])
        assert np.max(np.abs(scaled - np.conj(2j) * a)) <= 1e-12

    def test_creation_is_adjoint(self):
        model = GnsModel(make_operator([[1.5]]), cutoff=14)
        a = annihilation(model, [0.7])
        adag = creation(model, [0.7])
        assert np.max(np.abs(adag - a.conj().T)) == 0.0

    def test_vacuum_column_norm_matches_occupation(self):
        # || a(f) vacuum ||^2 = <N_f> = (A - 1)/2 for a unit vector
        model = GnsModel(make_operator([[2.0]]), cutoff=20)
        a = annihilation(model, [1.0])
        assert np.linalg.norm(a[:, 0]) ** 2 == pytest.approx(0.5, abs=1e-10)

    def test_ccr_on_reliable_block_two_modes(self, rng):
        # [a(f), a*(g)] = <f, g> I where the truncated ladders are faithful
        model = GnsModel(random_covariance(rng, 2), cutoff=4)
        f, g = random_vector(rng, 2), random_vector(rng, 2)
        a, adag = annihilation(model, f), creation(model, g)
        idx = reliable_block(model)
        commutator = a[idx] @ adag[:, idx] - adag[idx] @ a[:, idx]
        assert np.max(np.abs(commutator - np.vdot(f, g) * np.eye(idx.size))) <= 1e-12

    def test_field_generates_displacement(self):
        # pi(W_{tf}) = expm(i t Phi(f)) on the doubled space
        from scipy.linalg import expm

        model = GnsModel(make_operator([[2.0]]), cutoff=12)
        f = np.array([0.4 + 0.2j])
        phi_matrix = field_operator(model, f)
        assert np.max(np.abs(phi_matrix - phi_matrix.conj().T)) <= 1e-12
        direct = weyl_operator(model, 0.7 * f)
        assert np.max(np.abs(expm(0.7j * phi_matrix) - direct)) <= 1e-10

    def test_field_generates_displacement_two_modes(self):
        # the Kronecker sum runs over the first slot's modes, then the second's
        from scipy.linalg import expm

        model = GnsModel(make_operator([[2.0, 0.5], [0.5, 1.5]]), cutoff=4)
        f = np.array([0.3 + 0.1j, -0.2j])
        phi_matrix = field_operator(model, f)
        assert np.max(np.abs(phi_matrix - phi_matrix.conj().T)) <= 1e-12
        direct = weyl_operator(model, 0.7 * f)
        assert np.max(np.abs(expm(0.7j * phi_matrix) - direct)) <= 1e-10
