"""The array fast paths give what the per-entry paths give, bit for bit.

- A matrix operator's dense matrix, built on the first read of ``.matrix``,
  equals the eager symmetrized ``V diag V*`` and is read-only.
- Snapping a gap-separated spectrum as an array gives the atoms and values of
  the merge loop, and snapping a snapped spectrum moves no value.
- Rendering an array a row at a time gives the per-entry text, and so does
  rendering a complex array whose imaginary parts are all +0.0 over its real
  parts alone.
- An n = 128 kms-verify job in the benchmark's layout builds three dense
  matrices, so eager rebuilds cannot come back unnoticed.
- One draw of a ``(count, dim)`` array of random vectors gives the vectors
  of per-vector draws and leaves the generator where they leave it, and the
  explicit vectors reach the suites as the config's own array.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylscale import runner, spectral
from weylscale.cli import main
from weylscale.config import ExperimentConfig, random_complex_vectors
from weylscale.report import _render_value, _row_text
from weylscale.spectral import (
    ATOM_MERGE_TOL,
    OperatorSpec,
    _merge_sorted_values,
    _snap_eigenvalues,
    apply_function,
)

from test_config_reader import _workloads


def _eager_matrix(op: OperatorSpec) -> np.ndarray:
    """The dense matrix an eager build gives: the symmetrized ``V diag V*`` of the snapped values."""
    v = op.eigenvectors
    matrix = v @ np.diag(op.eigenvalues).astype(complex) @ v.conj().T
    return (matrix + matrix.conj().T) / 2


def _hermitian(rng, values) -> np.ndarray:
    dim = len(values)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q @ np.diag(values).astype(complex) @ q.conj().T


# ---------------------------------------------------------------------------
# the matrix built on first read


@pytest.mark.parametrize("dim", [1, 2, 7, 32, 128])
@pytest.mark.parametrize("repeated", [False, True])
def test_lazy_matrix_equals_eager_rebuild_through_a_chain(dim, repeated):
    rng = np.random.default_rng([dim, repeated])
    values = rng.uniform(1.5, 4.0, dim)
    if repeated:
        values = rng.choice([1.5, 2.0, 3.25], dim)
    op = OperatorSpec.from_matrix(_hermitian(rng, values))
    h = 0.7
    chain = [op]
    for fn in (lambda x: x / h, lambda x: (x + 1) / (x - 1), math.log, math.sqrt, lambda x: x * x):
        chain.append(apply_function(chain[-1], fn))
    for mapped in chain[1:]:
        assert mapped._matrix is None  # nothing built before the first read
        matrix = mapped.matrix
        eager = _eager_matrix(mapped)
        assert matrix.dtype == eager.dtype and matrix.tobytes() == eager.tobytes()
        assert not matrix.flags.writeable
        assert mapped.matrix is matrix  # built once
        assert mapped.dimension == dim


def test_lazy_matrix_is_read_only_and_copies_share_a_built_one():
    op = apply_function(OperatorSpec.from_matrix(np.diag([2.0, 3.0])), lambda x: x / 2)
    bounded = op.with_declared_bounds(supremum=math.inf)
    assert bounded.matrix.tobytes() == op.matrix.tobytes()
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0
    assert op.with_declared_bounds(infimum=1.0).matrix is op.matrix


def test_spectral_operator_has_no_matrix():
    op = OperatorSpec.from_atoms([(2.0, math.inf)])
    assert op.matrix is None
    assert op.dimension == math.inf


def test_dimension_does_not_build_the_matrix(monkeypatch):
    op = apply_function(OperatorSpec.from_matrix(np.diag([2.0, 3.0, 5.0])), math.sqrt)
    monkeypatch.setattr(spectral, "_dense_matrix", None)  # any build would fail
    op.require_matrix()
    assert op.dimension == 3


# ---------------------------------------------------------------------------
# snapping as an array


def _snap_by_loop(eigvals: np.ndarray):
    atoms = _merge_sorted_values(eigvals.tolist(), [1.0] * len(eigvals))
    snapped = np.concatenate([[a.value] * int(a.multiplicity) for a in atoms]) if atoms else eigvals.copy()
    return snapped, atoms


def _assert_snaps_alike(eigvals: np.ndarray):
    snapped, atoms = _snap_eigenvalues(eigvals.copy())
    expected, expected_atoms = _snap_by_loop(eigvals)
    assert snapped.tobytes() == expected.tobytes()
    assert atoms == expected_atoms
    assert [type(a.value) for a in atoms] == [float] * len(atoms)


@pytest.mark.parametrize("dim", [0, 1, 2, 64, 128])
def test_snap_of_gap_separated_spectrum_matches_the_loop(dim):
    rng = np.random.default_rng(dim)
    _assert_snaps_alike(np.sort(rng.uniform(0.5, 9.0, dim)))


def test_snap_at_a_gap_of_exactly_the_merge_tolerance_matches_the_loop():
    # 0.0 and ATOM_MERGE_TOL differ by exactly the tolerance, which is not above it
    exact = np.array([0.0, ATOM_MERGE_TOL, 1.0])
    assert np.diff(exact)[0] == ATOM_MERGE_TOL
    _assert_snaps_alike(exact)
    assert len(_snap_eigenvalues(exact.copy())[1]) == 2
    # one ulp above the tolerance is a gap
    _assert_snaps_alike(np.array([0.0, math.nextafter(ATOM_MERGE_TOL, 1.0), 1.0]))
    # two steps of exactly the tolerance: the loop measures from a group's first value
    chain = np.array([0.0, ATOM_MERGE_TOL, 2 * ATOM_MERGE_TOL, 5.0])
    assert np.all(np.diff(chain)[:2] == ATOM_MERGE_TOL)
    _assert_snaps_alike(chain)
    assert [a.multiplicity for a in _snap_eigenvalues(chain.copy())[1]] == [2.0, 1.0, 1.0]


@pytest.mark.parametrize("repeat", [2, 3, 5])
def test_snapping_is_a_fixed_point_on_snapped_spectra(repeat):
    rng = np.random.default_rng(repeat)
    rotated = _hermitian(rng, np.repeat(rng.uniform(0.1, 5.0, 30 // repeat), repeat))
    snapped, _ = _snap_eigenvalues(np.linalg.eigvalsh(rotated))
    # np.mean([0.1] * 3) is an ulp above 0.1: a group of equal values keeps its value
    for values in (np.full(3, 0.1), np.repeat([0.1, 0.7, 2.3], repeat), snapped):
        again, atoms = _snap_eigenvalues(values.copy())
        assert again.tobytes() == values.tobytes()
        assert [a.value for a in atoms] == sorted(set(values.tolist()))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.5, max_value=9.0), min_size=1, max_size=128),
    st.sampled_from([0.0, 0.4 * ATOM_MERGE_TOL, ATOM_MERGE_TOL, 3 * ATOM_MERGE_TOL]),
)
def test_snap_matches_the_loop_with_and_without_clusters(values, spread):
    values = np.sort(values)
    # a cluster around every third value, at a spread below, at or above the tolerance
    values = np.sort(np.concatenate([values, values[::3] + spread]))
    _assert_snaps_alike(values)


# ---------------------------------------------------------------------------
# rendering a row at a time


def _per_entry(array: np.ndarray) -> str:
    pieces: list = []
    _render_value(array.tolist(), pieces)
    return "".join(pieces)


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, 1e-300, 2.5]


def _edge_array(dtype, shape) -> np.ndarray:
    count = int(np.prod(shape))
    values = [_EDGE_FLOATS[k % len(_EDGE_FLOATS)] for k in range(count)]
    if np.dtype(dtype).kind == "c":
        values = [complex(a, _EDGE_FLOATS[(5 * k + 2) % len(_EDGE_FLOATS)]) for k, a in enumerate(values)]
    return np.array(values, dtype=dtype).reshape(shape)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("shape", [(2,), (9,), (128,), (1, 9), (9, 1), (4, 5), (128, 128)])
def test_row_rendering_equals_per_entry_rendering(dtype, shape):
    array = _edge_array(dtype, shape)
    # the array, its transpose and a strided slice (neither C-contiguous)
    for view in (array, array.T, array[..., ::2]):
        if view.size > 1:
            assert _row_text(view) == _per_entry(view)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_row_rendering_falls_back_on_non_finite_entries(dtype, bad):
    array = _edge_array(dtype, (3, 4))
    array[1, 2] = bad
    assert _row_text(array) is None
    if dtype is np.complex128:
        array = _edge_array(dtype, (5,))
        array[3] = complex(1.0, bad)
        assert _row_text(array) is None


def _rendered(array: np.ndarray) -> str:
    pieces: list = []
    _render_value(array, pieces)
    return "".join(pieces)


@pytest.mark.parametrize("shape", [(2,), (9,), (1, 9), (9, 1), (4, 5), (128, 128)])
def test_complex_rows_with_zero_imaginary_parts_render_over_their_real_parts(shape):
    array = _edge_array(np.float64, shape).astype(np.complex128)
    assert not np.signbit(array.imag).any()
    for view in (array, array.T, array[..., ::2]):
        if view.size > 1:
            assert _row_text(view) is not None
            assert _rendered(view) == _per_entry(view)


@pytest.mark.parametrize("imag", [-0.0, math.nan, math.inf, -math.inf], ids=["-0.0", "nan", "inf", "-inf"])
@pytest.mark.parametrize("shape", [(5,), (3, 4)])
def test_complex_rows_with_one_other_imaginary_part_render_per_entry(shape, imag):
    array = _edge_array(np.float64, shape).astype(np.complex128)
    array.flat[3] = complex(array.flat[3].real, imag)
    assert _rendered(array) == _per_entry(array)
    assert ('"im": -0' in _rendered(array)) == (imag == 0.0)


@pytest.mark.parametrize("real", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_complex_rows_with_a_non_finite_real_part_render_per_entry(real):
    array = _edge_array(np.float64, (3, 4)).astype(np.complex128)
    array[2, 1] = real
    assert _row_text(array) is None
    assert _rendered(array) == _per_entry(array)


@pytest.mark.parametrize("dtype", [np.float32, np.complex64, np.int64, np.dtype(">f8")])
def test_row_rendering_falls_back_on_other_dtypes(dtype):
    assert _row_text(np.ones((3, 3), dtype=dtype)) is None


@pytest.mark.parametrize("shape", [(0,), (3, 0), (1,), (1, 1), (2, 2, 2)])
def test_row_rendering_falls_back_on_empty_single_and_3d_arrays(shape):
    assert _row_text(np.ones(shape)) is None


# ---------------------------------------------------------------------------
# work count: dense matrices built by one n = 128 kms-verify job


@pytest.fixture
def dense_builds(monkeypatch):
    """The shapes of the dense matrices built while the fixture is active."""
    built = []
    dense_matrix = spectral._dense_matrix

    def counting(eigvals, eigvecs):
        built.append(eigvecs.shape)
        return dense_matrix(eigvals, eigvecs)

    monkeypatch.setattr(spectral, "_dense_matrix", counting)
    return built


def test_benchmark_kms_job_builds_three_dense_matrices(tmp_path, dense_builds):
    # the spectral-scan workload's kms job: n = 128, one rescaled, the unscaled and one restricted scale
    workloads = _workloads()
    rng = np.random.default_rng(7)
    job = workloads.kms_job(str(tmp_path), "kms", rng, 128, 4, 21, 4.0, rng.uniform(0.5, 0.8), 2.0)
    assert len(job.spec["h_values"]) == 3
    assert main(job.argv()) == 0
    assert len(dense_builds) == 3


def test_benchmark_known_fault_job_builds_one_dense_matrix(tmp_path, dense_builds, capsys):
    job = _workloads().known_fault_job(str(tmp_path))
    assert main(job.argv()) == 3
    assert len(dense_builds) == 1


# ---------------------------------------------------------------------------
# vector sets as one array


@pytest.mark.parametrize("count, dim", [(1, 1), (3, 4), (160, 12), (2, 128)])
def test_one_draw_gives_the_vectors_of_per_vector_draws(count, dim):
    for seed in range(5):
        one, each = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = random_complex_vectors(one, count, dim)
        vectors = [(each.standard_normal(dim) + 1j * each.standard_normal(dim)) / np.sqrt(2) for _ in range(count)]
        assert rows.shape == (count, dim)
        assert rows.tobytes() == np.stack(vectors).tobytes()
        assert one.bit_generator.state == each.bit_generator.state


def test_explicit_vectors_reach_the_suites_as_the_config_array():
    config = ExperimentConfig.from_dict({"operator": {"matrix": [[2]]}, "vectors": {"explicit": [[1], ["0.5j"]]}})
    assert config.vectors_explicit.shape == (2, 1)
    assert runner._vectors(config, 1, 1) is config.vectors_explicit
