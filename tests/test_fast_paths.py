"""The array fast paths give what the per-entry paths give, bit for bit.

- A matrix operator's dense matrix, built on the first read of ``.matrix``,
  equals the eager symmetrized ``V diag V*`` and is read-only.
- Snapping a gap-separated spectrum as an array gives the values of the merge
  loop, and the atoms a matrix operator derives from them on first read are the
  loop's atoms; no atom is built before that read, and snapping a snapped
  spectrum moves no value.
- Rendering an array a row at a time gives the per-entry text, and so does
  rendering a complex array whose imaginary parts are all +0.0 over its real
  parts alone.  Rendering through the table keyed by exact type gives the
  documents of the ``isinstance`` chain in ``tests/report_reference.py``.
- A matrix operator's bounds and spectral distances read off its snapped
  values equal those of its atoms, and a map that keeps the order keeps the
  eigenvectors, as the stable sort's identity order did.
- An n = 128 kms-verify job in the benchmark's layout builds three dense
  matrices, so eager rebuilds cannot come back unnoticed.
- The KMS strip tables built from one complex exp per time and one real exp
  per height are the complex exp of every sample, and raise ``OutOfRange``
  outside that exact domain; one n = 128 boundary report evaluates no more
  complex exps than that, so per-sample tables cannot come back unnoticed.
- Mapping a matrix operator's eigenvalues as one list gives the values, the
  errors and the complex-value handling of mapping them one by one, and a
  restricted model builds its read-only basis and adjoint with the model.
- One draw of a ``(count, dim)`` array of random vectors gives the vectors
  of per-vector draws and leaves the generator where they leave it, and the
  explicit vectors reach the suites as the config's own array.
- Each fallback beside a fast path that a CLI config reaches runs on such a
  config: snapping's merge loop, the per-entry block cast and the overflow
  branch of gns-check's vector clipping.
"""

import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylscale import config as config_module, kms, runner, spectral
from weylscale.cli import main
from weylscale.config import ExperimentConfig, random_complex_vectors
from weylscale.errors import DomainViolation, OutOfRange
from weylscale.kms import STRIP_FRACTIONS, _SEPARABLE_EXP_LIMIT, _strip_tables
from weylscale.restriction import restricted_model
from weylscale.report import ReportRecord, _render_value, _row_text, render_object, render_table
from weylscale.spectral import (
    ATOM_MERGE_TOL,
    INF,
    Atom,
    OperatorSpec,
    _merge_sorted_values,
    _snap_eigenvalues,
    apply_function,
)

import report_reference
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


def test_lazy_matrix_is_read_only_and_built_once():
    op = apply_function(OperatorSpec.from_matrix(np.diag([2.0, 3.0])), lambda x: x / 2)
    matrix = op.matrix
    with pytest.raises(ValueError):
        matrix[0, 0] = 5.0
    assert op.matrix is matrix


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


def _snap(eigvals: np.ndarray):
    """The snapped values of ``eigvals`` and the atoms a matrix operator of them reads:
    the merged atoms, or those ``.atoms`` derives from the snapped values when none merged."""
    snapped, atoms = _snap_eigenvalues(eigvals.copy())
    if atoms is None:
        atoms = OperatorSpec("matrix", snapped, None, None).atoms
    return snapped, atoms


def _assert_snaps_alike(eigvals: np.ndarray):
    snapped, atoms = _snap(eigvals)
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
    assert len(_snap(exact)[1]) == 2
    # one ulp above the tolerance is a gap
    _assert_snaps_alike(np.array([0.0, math.nextafter(ATOM_MERGE_TOL, 1.0), 1.0]))
    # two steps of exactly the tolerance: the loop measures from a group's first value
    chain = np.array([0.0, ATOM_MERGE_TOL, 2 * ATOM_MERGE_TOL, 5.0])
    assert np.all(np.diff(chain)[:2] == ATOM_MERGE_TOL)
    _assert_snaps_alike(chain)
    assert [a.multiplicity for a in _snap(chain)[1]] == [2.0, 1.0, 1.0]


@pytest.mark.parametrize("repeat", [2, 3, 5])
def test_snapping_is_a_fixed_point_on_snapped_spectra(repeat):
    rng = np.random.default_rng(repeat)
    rotated = _hermitian(rng, np.repeat(rng.uniform(0.1, 5.0, 30 // repeat), repeat))
    snapped, _ = _snap_eigenvalues(np.linalg.eigvalsh(rotated))
    # np.mean([0.1] * 3) is an ulp above 0.1: a group of equal values keeps its value
    for values in (np.full(3, 0.1), np.repeat([0.1, 0.7, 2.3], repeat), snapped):
        again, atoms = _snap(values)
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


def test_a_gap_separated_matrix_operator_builds_no_atom_until_atoms_is_read(monkeypatch):
    built = []

    def recording(value, multiplicity):
        built.append(value)
        return Atom(value, multiplicity)

    monkeypatch.setattr(spectral, "Atom", recording)
    rng = np.random.default_rng(5)
    values = np.sort(rng.uniform(0.5, 4.0, 6))
    hamiltonian = OperatorSpec.from_matrix(_hermitian(rng, values))
    # the kms-verify chain: covariance, modular operator, their bounds, the two
    # routes to the rescaled modular operator and one boundary report
    model = kms.kms_model(hamiltonian, 1.0)
    kms.rescaled_modular(model, 0.5)
    kms.kms_boundary_residuals(model, np.ones(6), np.arange(6.0))
    runner._modular_exponential_within(model, 0.0, 1e-10)
    spectral.spectral_distance(model.modular, apply_function(hamiltonian, math.exp))
    assert built == []
    atoms = model.covariance.atoms
    assert len(built) == 6 and model.covariance.atoms is atoms and len(built) == 6
    assert atoms == _merge_sorted_values(model.covariance.eigenvalues.tolist(), [1.0] * 6)


def _atom_distance(a: tuple, b: tuple) -> float:
    """spectral_distance read off two atom tuples, as the atoms give it."""
    if len(a) != len(b) or any(x.multiplicity != y.multiplicity for x, y in zip(a, b)):
        return INF
    return max([0.0] + [abs(x.value - y.value) for x, y in zip(a, b)])


_SPREADS = st.sampled_from([0.0, 0.4 * ATOM_MERGE_TOL, ATOM_MERGE_TOL, 3 * ATOM_MERGE_TOL])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.5, max_value=9.0), min_size=1, max_size=12),
    _SPREADS,
    _SPREADS,
    st.floats(min_value=-1e-9, max_value=1e-9),
)
def test_bounds_and_distances_read_off_the_snapped_values_equal_the_atoms(values, spread, other_spread, shift):
    values = np.sort(values)
    first = np.sort(np.concatenate([values, values[::3] + spread]))
    second = np.sort(np.concatenate([values + shift, values[::3] + shift + other_spread]))
    a = OperatorSpec.from_eigen(first, np.eye(len(first)))
    b = OperatorSpec.from_eigen(second, np.eye(len(second)))
    shorter = OperatorSpec.from_eigen(second[1:], np.eye(len(second) - 1))
    reference = {op: _merge_sorted_values(op.eigenvalues.tolist(), [1.0] * int(op.dimension)) for op in (a, b, shorter)}
    for x in (a, b, shorter):
        assert spectral.inf_spectrum(x) == reference[x][0].value and type(spectral.inf_spectrum(x)) is float
        assert spectral.op_norm(x) == reference[x][-1].value and type(spectral.op_norm(x)) is float
        for y in (a, b, shorter):
            distance = spectral.spectral_distance(x, y)
            assert distance == _atom_distance(reference[x], reference[y]) and type(distance) is float
    for x in (a, b, shorter):
        assert x.atoms == reference[x]


@pytest.mark.parametrize(
    "values, fn",
    [
        ([1.0, 2.0, 3.0], lambda x: 2.0 - 1.0 / x),
        ([1.0, 2.0, 3.0], lambda x: 7.0),
        ([1.0, 2.0, 3.0], lambda x: -x),
        ([1.0, 2.0, 3.0], lambda x: (x - 2.0) ** 2),
        ([0.5, 0.5 + ATOM_MERGE_TOL, 4.0], lambda x: round(x, 6)),
    ],
    ids=["increasing", "constant", "decreasing", "folded", "merging"],
)
def test_apply_function_keeps_the_stable_sort_order(values, fn):
    op = OperatorSpec.from_eigen(np.array(values), np.eye(len(values)))
    mapped = apply_function(op, fn)
    expected = np.array([fn(v) for v in values])
    order = np.argsort(expected, kind="stable")
    assert mapped.eigenvalues.tobytes() == _snap_eigenvalues(expected[order])[0].tobytes()
    assert mapped.eigenvectors.tobytes() == np.eye(len(values))[:, order].tobytes()
    assert (mapped.eigenvectors is op.eigenvectors) == (order.tolist() == list(range(len(values))))


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


@pytest.mark.parametrize("shape", [(1,), (1, 1), (2,), (9,), (1, 9), (9, 1), (4, 5), (128, 128)])
def test_complex_rows_with_zero_imaginary_parts_render_over_their_real_parts(shape):
    array = _edge_array(np.float64, shape).astype(np.complex128)
    assert not np.signbit(array.imag).any()
    for view in (array, array.T, array[..., ::2]):
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


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (1,), (1, 1)])
def test_row_rendering_of_empty_and_single_entry_arrays_equals_per_entry_rendering(dtype, shape):
    array = _edge_array(dtype, shape)
    assert _row_text(array) == _per_entry(array)


@pytest.mark.parametrize("shape", [(), (2, 2, 2)])
def test_row_rendering_falls_back_on_0d_and_3d_arrays(shape):
    assert _row_text(np.ones(shape)) is None


# ---------------------------------------------------------------------------
# rendering through the type table


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_ARRAYS = (
    st.lists(_FLOATS, max_size=5).map(np.array)
    | st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True), max_size=5).map(lambda v: np.array(v, dtype=complex))
    | st.integers(1, 3).flatmap(lambda rows: st.lists(st.lists(_FLOATS, min_size=2, max_size=2), min_size=rows, max_size=rows)).map(np.array)
    | st.lists(st.complex_numbers(max_magnitude=1e3), min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2))
)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.booleans().map(np.bool_)
    | st.integers()
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | _FLOATS
    | _FLOATS.map(np.float64)
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
    | st.complex_numbers(allow_nan=True, allow_infinity=True)
    | st.text(alphabet=st.sampled_from('ab"\\ \t\u00e9'), max_size=6)
    | _ARRAYS
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(alphabet="abc", max_size=3), children, max_size=4),
    max_leaves=16,
)


def _record(values: list) -> ReportRecord:
    return ReportRecord(
        "render-check",
        {f"c{i}": value for i, value in enumerate(values)},
        cells=[{"index": i, "value": value} for i, value in enumerate(values)],
        summary={"all": list(values), "first": values[0] if values else None},
    )


#: one of each value type a report can hold
_EVERY_TYPE = [
    None, True, False, np.bool_(True), np.bool_(False), 0, -7, 10**30, np.int64(-(2**63)), 1.5, np.float64(0.1),
    -0.0, math.nan, math.inf, -math.inf, np.float64(-math.inf), 1 + 2j, complex(-0.0, math.nan), np.complex128(3j),
    "", 'say "hi"', "back\\slash", {"nested": [1, (2.5, None), {"deep": [True]}]}, [], (),
    np.array([0.5, -0.0, 2.0]), np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1 + 1j, 2.0]),
    np.array([[1.0, math.nan]]), np.array([1, 2]), np.array([], dtype=float),
]


def test_every_report_value_type_renders_as_the_isinstance_chain_does():
    record = _record(_EVERY_TYPE)
    assert render_object(record) == report_reference.render_object(record)
    assert render_table(record) == report_reference.render_table(record)
    for value in _EVERY_TYPE:
        mine, theirs = [], []
        _render_value(value, mine)
        report_reference.render_value(value, theirs)
        assert "".join(mine) == "".join(theirs)


@settings(max_examples=300, deadline=None)
@given(st.lists(_VALUES, max_size=4))
def test_random_reports_render_as_the_isinstance_chain_does(values):
    record = _record(values)
    assert render_object(record) == report_reference.render_object(record)
    assert render_table(record) == report_reference.render_table(record)


@pytest.mark.parametrize("value", [{1, 2}, object(), b"bytes", [1, {2}]], ids=["set", "object", "bytes", "nested-set"])
def test_a_value_of_no_report_type_is_a_type_error(value):
    with pytest.raises(TypeError, match="^cannot serialize value of type"):
        _render_value(value, [])


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
# functional calculus: one list of mapped eigenvalues


def _evaluate_one_by_one(fn, values):
    """The eigenvalue map one value at a time: each value a finite float, the real
    part of a (nearly) real complex value, or the error of the first that is not."""
    out = []
    for x in values:
        try:
            y = fn(float(x))
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise DomainViolation(f"map undefined at spectral point {x}: {exc}") from exc
        if type(y) is float and math.isfinite(y):
            out.append(y)
            continue
        y = complex(y)
        if abs(y.imag) > 1e-12 * max(1.0, abs(y.real)):
            raise DomainViolation(f"map is not real at spectral point {x}: {y}")
        if not math.isfinite(y.real):
            raise DomainViolation(f"map is singular at spectral point {x}")
        out.append(y.real)
    return np.array(out)


def _outcome(call):
    try:
        return "values", call().tobytes()
    except Exception as exc:  # the type and text of the error are the outcome
        return type(exc).__name__, str(exc)


_MAPS = {
    "float": lambda x: x / 3.0 + 0.1,
    "exp": math.exp,
    "int": lambda x: 7 if x > 2 else x,
    "bool": lambda x: x > 2 or x,
    "numpy float": lambda x: np.float64(x) * 2,
    "numpy float32": lambda x: np.float32(x),
    "all ints": lambda x: int(x),
    "nearly real": lambda x: complex(x, 1e-14),
    "complex": lambda x: complex(x, 1.0),
    "power of a negative": lambda x: (2.0 - x) ** 0.5,
    "zero division": lambda x: 1.0 / (x - 2.0),
    "log domain": lambda x: math.log(x - 2.0),
    "overflow": lambda x: math.exp(1000.0 * x),
    "inf": lambda x: math.inf if x > 2 else x,
    "nan": lambda x: math.nan,
    "inf before a type error": lambda x: math.inf if x < 2 else None + x,
    "type error": lambda x: None + x,
    "array of one": lambda x: np.array([x]),
    "ragged": lambda x: [x] * int(x),
    "huge int": lambda x: 10**400 if x > 2 else x,
}


@pytest.mark.parametrize("name", list(_MAPS))
def test_mapped_eigenvalues_match_mapping_one_by_one(name):
    fn = _MAPS[name]
    op = OperatorSpec.from_matrix(np.diag([1.0, 2.0, 3.0, 5.0]))
    expected = _outcome(lambda: np.sort(_evaluate_one_by_one(fn, op.eigenvalues.tolist())))
    got = _outcome(lambda: spectral.apply_function(op, fn).eigenvalues)
    assert got == expected


@settings(max_examples=100)
@given(st.lists(st.floats(0.01, 1e6), min_size=1, max_size=12), st.sampled_from(["float", "int", "nearly real", "numpy float"]))
def test_mapped_random_spectra_match_mapping_one_by_one(values, name):
    fn = _MAPS[name]
    op = OperatorSpec.from_matrix(np.diag(values))
    mapped = spectral.apply_function(op, fn)
    expected = _evaluate_one_by_one(fn, op.eigenvalues.tolist())
    order = np.argsort(expected, kind="stable")
    assert mapped.eigenvalues.tobytes() == _snap_eigenvalues(expected[order])[0].tobytes()


def test_atom_is_a_named_tuple_with_the_dataclass_repr():
    atom = Atom(2.5, INF)
    assert isinstance(atom, tuple) and atom._fields == ("value", "multiplicity")
    assert repr(atom) == "Atom(value=2.5, multiplicity=inf)"
    assert atom.infinite and not Atom(2.5, 3.0).infinite
    assert atom == Atom(value=2.5, multiplicity=INF) and hash(atom) == hash(Atom(2.5, INF))


def test_restricted_basis_and_adjoint_are_built_with_the_model_and_read_only():
    rng = np.random.default_rng(4)
    covariance = OperatorSpec.from_matrix(_hermitian(rng, [1.5, 2.0, 3.0, 4.0, 6.0]))
    model = restricted_model(covariance, 2.5)
    basis, adjoint = model.basis, model.adjoint
    assert not basis.flags.writeable and not adjoint.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        basis[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        adjoint[0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.basis = None
    fresh = covariance.eigenvectors[:, list(model.selected_indices)]
    assert basis.tobytes() == fresh.tobytes() and basis.strides == fresh.strides
    assert adjoint.tobytes() == basis.conj().T.tobytes() and adjoint.strides == basis.conj().T.strides
    f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert model.compress(f).tobytes() == (fresh.conj().T @ f).tobytes()


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


# ---------------------------------------------------------------------------
# KMS strip tables from one exp per time and per height


@st.composite
def strip_inputs(draw):
    """A log-spectrum, a strictly increasing grid (some holding 0.0 or -0.0) and a
    beta, with ``beta max|log delta|`` at times within a few ulps of the limit.
    Most spectra are at or above 1, as every modular spectrum is; some reach below
    1 or below 0."""
    deltas = draw(st.one_of(
        st.lists(st.floats(1.0, 1e6), min_size=1, max_size=6),
        st.lists(st.floats(-1e3, 1e3).filter(bool), min_size=1, max_size=3),
    ))
    times = draw(st.lists(st.floats(-60.0, 60.0).filter(bool), min_size=0, max_size=7, unique=True))
    zero = draw(st.sampled_from([None, 0.0, -0.0]))
    grid = np.array(sorted(times + ([] if zero is None else [zero])) or [0.5])
    log_delta = np.log(np.array(deltas).astype(complex))
    top = float(np.max(np.abs(log_delta.real)))
    if top > 0 and draw(st.booleans()):
        # the largest |x| = beta |log delta| on either side of the limit
        target = draw(st.sampled_from([
            _SEPARABLE_EXP_LIMIT, np.nextafter(_SEPARABLE_EXP_LIMIT, 0), np.nextafter(_SEPARABLE_EXP_LIMIT, 800),
            _SEPARABLE_EXP_LIMIT - 0.5, _SEPARABLE_EXP_LIMIT + 0.5, 709.78, 720.0,
        ]))
        beta = target / top
    else:
        beta = draw(st.floats(1e-3, 50.0))
    return log_delta, grid, beta


def _separable(log_delta, x):
    """Whether the tables are defined: a real log-spectrum >= 0 and every |x| within the limit."""
    return bool(
        np.all(log_delta.real >= 0) and not log_delta.imag.any()
        and np.max(np.abs(x)) <= _SEPARABLE_EXP_LIMIT
    )


@settings(max_examples=400)
@given(strip_inputs())
def test_separable_strip_tables_are_the_complex_exp_of_every_sample(inputs):
    log_delta, grid, beta = inputs
    heights = beta * np.array(STRIP_FRACTIONS)
    z = grid + 1j * heights[:, None]
    exponent = 1j * np.multiply.outer(z, log_delta)
    if not _separable(log_delta, exponent.real):
        # a spectrum below 1, or past the limit where the complex exp rescales
        with pytest.raises(OutOfRange):
            _strip_tables(log_delta, grid, heights)
        return
    # the exponent's real part is the same on every column t, up to the sign of a
    # zero, and its imaginary part the same on every row s, bit for bit
    assert np.all(exponent.real == exponent.real[:, :1])
    assert exponent.imag.tobytes() == np.broadcast_to(exponent.imag[:1], exponent.shape).tobytes()
    tables = _strip_tables(log_delta, grid, heights)
    expected = np.stack([np.exp(exponent), np.exp(-exponent)])
    real_time = 1j * np.multiply.outer(grid, log_delta)
    real_time = np.stack([np.exp(real_time), np.exp(-real_time)])
    assert tables.shape == (2, len(STRIP_FRACTIONS), len(grid), len(log_delta))
    assert tables.dtype == expected.dtype and tables.tobytes() == expected.tobytes()
    # the real-time tables of F are the strip's row at fraction 0
    assert tables[:, 0].tobytes() == real_time.tobytes()


@pytest.mark.parametrize("beta, separable", [(709.0 / math.log(4.0), True), (710.0 / math.log(4.0), False)])
def test_strip_tables_are_separable_up_to_the_limit(complex_exps, beta, separable):
    log_delta = np.log(np.array([1.0, 2.0, 4.0]).astype(complex))
    grid = np.array([-1.0, -0.0, 2.0])
    heights = beta * np.array(STRIP_FRACTIONS)
    if not separable:
        # |x| = 710 on the top row of the largest eigenvalue
        with pytest.raises(OutOfRange, match="^strip exponent 710.0 past 709.0$"):
            _strip_tables(log_delta, grid, heights)
        return
    tables = _strip_tables(log_delta, grid, heights)
    counted = complex_exps[0]
    exponent = 1j * np.multiply.outer(grid + 1j * heights[:, None], log_delta)
    assert tables.tobytes() == np.stack([np.exp(exponent), np.exp(-exponent)]).tobytes()
    # one exp per (t, k) and per (s, sign, k)
    assert counted == (len(grid) + 2 * len(STRIP_FRACTIONS)) * 3


@pytest.fixture
def complex_exps(monkeypatch):
    """The number of complex exps evaluated while the fixture is active."""
    counted = [0]
    exp = np.exp

    def counting(a, *args, **kwargs):
        out = exp(a, *args, **kwargs)
        if np.iscomplexobj(out):
            counted[0] += np.size(out)
        return out

    monkeypatch.setattr(kms.np, "exp", counting)
    return counted


def test_one_n128_boundary_report_evaluates_one_exp_per_time_and_per_height(complex_exps):
    n = 128
    model = _boundary_times().chain_model(n)
    rng = np.random.default_rng(3)
    f, g = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    complex_exps[0] = 0  # the chain's Fourier modes are not the report's
    report = kms.kms_boundary_residuals(model, f, g)
    times, heights = len(report.t_grid), len(STRIP_FRACTIONS)
    assert 0 < complex_exps[0] <= (times + 2 * heights) * n


# ---------------------------------------------------------------------------
# the boundary report timing harness


def _boundary_times():
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("_boundary_times", root / "tools" / "boundary_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_boundary_times_chain_is_the_periodic_chain():
    tool, n = _boundary_times(), 8
    shift = np.roll(np.eye(n), 1, axis=1)
    expected = (tool.MASS_SQUARED + 2.0) * np.eye(n) - shift - shift.T
    model = tool.chain_model(n)
    assert model.beta == tool.BETA
    assert np.allclose(model.hamiltonian.matrix, expected, atol=1e-12)


def test_boundary_times_smoke(monkeypatch, capsys):
    tool = _boundary_times()
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")  # main sets them; restored after the test
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts the checkout's src/ first
    assert tool.main(["8"], repeats=1) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "ms"]
    n, ms = row.split()
    assert n == "8" and 0 < float(ms) < 1e3
    with pytest.raises(SystemExit, match="^Usage: python3 tools/boundary_times.py N"):
        tool.main([])


# ---------------------------------------------------------------------------
# the fallbacks a CLI config reaches, each shown to run


def _run(tmp_path, suite: str, text: str) -> int:
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return main([suite, "--config", str(path), "--out", str(tmp_path / "report.json")])


def test_snap_merge_loop_runs_on_a_degenerate_spectrum(tmp_path, monkeypatch):
    callers = []
    merge = spectral._merge_sorted_values

    def recording(values, counts):
        callers.append(sys._getframe(1).f_code)
        return merge(values, counts)

    monkeypatch.setattr(spectral, "_merge_sorted_values", recording)
    config = "operator: {matrix: [[2, 0], [0, 2]]}\nvectors: {explicit: [[1, 0]]}\nh_values: [1.0]\n"
    assert _run(tmp_path, "positivity-scan", config) == 0
    assert spectral._snap_eigenvalues.__code__ in callers


def test_cast_block_reads_a_layout_pyyaml_reads_whole(tmp_path, monkeypatch):
    places = []
    cast_block = config_module._cast_block

    def recording(rows, where):
        places.append(where)
        return cast_block(rows, where)

    monkeypatch.setattr(config_module, "_cast_block", recording)
    # an exact expression: the block reader leaves the whole file, both blocks, to PyYAML
    config = "operator:\n  matrix:\n    - [ln(4), 0]\n    - [0, 3]\nvectors: {explicit: [[1, 0]]}\nh_values: [1.0]\n"
    assert _run(tmp_path, "positivity-scan", config) == 0
    assert places == ["operator.matrix", "vectors.explicit"]


def test_clipped_overflow_branch_runs_on_a_gns_vector_whose_norm_overflows(tmp_path):
    # whether each call of runner._clipped took the overflow branch, the only one that binds ``scaled``
    branches, clipped = [], runner._clipped.__code__

    def local(frame, event, arg):
        if event == "return":
            branches.append("scaled" in frame.f_locals)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is clipped else None

    config = "operator: {matrix: [[2]]}\nvectors: {explicit: [[1.0e+200], [0.5]]}\ncutoff: 8\n"
    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        code = _run(tmp_path, "gns-check", config)
    finally:
        sys.settrace(previous)
    assert code == 0
    assert branches == [True, False]
