"""Invariants a job computes once give the floats of computing them each time.

Each reuse is checked bit for bit against the formula it replaced: the GNS
max-norm on both sides of the one-block rule and under the two-sided rule,
the trace state read from a word's zero key, restrict-scan's random words
built in one pass, the restricted KMS residuals with ``B* v`` taken once per
vector and pair, and the per-model GNS ladder and reliable block.  The work
saved is counted too: the entries the max-norm evaluates and the restricted
compressions.
"""

import dataclasses
import importlib.util
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylscale import cli, fock, runner
from weylscale.config import ExperimentConfig, random_complex_vectors
from weylscale.errors import DimensionMismatch, OutOfRange
from weylscale.fock import GnsModel, _kron_difference_max, commutant_residual, weyl_relation_residual
from weylscale.kms import _boundary_report, covariance_from_hamiltonian, default_time_grid
from weylscale.restriction import RestrictedModel, _member, restricted_kms_residuals, restricted_model
from weylscale.runner import _random_word
from weylscale.spectral import make_operator
from weylscale.states import TraceState, evaluate_state
from weylscale.weyl import WeylWord, weyl_adjoint, weyl_multiply

from conftest import bench_module, residual_operands


def _bits(z) -> tuple:
    """A complex number's parts as hex, which tells -0.0 from 0.0."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# the GNS max-norm on both sides of the one-block rule


def _broadcast_max(p, q, r, s):
    """Max-norm of P (x) Q - R (x) S in one broadcast over every entry."""
    diff = p[:, None, :, None] * q[None, :, None, :]
    diff -= r[:, None, :, None] * s[None, :, None, :]
    return float(np.max(np.abs(diff)))


#: (shape of P and R, shape of Q and S): below, at and above _KRON_BLOCK_ENTRIES entries
_SHAPES = [((8, 8), (8, 8)), ((12, 8), (8, 8)), ((1, 6144), (1, 1)), ((97, 1), (8, 8)), ((9, 9), (9, 9))]


@pytest.mark.parametrize("p_shape, q_shape", _SHAPES)
@pytest.mark.parametrize("seed", range(6))
def test_kron_max_equals_the_full_broadcast(seed, p_shape, q_shape):
    rng = np.random.default_rng(seed)
    p, q = _complex(rng, p_shape), _complex(rng, q_shape)
    phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
    # unrelated operands, and R, S equal to P, Q up to a split phase and rounding-size noise
    near_r = phase * p + 1e-13 * _complex(rng, p_shape)
    near_s = q / phase * (1 + 1e-15 * _complex(rng, q_shape))
    one_block = p.size * q.size <= fock._KRON_BLOCK_ENTRIES
    for r, s in [(_complex(rng, p_shape), _complex(rng, q_shape)), (near_r, near_s), (p, q)]:
        with mock.patch.object(fock, "_bounds", wraps=fock._bounds) as bounds:
            assert _kron_difference_max(p, q, r, s) == _broadcast_max(p, q, r, s)
        # every row in one block takes no bound; more rows take one per call
        assert bounds.call_count == (0 if one_block else 1)


def test_shapes_straddle_the_one_block_rule():
    sizes = [np.prod(p_shape) * np.prod(q_shape) for p_shape, q_shape in _SHAPES]
    assert {np.sign(size - fock._KRON_BLOCK_ENTRIES) for size in sizes} == {-1, 0, 1}


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_one_block_maximum_not_finite_raises(rng, value):
    p, q = _complex(rng, (7, 7)), _complex(rng, (7, 7))
    r = p.copy()
    r.flat[11] = value
    with pytest.raises(OutOfRange, match=r"^GNS max-norm (nan|inf) not finite: an operand is not finite"):
        _kron_difference_max(p, q, r, q)


def test_one_block_overflow_raises(rng):
    p, q = _complex(rng, (7, 7)), _complex(rng, (7, 7))
    with pytest.raises(OutOfRange, match=r"^GNS max-norm inf not finite"):
        _kron_difference_max(1e200 * p, 1e200 * q, p, q)


@settings(max_examples=40)
@given(
    # (modes, occupation numbers per mode in the reliable block): one mode at sides 5-21,
    # two modes at sides 9 and 16 (cutoffs 4 and 6)
    shape=st.sampled_from([(1, side) for side in range(5, 22)] + [(2, 3), (2, 4)]),
    seed=st.integers(0, 2**32 - 1),
    norms=st.tuples(st.floats(0.2, 0.8), st.floats(0.2, 0.8)),
    phases=st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi)),
)
def test_two_sided_rule_equals_the_full_broadcast(shape, seed, norms, phases):
    modes, side = shape
    rng = np.random.default_rng(seed)
    unitary, _ = np.linalg.qr(_complex(rng, (modes, modes)))
    covariance = make_operator(unitary @ np.diag(rng.uniform(1.2, 2.0, modes)) @ unitary.conj().T)
    model = GnsModel(covariance, cutoff=2 * (side - 1))
    f, g = (
        norm * np.exp(1j * phase) * direction / np.linalg.norm(direction)
        for norm, phase, direction in zip(norms, phases, _complex(rng, (2, modes)))
    )
    for args in residual_operands(model, f, g):
        assert _kron_difference_max(*args) == _broadcast_max(*args)


def _kron_times():
    spec = importlib.util.spec_from_file_location("_kron_times", Path(__file__).resolve().parents[1] / "tools" / "kron_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _row_rule_entries(p, q, r, s) -> int:
    """Entries that the row bound alone evaluates: every column of the rows in two tiers
    (bound above half the largest, then the rest), each row skipped once its bound is
    at most the running maximum."""
    bound = fock._bounds(p.ravel(), q.ravel(), r.ravel(), s.ravel())[0]
    rows_max = np.abs(p.reshape(-1, 1) * q.reshape(1, -1) - r.reshape(-1, 1) * s.reshape(1, -1)).max(axis=1)
    step = max(1, fock._KRON_BLOCK_ENTRIES // q.size)
    peak, half, entries = 0.0, bound.max() / 2, 0
    for tier in (bound > half, bound <= half):
        rows = np.flatnonzero(tier & (bound > peak))
        for start in range(0, rows.size, step):
            block = rows[start : start + step]
            block = block[bound[block] > peak]
            if block.size:
                entries += block.size * q.size
                peak = max(peak, float(rows_max[block].max()))
    return entries


def _evaluated_blocks(args) -> list:
    """The (rows, columns) of each block that _kron_difference_max evaluates."""
    blocks, original = [], fock._block_max
    with mock.patch.object(fock, "_block_max", side_effect=lambda p, q, r, s: blocks.append((p.size, q.size)) or original(p, q, r, s)):
        _kron_difference_max(*args)
    return blocks


#: Largest share of the row rule's entries that the two-sided rule evaluates at sides 16-21
#: (measured: 0.17 to 0.37 on tools/kron_times.py's operands)
_TWO_SIDED_SHARE = 0.4


@pytest.mark.parametrize("side", range(16, 22))
def test_two_sided_rule_evaluates_a_fraction_of_the_row_rule(side):
    for args in _kron_times().operands(side).values():
        blocks = _evaluated_blocks(args)
        # the seed: the row of the largest bound against every column
        assert blocks[0] == (1, args[1].size)
        assert sum(rows * columns for rows, columns in blocks) <= _TWO_SIDED_SHARE * _row_rule_entries(*args)


def test_a_row_or_column_whose_bound_equals_the_seed_is_skipped():
    args = _kron_times().operands(16)["relation"]
    p, q, r, s = (x.ravel() for x in args)
    bound, column_bound = fock._bounds(p, q, r, s)
    top = slice(int(bound.argmax()), int(bound.argmax()) + 1)
    seed = float(fock._block_max(p[top, None, None], q[None, None], r[top, None, None], s[None, None]))
    # every bound at most the seed raised to it: still bounds, and none of them beats the seed
    bound[bound <= seed] = seed
    column_bound[column_bound <= seed] = seed
    with mock.patch.object(fock, "_bounds", return_value=(bound.copy(), column_bound.copy())):
        blocks = _evaluated_blocks(args)
        assert _kron_difference_max(*args) == _broadcast_max(*args)
    assert blocks[0] == (1, q.size)
    assert {columns for _, columns in blocks[1:]} == {int(np.sum(column_bound > seed))}
    assert sum(rows for rows, _ in blocks[1:]) <= np.sum(bound > seed) - 1


# ---------------------------------------------------------------------------
# the trace state from the word's zero key


def _term_sum(word: WeylWord) -> complex:
    """The linear extension term by term: sum of coefficient times the indicator of W_0."""
    phi = TraceState()
    total = 0.0 + 0.0j
    for vec, coeff in word.items():
        total += coeff * phi.value(vec)
    return complex(total)


def _trace_words():
    rng = np.random.default_rng(5)
    zero = np.zeros(3)
    tiny = np.full(3, 3e-13)  # below half the key grid: the key of zeros
    others = [tuple(v) for v in random_complex_vectors(rng, 3, 3)]
    coefficients = [complex(-0.0, 1.5), complex(2.0, -0.0), complex(-0.0, -0.0), -1.25 + 0.5j, 1e-300 + 0j]
    words = {"without": WeylWord(3, zip(others, coefficients))}
    for position in range(4):
        for index, coeff in enumerate(coefficients):
            terms = list(zip(others, coefficients[index + 1 :] + coefficients[: index + 1]))
            terms.insert(position, (zero if index % 2 else tiny, coeff))
            words[f"with at {position}, coefficient {coeff}"] = WeylWord(3, terms)
    base = WeylWord(3, [(zero, 0.75 - 0.25j), (others[0], 2.0j)])
    words["cancelled"] = base + WeylWord(3, [(zero, -0.75 + 0.25j)])
    words["cancelled to -0.0 parts"] = WeylWord(3, [(zero, 1.0)]) + WeylWord(3, [(zero, -1.0), (others[1], 1.0)])
    u = WeylWord(3, list(zip(others, coefficients[:3])))
    words["product u u*"] = weyl_multiply(u, weyl_adjoint(u), 1.3)
    words["product u* u"] = weyl_multiply(weyl_adjoint(u), u, 0.7)
    words["empty"] = WeylWord(3)
    return words


@pytest.mark.parametrize("name, word", list(_trace_words().items()))
def test_trace_value_equals_the_term_sum(name, word):
    assert _bits(evaluate_state(TraceState(), word)) == _bits(_term_sum(word))


def test_trace_words_cover_each_case():
    words = _trace_words()
    assert words["without"].identity_coefficient() == 0.0
    assert words["cancelled"].identity_coefficient() == 0.0 and len(words["cancelled"]) == 1
    assert words["product u u*"].identity_coefficient() != 0.0
    assert evaluate_state(TraceState(), WeylWord.identity(4)) == 1.0


def test_trace_value_keys_no_vector():
    word = weyl_multiply(*(WeylWord(2, [(np.zeros(2), 1.0), ([0.5, 1j], 2.0)]),) * 2, 1.0)
    with mock.patch("weylscale.states._canonical_key", side_effect=AssertionError("keyed")):
        assert evaluate_state(TraceState(), word) == word.identity_coefficient()


# ---------------------------------------------------------------------------
# restrict-scan's random words


def _chained_word(rng, dim):
    """The word as a chain of ``word + generator`` sums, each a copy."""
    count = int(rng.integers(1, 4))
    word = WeylWord(dim)
    for vec, coeff in zip(random_complex_vectors(rng, count, dim), random_complex_vectors(rng, count, 1)):
        word = word + WeylWord.generator(vec, complex(coeff[0]))
    return word


def _terms(word: WeylWord) -> list:
    return [(key, vec.tobytes(), _bits(coeff)) for key, (vec, coeff) in word._terms.items()]


@pytest.mark.parametrize("seed", range(50))
def test_random_word_equals_the_chained_construction(seed):
    for dim in (1, 2, 6):
        one_pass, chained = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            word = _random_word(one_pass, dim)
            assert _terms(word) == _terms(_chained_word(chained, dim))
            assert all(not vec.flags.writeable for vec, _ in word.items())
        # the same draws, so the generators stand at the same state
        assert one_pass.bit_generator.state == chained.bit_generator.state


# ---------------------------------------------------------------------------
# restricted KMS residuals with B* v taken once


def _parent_residuals(model, f, g, t_grid, rescaled):
    """The report by the replaced formula: membership by ``project``, then ``compress``."""
    for vec in (f, g):
        assert _member(vec, model.project(vec))
    if rescaled:
        covariance, modular = model.rescaled_covariance, model.rescaled_restricted_modular
    else:
        covariance, modular = model.restricted_covariance, model.restricted_modular
    return _boundary_report(covariance, modular, model.beta, model.compress(f), model.compress(g), t_grid)


def _restricted(seed, n=6):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(_complex(rng, (n, n)))
    energies = np.sort(rng.uniform(0.3, 2.0, n))
    hamiltonian = make_operator(q @ np.diag(energies) @ q.conj().T)
    covariance = covariance_from_hamiltonian(hamiltonian, 1.0)
    h = float(np.mean(np.sort(covariance.eigenvalues)[n // 2 - 1 : n // 2 + 1]))
    return restricted_model(covariance, h, beta=1.0), rng


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("rescaled", [False, True])
def test_restricted_residuals_equal_the_parent_formula(seed, rescaled):
    model, rng = _restricted(seed)
    u, v, w = (model.project(x) for x in random_complex_vectors(rng, 3, model.covariance.dimension))
    # one model across pairs that share a vector, repeat one, and repeat a whole pair
    for f, g in [(u, v), (v, w), (w, w), (u, v), (v, u)]:
        for t_grid in (None, np.linspace(-3.0, 4.0, 9)):
            report = restricted_kms_residuals(model, f, g, t_grid, rescaled=rescaled)
            expected = _parent_residuals(model, f, g, t_grid, rescaled)
            for field in dataclasses.fields(report):
                value, reference = getattr(report, field.name), getattr(expected, field.name)
                assert np.asarray(value).tobytes() == np.asarray(reference).tobytes(), field.name


def _counted(monkeypatch, name) -> list:
    """Calls of the RestrictedModel method ``name`` from here on, one entry each."""
    calls, method = [], getattr(RestrictedModel, name)
    monkeypatch.setattr(RestrictedModel, name, lambda self, *args: calls.append(1) or method(self, *args))
    return calls


def _counted_products(model: RestrictedModel) -> tuple[RestrictedModel, list]:
    """The model with its basis ``B`` viewed as an array that counts its products
    ``B @ x``, one entry each, and the list they go to."""
    products = []

    class CountedBasis(np.ndarray):
        def __matmul__(self, other):
            products.append(1)
            return np.asarray(self) @ other

    return dataclasses.replace(model, basis=model.basis.view(CountedBasis)), products


def test_a_restricted_cell_compresses_and_projects_each_vector_twice(monkeypatch):
    # the runner's projections B (B* v), then B* p and B (B* p) once for both reports
    model, rng = _restricted(2)
    f, g = random_complex_vectors(rng, 2, model.covariance.dimension)
    model, products = _counted_products(model)
    compressed = _counted(monkeypatch, "compress")
    _, checks = runner._restricted_kms(model, f, g, default_time_grid(), 1e-8)
    assert len(compressed) == 4 and len(products) == 4
    assert all(checks.values())


def test_a_suite_mix_round_compresses_four_times_per_restricted_cell(monkeypatch, tmp_path, capsys):
    compressed, cells = _counted(monkeypatch, "compress"), []
    cell = runner._restricted_kms

    def counted_cell(*args):
        before = len(compressed)
        result = cell(*args)
        cells.append(len(compressed) - before)
        return result

    monkeypatch.setattr(runner, "_restricted_kms", counted_cell)
    for job in bench_module("workloads").build("suite-mix", 7, str(tmp_path)):
        cli.main(job.argv())
    capsys.readouterr()
    # 12 restricted KMS cells: 48 compressions, where each report compressing its own pair took 72
    assert cells == [4] * 12


def test_restricted_residuals_refuse_a_vector_off_the_subspace():
    model, rng = _restricted(3)
    f = model.project(random_complex_vectors(rng, 1, model.covariance.dimension)[0])
    off = model.covariance.eigenvectors[:, 0]
    message = f"vector g has projection residual {model.residual(off):.3e}"
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        restricted_kms_residuals(model, f, off)


# ---------------------------------------------------------------------------
# the per-model GNS ladder and reliable block, and the config's default grid


def test_gns_model_builds_its_ladder_and_reliable_block_once(monkeypatch):
    ladders, blocks = [], []
    monkeypatch.setattr(fock, "_ladder_pair", lambda cutoff, build=fock._ladder_pair: ladders.append(cutoff) or build(cutoff))
    monkeypatch.setattr(fock, "_reliable_slot", lambda model, build=fock._reliable_slot: blocks.append(1) or build(model))
    model = GnsModel(make_operator([[1.7]]), cutoff=12)
    vectors = [np.array([0.3 + 0.1j]), np.array([-0.2j]), np.array([0.25])]
    for f, g in zip(vectors, vectors[1:] + vectors[:1]):
        weyl_relation_residual(model, f, g)
        commutant_residual(model, f, g)
    assert len(model._displacements) > 1
    assert ladders == [12] and blocks == [1]


def test_a_fresh_gns_model_holds_its_ladder_and_reliable_block():
    model = GnsModel(make_operator([[1.7]]), cutoff=12)
    assert {"_ladders", "_reliable"} <= vars(model).keys()
    assert [a.tobytes() for a in model._ladders] == [a.tobytes() for a in fock._ladder_pair(12)]
    keep, block = model._reliable
    assert keep.tolist() == list(range(7))
    assert [b.tobytes() for b in block] == [b.tobytes() for b in np.ix_(keep, keep)]


def test_default_time_grid_built_once_and_not_revalidated():
    with mock.patch("weylscale.config._time_grid", side_effect=AssertionError("validated")):
        config = ExperimentConfig.from_dict({"t_grid": None})
    assert config.t_grid.tobytes() == default_time_grid().tobytes()
    assert ExperimentConfig.from_dict({"t_grid": [-1, 2]}).t_grid.tolist() == [-1.0, 2.0]


def test_restriction_project_is_basis_times_compress():
    model, rng = _restricted(1)
    f = random_complex_vectors(rng, 1, model.covariance.dimension)[0]
    v = model.basis
    assert model.project(f).tobytes() == (v @ (v.conj().T @ f)).tobytes()
    assert model.compress(f).tobytes() == (v.conj().T @ f).tobytes()
