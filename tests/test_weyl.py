import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylscale import (
    WeylWord,
    gamma_iso,
    sigma,
    weyl_adjoint,
    weyl_multiply,
    word_distance,
)
from weylscale.errors import DimensionMismatch, OutOfRange
from weylscale.states import TraceState
from weylscale.weyl import KEY_GRID, _canonical_key

from conftest import random_word, words_close


def test_sigma_basics():
    f = np.array([1.0, 0.0])
    g = np.array([1j, 0.0])
    assert sigma(f, g) == 1.0
    assert sigma(f, f) == 0.0
    assert 2.0 * sigma(f, g) == 2.0
    assert sigma(g, f) == -1.0


class TestMultiply:
    def test_generator_phase(self):
        u = WeylWord.generator([1.0, 0.0])
        v = WeylWord.generator([1j, 0.0])
        product = weyl_multiply(u, v, 1.0)
        assert len(product) == 1
        assert product.coefficient([1 + 1j, 0.0]) == pytest.approx(np.exp(-0.5j))

    def test_generator_phase_scaled(self):
        u = WeylWord.generator([1.0, 0.0])
        v = WeylWord.generator([1j, 0.0])
        product = weyl_multiply(u, v, 2.0)
        assert product.coefficient([1 + 1j, 0.0]) == pytest.approx(np.exp(-1j))

    def test_inverse_generator_collapses_to_identity(self):
        f = np.array([0.3 + 0.7j, -0.2j])
        product = weyl_multiply(WeylWord.generator(f), WeylWord.generator(-f), 1.0)
        assert product.coefficient(np.zeros(2)) == pytest.approx(1.0)
        assert len(product) == 1

    def test_bilinearity_merges_colliding_keys(self):
        f = np.array([1.0])
        u = WeylWord.generator(f) + WeylWord.generator(-f)
        product = weyl_multiply(u, u, 1.0)
        # cross terms f + (-f) and (-f) + f merge at the identity generator
        assert product.coefficient([0.0]) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            weyl_multiply(WeylWord.generator([1.0]), WeylWord.generator([1.0, 0.0]), 1.0)

    def test_scale_must_be_positive(self):
        with pytest.raises(OutOfRange, match="^scale parameter 0.0 must be positive$"):
            weyl_multiply(WeylWord.generator([1.0]), WeylWord.generator([1.0]), 0.0)

    def test_associativity_on_random_words(self, rng):
        for _ in range(20):
            u, v, w = (random_word(rng, 2) for _ in range(3))
            h = float(rng.uniform(0.2, 3.0))
            left = weyl_multiply(weyl_multiply(u, v, h), w, h)
            right = weyl_multiply(u, weyl_multiply(v, w, h), h)
            assert word_distance(left, right) <= 1e-12


class TestAdjoint:
    def test_generator_rule(self):
        word = WeylWord.generator([1j, 0.5], coeff=2 + 1j)
        adj = weyl_adjoint(word)
        assert adj.coefficient([-1j, -0.5]) == pytest.approx(2 - 1j)

    def test_identity_fixed(self):
        identity = WeylWord.identity(2)
        assert word_distance(weyl_adjoint(identity), identity) == 0.0

    def test_antihomomorphism(self, rng):
        for _ in range(20):
            u, v = random_word(rng, 2), random_word(rng, 2)
            h = float(rng.uniform(0.2, 3.0))
            left = weyl_adjoint(weyl_multiply(u, v, h))
            right = weyl_multiply(weyl_adjoint(v), weyl_adjoint(u), h)
            assert word_distance(left, right) <= 1e-12

    def test_involution(self, rng):
        u = random_word(rng, 3)
        assert word_distance(weyl_adjoint(weyl_adjoint(u)), u) == 0.0


class TestGammaIso:
    def test_forward_scales_by_sqrt(self):
        out = gamma_iso(WeylWord.generator([1.0, 0.0]), 4.0, "forward")
        assert out.coefficient([2.0, 0.0]) == 1.0

    def test_round_trip(self):
        u = WeylWord.generator([0.4 + 0.1j, -1.0])
        back = gamma_iso(gamma_iso(u, 0.7, "forward"), 0.7, "inverse")
        assert word_distance(back, u) <= 1e-12

    def test_multiplicative_across_algebras(self, rng):
        # product in the h-scaled algebra maps to the product in the unscaled one
        for _ in range(20):
            u, v = random_word(rng, 2), random_word(rng, 2)
            h = float(rng.uniform(0.2, 3.0))
            left = gamma_iso(weyl_multiply(u, v, h), h, "forward")
            right = weyl_multiply(
                gamma_iso(u, h, "forward"), gamma_iso(v, h, "forward"), 1.0
            )
            assert word_distance(left, right) <= 1e-12

    def test_star_compatible(self, rng):
        u = random_word(rng, 2)
        h = 0.6
        assert (
            word_distance(
                gamma_iso(weyl_adjoint(u), h, "forward"),
                weyl_adjoint(gamma_iso(u, h, "forward")),
            )
            <= 1e-15
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(OutOfRange, match="^scale parameter -1.0 must be positive$"):
            gamma_iso(WeylWord.identity(1), -1.0, "forward")
        with pytest.raises(OutOfRange, match="direction must be 'forward' or 'inverse', got 'sideways'"):
            gamma_iso(WeylWord.identity(1), 1.0, "sideways")


def test_key_canonicalization_merges_nearby_vectors():
    f = np.array([1.0, 0.0])
    shifted = f + np.array([1e-15, 0.0])
    word = WeylWord.generator(f) + WeylWord.generator(shifted)
    assert len(word) == 1
    assert word.coefficient(f) == pytest.approx(2.0)


def _int64_key(vec):
    """The generator key as an int64 cast of the grid coordinates gave it, where that cast is exact."""
    re = np.round(vec.real / KEY_GRID).astype(np.int64)
    im = np.round(vec.imag / KEY_GRID).astype(np.int64)
    return tuple(zip(re.tolist(), im.tolist()))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_generators_past_the_int64_grid_stay_apart():
    # 1e7 / KEY_GRID is past the largest int64, about 9.2e18
    word = WeylWord(1, [([1e7], 1.0), ([-3e7], 1.0)])
    assert len(word) == 2
    assert word.coefficient([1e7]) == word.coefficient([-3e7]) == 1.0
    assert word.coefficient([1e7 + 1e-15j]) == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_scaling_isomorphism_keeps_large_generators_apart():
    word = WeylWord(1, [([1.0], 1.0), ([2.0], 1.0)])
    image = gamma_iso(word, 1e16)
    assert [(vec.tolist(), coeff) for vec, coeff in image.items()] == [([1e8 + 0j], 1.0), ([2e8 + 0j], 1.0)]
    assert word_distance(gamma_iso(image, 1e16, "inverse"), word) == 0.0


@settings(max_examples=200)
@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False), min_size=1, max_size=3), st.integers(-3, 3))
def test_keys_merge_as_the_int64_keys_did_wherever_that_cast_is_exact(entries, ulps):
    f = np.array(entries, dtype=complex)
    g = f + np.array([ulps * 1e-13 * (1 + 1j)] * len(entries))
    merged = len(WeylWord(len(entries), [(f, 1.0), (g, 1.0)])) == 1
    assert merged == (_int64_key(f) == _int64_key(g))


def _numpy_key(vec):
    """The generator key as one numpy pass over the coordinates gave it: the real,
    then the imaginary parts over KEY_GRID, rounded half to even, as floats."""
    with np.errstate(over="ignore"):
        coords = np.round(np.concatenate((vec.real, vec.imag), axis=None) / KEY_GRID)
    if not np.isfinite(coords).all():
        raise OutOfRange("generator vector has a coordinate that is not finite on the key grid")
    return tuple(coords.tolist())


#: grid coordinates at exact halves (half to even: 0.5 -> 0, 1.5 -> 2, 2.5 -> 2), signed
#: zeros, and magnitudes past 2**53 grid steps, where every float is a whole number of steps
_KEY_EDGES = [
    0.0, -0.0, 0.5 * KEY_GRID, -0.5 * KEY_GRID, 1.5 * KEY_GRID, 2.5 * KEY_GRID, -2.5 * KEY_GRID,
    2.0**53 * KEY_GRID, -(2.0**53) * KEY_GRID, 2.0**60 * KEY_GRID, 1e7, -3e7, 1e290, 1.7e296,
]


@settings(max_examples=300)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=1e12, allow_nan=False, allow_infinity=False)
        | st.builds(complex, st.sampled_from(_KEY_EDGES), st.sampled_from(_KEY_EDGES)),
        min_size=1,
        max_size=8,
    )
)
def test_keys_equal_the_numpy_formula(entries):
    vec = np.array(entries, dtype=complex)
    key, expected = _canonical_key(vec), _numpy_key(vec)
    # -0.0 reads 0.0: an equal key of the same hash, so every lookup is the same
    assert key == expected and hash(key) == hash(expected)
    assert [type(x) for x in key] == [float] * len(expected)
    assert [abs(x) for x in key] == [abs(x) for x in expected]


def test_keys_round_exact_halves_to_even_and_keep_large_coordinates():
    halves = np.array([0.5, 1.5, 2.5, -2.5, 3.5], dtype=complex) * KEY_GRID
    assert _canonical_key(halves) == _numpy_key(halves)
    assert _canonical_key(np.array([2.0**53 * KEY_GRID + 0j])) == _numpy_key(np.array([2.0**53 * KEY_GRID + 0j]))
    assert _canonical_key(np.array([1e7 + 0j])) != _canonical_key(np.array([np.nextafter(1e7, 2e7) + 0j]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1e300, complex(0, np.nan), complex(0, -np.inf)])
def test_keys_of_coordinates_not_finite_on_the_grid_raise_as_the_numpy_formula_does(entry):
    vec = np.array([0.5, entry], dtype=complex)
    with pytest.raises(OutOfRange):
        _numpy_key(vec)
    with pytest.raises(OutOfRange, match="^generator vector has a coordinate that is not finite on the key grid$"):
        _canonical_key(vec)


def test_a_word_sum_keeps_the_stored_keys_and_vectors():
    u = WeylWord(2, [([1.0, 0.5j], 2.0), ([0.0, 1.0], 1.0)])
    v = WeylWord(2, [([0.0, 1.0 + 1e-15], -1.0), ([3.0, 0.0], 0.5)])
    total = u + v
    # the terms of u, then each of v added in turn: the first cancels a term of u
    keys = [_canonical_key(np.array([1.0, 0.5j])), _canonical_key(np.array([3.0 + 0j, 0.0]))]
    assert list(total._terms) == keys
    assert [coeff for _, coeff in total.items()] == [2.0, 0.5]
    # the stored read-only vectors are shared, not keyed or copied again
    assert total._terms[keys[0]][0] is u._terms[keys[0]][0] and total._terms[keys[1]][0] is v._terms[keys[1]][0]
    assert len(u) == 2 and len(v) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, 1e300, 1j * np.nan, 1e300j])
def test_a_coordinate_not_finite_on_the_grid_is_out_of_range(entry):
    with pytest.raises(OutOfRange, match="^generator vector has a coordinate that is not finite on the key grid$"):
        WeylWord.generator([0.5, entry])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_trace_state_reads_the_generator_key():
    omega = TraceState()
    assert omega.value([1e-13, -4e-13j]) == 1.0
    assert omega.value([6e-13, 0.0]) == 0.0
    assert omega.value([1e7, 0.0]) == 0.0
    with pytest.raises(OutOfRange):
        omega.value([np.nan, 0.0])


def test_zero_coefficients_are_dropped():
    f = np.array([0.5, 0.5j])
    word = WeylWord.generator(f) + WeylWord.generator(f, coeff=-1.0)
    assert len(word) == 0


# hypothesis strategies for small words over C^2

_coeff = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
_component = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def _word(draw):
    terms = draw(st.lists(st.tuples(st.tuples(_component, _component), _coeff), min_size=1, max_size=3))
    word = WeylWord(2)
    for vec, coeff in terms:
        word = word + WeylWord.generator(np.array(vec), coeff)
    return word


words = st.composite(_word)()


@settings(max_examples=40, deadline=None)
@given(words, words, words, st.floats(min_value=0.1, max_value=4.0))
def test_product_is_associative(u, v, w, h):
    left = weyl_multiply(weyl_multiply(u, v, h), w, h)
    right = weyl_multiply(u, weyl_multiply(v, w, h), h)
    assert words_close(left, right, 1e-10)


@settings(max_examples=40, deadline=None)
@given(words, words, st.floats(min_value=0.1, max_value=4.0))
def test_adjoint_reverses_products(u, v, h):
    left = weyl_adjoint(weyl_multiply(u, v, h))
    right = weyl_multiply(weyl_adjoint(v), weyl_adjoint(u), h)
    assert words_close(left, right, 1e-10)
