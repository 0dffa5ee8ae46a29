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
