"""Finite Weyl words and the scaling isomorphism between CCR algebras.

A word is a finite complex-linear combination of generators ``W_f`` indexed
by vectors of the one-particle space.  Products follow the twisted rule
``W_f W_g = exp(-i/2 * h * sigma(f, g)) W_{f+g}`` where ``sigma(f, g) =
Im<f, g>`` and ``h > 0`` scales the symplectic form; ``h * sigma`` is written
out in that phase, the one place it is used.

Generator keys are canonicalized on a fixed grid so that vectors equal up to
floating-point noise merge into one term.  A key is the real, then the
imaginary parts of the vector, each divided by ``KEY_GRID`` and rounded half to
even by Python's ``round`` (as ``np.rint`` rounds), as floats: exact at any
size, with ``-0.0`` read as ``0.0``, an equal key of the same hash.  Each term
keeps its key, so a sum of words merges the stored keys and keys no vector again,
and the coefficient of ``W_0`` is read from the key of zeros, which keys nothing.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, OutOfRange, require_positive

#: Grid spacing used to canonicalize generator keys.
KEY_GRID = 1e-12


def inner(f, g) -> complex:
    """Inner product, conjugate-linear in the first slot."""
    return complex(np.vdot(np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)))


def sigma(f, g) -> float:
    """Symplectic form sigma(f, g) = Im<f, g>."""
    return inner(f, g).imag


def _canonical_key(vec: np.ndarray) -> tuple:
    """The real, then the imaginary parts of ``vec`` in whole multiples of ``KEY_GRID``,
    as floats, exact at any size; OutOfRange when one is not finite."""
    flat = vec.reshape(-1)
    try:
        # round(inf) raises OverflowError, round(nan) ValueError; a quotient past
        # the largest float is inf
        return tuple([float(round(x / KEY_GRID)) for x in flat.real.tolist() + flat.imag.tolist()])
    except (OverflowError, ValueError):
        raise OutOfRange("generator vector has a coordinate that is not finite on the key grid") from None


class WeylWord:
    """Finite complex combination of Weyl generators over C^n."""

    __slots__ = ("dim", "_terms")

    def __init__(self, dim: int, terms=None):
        self.dim = dim
        # key -> (exact vector, coefficient); zero coefficients are dropped
        self._terms: dict = {}
        for vec, coeff in terms or ():
            self._add_term(np.asarray(vec, dtype=complex), complex(coeff))

    @classmethod
    def generator(cls, f, coeff: complex = 1.0) -> "WeylWord":
        f = np.asarray(f, dtype=complex).ravel()
        word = cls(f.shape[0])
        word._add_term(f, complex(coeff))
        return word

    @classmethod
    def identity(cls, dim: int) -> "WeylWord":
        return cls.generator(np.zeros(dim, dtype=complex))

    def _add_term(self, vec: np.ndarray, coeff: complex):
        if coeff == 0:
            return
        key = _canonical_key(vec)
        if key not in self._terms:
            vec = vec.copy()
            vec.flags.writeable = False
        self._add_keyed(key, vec, coeff)

    def _add_keyed(self, key: tuple, vec: np.ndarray, coeff: complex):
        """Add ``coeff`` to the term of ``key``, or start it with the read-only ``vec``."""
        entry = self._terms.get(key)
        if entry is None:
            self._terms[key] = (vec, coeff)
        elif (total := entry[1] + coeff) == 0:
            del self._terms[key]
        else:
            self._terms[key] = (entry[0], total)

    # -- iteration and structure -------------------------------------------

    def items(self):
        """Iterate (vector, coefficient) pairs in insertion order."""
        return iter(self._terms.values())

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, f) -> complex:
        key = _canonical_key(np.asarray(f, dtype=complex))
        entry = self._terms.get(key)
        return entry[1] if entry else 0.0

    def identity_coefficient(self) -> complex:
        """The coefficient of ``W_0``, found by its stored key, ``2 * dim`` zeros: no vector is keyed."""
        entry = self._terms.get((0.0,) * (2 * self.dim))
        return entry[1] if entry else 0.0

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "WeylWord") -> "WeylWord":
        if self.dim != other.dim:
            raise DimensionMismatch(f"words over C^{self.dim} and C^{other.dim}")
        out = WeylWord(self.dim)
        out._terms = dict(self._terms)
        for key, (vec, coeff) in other._terms.items():
            out._add_keyed(key, vec, coeff)
        return out

    def __repr__(self) -> str:
        parts = [f"({coeff:.4g})*W{np.round(vec, 6)}" for vec, coeff in self.items()]
        return " + ".join(parts) if parts else "0"


def word_distance(u: WeylWord, v: WeylWord) -> float:
    """Sup over generators of the coefficient difference between two words."""
    if u.dim != v.dim:
        raise DimensionMismatch(f"words over C^{u.dim} and C^{v.dim}")
    dist = 0.0
    for vec, coeff in u.items():
        dist = max(dist, abs(coeff - v.coefficient(vec)))
    for vec, coeff in v.items():
        dist = max(dist, abs(coeff - u.coefficient(vec)))
    return dist


def weyl_multiply(u: WeylWord, v: WeylWord, h: float) -> WeylWord:
    """Product of two words in the algebra with symplectic form h * sigma."""
    if u.dim != v.dim:
        raise DimensionMismatch(f"words over C^{u.dim} and C^{v.dim}")
    require_positive(h, "scale parameter")
    out = WeylWord(u.dim)
    for f, a in u.items():
        for g, b in v.items():
            phase = np.exp(-0.5j * h * sigma(f, g))
            out._add_term(f + g, a * b * phase)
    return out


def weyl_adjoint(u: WeylWord) -> WeylWord:
    """Adjoint word: coefficients conjugated, generator vectors negated."""
    out = WeylWord(u.dim)
    for f, a in u.items():
        out._add_term(-f, np.conj(a))
    return out


def gamma_iso(u: WeylWord, h: float, direction: str = "forward") -> WeylWord:
    """Scaling isomorphism between the h-scaled and unscaled algebras.

    ``forward`` sends a word over the h-scaled algebra to the unscaled one,
    W_f -> W_{sqrt(h) f}; ``inverse`` is W_f -> W_{f / sqrt(h)}.  The two
    directions are mutually inverse on words.
    """
    require_positive(h, "scale parameter")
    if direction not in ("forward", "inverse"):
        raise OutOfRange(f"direction must be 'forward' or 'inverse', got {direction!r}")
    factor = np.sqrt(h) if direction == "forward" else 1.0 / np.sqrt(h)
    out = WeylWord(u.dim)
    for f, a in u.items():
        out._add_term(factor * f, a)
    return out
