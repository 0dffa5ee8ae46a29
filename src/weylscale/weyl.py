"""Finite Weyl words and the scaling isomorphism between CCR algebras.

A word is a finite complex-linear combination of generators ``W_f`` indexed
by vectors of the one-particle space.  Products follow the twisted rule
``W_f W_g = exp(-i/2 * h * sigma(f, g)) W_{f+g}`` where ``sigma(f, g) =
Im<f, g>`` and ``h > 0`` scales the symplectic form; ``h * sigma`` is written
out in that phase, the one place it is used.  Generator keys are canonicalized
on a fixed grid so that vectors equal up to floating-point noise merge into one term.
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
    with np.errstate(over="ignore"):  # an overflow is inf, refused below
        coords = np.round(np.concatenate((vec.real, vec.imag), axis=None) / KEY_GRID)
    if not np.isfinite(coords).all():
        raise OutOfRange("generator vector has a coordinate that is not finite on the key grid")
    return tuple(coords.tolist())


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
        if key in self._terms:
            old_vec, old_coeff = self._terms[key]
            total = old_coeff + coeff
            if total == 0:
                del self._terms[key]
            else:
                self._terms[key] = (old_vec, total)
        else:
            vec = vec.copy()
            vec.flags.writeable = False
            self._terms[key] = (vec, coeff)

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

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "WeylWord") -> "WeylWord":
        if self.dim != other.dim:
            raise DimensionMismatch(f"words over C^{self.dim} and C^{other.dim}")
        out = WeylWord(self.dim)
        for vec, coeff in self.items():
            out._add_term(vec, coeff)
        for vec, coeff in other.items():
            out._add_term(vec, coeff)
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
