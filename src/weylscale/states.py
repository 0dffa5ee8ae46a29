"""Generating functionals on the Weyl algebra and Gram-kernel positivity.

A state is represented by its generating functional ``phi(f)``; positivity of
the state at scale ``h`` is positive semidefiniteness of every finite kernel
``M_jk = exp(-i/2 * h * sigma(f_j, f_k)) * phi(f_j - f_k)``.  Every functional
here has ``phi(-f) = conj(phi(f))``, so the kernel is Hermitian: only its
entries ``j >= k`` are computed, the strict upper triangle is their conjugate
mirror, and the diagonal is real (``sigma(f, f) = 0``, ``phi(0) = 1``), so the
stored kernel is exactly Hermitian.  The lower triangle is all that
``numpy.linalg.eigvalsh`` reads.

Kernels are built as array work on the vectors stacked into rows ``F``: the
phases from ``Im(conj(F) F^T)``, and for Gaussian functionals every
``phi(f_j - f_k)`` from one Gram matrix ``G = conj(F) A F^T`` through
``<f_j - f_k, A (f_j - f_k)> = G_jj + G_kk - 2 Re G_jk``.  Functionals without
such a closed form are evaluated entry by entry.  Only the phases depend on
``h``: a scan over scales builds a vector set's scale-free factors once
(:func:`gram_factors`) and assembles each scale's kernel from them
(:func:`assemble_kernel`), into one buffer it reuses.

The checked Gaussian functional and :func:`h_max` decide ``A >= I`` by
:func:`weylscale.spectral.require_dominates_identity`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, require_positive
from .spectral import ATOM_MERGE_TOL, OperatorSpec, apply_function, quadratic_form, require_dominates_identity, scalar_value
from .weyl import WeylWord, _canonical_key, sigma

#: Default relative tolerance for the PSD verdict of a Gram kernel.
GRAM_PSD_TOL = 1e-10

#: Eigenvalue threshold under which the witness scan reports a violation.
WITNESS_EIG_THRESHOLD = -1e-8

#: Scales swept by the deterministic negative-witness scan.
WITNESS_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)


@lru_cache(maxsize=8)
def _lower(n: int) -> np.ndarray:
    """Read-only mask of the entries j >= k of an n x n array.

    Indexing with it takes them row by row, in the order of ``np.tril_indices``.
    """
    mask = np.tri(n, dtype=bool)
    mask.flags.writeable = False
    return mask


class StateFunctional:
    """Base class: a generating functional with a tagged closed form.

    Subclasses implement :meth:`value`; every functional satisfies
    ``value(0) == 1`` and ``value(-f) == conj(value(f))``.
    """

    #: space dimension the functional is tied to, or None when it only
    #: depends on rotation-invariant data such as the norm of f.
    dimension: int | None = None

    def value(self, f) -> complex:
        raise NotImplementedError

    def difference_values(self, rows: np.ndarray) -> np.ndarray:
        """phi(f_j - f_k) for the rows f_j of ``rows``, at the entries j >= k only.

        A 1-d array in row-by-row order (that of ``np.tril_indices``), real
        for the Gaussian functionals; the entries j < k are the conjugates, by
        ``phi(-f) = conj(phi(f))``.  The default evaluates :meth:`value` entry
        by entry; functionals with a closed form override it with array work,
        in place where they can: at n = 160 a fresh temporary costs about as
        much as the arithmetic on it.
        """
        pairs = zip(*np.tril_indices(rows.shape[0]))
        return np.array([self.value(rows[j] - rows[k]) for j, k in pairs], dtype=complex)


def _difference_forms(gram: np.ndarray) -> np.ndarray:
    """<f_j - f_k, X (f_j - f_k)> for j >= k from gram[j, k] = <f_j, X f_k>, X Hermitian.

    The diagonal is exactly zero: it is 2 G_jj - 2 G_jj in floating point.
    """
    lower = _lower(gram.shape[0])
    diagonal = gram.diagonal().real
    forms = np.add.outer(diagonal, diagonal)[lower]
    forms -= 2.0 * gram.real[lower]
    return forms


class QuasiFreeState(StateFunctional):
    """Gaussian functional phi(f) = exp(-<f, A f> / 4) for a covariance A."""

    def __init__(self, covariance: OperatorSpec):
        self.covariance = covariance
        self.dimension = covariance.dimension if covariance.is_matrix else None

    def form(self, f) -> float:
        """The quadratic form <f, A f> (real for Hermitian A)."""
        if self.covariance.is_matrix:
            return quadratic_form(self.covariance, f, f).real
        lam = scalar_value(self.covariance)
        f = np.asarray(f, dtype=complex)
        return lam * float(np.vdot(f, f).real)

    def value(self, f) -> complex:
        return complex(np.exp(-0.25 * self.form(f)))

    def difference_values(self, rows: np.ndarray) -> np.ndarray:
        if self.covariance.is_matrix:
            gram = rows.conj() @ self.covariance.matrix @ rows.T
        else:
            gram = scalar_value(self.covariance) * (rows.conj() @ rows.T)
        forms = _difference_forms(gram)
        forms *= -0.25
        return np.exp(forms, out=forms)


class RescaledFockState(StateFunctional):
    """The Fock functional pushed to scale h: phi(f) = exp(-||f||^2 / (4h))."""

    def __init__(self, h: float):
        require_positive(h, "scale parameter")
        self.h = float(h)

    def value(self, f) -> complex:
        f = np.asarray(f, dtype=complex)
        return complex(np.exp(-float(np.vdot(f, f).real) / (4.0 * self.h)))

    def difference_values(self, rows: np.ndarray) -> np.ndarray:
        forms = _difference_forms(rows.conj() @ rows.T)
        np.negative(forms, out=forms)
        forms /= 4.0 * self.h
        return np.exp(forms, out=forms)


class TraceState(StateFunctional):
    """Indicator of the identity generator: 1 at f = 0, else 0."""

    def value(self, f) -> complex:
        # f = 0 on the grid that canonicalizes word keys
        return 0.0 if any(_canonical_key(np.asarray(f, dtype=complex))) else 1.0


class _RescaledFunctional(StateFunctional):
    """Generic rescaling wrapper: phi_h(f) = phi(f / sqrt(h))."""

    def __init__(self, base: StateFunctional, h: float):
        self.base = base
        self.h = float(h)
        self.dimension = base.dimension

    def value(self, f) -> complex:
        f = np.asarray(f, dtype=complex)
        return self.base.value(f / np.sqrt(self.h))


def quasi_free_functional(covariance: OperatorSpec) -> QuasiFreeState:
    """Gaussian functional for a covariance operator satisfying A >= I, the
    condition for it to be a state on the unscaled algebra.  ``QuasiFreeState``
    itself builds the functional unchecked, sub-vacuum ones included."""
    require_dominates_identity(covariance)
    return QuasiFreeState(covariance)


def rescale_functional(phi: StateFunctional, h: float) -> StateFunctional:
    """The functional f -> phi(f / sqrt(h)).

    Closed forms are preserved where they exist: a Gaussian with covariance A
    becomes the Gaussian with covariance A / h (no positivity check), and a
    rescaled Fock functional composes multiplicatively in h.
    """
    require_positive(h, "scale parameter")
    if isinstance(phi, QuasiFreeState):
        return QuasiFreeState(apply_function(phi.covariance, lambda lam: lam / h))
    if isinstance(phi, RescaledFockState):
        return RescaledFockState(phi.h * h)
    if isinstance(phi, TraceState):
        return phi
    return _RescaledFunctional(phi, h)


def evaluate_state(phi: StateFunctional, u: WeylWord) -> complex:
    """Linear extension of the generating functional to a word.

    The trace state's value is the word's coefficient of ``W_0``, found by its
    stored key, so no term is keyed again; it is the term-by-term sum's float
    whenever the word's coefficients are finite.
    """
    if phi.dimension is not None and phi.dimension != u.dim:
        raise DimensionMismatch(f"functional over C^{phi.dimension}, word over C^{u.dim}")
    if isinstance(phi, TraceState):
        # the indicator keeps W_0 alone: the term-by-term sum is 0j plus its coefficient
        return 0j + u.identity_coefficient()
    total = 0.0 + 0.0j
    for vec, coeff in u.items():
        total += coeff * phi.value(vec)
    return complex(total)


def _stacked(vectors, dimension: int | None) -> np.ndarray:
    """The vectors as the rows of one complex array; an (m, n) array is taken as it is."""
    is_rows = isinstance(vectors, np.ndarray) and vectors.ndim == 2
    vecs = vectors[:1] if is_rows else [np.asarray(v, dtype=complex) for v in vectors]
    if dimension is not None:
        for v in vecs:
            if v.shape != (dimension,):
                raise DimensionMismatch(f"vector of shape {v.shape} against functional over C^{dimension}")
    if is_rows:
        return vectors.astype(complex, copy=False)
    return np.stack(vecs) if vecs else np.empty((0, 0), dtype=complex)


class GramFactors(NamedTuple):
    """The scale-free factors of a vector set's positivity kernels, at the entries
    j >= k in row-by-row order: ``sigma(f_j, f_k) = Im<f_j, f_k>`` (exactly 0 on
    the diagonal) and ``phi(f_j - f_k)``.  Only the phase of a kernel entry
    depends on the scale."""

    size: int
    symplectic: np.ndarray
    differences: np.ndarray


def gram_factors(phi: StateFunctional, vectors: Sequence) -> GramFactors:
    """The factors of phi's positivity kernels on ``vectors``, at every scale.

    ``vectors`` is a sequence of vectors or an (m, n) array of them as rows.
    """
    rows = _stacked(vectors, phi.dimension)
    n = rows.shape[0]
    if n == 0:
        return GramFactors(0, np.empty(0), np.empty(0, dtype=complex))
    # sigma(f_j, f_k) = Im<f_j, f_k>, and sigma(f, f) = 0 exactly where the product rounds
    products = rows.conj() @ rows.T
    np.fill_diagonal(products.imag, 0.0)
    return GramFactors(n, products.imag[_lower(n)], phi.difference_values(rows))


def assemble_kernel(factors: GramFactors, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Positivity kernel M_jk = exp(-i/2 h sigma(f_j, f_k)) phi(f_j - f_k) from its factors.

    The entries j >= k are computed and the others are their conjugates.  The
    kernel is written into ``out``, a complex (n, n) array, when one is given.
    """
    n = factors.size
    if out is None:
        out = np.empty((n, n), dtype=complex)
    elif out.shape != (n, n) or out.dtype != complex:
        raise DimensionMismatch(f"kernel buffer of shape {out.shape} and type {out.dtype} for {n} vectors")
    lower = _lower(n)
    values = -0.5j * h * factors.symplectic
    np.exp(values, out=values)
    values *= factors.differences
    out.T[lower] = values.conj()  # M_kj = conj(M_jk)
    out[lower] = values  # after the mirror: the diagonal is its own mirror
    return out


def gram_matrix(phi: StateFunctional, vectors: Sequence, h: float) -> np.ndarray:
    """Positivity kernel M_jk = exp(-i/2 h sigma(f_j, f_k)) phi(f_j - f_k).

    ``vectors`` is a sequence of vectors or an (m, n) array of them as rows.
    The entries j >= k are computed and the others are their conjugates.
    """
    return assemble_kernel(gram_factors(phi, vectors), h)


@dataclass(frozen=True)
class GramReport:
    """Outcome of a kernel positivity check at a given scale parameter."""

    kernel: np.ndarray
    min_eigenvalue: float
    verdict: bool


def check_sigma_h_positivity(
    phi: StateFunctional,
    vectors: Sequence | GramFactors,
    h: float,
    tol: float = GRAM_PSD_TOL,
    out: np.ndarray | None = None,
) -> GramReport:
    """PSD verdict for the positivity kernel of phi at scale h.

    ``vectors`` are the kernel's vectors, or their :func:`gram_factors` under
    phi, which a scan over scales builds once.  The kernel is assembled into
    ``out`` when it is given (see :func:`assemble_kernel`), and the report's
    ``kernel`` is then that buffer: it holds the next kernel assembled there.

    The verdict allows eigensolver noise scaling with the kernel size and
    magnitude: pass iff ``min eig >= -tol * n * max |M_jk|``.  An empty
    vector set has no verdict and raises ``DimensionMismatch``.
    """
    factors = vectors if isinstance(vectors, GramFactors) else gram_factors(phi, vectors)
    if factors.size == 0:
        raise DimensionMismatch("positivity check of an empty vector set: no kernel eigenvalue to test")
    kernel = assemble_kernel(factors, h, out)
    # the lower triangle, the one assemble_kernel computes, is all eigvalsh reads
    eigenvalues = np.linalg.eigvalsh(kernel, UPLO="L")
    min_eig = float(eigenvalues[0])
    floor = -tol * kernel.shape[0] * float(np.max(np.abs(kernel)))
    return GramReport(kernel=kernel, min_eigenvalue=min_eig, verdict=min_eig >= floor)


class TwoPointCheck(NamedTuple):
    lhs: float
    rhs: float
    verdict: bool


def two_point_criterion(covariance: OperatorSpec, f, g, h: float) -> TwoPointCheck:
    """Necessary positivity condition |sigma(f,g)|^2 <= S(f,f) S(g,g), S from A/h, each form
    with the relative slack :func:`weylscale.spectral.dominates_identity` gives a spectral
    bottom: on the bottom eigenvector e and ie it is that rule, up to the rounding of <e, A e>."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    lhs = sigma(f, g) ** 2
    sff = quadratic_form(covariance, f, f).real / h
    sgg = quadratic_form(covariance, g, g).real / h
    rhs = sff * sgg
    return TwoPointCheck(lhs=lhs, rhs=rhs, verdict=lhs * (1 - ATOM_MERGE_TOL) ** 2 <= rhs)


def h_max(covariance: OperatorSpec) -> float:
    """Largest admissible scale parameter: the bottom of the covariance spectrum."""
    return require_dominates_identity(covariance)


@dataclass(frozen=True)
class GramViolationWitness:
    """The multiplier of e in scan_for_gram_violation's failing family, with its kernel's bottom."""

    scale: float
    min_eigenvalue: float


def scan_for_gram_violation(covariance: OperatorSpec, h: float) -> GramViolationWitness | None:
    """Deterministic search for a Gram kernel with a clearly negative eigenvalue.

    Sweeps the coherent family {0, s e, s ie, s (e + ie)/sqrt(2), 2s e, 2s ie}
    over s in WITNESS_SCALES, with e the lowest eigenvector of the covariance.
    For h above the bottom of the spectrum the Gaussian is sub-vacuum along e
    and small coherent configurations expose a negative kernel eigenvalue.

    At a large covariance every ``phi(s e)`` is about 0, so the same family on
    ``e / sqrt(h)`` follows: its kernels at scale h are those of A/h at scale 1
    on ``s e``.  Returns the first witness found, its scale the multiplier of e
    used (``s`` or ``s / sqrt(h)``), or None.
    """
    phi = QuasiFreeState(covariance)
    if covariance.is_matrix:
        e = covariance.eigenvectors[:, 0]
    else:
        e = np.ones(1, dtype=complex)
    for root in (1.0, math.sqrt(h)):
        for scale in [s / root for s in WITNESS_SCALES]:
            family = (
                0.0 * e,
                scale * e,
                scale * 1j * e,
                scale * (e + 1j * e) / np.sqrt(2),
                2 * scale * e,
                2 * scale * 1j * e,
            )
            report = check_sigma_h_positivity(phi, family, h)
            if report.min_eigenvalue < WITNESS_EIG_THRESHOLD:
                return GramViolationWitness(scale=scale, min_eigenvalue=report.min_eigenvalue)
    return None
