"""Truncated Fock-space GNS simulator for Gaussian states.

The GNS representation of a Gaussian state with covariance ``A >= I`` lives
on a doubled Fock space: ``pi(W_f) = W(T1 f) (x) W(J T2 f)`` with
``T1 = ((A+I)/2)^{1/2}``, ``T2 = ((A-I)/2)^{1/2}`` and ``J`` the componentwise
conjugation in the eigenbasis of ``A``.  The antiunitary twist on the second
slot is what makes the doubled map multiplicative for the original symplectic
form (T1^2 - T2^2 = I enters with a relative sign) and makes the swapped map
``W(J T2 g) (x) W(T1 g)`` commute with it; without it neither holds once the
vectors are genuinely complex.

Weyl generators are realized as displacement operators with amplitude
``alpha = i f / sqrt(2)`` per mode, the unique normalization that reproduces
both the vacuum value ``exp(-||f||^2/4)`` and the product phase
``exp(-i sigma(f,g)/2)``.  Displacements are built as ``expm`` of the
truncated generator, so they are exactly unitary; truncation shows up only
near the top of the ladder, which is why relation residuals are measured on
the block of occupation numbers up to half the cutoff.  ``expm`` is scipy's,
imported on first use, so runs that build no displacement never load scipy.

Every doubled operator is a tensor product over the two slots, and each slot
one over the modes, so no doubled matrix is ever formed: the vacuum element
factors over slots and modes, and products factor as
``(A1 (x) A2)(B1 (x) B2) = A1 B1 (x) A2 B2``.  The relation and commutant
residuals are computed from such slot products on the reliable block; the
max-norm of ``P (x) Q - R (x) S`` is taken in blocks of
``_KRON_BLOCK_ENTRIES`` entries, entries (rows) of ``P`` and ``R`` against
entries (columns) of ``Q`` and ``S``.  The one-block rule: when all of
``P (x) Q`` fits one block (``P.size * Q.size <= _KRON_BLOCK_ENTRIES``, the
reliable blocks of one mode up to cutoff 15) it is evaluated whole, as no
bound could skip a row of a single block.  Otherwise the rule is two-sided:
each row and column has a rounding-aware bound on its computed entries, from
``pq - rs = (p - mu r) q + r (mu q - s)``; the row of the largest bound,
evaluated in full, seeds the maximum with an entry of the full evaluation,
and only the rows and columns whose bounds beat it are evaluated, so the
result is the full evaluation's float either way.
Operands that are not finite or exceed ``_KRON_BOUND_LIMIT`` have no bound and
raise OutOfRange, and so does a whole evaluation that is not finite; no suite
reaches either: every operand is a product of displacements that passed
GnsModel._mode_displacement's unitarity check.

A model builds its invariants with itself and keeps them for as long as it
lives: the ladder matrices every displacement is built from and, within
``DOUBLED_DIM_CAP``, the reliable-block indices and their ``np.ix_`` block
that every residual reads (a model beyond the cap, of 128 modes say, takes
expectations only).  It keeps each per-mode displacement too, built on first
use, keyed on the exact bits of the amplitude and read-only.  Each
displacement costs ``(cutoff+1)^2`` complex values (27 KB at cutoff 40), and a
gns-check run holds at most ``2 * modes`` of them per vector and per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DimensionMismatch, OutOfRange, _orderable
from .spectral import (
    OperatorSpec,
    is_trace_class_minus_identity,
    quadratic_form,
    require_dominates_identity,
    scalar_value,
)
from .states import StateFunctional
from .weyl import WeylWord, sigma

#: Largest deviation from 1 of the mean squared column norm of a per-mode
#: displacement, a unitary.  Rounding leaves about 1e-16 at the amplitudes
#: below 1 that unit vectors give, and 3e-8 at amplitude 1e8 on cutoffs 4 to 40.
_UNITARY_TOL = 1e-6

#: Hard floor on the per-mode occupation cutoff.
CUTOFF_FLOOR = 4

#: Cap on the doubled-space axis length (cutoff+1)^(2*modes) of gns-check
#: configs.  No doubled matrix is formed, so it bounds run time, not memory.
DOUBLED_DIM_CAP = 10_000

#: Entries of ``P (x) Q - R (x) S`` that _kron_difference_max evaluates at
#: once.  The product, the subtrahend and numpy's two iterator buffers take
#: 16 bytes an entry each, so a call peaks near 384 KB at any size.
_KRON_BLOCK_ENTRIES = 6144

#: Largest ``|P - mu R|``, ``|R|``, ``|Q|`` and ``|mu Q - S|`` that
#: _kron_difference_max bounds (see _row_bounds); larger operands raise.
_KRON_BOUND_LIMIT = 1e150

#: Unit roundoff and smallest subnormal of float64.
_U = 2.0**-53
_ETA = 2.0**-1074

#: Rounding of a complex product, in units of _U: sqrt(5) without an FMA, 2 with one.
_KAPPA = math.sqrt(5.0)


def expm(matrix: np.ndarray) -> np.ndarray:
    """scipy's matrix exponential, with scipy imported on the first call."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(matrix)


def _ladder_pair(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The truncated ladder ``a`` as ``(a.conj().T, a)``."""
    a = np.diag(np.sqrt(np.arange(1, cutoff + 1)), 1).astype(complex)
    return a.conj().T, a


class GnsModel:
    """Doubled truncated Fock space carrying a Gaussian state's representation."""

    def __init__(self, covariance: OperatorSpec, cutoff: int = 40):
        covariance.require_matrix()
        if not _orderable(cutoff) >= CUTOFF_FLOOR:
            raise OutOfRange(f"cutoff {cutoff} below hard floor {CUTOFF_FLOOR}")
        require_dominates_identity(covariance)
        self.covariance = covariance
        self.cutoff = int(cutoff)
        self.modes = covariance.dimension
        self._basis = covariance.eigenvectors
        eigs = covariance.eigenvalues
        self._t1 = np.sqrt((eigs + 1.0) / 2.0)
        self._t2 = np.sqrt(np.maximum(eigs - 1.0, 0.0) / 2.0)
        self.T1 = (self._basis * self._t1) @ self._basis.conj().T
        self.T2 = (self._basis * self._t2) @ self._basis.conj().T
        self._ladders = _ladder_pair(self.cutoff)
        self._reliable = None  # see check_doubled_cap
        if self.slot_dimension**2 <= DOUBLED_DIM_CAP:
            keep = _reliable_slot(self)
            self._reliable = keep, np.ix_(keep, keep)
        self._displacements: dict[bytes, np.ndarray] = {}

    @property
    def slot_dimension(self) -> int:
        return (self.cutoff + 1) ** self.modes

    def _coords(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=complex).ravel()
        if f.shape != (self.modes,):
            raise DimensionMismatch(f"vector of shape {f.shape} against {self.modes} modes")
        return self._basis.conj().T @ f

    def slot_amplitudes(self, f) -> tuple[np.ndarray, np.ndarray]:
        """Per-mode displacement amplitudes of the two tensor slots of pi(W_f)."""
        coords = self._coords(f)
        first = 1j * (self._t1 * coords) / np.sqrt(2)
        second = 1j * np.conj(self._t2 * coords) / np.sqrt(2)
        return first, second

    def _mode_displacement(self, alpha) -> np.ndarray:
        """Read-only exp(alpha a* - conj(alpha) a) on the truncated ladder, built
        once per exact bit pattern of ``alpha`` (so ``-0.0`` and ``0.0`` stay apart).

        OutOfRange when the mean squared norm of its columns (1 for a unitary)
        is off 1 by more than ``_UNITARY_TOL``: at a huge amplitude ``expm``
        returns NaN, overflowing or vanishing entries instead of a unitary.
        """
        key = np.complex128(alpha).tobytes()
        matrix = self._displacements.get(key)
        if matrix is None:
            with np.errstate(over="ignore", invalid="ignore"):  # a lost matrix is refused below
                raising, lowering = self._ladders
                matrix = expm(alpha * raising - np.conj(alpha) * lowering)
                defect = abs(np.vdot(matrix, matrix).real / len(matrix) - 1.0)
            if not defect <= _UNITARY_TOL:
                raise OutOfRange(
                    f"displacement of amplitude {abs(complex(alpha)):.3g} is not unitary "
                    f"(mean squared column norm off 1 by {defect:.3g}): beyond expm's range"
                )
            matrix.flags.writeable = False
            self._displacements[key] = matrix
        return matrix


def _slot_pair(model: GnsModel, amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of the two tensor slots from their per-mode amplitudes."""
    return tuple(reduce(np.kron, map(model._mode_displacement, amps)) for amps in amplitudes)


def check_doubled_cap(model: GnsModel):
    """Raise OutOfRange when the doubled axis of the model exceeds DOUBLED_DIM_CAP, where
    it keeps no reliable block: that takes ``modes * (cutoff+1)^modes`` occupations."""
    if model._reliable is None:
        raise OutOfRange(
            f"doubled Fock space axis {model.slot_dimension ** 2} exceeds cap {DOUBLED_DIM_CAP}; "
            f"lower the cutoff or the mode count"
        )


def gns_expectation(model: GnsModel, u: WeylWord) -> complex:
    """Vacuum-pair expectation <Omega, pi(u) Omega> of a word.

    The doubled vacuum matrix element of a generator factorizes over tensor
    slots and modes, so only per-mode truncated matrices are ever built; this
    keeps two-mode models at cutoff 40 cheap while remaining a genuinely
    truncated computation (no closed forms are consulted).
    """
    if u.dim != model.modes:
        raise DimensionMismatch(f"word over C^{u.dim} against {model.modes} modes")
    total = 0.0 + 0.0j
    for vec, coeff in u.items():
        first, second = model.slot_amplitudes(vec)
        value = 1.0 + 0.0j
        for amp in np.concatenate([first, second]):
            value *= model._mode_displacement(amp)[0, 0]
        total += coeff * value
    return complex(total)


def _reliable_slot(model: GnsModel) -> np.ndarray:
    """Slot indices with every mode occupation <= cutoff // 2.

    Entries of truncated operators are only faithful to the untruncated ones
    away from the top of the ladder; max-norm contracts are evaluated on the
    block these indices span in each slot.
    """
    occupations = np.indices((model.cutoff + 1,) * model.modes).reshape(model.modes, -1)
    return np.flatnonzero(np.all(occupations <= model.cutoff // 2, axis=0))


def _block_max(p, q, r, s) -> np.float64:
    """Max-norm of ``p * q - r * s`` for rows ``p, r`` of shape (m, 1, 1) and
    contiguous columns ``q, s`` of shape (1, k, k) or (1, 1, c).

    All four operands are 3-d: at one row both products then have equal
    shapes, as in one broadcast over all entries, and numpy runs the same
    complex-multiply loop; a broadcast 1x1 product takes a loop that rounds
    differently.
    """
    diff = p * q
    diff -= r * s
    return np.max(np.abs(diff))


def _bounds(p, q, r, s) -> tuple[np.ndarray, np.ndarray] | None:
    """Upper bounds ``U[ik]`` and ``V[jl]`` on every computed
    ``|P[ik] Q[jl] - R[ik] S[jl]|``, for flat operands; None when an operand is
    not finite or too large.

    For any scalar ``mu``, ``pq - rs = (p - mu r) q + r (mu q - s)`` exactly.
    With ``mu`` the phase of ``<r, p>`` both differences are small where ``R``
    is ``P`` up to a phase, as in the relation, whose phase splits across the
    two slots (``|P - R|`` itself reaches 0.27).  So, with ``A``, ``R``, ``Q``
    and ``B`` the maxima of ``|p - mu r|``, ``|r|``, ``|q|`` and
    ``|mu q - s|``, ``|pq - rs| <= |p - mu r| Q + |r| B`` bounds a row ``ik``
    and ``|pq - rs| <= A |q| + R |mu q - s|`` a column ``jl``.

    The computed entry adds rounding, with ``u = 2^-53``:

    - ``fl(pq)`` is within ``kappa u |p||q|`` of ``pq``: ``kappa = sqrt(5)``
      for the plain formula (Brent, Percival & Zimmermann, Math. Comp. 76,
      2007), 2 with an FMA (Jeannerod, Kornerup, Louvet & Muller, Math. Comp.
      86, 2017).  ``sqrt(5)`` holds whichever numpy loop runs.  As
      ``|p| <= |p - mu r| + |r|`` and ``|s| <= |mu q - s| + |q|``
      (``|mu| = 1``), the two products add at most
      ``kappa u (|p - mu r||q| + |r||mu q - s| + 2 |r||q|)``.
    - ``|p - mu r|`` and ``|mu q - s|`` are computed too; the products
      ``mu r`` and ``mu q`` leave them up to ``kappa u |r|`` and
      ``kappa u |q|`` short, which adds ``2 kappa u |r||q|``.
    - The subtraction of the two products rounds by ``1 + u``, the modulus by
      ``1 + 4u``: C ``hypot`` is within one ulp, numpy's SIMD modulus within
      two.

    Hence ``U = (1 + 64u) (|p - mu r| Q + |r| (B + 4 kappa u Q)) + E`` and,
    the same with the roles of the two factors swapped,
    ``V = (1 + 64u) (A |q| + R (|mu q - s| + 4 kappa u |q|)) + E``, with
    ``E = 128 eta (1 + A + Q + R + B)`` and all terms as computed.  The
    factor covers the relative rounding of about ``35u`` in all: the
    ``1 + kappa u`` on the first two terms, the subtraction and moduli above,
    the computed moduli, ``|mu| <= 1 + 4u`` and the evaluation of ``U`` and
    ``V`` themselves.  ``E`` covers underflow, at most ``eta = 2^-1074`` a
    rounding.  None of it depends on the order in which entries are later
    evaluated.  Operands within _KRON_BOUND_LIMIT keep every product, and so
    every entry and bound, below 1e301.
    """
    z = complex(np.vdot(r, p))
    h = abs(z)
    mu = complex(z.real / h, z.imag / h) if 0 < h < math.inf else 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # such operands get no bound
        a, ra, qa, b = np.abs(p - mu * r), np.abs(r), np.abs(q), np.abs(mu * q - s)
        am, rm, qm, bm = (float(x.max()) for x in (a, ra, qa, b))
    if not all(m <= _KRON_BOUND_LIMIT for m in (am, rm, qm, bm)):  # NaN too
        return None
    kappa_u = _KAPPA * _U
    safety = 1 + 64 * _U
    underflow = 128 * _ETA * (1 + am + qm + rm + bm)
    a *= safety * qm
    a += ra * (safety * (bm + 4 * kappa_u * qm))
    a += underflow
    b *= safety * rm
    b += qa * (safety * (am + 4 * kappa_u * rm))
    b += underflow
    return a, b


def _kron_difference_max(p, q, r, s) -> float:
    """Max-norm of ``P (x) Q - R (x) S``: the float of one broadcast over all
    entries ``P[i,k] Q[j,l] - R[i,k] S[j,l]``.

    When all entries fit one block (``p.size * q.size <= _KRON_BLOCK_ENTRIES``)
    one _block_max evaluates them, with no bound: _bounds costs more than such
    a block.  OutOfRange when that maximum is not finite.

    Otherwise every row ``ik`` and every column ``jl`` has a bound on the
    computed entries it holds (_bounds), and an entry can exceed a running
    maximum only if both its row's and its column's bound do.  The row of the
    largest bound is evaluated against every column first: its maximum, the
    seed, is an entry of the full evaluation, so no entry whose row or column
    bound is at most the seed can exceed the result.  Then only the rows and
    the columns whose bounds beat the seed are evaluated,
    _KRON_BLOCK_ENTRIES entries at a time, in row order, and a row whose
    bound no longer beats the running maximum is skipped; the maximum is
    exact.  Each block is _block_max of rows ``(m, 1, 1)`` against the
    gathered columns as one contiguous ``(1, 1, c)`` operand, so every entry
    is the float the full broadcast computes.

    OutOfRange when _bounds gives no bound: an operand is not finite or
    exceeds _KRON_BOUND_LIMIT.  The residuals pass no such operand, as each is
    a product of displacements that passed GnsModel._mode_displacement's
    unitarity check, times a unit phase.
    """
    if p.size * q.size <= _KRON_BLOCK_ENTRIES:
        # every row fits one block, which no bound could shorten: evaluate it whole
        with np.errstate(over="ignore", invalid="ignore"):  # such a maximum is refused below
            peak = float(_block_max(p.reshape(-1, 1, 1), q[None], r.reshape(-1, 1, 1), s[None]))
        if not math.isfinite(peak):
            raise OutOfRange(f"GNS max-norm {peak} not finite: an operand is not finite or an entry overflows")
        return peak
    p, q, r, s = p.reshape(-1, 1, 1), q.ravel(), r.reshape(-1, 1, 1), s.ravel()
    bounds = _bounds(p.ravel(), q, r.ravel(), s)
    if bounds is None:
        raise OutOfRange(f"GNS max-norm operands not finite or above {_KRON_BOUND_LIMIT:g}: no row bound")
    bound, column_bound = bounds
    seed = int(bound.argmax())
    peak = float(_block_max(p[seed : seed + 1], q.reshape(1, 1, -1), r[seed : seed + 1], s.reshape(1, 1, -1)))
    bound[seed] = 0.0  # its entries are in the seed
    rows, columns = (bound > peak).nonzero()[0], (column_bound > peak).nonzero()[0]
    if not (rows.size and columns.size):
        return peak
    q, s = q[columns].reshape(1, 1, -1), s[columns].reshape(1, 1, -1)
    step = max(1, _KRON_BLOCK_ENTRIES // columns.size)
    for start in range(0, rows.size, step):
        # the rows of the block whose bound still beats the running maximum
        block = rows[start : start + step]
        block = block[bound[block] > peak]
        if block.size:
            peak = max(peak, float(_block_max(p[block], q, r[block], s)))
    return peak


def weyl_relation_residual(model: GnsModel, f, g) -> float:
    """Max-norm defect of pi(W_f) pi(W_g) = exp(-i sigma(f,g)/2) pi(W_{f+g}).

    Measured on the reliable occupation block (see _reliable_slot), from the
    slot products ``A1 B1`` and ``A2 B2``; no doubled matrix is formed.
    """
    check_doubled_cap(model)
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    a1, a2 = _slot_pair(model, model.slot_amplitudes(f))
    b1, b2 = _slot_pair(model, model.slot_amplitudes(g))
    c1, c2 = _slot_pair(model, model.slot_amplitudes(f + g))
    keep, block = model._reliable
    phase = np.exp(-0.5j * sigma(f, g))
    return _kron_difference_max(
        a1[keep] @ b1[:, keep], a2[keep] @ b2[:, keep], phase * c1[block], c2[block]
    )


def commutant_residual(model: GnsModel, f, g) -> float:
    """Max-norm of [pi(W_f), pi~(W_g)] on the reliable occupation block.

    The commutator is ``A1 B1 (x) A2 B2 - B1 A1 (x) B2 A2`` over the slots,
    where the commutant's slots ``B1, B2`` are those of pi(W_g), swapped.
    """
    check_doubled_cap(model)
    a1, a2 = _slot_pair(model, model.slot_amplitudes(f))
    b2, b1 = _slot_pair(model, model.slot_amplitudes(g))
    keep, _ = model._reliable
    return _kron_difference_max(
        a1[keep] @ b1[:, keep],
        a2[keep] @ b2[:, keep],
        b1[keep] @ a1[:, keep],
        b2[keep] @ a2[:, keep],
    )


def one_particle_number_expectation(covariance: OperatorSpec, f) -> float:
    """Closed form <N_f> = (1/2) <f, (A - I) f> in the Gaussian state."""
    require_dominates_identity(covariance)
    f = np.asarray(f, dtype=complex)
    if covariance.is_matrix:
        return 0.5 * (quadratic_form(covariance, f, f).real - float(np.vdot(f, f).real))
    lam = scalar_value(covariance)
    return 0.5 * (lam - 1.0) * float(np.vdot(f, f).real)


def is_quasi_equivalent_to_fock(covariance: OperatorSpec) -> bool:
    """Whether the Gaussian state is quasi-equivalent to the Fock state."""
    return is_trace_class_minus_identity(covariance)


def c_parameter(h: float) -> float:
    """Mixture coordinate of the rescaled Fock state: c = (1 - h) / (1 + h)."""
    if not 0 < _orderable(h) <= 1:
        raise OutOfRange(f"scale parameter {h} outside (0, 1]")
    return (1.0 - h) / (1.0 + h)


def h_of_c(c: float) -> float:
    """Inverse of c_parameter: h = (1 - c) / (1 + c)."""
    if not 0 <= _orderable(c) < 1:
        raise OutOfRange(f"mixture coordinate {c} outside [0, 1)")
    return (1.0 - c) / (1.0 + c)


@dataclass(frozen=True)
class MixtureMeasure:
    """Finite probability measure on the mixture coordinate c in [0, 1)."""

    points: tuple[tuple[float, float], ...]  # (c, weight)

    def __post_init__(self):
        if not self.points:
            raise OutOfRange("measure needs at least one support point")
        total = 0.0
        for c, w in self.points:
            if not 0 <= _orderable(c) < 1:
                raise OutOfRange(f"support point {c} outside [0, 1)")
            if not _orderable(w) > 0:
                raise OutOfRange(f"weight {w} is not positive")
            total += w
        if not abs(total - 1.0) <= 1e-12:
            raise OutOfRange(f"weights sum to {total}, expected 1")


class MixtureState(StateFunctional):
    """Rotation-invariant mixture of the one-parameter Gaussian family.

    phi(f) = sum_i w_i exp(-||f||^2 (1 + c_i) / (4 (1 - c_i))).
    """

    def __init__(self, measure: MixtureMeasure):
        self.measure = measure

    def value(self, f) -> complex:
        norm_sq = float(np.vdot(np.asarray(f, dtype=complex), np.asarray(f, dtype=complex)).real)
        total = 0.0
        for c, w in self.measure.points:
            total += w * math.exp(-norm_sq * (1.0 + c) / (4.0 * (1.0 - c)))
        return complex(total)


def universally_invariant_functional(measure: MixtureMeasure) -> MixtureState:
    """State functional of a finite mixture over the gauge-invariant family."""
    return MixtureState(measure)
