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

Every doubled operator is a tensor product over the two slots, so products
factor as ``(A1 (x) A2)(B1 (x) B2) = A1 B1 (x) A2 B2``.  The relation and
commutant residuals are computed from such slot products on the reliable
block, and no doubled matrix is formed for them; the max-norm of
``P (x) Q - R (x) S`` is taken in blocks of ``_KRON_BLOCK_ENTRIES`` entries,
consecutive entries of ``P`` and ``R`` against all of ``Q`` and ``S``.

A model builds each per-mode displacement once: the matrices are kept, keyed
on the exact bits of the amplitude, for as long as the model lives, and are
read-only.  Each entry costs ``(cutoff+1)^2`` complex values (27 KB at cutoff
40), and a gns-check run holds at most ``2 * modes`` entries per vector and
per pair.

Ladder operators take the Araki-Woods form
``a(f) = a(T1 f) (x) I + I (x) a*(J T2 f)``: one Kronecker sum of per-mode
ladders, ``a`` on the first slot's modes and ``a*`` on the second's.  The
field operator and the creation operator follow from it as
``(a + a*)/sqrt(2)`` and ``a*``; the number operator ``a* a`` is assembled
from slot-sized products of the two Kronecker sums.  These builders and
``gns_weyl_operator`` with ``gns_commutant_weyl_operator`` return dense
doubled-space matrices as plain arrays and refuse axes beyond
``DOUBLED_DIM_CAP``; the last two are the reference the residuals are
tested against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    CovarianceBelowIdentity,
    CutoffTooSmall,
    DimensionMismatch,
    InvalidMeasure,
    NonUnitary,
    OutOfRange,
    SpectrumBelowOne,
)
from .spectral import (
    OperatorSpec,
    inf_spectrum,
    is_trace_class_minus_identity,
    quadratic_form,
    scalar_value,
)
from .states import StateFunctional
from .weyl import WeylWord, sigma

#: Hard floor on the per-mode occupation cutoff.
CUTOFF_FLOOR = 4

#: Cap on the doubled-space axis length (cutoff+1)^(2*modes), for the dense
#: builders (the Weyl, ladder, field and number operators) and for gns-check
#: configs.
DOUBLED_DIM_CAP = 10_000

#: Entries of ``P (x) Q - R (x) S`` that _kron_difference_max evaluates at
#: once.  The product, the subtrahend and numpy's two iterator buffers take
#: 16 bytes an entry each, so a call peaks near 384 KB at any size.
_KRON_BLOCK_ENTRIES = 6144


def _ladder(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff + 1)), 1).astype(complex)


def expm(matrix: np.ndarray) -> np.ndarray:
    """scipy's matrix exponential, with scipy imported on the first call."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(matrix)


def _mode_displacement(alpha: complex, cutoff: int) -> np.ndarray:
    """exp(alpha a* - conj(alpha) a) on the truncated ladder."""
    a = _ladder(cutoff)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def _kron_sum(factors: list[np.ndarray]) -> np.ndarray:
    """Kronecker sum: the sum over k of I (x) ... (x) factors[k] (x) ... (x) I."""
    eyes = [np.eye(m.shape[0], dtype=complex) for m in factors]
    return sum(
        reduce(np.kron, eyes[:k] + [m] + eyes[k + 1 :]) for k, m in enumerate(factors)
    )


def truncated_displacement(alpha, cutoff: int) -> np.ndarray:
    """Displacement operator D(alpha) on the truncated Fock space.

    ``alpha`` is one complex amplitude per mode; several modes combine by
    tensor product.  Built as the exponential of the truncated generator, so
    the matrix is unitary to machine precision and ``<0|D(alpha)|0>`` matches
    ``exp(-|alpha|^2/2)`` up to truncation leakage.
    """
    amplitudes = np.atleast_1d(np.asarray(alpha, dtype=complex))
    if cutoff < CUTOFF_FLOOR:
        raise CutoffTooSmall(f"cutoff {cutoff} below hard floor {CUTOFF_FLOOR}")
    recommended = 8 * max(1.0, float(np.max(np.abs(amplitudes)) ** 2))
    if cutoff < recommended:
        warnings.warn(
            f"cutoff {cutoff} below recommended {recommended:.0f} for |alpha| up to "
            f"{np.max(np.abs(amplitudes)):.3g}; expect visible truncation error",
            stacklevel=2,
        )
    return reduce(np.kron, [_mode_displacement(amp, cutoff) for amp in amplitudes])


class GnsModel:
    """Doubled truncated Fock space carrying a Gaussian state's representation."""

    def __init__(self, covariance: OperatorSpec, cutoff: int = 40):
        matrix = covariance.require_matrix()
        if cutoff < CUTOFF_FLOOR:
            raise CutoffTooSmall(f"cutoff {cutoff} below hard floor {CUTOFF_FLOOR}")
        if inf_spectrum(covariance) < 1 - 1e-12:
            raise CovarianceBelowIdentity(
                f"GNS doubling needs A >= I, spectrum reaches {inf_spectrum(covariance)}"
            )
        self.covariance = covariance
        self.cutoff = int(cutoff)
        self.modes = matrix.shape[0]
        self._basis = covariance.eigenvectors
        eigs = covariance.eigenvalues
        self._t1 = np.sqrt((eigs + 1.0) / 2.0)
        self._t2 = np.sqrt(np.maximum(eigs - 1.0, 0.0) / 2.0)
        self.T1 = self._basis @ np.diag(self._t1).astype(complex) @ self._basis.conj().T
        self.T2 = self._basis @ np.diag(self._t2).astype(complex) @ self._basis.conj().T
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
        """Read-only _mode_displacement(alpha, cutoff), built once per exact
        bit pattern of ``alpha`` (so ``-0.0`` and ``0.0`` stay apart)."""
        key = np.complex128(alpha).tobytes()
        matrix = self._displacements.get(key)
        if matrix is None:
            matrix = _mode_displacement(alpha, self.cutoff)
            matrix.flags.writeable = False
            self._displacements[key] = matrix
        return matrix


def _slot_pair(model: GnsModel, amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of the two tensor slots from their per-mode amplitudes."""
    return tuple(reduce(np.kron, map(model._mode_displacement, amps)) for amps in amplitudes)


def check_doubled_cap(model: GnsModel):
    """Raise OutOfRange when the doubled axis of the model exceeds DOUBLED_DIM_CAP."""
    dim = model.slot_dimension ** 2
    if dim > DOUBLED_DIM_CAP:
        raise OutOfRange(
            f"doubled Fock space axis {dim} exceeds cap {DOUBLED_DIM_CAP}; "
            f"lower the cutoff or the mode count"
        )


def gns_weyl_operator(model: GnsModel, f) -> np.ndarray:
    """The doubled-space matrix representing the generator W_f."""
    check_doubled_cap(model)
    return np.kron(*_slot_pair(model, model.slot_amplitudes(f)))


def gns_commutant_weyl_operator(model: GnsModel, f) -> np.ndarray:
    """The swapped-slot matrix that commutes with every gns_weyl_operator."""
    check_doubled_cap(model)
    # the commutant's slots are those of pi(W_f), swapped
    a1, a2 = _slot_pair(model, model.slot_amplitudes(f))
    return np.kron(a2, a1)


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


def _reliable_block(model: GnsModel) -> np.ndarray:
    """Doubled-space indices of the reliable block: both slots in _reliable_slot."""
    slot = _reliable_slot(model)
    return (slot[:, None] * model.slot_dimension + slot[None, :]).ravel()


def _kron_difference_max(p, q, r, s) -> float:
    """Max-norm of ``P (x) Q - R (x) S``, in blocks of _KRON_BLOCK_ENTRIES.

    Each entry is ``P[i,k] Q[j,l] - R[i,k] S[j,l]`` as in one broadcast over
    all of them, so the maximum is the same (NaN included).
    """
    # All four operands 3-d: at side 1 both products then have equal shapes,
    # as in the one-shot broadcast, and numpy runs the same complex-multiply
    # loop; a broadcast 1x1 product takes a loop that rounds differently.
    p, r = p.reshape(-1, 1, 1), r.reshape(-1, 1, 1)
    q, s = q[None], s[None]
    step = max(1, _KRON_BLOCK_ENTRIES // q.size)
    peaks = []
    for start in range(0, p.shape[0], step):
        block = slice(start, start + step)
        diff = p[block] * q
        diff -= r[block] * s
        peaks.append(np.max(np.abs(diff)))
    return float(np.max(peaks))


def weyl_relation_residual(model: GnsModel, f, g) -> float:
    """Max-norm defect of pi(W_f) pi(W_g) = exp(-i sigma(f,g)/2) pi(W_{f+g}).

    Measured on the reliable occupation block (see _reliable_slot), from the
    slot products ``A1 B1`` and ``A2 B2``; no doubled matrix is formed.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    a1, a2 = _slot_pair(model, model.slot_amplitudes(f))
    b1, b2 = _slot_pair(model, model.slot_amplitudes(g))
    c1, c2 = _slot_pair(model, model.slot_amplitudes(f + g))
    keep = _reliable_slot(model)
    block = np.ix_(keep, keep)
    phase = np.exp(-0.5j * sigma(f, g))
    return _kron_difference_max(
        a1[keep] @ b1[:, keep], a2[keep] @ b2[:, keep], phase * c1[block], c2[block]
    )


def commutant_residual(model: GnsModel, f, g) -> float:
    """Max-norm of [pi(W_f), pi~(W_g)] on the reliable occupation block.

    The commutator is ``A1 B1 (x) A2 B2 - B1 A1 (x) B2 A2`` over the slots,
    where the commutant's slots ``B1, B2`` are those of pi(W_g), swapped.
    """
    a1, a2 = _slot_pair(model, model.slot_amplitudes(f))
    b2, b1 = _slot_pair(model, model.slot_amplitudes(g))
    keep = _reliable_slot(model)
    return _kron_difference_max(
        a1[keep] @ b1[:, keep],
        a2[keep] @ b2[:, keep],
        b1[keep] @ a1[:, keep],
        b2[keep] @ a2[:, keep],
    )


def _slot_ladders(model: GnsModel, f) -> tuple[np.ndarray, np.ndarray]:
    """Slot-sized ``A``, ``B`` with ``a(f) = A (x) I + I (x) B``.

    ``A`` is the Kronecker sum of ``sqrt(2) i conj(alpha_k) a`` over the first
    slot's modes and ``B`` that of ``-sqrt(2) i beta_k a*`` over the second's,
    with ``alpha`` and ``beta`` the slot amplitudes of pi(W_f).
    """
    first, second = model.slot_amplitudes(f)
    a = _ladder(model.cutoff)
    return (
        _kron_sum([np.sqrt(2) * 1j * np.conj(alpha) * a for alpha in first]),
        _kron_sum([-np.sqrt(2) * 1j * beta * a.T for beta in second]),
    )


def gns_annihilation(model: GnsModel, f) -> np.ndarray:
    """a(f) on the doubled space, antilinear in f (see _slot_ladders)."""
    check_doubled_cap(model)
    return _kron_sum(list(_slot_ladders(model, f)))


def gns_creation(model: GnsModel, f) -> np.ndarray:
    """a*(f), the adjoint of gns_annihilation."""
    return gns_annihilation(model, f).conj().T


def gns_field_operator(model: GnsModel, f) -> np.ndarray:
    """Truncated field operator Phi(f) = (a(f) + a*(f)) / sqrt(2).

    It generates t -> pi(W_{t f}); the Kronecker sum runs over the first
    slot's modes, then the second's.
    """
    a = gns_annihilation(model, f)
    return (a + a.conj().T) / np.sqrt(2)


def gns_number_operator(model: GnsModel, f) -> np.ndarray:
    """N_f = a*(f) a(f) = A*A (x) I + I (x) B*B + A* (x) B + A (x) B*.

    ``A`` and ``B`` are _slot_ladders; only slot-sized products are formed.
    """
    check_doubled_cap(model)
    a, b = _slot_ladders(model, f)
    a_adj, b_adj = a.conj().T, b.conj().T
    eye = np.eye(a.shape[0], dtype=complex)
    number = np.kron(a_adj @ a, eye)
    number += np.kron(eye, b_adj @ b)
    number += np.kron(a_adj, b)
    number += np.kron(a, b_adj)
    return number


def one_particle_number_expectation(covariance: OperatorSpec, f) -> float:
    """Closed form <N_f> = (1/2) <f, (A - I) f> in the Gaussian state."""
    if inf_spectrum(covariance) < 1 - 1e-12:
        raise SpectrumBelowOne(f"covariance spectrum reaches {inf_spectrum(covariance)} < 1")
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
    if not 0 < h <= 1:
        raise OutOfRange(f"scale parameter {h} outside (0, 1]")
    return (1.0 - h) / (1.0 + h)


def h_of_c(c: float) -> float:
    """Inverse of c_parameter: h = (1 - c) / (1 + c)."""
    if not 0 <= c < 1:
        raise OutOfRange(f"mixture coordinate {c} outside [0, 1)")
    return (1.0 - c) / (1.0 + c)


@dataclass(frozen=True)
class MixtureMeasure:
    """Finite probability measure on the mixture coordinate c in [0, 1)."""

    points: tuple[tuple[float, float], ...]  # (c, weight)

    def __post_init__(self):
        if not self.points:
            raise InvalidMeasure("measure needs at least one support point")
        total = 0.0
        for c, w in self.points:
            if not 0 <= c < 1:
                raise InvalidMeasure(f"support point {c} outside [0, 1)")
            if w <= 0:
                raise InvalidMeasure(f"weight {w} is not positive")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise InvalidMeasure(f"weights sum to {total}, expected 1")


class MixtureState(StateFunctional):
    """Rotation-invariant mixture of the one-parameter Gaussian family.

    phi(f) = sum_i w_i exp(-||f||^2 (1 + c_i) / (4 (1 - c_i))).
    """

    tag = "mixture"

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


@dataclass(frozen=True)
class UnitaryMap:
    """Gauge transformation W_f -> W_{U f} for a unitary U on the one-particle space."""

    matrix: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.matrix, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise NonUnitary(f"expected a square matrix, got shape {u.shape}")
        defect = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
        if defect > 1e-10:
            raise NonUnitary(f"U*U - I residual {defect:.3e} exceeds 1e-10")
        object.__setattr__(self, "matrix", u)

    def apply(self, f) -> np.ndarray:
        return self.matrix @ np.asarray(f, dtype=complex)


def check_universal_invariance(phi: StateFunctional, unitary: UnitaryMap, vectors) -> float:
    """Max deviation |phi(U f) - phi(f)| over the sample vectors."""
    deviation = 0.0
    for f in vectors:
        deviation = max(deviation, abs(phi.value(unitary.apply(f)) - phi.value(f)))
    return deviation
