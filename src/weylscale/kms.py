"""Equilibrium (KMS) calculus for Gaussian states and its rescaled variant.

A one-particle Hamiltonian with spectrum in ``[eps, inf)``, ``eps > 0``,
determines the equilibrium covariance ``A = (I + e^{-beta h})/(I - e^{-beta h})``
and the modular operator ``Delta = ((A+I)/(A-I))^{1/beta} = e^h``.  The
two-point data of the state extend to functions analytic on the strip
``0 < Im z < beta`` whose boundary rows reproduce the two operator orderings;
this module evaluates those functions by exact functional calculus and sizes
the boundary residuals, both for the original state and for the state pushed
to scale ``h`` (covariance ``A/h``, modular operator ``j_h`` applied to the
spectrum of ``Delta``).  One private function builds that scale-h modular
operator both ways, ``j_h`` over a modular spectrum and the modular map of the
rescaled covariance, and sizes their distance; the rescaled model here and the
restricted model of :mod:`weylscale.restriction` both call it.

Two-point values are computed in the eigenbasis ``Delta = V diag(delta) V*``:
``f``, ``g``, ``A f`` and ``A g`` are mapped there once, and every value of
``F`` and ``Phi`` is a sum ``sum_k p_k delta_k^{iz} + m_k delta_k^{-iz}``,
evaluated for a whole grid of ``z`` as one array product.  ``A`` only acts on
the vectors, so this is exact for any Hermitian pair, commuting or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainViolation,
    NonPositiveBeta,
    NonPositiveHamiltonian,
    OutOfRange,
    OutsideStrip,
)
from .spectral import (
    ATOM_MERGE_TOL,
    INF,
    OperatorSpec,
    apply_function,
    inf_spectrum,
    quadratic_form,
    spectral_distance,
)
from .weyl import WeylWord, weyl_multiply

#: Agreement tolerance between the two constructions of the rescaled modular operator.
TWO_ROUTE_TOL = 1e-12

#: Imaginary-part fractions of beta sampled for the strip boundedness report.
STRIP_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def default_time_grid() -> np.ndarray:
    """The fixed reporting grid: 21 points on [-5, 5]."""
    return np.linspace(-5.0, 5.0, 21)


def covariance_from_hamiltonian(hamiltonian: OperatorSpec, beta: float) -> OperatorSpec:
    """Equilibrium covariance: functional calculus with (1+e^{-b l})/(1-e^{-b l})."""
    if inf_spectrum(hamiltonian) <= 0:
        raise NonPositiveHamiltonian(
            f"hamiltonian spectrum reaches {inf_spectrum(hamiltonian)} <= 0"
        )
    if beta <= 0:
        raise NonPositiveBeta(f"inverse temperature {beta} must be positive")

    def bose_map(lam: float) -> float:
        w = math.exp(-beta * lam)
        return (1.0 + w) / (1.0 - w)

    return apply_function(hamiltonian, bose_map)


def modular_operator(covariance: OperatorSpec, beta: float) -> OperatorSpec:
    """Modular operator ((A+I)/(A-I))^{1/beta}; singular where A has spectrum 1."""
    if beta <= 0:
        raise NonPositiveBeta(f"inverse temperature {beta} must be positive")
    for atom in covariance.atoms:
        if abs(atom.value - 1.0) <= ATOM_MERGE_TOL:
            raise DomainViolation("covariance has spectral value 1; modular map is singular there")
    return apply_function(
        covariance, lambda lam: ((lam + 1.0) / (lam - 1.0)) ** (1.0 / beta)
    )


@dataclass(frozen=True)
class KmsModel:
    """Hamiltonian, inverse temperature, and the derived covariance and modular operator."""

    hamiltonian: OperatorSpec
    beta: float
    covariance: OperatorSpec
    modular: OperatorSpec
    epsilon: float  # bottom of the hamiltonian spectrum


def kms_model(hamiltonian: OperatorSpec, beta: float, unbounded_above: bool = False) -> KmsModel:
    """Assemble the equilibrium model for a one-particle Hamiltonian.

    With ``unbounded_above`` (spectral variant only) the model declares the
    regime of an unbounded Hamiltonian as side data: the covariance spectrum
    then accumulates at 1 and the modular operator is unbounded, although the
    stored atoms carry only the finitely many points the formulas use.
    """
    covariance = covariance_from_hamiltonian(hamiltonian, beta)
    modular = modular_operator(covariance, beta)
    epsilon = inf_spectrum(hamiltonian)
    if unbounded_above:
        hamiltonian = hamiltonian.with_declared_bounds(supremum=INF)
        covariance = covariance.with_declared_bounds(infimum=1.0)
        modular = modular.with_declared_bounds(supremum=INF)
    return KmsModel(
        hamiltonian=hamiltonian,
        beta=float(beta),
        covariance=covariance,
        modular=modular,
        epsilon=float(epsilon),
    )


def _log_spectrum(modular: OperatorSpec) -> np.ndarray:
    """Principal logarithm of the (positive) modular eigenvalues, so that
    Delta^{iz} = V diag(exp(i z log delta)) V* is single-valued."""
    modular.require_matrix()
    return np.log(modular.eigenvalues.astype(complex))


def time_evolution(modular: OperatorSpec, t: float) -> np.ndarray:
    """The unitary Delta^{it} as a matrix."""
    phases = np.exp(1j * float(t) * _log_spectrum(modular))
    v = modular.eigenvectors
    return v @ np.diag(phases) @ v.conj().T


def evolve_word(u: WeylWord, modular: OperatorSpec, t: float) -> WeylWord:
    """Apply the modular dynamics to every generator: W_f -> W_{Delta^{it} f}."""
    transport = time_evolution(modular, t)
    if transport.shape[0] != u.dim:
        raise DimensionMismatch(f"word over C^{u.dim} against operator of dimension {transport.shape[0]}")
    return WeylWord(u.dim, [(transport @ vec, coeff) for vec, coeff in u.items()])


def _as_pair(covariance: OperatorSpec, f, g) -> tuple[np.ndarray, np.ndarray]:
    m = covariance.require_matrix()
    f = np.asarray(f, dtype=complex).ravel()
    g = np.asarray(g, dtype=complex).ravel()
    if f.shape != (m.shape[0],) or g.shape != (m.shape[0],):
        raise DimensionMismatch(
            f"vectors of shape {f.shape}, {g.shape} against operator of dimension {m.shape[0]}"
        )
    return f, g


def _modular_coordinates(covariance: OperatorSpec, modular: OperatorSpec, f, g):
    """V* f, V* g, V* A f and V* A g for the modular eigenvectors V."""
    f, g = _as_pair(covariance, f, g)
    a = covariance.matrix
    modular.require_matrix()
    return (modular.eigenvectors.conj().T @ np.stack([f, g, a @ f, a @ g], axis=1)).T


def _F_terms(x, y, ax, ay):
    """Coefficients (p, m) of
    F(x, y; t) = (1/2)<x, Delta^{it}(A+I) y> + (1/2)<y, Delta^{-it}(A-I) x>."""
    return 0.5 * x.conj() * (ay + y), 0.5 * y.conj() * (ax - x)


def _Phi_terms(x, y, ax, ay):
    """Coefficients (p, m) of
    Phi(x, y; z) = (1/2)<(A+I) x, Delta^{iz} y> + (1/2)<(A-I) y, Delta^{-iz} x>."""
    return 0.5 * (ax + x).conj() * y, 0.5 * (ay - y).conj() * x


def _two_sided(log_delta: np.ndarray, terms, z) -> np.ndarray:
    """sum_k p_k delta_k^{iz} + m_k delta_k^{-iz} for every entry of the array z."""
    plus, minus = terms
    exponent = 1j * np.multiply.outer(z, log_delta)
    return np.exp(exponent) @ plus + np.exp(-exponent) @ minus


def F_function(covariance: OperatorSpec, modular: OperatorSpec, f, g, t: float) -> complex:
    """Real-time two-point kernel
    F = (1/2)<f, e^{ith}(A+I) g> + (1/2)<g, e^{-ith}(A-I) f>."""
    coords = _modular_coordinates(covariance, modular, f, g)
    return complex(_two_sided(_log_spectrum(modular), _F_terms(*coords), float(t)))


def Phi_function(
    covariance: OperatorSpec, modular: OperatorSpec, beta: float, f, g, z: complex
) -> complex:
    """Strip function Phi = (1/2)<f,(A+I)Delta^{iz} g> + (1/2)<g,(A-I)Delta^{-iz} f>.

    Defined on the closed strip 0 <= Im z <= beta; complex powers use the
    principal logarithm of the positive spectrum, so they are single-valued.
    """
    z = complex(z)
    if z.imag < 0 or z.imag > beta:
        raise OutsideStrip(f"Im z = {z.imag} outside [0, {beta}]")
    coords = _modular_coordinates(covariance, modular, f, g)
    return complex(_two_sided(_log_spectrum(modular), _Phi_terms(*coords), z))


@dataclass(frozen=True)
class TwoPointReport:
    """Closed-form two-point value next to the truncated-simulator oracle.

    The closed form is evaluated literally, with the prefactor
    exp(S(f,f)/4 - S(g,g)/4); that sign pattern disagrees with the simulator
    whenever S(f,f) is appreciably positive, and the report flags the
    mismatch instead of correcting either side.
    """

    time: float
    formula_value: complex
    oracle_value: complex
    deviation: float
    formula_matches_oracle: bool
    tol: float


def two_point_function(
    covariance: OperatorSpec,
    modular: OperatorSpec,
    f,
    g,
    t: float,
    cutoff: int = 40,
    tol: float = 1e-4,
) -> TwoPointReport:
    """Two-point correlation omega(W_f W_{T_t g}): literal closed form vs GNS oracle."""
    from .fock import GnsModel, gns_expectation

    f, g = _as_pair(covariance, f, g)
    s_ff = quadratic_form(covariance, f, f).real
    s_gg = quadratic_form(covariance, g, g).real
    formula = np.exp(0.25 * s_ff - 0.25 * s_gg) * np.exp(
        -0.5 * F_function(covariance, modular, f, g, t)
    )
    moved = time_evolution(modular, t) @ g
    word = weyl_multiply(WeylWord.generator(f), WeylWord.generator(moved), 1.0)
    oracle = gns_expectation(GnsModel(covariance, cutoff), word)
    deviation = abs(complex(formula) - oracle)
    return TwoPointReport(
        time=float(t),
        formula_value=complex(formula),
        oracle_value=oracle,
        deviation=deviation,
        formula_matches_oracle=deviation <= tol,
        tol=tol,
    )


@dataclass(frozen=True)
class KmsWitnessReport:
    """Sampled F and Phi values with the two boundary residuals of the KMS condition."""

    f: np.ndarray
    g: np.ndarray
    t_grid: np.ndarray
    F_values: np.ndarray
    Phi_lower: np.ndarray  # Phi(t + i0)
    Phi_upper: np.ndarray  # Phi(t + i beta)
    r0: np.ndarray  # |Phi(t+i0) - F(f,g;t)|
    r_beta: np.ndarray  # |Phi(t+i beta) - F(g,f;-t)|
    strip_sup: float

    @property
    def max_residual(self) -> float:
        if len(self.r0) == 0:
            return 0.0
        return float(max(np.max(self.r0), np.max(self.r_beta)))


def _boundary_report(
    covariance: OperatorSpec, modular: OperatorSpec, beta: float, f, g, t_grid
) -> KmsWitnessReport:
    f, g = _as_pair(covariance, f, g)
    grid = default_time_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or (len(grid) > 1 and np.any(np.diff(grid) <= 0)):
        raise OutOfRange("time grid must be one-dimensional and strictly increasing")
    log_delta = _log_spectrum(modular)
    fc, gc, afc, agc = _modular_coordinates(covariance, modular, f, g)
    F_vals = _two_sided(log_delta, _F_terms(fc, gc, afc, agc), grid)
    F_rev = _two_sided(log_delta, _F_terms(gc, fc, agc, afc), -grid)
    # rows: the lower and upper boundary, then the strip samples
    fractions = np.array([0.0, 1.0, *STRIP_FRACTIONS])
    strip = _two_sided(
        log_delta, _Phi_terms(fc, gc, afc, agc), grid + 1j * beta * fractions[:, None]
    )
    lower, upper = strip[0], strip[1]
    strip_sup = float(np.max(np.abs(strip[2:]), initial=0.0))
    return KmsWitnessReport(
        f=f,
        g=g,
        t_grid=grid,
        F_values=F_vals,
        Phi_lower=lower,
        Phi_upper=upper,
        r0=np.abs(lower - F_vals),
        r_beta=np.abs(upper - F_rev),
        strip_sup=strip_sup,
    )


def kms_boundary_residuals(model: KmsModel, f, g, t_grid=None) -> KmsWitnessReport:
    """Boundary rows of the KMS condition for the unrescaled state."""
    return _boundary_report(model.covariance, model.modular, model.beta, f, g, t_grid)


def j_h_function(lam: float, h: float, beta: float) -> float:
    """Spectral map of the rescaled modular operator:
    j_h(l) = ((1-h+(1+h) l^beta) / (1+h+(1-h) l^beta))^{1/beta}.

    For h in (0, 1] it is finite and strictly increasing on [1, inf).  For
    h > 1 (the restriction regime) it stays admissible only below the pole at
    l^beta = (h+1)/(h-1); beyond it the argument is out of range.
    """
    if beta <= 0:
        raise OutOfRange(f"inverse temperature {beta} must be positive")
    if h <= 0:
        raise OutOfRange(f"scale parameter {h} must be positive")
    if lam < 1 - ATOM_MERGE_TOL:
        raise OutOfRange(f"spectral argument {lam} below 1")
    power = lam ** beta
    denominator = 1.0 + h + (1.0 - h) * power
    if denominator <= 0:
        raise OutOfRange(
            f"spectral argument {lam} at or beyond the pole of the h={h} rescaling map"
        )
    return ((1.0 - h + (1.0 + h) * power) / denominator) ** (1.0 / beta)


@dataclass(frozen=True)
class RescaledKmsModel:
    """Scale-h equilibrium data: covariance A/h and modular operator j_h(Delta)."""

    base: KmsModel
    h: float
    covariance_h: OperatorSpec
    modular_h: OperatorSpec
    generator_h: OperatorSpec  # log of the rescaled modular operator
    delta_bottom: float  # log j_h(e^epsilon), bottom of the rescaled generator
    two_route_residual: float


def _two_route(
    modular: OperatorSpec, covariance_h: OperatorSpec, h: float, beta: float
) -> tuple[OperatorSpec, float]:
    """``j_h`` applied to the spectrum of ``modular``, with its spectral distance
    to the modular map of ``covariance_h``, the same operator built the other way."""
    via_spectrum = apply_function(modular, lambda lam: j_h_function(lam, h, beta))
    return via_spectrum, spectral_distance(via_spectrum, modular_operator(covariance_h, beta))


def rescaled_modular(model: KmsModel, h: float) -> RescaledKmsModel:
    """Build the rescaled modular data, checking both constructions agree.

    Route one applies the modular map to A/h; route two applies j_h to the
    spectrum of Delta.  They coincide identically ((a/h+1)/(a/h-1) =
    (1-h+(1+h)d^beta)/(1+h+(1-h)d^beta) under d^beta = (a+1)/(a-1)), and the
    spectral residual between the two is recorded.  h = 1 is allowed and
    degenerates to the unrescaled model.  A scale so small that ``A/h`` comes
    within a factor 4 of the largest float is out of range: the matrix of
    ``A/h`` and its symmetrization would overflow.
    """
    if not 0 < h <= 1:
        raise OutOfRange(f"scale parameter {h} outside (0, 1]")
    if not 4.0 * model.covariance.atoms[-1].value / h < INF:
        raise OutOfRange(f"scale parameter {h} too small: the covariance over h overflows")
    beta = model.beta
    covariance_h = apply_function(model.covariance, lambda lam: lam / h)
    if model.covariance.declared_infimum is not None:
        # the declared accumulation point scales along with the atoms
        covariance_h = covariance_h.with_declared_bounds(
            infimum=model.covariance.declared_infimum / h
        )
    via_spectrum, residual = _two_route(model.modular, covariance_h, h, beta)
    generator_h = apply_function(via_spectrum, math.log)
    delta_bottom = math.log(j_h_function(inf_spectrum(model.modular), h, beta))
    if model.modular.declared_supremum == INF:
        # unbounded Delta: j_h is bounded by its value at the pole-free limit
        limit = ((1.0 + h) / (1.0 - h)) ** (1.0 / beta) if h < 1 else INF
        via_spectrum = via_spectrum.with_declared_bounds(supremum=limit)
        generator_h = generator_h.with_declared_bounds(
            supremum=math.log(limit) if limit != INF else INF
        )
    return RescaledKmsModel(
        base=model,
        h=float(h),
        covariance_h=covariance_h,
        modular_h=via_spectrum,
        generator_h=generator_h,
        delta_bottom=delta_bottom,
        two_route_residual=residual,
    )


def F_h_function(rescaled: RescaledKmsModel, f, g, t: float) -> complex:
    """Real-time kernel of the rescaled state (A/h and its modular operator)."""
    return F_function(rescaled.covariance_h, rescaled.modular_h, f, g, t)


def Phi_h_function(rescaled: RescaledKmsModel, f, g, z: complex) -> complex:
    """Strip function of the rescaled state."""
    return Phi_function(rescaled.covariance_h, rescaled.modular_h, rescaled.base.beta, f, g, z)


def rescaled_kms_residuals(rescaled: RescaledKmsModel, f, g, t_grid=None) -> KmsWitnessReport:
    """Boundary rows of the KMS condition for the rescaled state."""
    return _boundary_report(
        rescaled.covariance_h, rescaled.modular_h, rescaled.base.beta, f, g, t_grid
    )
