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
``F`` and ``Phi`` is a sum ``sum_k p_k delta_k^{iz} + m_k delta_k^{-iz}``.
``A`` only acts on the vectors, so this is exact for any Hermitian pair,
commuting or not.  The powers ``delta^{+-iz}`` have one evaluator, the tables of
:func:`_strip_tables` on ``z = t + i s``, the complex exp of each sample bit for
bit and ``OutOfRange`` outside that domain: the boundary report samples a grid of
times at the heights ``beta * STRIP_FRACTIONS``, and :func:`F_function`,
:func:`time_evolution` and :func:`Phi_function` read the one sample of their z.

:func:`F_function` and :func:`Phi_function` serve the rescaled state too: pass
a RescaledKmsModel's ``covariance_h`` and ``modular_h``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, OutOfRange, _orderable, require_positive
from .spectral import (
    ATOM_MERGE_TOL,
    INF,
    OperatorSpec,
    apply_function,
    inf_spectrum,
    op_norm,
    quadratic_form,
    spectral_distance,
    vector_pair,
)
from .weyl import WeylWord, weyl_multiply

#: Agreement tolerance between the two constructions of the rescaled modular operator.
TWO_ROUTE_TOL = 1e-12

#: Imaginary-part fractions of beta sampled for the KMS boundary report, from
#: the lower boundary (0) to the upper (1).
STRIP_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


def default_time_grid() -> np.ndarray:
    """The fixed reporting grid: 21 points on [-5, 5]."""
    return np.linspace(-5.0, 5.0, 21)


def _bose(lam: float, beta: float) -> float:
    """Equilibrium covariance value (1+e^{-b l})/(1-e^{-b l}) of the energy ``lam``."""
    w = math.exp(-beta * lam)
    return (1.0 + w) / (1.0 - w)


def covariance_from_hamiltonian(hamiltonian: OperatorSpec, beta: float) -> OperatorSpec:
    """Equilibrium covariance: functional calculus with :func:`_bose`."""
    if inf_spectrum(hamiltonian) <= 0:
        raise OutOfRange(f"hamiltonian spectrum reaches {inf_spectrum(hamiltonian)} <= 0")
    require_positive(beta, "inverse temperature")
    return apply_function(hamiltonian, lambda lam: _bose(lam, beta))


def modular_operator(covariance: OperatorSpec, beta: float) -> OperatorSpec:
    """Modular operator ((A+I)/(A-I))^{1/beta}; singular where A has spectrum 1."""
    require_positive(beta, "inverse temperature")
    values = covariance.eigenvalues.tolist() if covariance.is_matrix else [a.value for a in covariance.atoms]
    if any(abs(value - 1.0) <= ATOM_MERGE_TOL for value in values):
        raise DomainViolation("covariance has spectral value 1; modular map is singular there")
    return apply_function(covariance, lambda lam: _modular_value(lam, beta))


def _modular_value(a: float, beta: float) -> float:
    """The modular map ``((a+1)/(a-1))^{1/beta}`` of one covariance value ``a``."""
    return ((a + 1.0) / (a - 1.0)) ** (1.0 / beta)


@dataclass(frozen=True)
class KmsModel:
    """Hamiltonian, inverse temperature, and the derived covariance and modular operator."""

    hamiltonian: OperatorSpec
    beta: float
    covariance: OperatorSpec
    modular: OperatorSpec
    epsilon: float  # bottom of the hamiltonian spectrum


def kms_model(hamiltonian: OperatorSpec, beta: float) -> KmsModel:
    """Assemble the equilibrium model for a one-particle Hamiltonian."""
    covariance = covariance_from_hamiltonian(hamiltonian, beta)
    return KmsModel(
        hamiltonian=hamiltonian,
        beta=float(beta),
        covariance=covariance,
        modular=modular_operator(covariance, beta),
        epsilon=float(inf_spectrum(hamiltonian)),
    )


def _log_spectrum(modular: OperatorSpec) -> np.ndarray:
    """Principal logarithm of the (positive) modular eigenvalues, so that
    Delta^{iz} = V diag(exp(i z log delta)) V* is single-valued."""
    modular.require_matrix()
    return np.log(modular.eigenvalues.astype(complex))


def _powers_at(modular: OperatorSpec, t: float, s: float = 0.0) -> np.ndarray:
    """delta_k^{iz} and delta_k^{-iz} at the one point ``z = t + i s``."""
    return _strip_tables(_log_spectrum(modular), np.array([t]), np.array([s]))[:, 0, 0]


def time_evolution(modular: OperatorSpec, t: float) -> np.ndarray:
    """The unitary Delta^{it} as a matrix."""
    phases = _powers_at(modular, float(t))[0]
    v = modular.eigenvectors
    return (v * phases) @ v.conj().T


def _modular_coordinates(covariance: OperatorSpec, modular: OperatorSpec, f, g):
    """V* f, V* g, V* A f and V* A g for the modular eigenvectors V."""
    f, g = vector_pair(covariance, f, g)
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


def F_function(covariance: OperatorSpec, modular: OperatorSpec, f, g, t: float) -> complex:
    """Real-time two-point kernel
    F = (1/2)<f, e^{ith}(A+I) g> + (1/2)<g, e^{-ith}(A-I) f>."""
    plus, minus = _F_terms(*_modular_coordinates(covariance, modular, f, g))
    up, down = _powers_at(modular, float(t))
    return complex(up @ plus + down @ minus)


def Phi_function(
    covariance: OperatorSpec, modular: OperatorSpec, beta: float, f, g, z: complex
) -> complex:
    """Strip function Phi = (1/2)<f,(A+I)Delta^{iz} g> + (1/2)<g,(A-I)Delta^{-iz} f>.

    Defined on the closed strip 0 <= Im z <= beta; complex powers use the
    principal logarithm of the positive spectrum, so they are single-valued.
    """
    z = complex(z)
    if z.imag < 0 or z.imag > beta:
        raise OutOfRange(f"Im z = {z.imag} outside [0, {beta}]")
    plus, minus = _Phi_terms(*_modular_coordinates(covariance, modular, f, g))
    up, down = _powers_at(modular, z.real, z.imag)
    return complex(up @ plus + down @ minus)


@dataclass(frozen=True)
class TwoPointReport:
    """Closed-form two-point values next to the truncated-simulator oracle.

    The literal closed form has the prefactor exp(S(f,f)/4 - S(g,g)/4); that
    sign pattern disagrees with the simulator whenever S(f,f) is appreciably
    positive, and ``formula_matches_oracle`` flags the mismatch instead of
    correcting it.  The derived form exp(-S(f,f)/4 - S(g,g)/4 - F/2) is
    omega(W_f W_{T_t g}) = exp(-i Im<f, T_t g>/2) phi(f + T_t g) expanded with
    S(T_t g, T_t g) = S(g, g), checked against the same oracle.
    """

    formula_value: complex
    oracle_value: complex
    deviation: float
    formula_matches_oracle: bool
    derived_value: complex
    derived_matches_oracle: bool


def two_point_function(
    covariance: OperatorSpec,
    modular: OperatorSpec,
    f,
    g,
    t: float,
    cutoff: int = 40,
    tol: float = 1e-4,
) -> TwoPointReport:
    """Two-point correlation omega(W_f W_{T_t g}): literal and derived closed forms vs GNS oracle."""
    from .fock import GnsModel, gns_expectation

    f, g = vector_pair(covariance, f, g)
    s_ff = quadratic_form(covariance, f, f).real
    s_gg = quadratic_form(covariance, g, g).real
    F = F_function(covariance, modular, f, g, t)
    formula = complex(np.exp(0.25 * s_ff - 0.25 * s_gg) * np.exp(-0.5 * F))
    derived = complex(np.exp(-0.25 * s_ff - 0.25 * s_gg - 0.5 * F))
    moved = time_evolution(modular, t) @ g
    word = weyl_multiply(WeylWord.generator(f), WeylWord.generator(moved), 1.0)
    oracle = gns_expectation(GnsModel(covariance, cutoff), word)
    deviation = abs(formula - oracle)
    return TwoPointReport(
        formula_value=formula,
        oracle_value=oracle,
        deviation=deviation,
        formula_matches_oracle=deviation <= tol,
        derived_value=derived,
        derived_matches_oracle=abs(derived - oracle) <= tol,
    )


#: Largest |x| at which the complex exp of x + iy is e^x cos y + i e^x sin y bit for
#: bit: above x = 709 glibc's cexp rescales, so as not to overflow.
_SEPARABLE_EXP_LIMIT = 709.0

#: The signs of (cos y, sin y) in the tables delta^{iz} and delta^{-iz}.
_CIS_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]]).reshape(2, 1, 1, 2)


def _strip_tables(log_delta: np.ndarray, grid: np.ndarray, heights: np.ndarray) -> np.ndarray:
    """The tables delta_k^{iz} and delta_k^{-iz} at ``z = t + i s``, one array of
    shape (2, S, T, k): the ``heights`` s, the times t of ``grid`` and the log-spectrum.

    They are ``exp(+-i z log delta)`` bit for bit.  For a modular spectrum at or
    above 1 (a real log-spectrum ``>= 0``) the exponent ``i z log delta = x + iy``
    has ``x = -s log delta`` on every column t and ``y = t log delta`` on every
    row s, and up to ``|x| = _SEPARABLE_EXP_LIMIT`` the complex exp of ``x + iy``
    is the float products ``e^x cos y`` and ``e^x sin y``; so each table is
    ``e^{+-x}`` times ``(cos y, +-sin y)``, the complex exp of the real-time row:
    one complex exp per (t, k) and one real exp per (s, k) and sign.  ``x`` is
    that complex product at ``t = 0`` and ``y`` at ``s = 0``, so both keep its bits
    (a zero ``x`` may differ in sign, which no exp sees).  ``e^{+-x}`` is the real
    part of the complex exp of ``+-x + 0i``: libm's ``exp``, as in the complex
    exp, not numpy's vectorized float ``exp``.

    Outside that domain, or for a time or height that is not finite, it raises
    ``OutOfRange``.  No suite gets there: every modular operator the package
    builds has spectrum above 1, and ``beta log delta <= log((a+1)/(a-1)) < 29``
    as :func:`modular_operator` refuses a covariance within ``ATOM_MERGE_TOL``
    of 1, while every height is at most ``beta``.
    """
    if not (np.isfinite(grid).all() and np.isfinite(heights).all()):
        raise OutOfRange("strip times and heights must be finite")
    if not (np.min(log_delta.real, initial=0.0) >= 0 and not log_delta.imag.any()):
        raise OutOfRange("modular spectrum reaches below 1")
    x = (1j * np.multiply.outer(1j * np.multiply.outer((1.0, -1.0), heights), log_delta)).real
    top = np.max(np.abs(x), initial=0.0)
    if not top <= _SEPARABLE_EXP_LIMIT:
        raise OutOfRange(f"strip exponent {top} past {_SEPARABLE_EXP_LIMIT}")
    cis = np.exp(1j * np.multiply.outer(grid, log_delta))  # (cos y, sin y)
    # e^{+-x} beside the sign of each part, against cis's interleaved (cos y, sin y)
    scale = (np.exp(x + 0j).real[..., None] * _CIS_SIGNS).reshape(x.shape[:2] + (1, -1))
    tables = np.empty(x.shape[:2] + cis.shape, dtype=complex)
    np.multiply(scale, cis.view(float), out=tables.view(float))
    return tables


def _time_grid(grid) -> np.ndarray:
    """``grid`` as an array of times: one list, non-empty, finite and strictly increasing."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise OutOfRange("points must form one list")
    if grid.size == 0:
        raise OutOfRange("needs at least one point")
    if not np.isfinite(grid).all():
        raise OutOfRange("points must be finite")
    if (grid[1:] <= grid[:-1]).any():
        raise OutOfRange("points must be strictly increasing")
    return grid


@dataclass(frozen=True)
class KmsWitnessReport:
    """Sampled F and Phi values, the two boundary residuals of the KMS condition and their scale."""

    t_grid: np.ndarray
    F_values: np.ndarray
    Phi_lower: np.ndarray  # Phi(t + i0)
    Phi_upper: np.ndarray  # Phi(t + i beta)
    r0: np.ndarray  # |Phi(t+i0) - F(f,g;t)|
    r_beta: np.ndarray  # |Phi(t+i beta) - F(g,f;-t)|
    strip_sup: float
    scale: float  # max(1, ||A|| ||f|| ||g|| ||Delta||^beta)

    @property
    def max_residual(self) -> float:
        return float(max(np.max(self.r0), np.max(self.r_beta)))

    def within(self, tol: float) -> bool:
        """Whether the residuals meet ``tol * scale``, ``scale = max(1, ||A|| ||f|| ||g||
        ||Delta||^beta)`` for the covariance, modular operator and vectors sampled.

        A boundary value is a sum of ``p_k delta_k^{iz} + m_k delta_k^{-iz}`` whose
        coefficients are products of ``V* f``, ``V* g``, ``V* A f`` and ``V* A g``; with
        ``V`` unitary, Cauchy-Schwarz bounds them by ``(||A|| + 1) ||f|| ||g|| <= 2 ||A||
        ||f|| ||g||`` (``||A|| >= 1``), and each rounds at a multiple of that size.  At
        height ``s <= beta`` a coefficient is multiplied by up to ``delta^s <= ||Delta||^beta
        = (a + 1) / (a - 1)``, ``a`` the bottom of the covariance: the upper row's
        ``delta^beta (A g - g)`` is ``(A + I) g`` in exact arithmetic, but ``A g - g``
        rounds as ``A g`` and ``g`` do, not as their small difference.
        """
        return self.max_residual <= tol * self.scale


def _boundary_report(
    covariance: OperatorSpec, modular: OperatorSpec, beta: float, f, g, t_grid
) -> KmsWitnessReport:
    grid = default_time_grid() if t_grid is None else _time_grid(t_grid)
    log_delta = _log_spectrum(modular)  # before the BLAS product: 7x slower after it (n = 128, x86-64)
    f, g = vector_pair(covariance, f, g)
    fc, gc, afc, agc = _modular_coordinates(covariance, modular, f, g)
    up, down = _strip_tables(log_delta, grid, beta * np.array(STRIP_FRACTIONS))
    # the real-time row of the strip (fraction 0) gives F(f, g; t), and its tables
    # swapped give F(g, f; -t)
    plus, minus = _F_terms(fc, gc, afc, agc)
    F_vals = up[0] @ plus + down[0] @ minus
    plus, minus = _F_terms(gc, fc, agc, afc)
    F_rev = down[0] @ plus + up[0] @ minus
    plus, minus = _Phi_terms(fc, gc, afc, agc)
    strip = up @ plus + down @ minus
    lower, upper = strip[0], strip[-1]
    strip_sup = float(np.max(np.abs(strip), initial=0.0))
    size = op_norm(covariance) * float(np.linalg.norm(f)) * float(np.linalg.norm(g))
    return KmsWitnessReport(
        t_grid=grid,
        F_values=F_vals,
        Phi_lower=lower,
        Phi_upper=upper,
        r0=np.abs(lower - F_vals),
        r_beta=np.abs(upper - F_rev),
        strip_sup=strip_sup,
        scale=max(1.0, size * _modular_value(inf_spectrum(covariance), 1.0)),
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
    require_positive(beta, "inverse temperature")
    require_positive(h, "scale parameter")
    if not _orderable(lam) >= 1 - ATOM_MERGE_TOL:
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
    if not 0 < _orderable(h) <= 1:
        raise OutOfRange(f"scale parameter {h} outside (0, 1]")
    if not 4.0 * op_norm(model.covariance) / h < INF:
        raise OutOfRange(f"scale parameter {h} too small: the covariance over h overflows")
    beta = model.beta
    covariance_h = apply_function(model.covariance, lambda lam: lam / h)
    via_spectrum, residual = _two_route(model.modular, covariance_h, h, beta)
    return RescaledKmsModel(
        base=model,
        covariance_h=covariance_h,
        modular_h=via_spectrum,
        generator_h=apply_function(via_spectrum, math.log),
        delta_bottom=math.log(j_h_function(inf_spectrum(model.modular), h, beta)),
        two_route_residual=residual,
    )


def rescaled_kms_residuals(rescaled: RescaledKmsModel, f, g, t_grid=None) -> KmsWitnessReport:
    """Boundary rows of the KMS condition for the rescaled state."""
    return _boundary_report(
        rescaled.covariance_h, rescaled.modular_h, rescaled.base.beta, f, g, t_grid
    )
