"""Scaling beyond the admissible bound: restriction, non-regular states, trace state.

For a scale parameter between the bottom and the top of the covariance
spectrum the Gaussian functional stops being positive on the full algebra,
but survives on the subalgebra over the spectral subspace where the
covariance still dominates ``h``: ``E_h`` projects onto eigenvalues in
``(h, h_star]`` with ``h_star`` the top of the spectrum.  The compressed
covariance ``A^(h) = E_h A E_h`` satisfies ``A^(h)/h >= I`` there, carries its
own bounded modular dynamics, and extends to a non-regular functional on the
full algebra by declaring the value zero off the subspace.  As ``h`` grows to
``h_star`` the subspaces shrink and the extensions approach the trace state,
the indicator of the identity generator.

One :class:`RestrictedModel` per scale serves both the KMS residuals on the
subspace and the non-regular extension; its scale-h modular operator comes
from the same two-route construction as the rescaled model of
:mod:`weylscale.kms`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ModelMismatch, OutOfRange, _orderable, require_positive
from .kms import (
    KmsWitnessReport,
    _bose,
    _boundary_report,
    _two_route,
    covariance_from_hamiltonian,
    modular_operator,
)
from .spectral import (
    ATOM_MERGE_TOL,
    OperatorSpec,
    apply_function,
    inf_spectrum,
    op_norm,
    spectral_distance,
)
from .states import QuasiFreeState, StateFunctional, TraceState, evaluate_state
from .weyl import weyl_multiply

#: Distance from the projected subspace, relative to a norm above 1, within which a vector is a member.
SUBSPACE_TOL = 1e-12

#: Largest energy whose modular value e^lambda is a finite float; a larger one is
#: clamped to the largest float, which is above every finite lambda_star too.
_LOG_MAX_FLOAT = math.log(np.finfo(float).max)


def lambda_star(h: float, beta: float) -> float:
    """Top of the restricted modular spectrum: ((h+1)/(h-1))^{1/beta}."""
    require_positive(beta, "inverse temperature")
    if not _orderable(h) >= 1 + 1e-9:
        raise OutOfRange(f"scale parameter {h} too close to the pole at 1")
    return ((h + 1.0) / (h - 1.0)) ** (1.0 / beta)


@dataclass(frozen=True)
class RestrictedModel:
    """Covariance compressed to the spectral subspace that survives scale h: the
    eigenvector columns ``selected_indices`` with eigenvalue in ``(h, h_star]``, a
    suffix of the ascending eigenbasis (empty for a spectral covariance)."""

    covariance: OperatorSpec
    h: float
    selected_indices: tuple[int, ...]
    restricted_covariance: OperatorSpec  # A^(h) on the compressed basis
    rescaled_covariance: OperatorSpec  # A^(h) / h
    beta: float | None = None
    lam_star: float | None = None
    restricted_modular: OperatorSpec | None = None  # Delta^(h)
    rescaled_restricted_modular: OperatorSpec | None = None  # Delta_h^(h)
    two_route_residual: float | None = None
    _basis: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def subspace_dimension(self) -> float:
        return self.restricted_covariance.dimension

    def basis(self) -> np.ndarray:
        """Orthonormal columns spanning the subspace (matrix covariance only): one
        read-only copy, selected on the first call and kept."""
        if self._basis is None:
            self.covariance.require_matrix()
            basis = self.covariance.eigenvectors[:, list(self.selected_indices)]
            basis.flags.writeable = False
            object.__setattr__(self, "_basis", basis)
        return self._basis

    def project(self, f) -> np.ndarray:
        """Orthogonal projection of f onto the subspace."""
        v = self.basis()
        return v @ (v.conj().T @ np.asarray(f, dtype=complex))

    def residual(self, f) -> float:
        """Distance of f from the subspace."""
        f = np.asarray(f, dtype=complex)
        return float(np.linalg.norm(f - self.project(f)))

    def compress(self, f) -> np.ndarray:
        """Coordinates of a subspace vector in the compressed eigenbasis."""
        return self.basis().conj().T @ np.asarray(f, dtype=complex)


def _member(f, projection: np.ndarray) -> bool:
    """Whether f lies in the subspace it has ``projection`` on: the one membership rule,
    ``||f - projection|| <= SUBSPACE_TOL * max(1, ||f||)``.  The round-off of a projection
    grows with f, so ``c f`` is a member whenever f is."""
    return float(np.linalg.norm(f - projection)) <= SUBSPACE_TOL * max(1.0, float(np.linalg.norm(f)))


def restricted_model(
    covariance: OperatorSpec, h: float, beta: float | None = None
) -> RestrictedModel:
    """Compress the covariance to the eigenvalues in (h, h_star].

    Requires ``1 < h < h_star``; at ``h = h_star`` the selection empties and
    the restricted algebra collapses to scalars.  With ``beta`` the model also
    carries the restricted modular operator (bounded, spectrum inside
    ``[e^eps, lambda_star)``) and its scale-h version built by the spectral
    map ``j_h``, cross-checked against the modular map of ``A^(h)/h``; a scale
    at which ``A^(h)/h`` has spectrum within ``ATOM_MERGE_TOL`` of 1, where
    that map is singular, is then out of range.
    """
    h_star = op_norm(covariance)
    if not 1 < _orderable(h) < h_star:
        raise OutOfRange(f"scale parameter {h} outside (1, {h_star})")
    if covariance.is_matrix:
        eigs = covariance.eigenvalues
        selected = tuple(np.flatnonzero((eigs > h) & (eigs <= h_star)).tolist())
        # A^(h) is diagonal in the covariance's eigenbasis, so it needs no eigh, and
        # its matrix is that diagonal, given here in place of a V diag V* product
        values = eigs[list(selected)]
        restricted = OperatorSpec.from_eigen(
            values, np.eye(len(values), dtype=complex), np.diag(values).astype(complex)
        )
    else:
        selected = ()
        restricted = OperatorSpec.from_atoms(
            [(a.value, a.multiplicity) for a in covariance.atoms if h < a.value <= h_star]
        )
    # every selected eigenvalue is above h, so A^(h)/h >= I holds by construction
    rescaled = apply_function(restricted, lambda lam: lam / h)
    lam_star = restricted_mod = rescaled_mod = residual = None
    if beta is not None:
        if inf_spectrum(rescaled) - 1.0 <= ATOM_MERGE_TOL:
            raise OutOfRange(
                f"scale parameter {h} too close below the covariance eigenvalue "
                f"{inf_spectrum(restricted)}: the rescaled modular map is singular there"
            )
        lam_star = lambda_star(h, beta)
        restricted_mod = modular_operator(restricted, beta)
        rescaled_mod, residual = _two_route(restricted_mod, rescaled, h, beta)
        if covariance.declared_infimum is not None and covariance.declared_infimum <= 1:
            # unbounded regime: the covariance spectrum fills (1, h_star], so the
            # restriction fills (h, h_star], the restricted modular spectrum fills
            # up to lambda_star and attains its operator norm there
            restricted_mod = restricted_mod.with_declared_bounds(supremum=lam_star)
            restricted = restricted.with_declared_bounds(infimum=h)
            rescaled = rescaled.with_declared_bounds(infimum=1.0)
    return RestrictedModel(
        covariance=covariance,
        h=float(h),
        selected_indices=selected,
        restricted_covariance=restricted,
        rescaled_covariance=rescaled,
        beta=None if beta is None else float(beta),
        lam_star=lam_star,
        restricted_modular=restricted_mod,
        rescaled_restricted_modular=rescaled_mod,
        two_route_residual=residual,
    )


def spectral_correspondence_check(
    covariance: OperatorSpec, hamiltonian: OperatorSpec, beta: float, h: float
) -> bool:
    """Whether selecting covariance values in (h, h_star] equals selecting
    modular values in [e^eps, lambda_star), atom by atom.

    The covariance must come from the given Hamiltonian at the given beta
    (checked spectrally); the two selections are then compared exactly on the
    Hamiltonian's atoms, each mapped on its own to its covariance and its
    modular value: the covariance map can bring two atoms within the merge
    tolerance where the exponential keeps them apart.  They may differ only on
    a boundary atom, one whose covariance value is within rounding of ``h`` and
    whose modular value is within rounding of ``lambda_star``.  Above h_star
    both selections are empty and the check holds vacuously.
    """
    if spectral_distance(covariance_from_hamiltonian(hamiltonian, beta), covariance) > 1e-10:
        raise ModelMismatch("covariance does not match the hamiltonian at this beta")
    return _spectral_correspondence(hamiltonian, beta, h)


def _spectral_correspondence(hamiltonian: OperatorSpec, beta: float, h: float) -> bool:
    """The atom-by-atom comparison of :func:`spectral_correspondence_check`, for a
    caller whose covariance is built from ``hamiltonian`` at ``beta``."""
    pairs = [
        (_bose(atom.value, beta), math.exp(min(atom.value, _LOG_MAX_FLOAT)))
        for atom in hamiltonian.atoms
    ]
    h_star = max(a_value for a_value, _ in pairs)
    e_eps = math.exp(inf_spectrum(hamiltonian))
    lam_upper = lambda_star(h, beta) if h > 1 else math.inf
    a_tol = d_tol = 0.0
    if h > 1:
        # A boundary atom has beta * lambda = x = ln((h+1)/(h-1)).  Its covariance
        # value (1+w)/(1-w), w = e^-x, takes w's rounding (1+x) times the map's
        # condition (h^2-1)/(2h) on w; the modular map a -> ((a+1)/(a-1))^(1/beta),
        # of condition 2h/(beta (h^2-1)), carries that error to lambda_star, beside
        # the rounding 1 + (1+x)/beta of e^lambda and of the power.  One unit is a
        # few ulps, for the elementary operations of each map.
        unit = 4 * np.finfo(float).eps
        x = math.log((h + 1.0) / (h - 1.0))
        condition = (h * h - 1.0) / (2.0 * h)
        a_rel = unit * (1.0 + condition * (1.0 + x))
        d_rel = unit * (1.0 + (1.0 + x) / beta) + a_rel / (beta * condition)
        a_tol, d_tol = a_rel * h, d_rel * lam_upper
    for a_value, d_value in pairs:
        if (h < a_value <= h_star) != (e_eps <= d_value < lam_upper) and not (
            abs(a_value - h) <= a_tol and abs(d_value - lam_upper) <= d_tol
        ):
            return False
    return True


def restricted_kms_residuals(
    model: RestrictedModel, f, g, t_grid=None, rescaled: bool = False
) -> KmsWitnessReport:
    """KMS boundary residuals on the restricted subspace.

    With ``rescaled=False`` the check runs for the restriction of the original
    state (covariance A^(h), modular operator Delta^(h)); with ``rescaled=True``
    it runs for the scale-h state (covariance A^(h)/h, modular operator
    Delta_h^(h)).  Vectors are given in full-space coordinates and must lie in
    the subspace (:func:`_member`).
    """
    if model.beta is None or model.restricted_modular is None:
        raise ModelMismatch("restricted model carries no modular data; rebuild with beta")
    for name, vec in (("f", f), ("g", g)):
        if not _member(vec, model.project(vec)):
            raise DimensionMismatch(f"vector {name} has projection residual {model.residual(vec):.3e}")
    if rescaled:
        covariance, modular = model.rescaled_covariance, model.rescaled_restricted_modular
    else:
        covariance, modular = model.restricted_covariance, model.restricted_modular
    return _boundary_report(
        covariance, modular, model.beta, model.compress(f), model.compress(g), t_grid
    )


class NonRegularFunctional(StateFunctional):
    """Quasi-free on the restricted subspace, zero elsewhere.

    The 0/nonzero dichotomy is discontinuous by construction: membership is
    decided by :func:`_member` and the value off the subspace is exactly zero,
    which is what makes the extension non-regular.  On the subspace it is the
    Gaussian of ``A^(h)/h`` at the compressed coordinates.
    """

    def __init__(self, model: RestrictedModel):
        self.model = model
        model.covariance.require_matrix()
        self.dimension = model.covariance.dimension

    def value(self, f) -> complex:
        if not _member(f, self.model.project(f)):
            return 0.0
        return QuasiFreeState(self.model.rescaled_covariance).value(self.model.compress(f))


def nonregular_extension(covariance: OperatorSpec, h: float) -> NonRegularFunctional:
    """Extension of the restricted scale-h Gaussian by zero off the subspace."""
    return NonRegularFunctional(restricted_model(covariance, h))


def trace_state() -> TraceState:
    """The unique tracial functional: indicator of the identity generator."""
    return TraceState()


def check_trace_property(phi: StateFunctional, word_pairs, h: float = 1.0) -> float:
    """Max of |phi(uv) - phi(vu)| over the given pairs of words.

    For the trace state the deviation vanishes exactly: only the diagonal
    f + g = 0 survives the indicator, and there the product phase is
    exp(-i h sigma(f, -f)/2) = 1 bit-exactly in either order.
    """
    deviation = 0.0
    for u, v in word_pairs:
        forward = evaluate_state(phi, weyl_multiply(u, v, h))
        backward = evaluate_state(phi, weyl_multiply(v, u, h))
        deviation = max(deviation, abs(forward - backward))
    return deviation


@dataclass(frozen=True)
class TraceLimitReport:
    """Values of the non-regular extensions along a grid of scales.

    ``top_overlap`` is the norm of the component of f inside the top
    eigenspace of the covariance.  When f lies entirely in that eigenspace
    the values stay at the Gaussian closed form all the way to h_star and the
    limit is exp(-||f||^2/4) rather than the trace-state value; the report
    flags this instead of adjudicating the limit.
    """

    h_values: tuple[float, ...]
    values: tuple[complex, ...]
    top_overlap: float
    stays_in_top_eigenspace: bool

    @property
    def eventual_value(self) -> complex:
        return self.values[-1] if self.values else 0.0


def limit_to_trace_state(covariance: OperatorSpec, f, h_grid) -> TraceLimitReport:
    """Evaluate the non-regular extensions at W_f along increasing scales."""
    covariance.require_matrix()
    f = np.asarray(f, dtype=complex)
    h_star = op_norm(covariance)
    top = covariance.eigenvectors[:, np.flatnonzero(covariance.eigenvalues == h_star).tolist()]
    inside = top @ (top.conj().T @ f)
    top_overlap = float(np.linalg.norm(inside))
    stays = _member(f, inside)
    values = []
    h_values = []
    for h in h_grid:
        h_values.append(float(h))
        values.append(nonregular_extension(covariance, h).value(f))
    return TraceLimitReport(
        h_values=tuple(h_values),
        values=tuple(values),
        top_overlap=top_overlap,
        stays_in_top_eigenspace=stays,
    )
