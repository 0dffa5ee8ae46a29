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
from dataclasses import dataclass

import numpy as np

from .errors import (
    ModelMismatch,
    OutOfRange,
    ScaleOutOfRange,
    VectorOutsideSubspace,
)
from .kms import (
    KmsWitnessReport,
    _boundary_report,
    _two_route,
    covariance_from_hamiltonian,
    modular_operator,
)
from .spectral import (
    ATOM_MERGE_TOL,
    Interval,
    OperatorSpec,
    ProjectionSpec,
    apply_function,
    inf_spectrum,
    op_norm,
    spectral_distance,
    spectral_projection,
)
from .states import StateFunctional, TraceState, evaluate_state
from .weyl import weyl_multiply

#: Distance from the projected subspace below which a vector counts as a member.
SUBSPACE_TOL = 1e-12


def lambda_star(h: float, beta: float) -> float:
    """Top of the restricted modular spectrum: ((h+1)/(h-1))^{1/beta}."""
    if beta <= 0:
        raise OutOfRange(f"inverse temperature {beta} must be positive")
    if h < 1 + 1e-9:
        raise OutOfRange(f"scale parameter {h} too close to the pole at 1")
    return ((h + 1.0) / (h - 1.0)) ** (1.0 / beta)


@dataclass(frozen=True)
class RestrictedModel:
    """Covariance compressed to the spectral subspace that survives scale h."""

    covariance: OperatorSpec
    h: float
    h_star: float
    projection: ProjectionSpec
    restricted_covariance: OperatorSpec  # A^(h) on the compressed basis
    rescaled_covariance: OperatorSpec  # A^(h) / h
    beta: float | None = None
    lam_star: float | None = None
    restricted_modular: OperatorSpec | None = None  # Delta^(h)
    rescaled_restricted_modular: OperatorSpec | None = None  # Delta_h^(h)
    two_route_residual: float | None = None

    @property
    def subspace_dimension(self) -> float:
        return self.projection.dimension

    def membership_residual(self, f) -> float:
        return self.projection.residual(f)

    def contains(self, f, tol: float = SUBSPACE_TOL) -> bool:
        return self.membership_residual(f) <= tol

    def compress(self, f) -> np.ndarray:
        """Coordinates of a subspace vector in the compressed eigenbasis."""
        return self.projection.basis().conj().T @ np.asarray(f, dtype=complex)


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
    if not 1 < h < h_star:
        raise ScaleOutOfRange(f"scale parameter {h} outside (1, {h_star})")
    projection = spectral_projection(covariance, Interval(h, h_star, False, True))
    if covariance.is_matrix:
        values = [float(covariance.eigenvalues[i]) for i in projection.selected_indices]
        restricted = OperatorSpec.from_matrix(np.diag(values))
    else:
        restricted = OperatorSpec.from_atoms(
            [(a.value, a.multiplicity) for a in projection.selected_atoms]
        )
    rescaled = apply_function(restricted, lambda lam: lam / h)
    if inf_spectrum(rescaled) < 1 - 1e-12:
        raise ModelMismatch(
            f"compressed covariance over h has bottom {inf_spectrum(rescaled)} < 1"
        )
    lam_star = restricted_mod = rescaled_mod = residual = None
    if beta is not None:
        if inf_spectrum(rescaled) - 1.0 <= ATOM_MERGE_TOL:
            raise ScaleOutOfRange(
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
        h_star=float(h_star),
        projection=projection,
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
    shared spectral atoms.  Above h_star both selections are empty and the
    check holds vacuously.
    """
    rebuilt = covariance_from_hamiltonian(hamiltonian, beta)
    if spectral_distance(rebuilt, covariance) > 1e-10:
        raise ModelMismatch("covariance does not match the hamiltonian at this beta")
    h_star = op_norm(rebuilt)
    cov_interval = Interval(h, h_star, False, True)
    e_eps = math.exp(inf_spectrum(hamiltonian))
    if h > 1:
        lam_upper = lambda_star(h, beta)
    else:
        lam_upper = math.inf
    delta_interval = Interval(e_eps, lam_upper, True, False)
    delta = apply_function(hamiltonian, math.exp)
    cov_atoms = [a.value for a in rebuilt.atoms]
    delta_atoms = sorted((a.value for a in delta.atoms), reverse=True)
    # covariance atoms ascend while modular atoms descend under the shared
    # ordering of hamiltonian atoms, so pair them in opposite orientations
    if len(cov_atoms) != len(delta_atoms):
        raise ModelMismatch("covariance and hamiltonian have different atom counts")
    for a_value, d_value in zip(cov_atoms, delta_atoms):
        if cov_interval.contains(a_value) != delta_interval.contains(d_value):
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
    the subspace, up to ``SUBSPACE_TOL`` relative to their norm (the round-off
    of a projection grows with the vector).
    """
    if model.beta is None or model.restricted_modular is None:
        raise ModelMismatch("restricted model carries no modular data; rebuild with beta")
    for name, vec in (("f", f), ("g", g)):
        residual = model.membership_residual(vec)
        if residual > SUBSPACE_TOL * max(1.0, float(np.linalg.norm(vec))):
            raise VectorOutsideSubspace(
                f"vector {name} has projection residual {residual:.3e}"
            )
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
    decided by an exact projection-residual threshold and the value off the
    subspace is exactly zero, which is what makes the extension non-regular.
    """

    tag = "restricted"

    def __init__(self, model: RestrictedModel):
        self.model = model
        self.dimension = model.covariance.require_matrix().shape[0]
        self._scaled_values = model.restricted_covariance.eigenvalues / model.h

    def value(self, f) -> complex:
        if not self.model.contains(f):
            return 0.0
        coords = self.model.compress(f)
        exponent = float(np.vdot(coords, self._scaled_values * coords).real)
        return complex(np.exp(-0.25 * exponent))


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
    top = spectral_projection(
        covariance, Interval(h_star, h_star, True, True)
    )
    inside = top.apply(f)
    top_overlap = float(np.linalg.norm(inside))
    stays = float(np.linalg.norm(f - inside)) <= SUBSPACE_TOL
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
