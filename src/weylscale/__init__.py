"""Computational workbench for Weyl (CCR) algebras under Planck-constant rescaling.

States on the algebra are handled through their generating functionals;
positivity at a given scale parameter is decided by finite Gram kernels,
admissibility bounds come from the covariance spectrum, equilibrium states
carry a full modular calculus, scales beyond the admissible bound are handled
by spectral restriction, and every closed form can be cross-validated against
a truncated Fock-space simulator of the doubled (GNS) representation.
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    DomainViolation,
    InvalidMatrix,
    ModelMismatch,
    OutOfRange,
    SpectrumBelowOne,
    WeylscaleError,
)
from .spectral import (
    INF,
    Atom,
    OperatorSpec,
    apply_function,
    inf_spectrum,
    is_trace_class_minus_identity,
    make_operator,
    op_norm,
    quadratic_form,
    spectral_distance,
)
from .weyl import (
    WeylWord,
    gamma_iso,
    inner,
    sigma,
    weyl_adjoint,
    weyl_multiply,
    word_distance,
)
from .states import (
    GramFactors,
    GramReport,
    GramViolationWitness,
    QuasiFreeState,
    RescaledFockState,
    StateFunctional,
    TraceState,
    check_sigma_h_positivity,
    evaluate_state,
    gram_factors,
    gram_matrix,
    h_max,
    quasi_free_functional,
    rescale_functional,
    scan_for_gram_violation,
    two_point_criterion,
)
from .fock import (
    GnsModel,
    MixtureMeasure,
    MixtureState,
    c_parameter,
    commutant_residual,
    gns_expectation,
    h_of_c,
    is_quasi_equivalent_to_fock,
    one_particle_number_expectation,
    universally_invariant_functional,
    weyl_relation_residual,
)
from .kms import (
    KmsModel,
    KmsWitnessReport,
    RescaledKmsModel,
    TwoPointReport,
    F_function,
    Phi_function,
    covariance_from_hamiltonian,
    default_time_grid,
    j_h_function,
    kms_boundary_residuals,
    kms_model,
    modular_operator,
    rescaled_kms_residuals,
    rescaled_modular,
    time_evolution,
    two_point_function,
)
from .restriction import (
    NonRegularFunctional,
    RestrictedModel,
    TraceLimitReport,
    check_trace_property,
    lambda_star,
    limit_to_trace_state,
    nonregular_extension,
    restricted_kms_residuals,
    restricted_model,
    spectral_correspondence_check,
    trace_state,
)

# the imports above also bind the submodules here, and those are not API
__all__ = sorted(n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _ModuleType))

__version__ = "0.1.0"
