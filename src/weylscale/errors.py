"""Exception types shared across the workbench."""


class WeylscaleError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteEntries(WeylscaleError):
    """Matrix input holds NaN or infinite entries."""


class NonHermitian(WeylscaleError):
    """Matrix input violates conjugate symmetry beyond tolerance."""


class NonPositiveAtom(WeylscaleError):
    """Spectral atom with a non-positive eigenvalue."""


class DomainViolation(WeylscaleError):
    """Scalar map is singular or undefined at a spectral point."""


class DimensionMismatch(WeylscaleError):
    """Vectors, operators or words over incompatible spaces."""


class SpectralVariantHasNoVectors(WeylscaleError):
    """Vector-level computation requested on a symbolic spectral operator."""


class SpectrumBelowOne(WeylscaleError):
    """Operation requires spectrum >= 1."""


class NonPositiveScale(WeylscaleError):
    """Scaling parameter must be strictly positive."""


class CovarianceBelowIdentity(SpectrumBelowOne):
    """Covariance operator fails A >= I, so the Gaussian functional is not a state."""


class OutOfRange(WeylscaleError):
    """Scalar parameter outside its admissible interval."""


class CutoffTooSmall(WeylscaleError):
    """Fock-space truncation below the hard floor."""


class InvalidMeasure(WeylscaleError):
    """Mixture weights or support points are not a probability measure on [0, 1)."""


class NonUnitary(WeylscaleError):
    """Matrix fails U*U = I beyond tolerance."""


class NonPositiveHamiltonian(WeylscaleError):
    """One-particle Hamiltonian must have spectrum bounded below by some eps > 0."""


class NonPositiveBeta(WeylscaleError):
    """Inverse temperature must be strictly positive."""


class OutsideStrip(WeylscaleError):
    """Complex argument lies outside the closed analyticity strip."""


class ScaleOutOfRange(WeylscaleError):
    """Scaling parameter outside (1, h_star) for the restriction regime."""


class VectorOutsideSubspace(WeylscaleError):
    """Vector does not lie in the restricted subspace."""


class ModelMismatch(WeylscaleError):
    """Operators passed together do not come from the same model."""


class ConfigInvalid(WeylscaleError):
    """Experiment configuration failed validation; message names the field."""
