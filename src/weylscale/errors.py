"""Exception types shared across the workbench: one class per kind of mistake."""

import math


class WeylscaleError(Exception):
    """Base class for every error raised by this package."""


class OutOfRange(WeylscaleError):
    """Scalar parameter outside its domain: a scale, inverse temperature, atom,
    Hamiltonian bottom, Fock cutoff, strip point or mixture weight, or vector
    entries so large that a cell's array products could overflow."""


class InvalidMatrix(WeylscaleError):
    """Matrix input that is not finite, not Hermitian or not unitary."""


class SpectrumBelowOne(WeylscaleError):
    """Operation requires spectrum >= 1; a covariance below the identity is not a state."""


class DomainViolation(WeylscaleError):
    """Scalar map is singular or undefined at a spectral point."""


class DimensionMismatch(WeylscaleError):
    """Vectors, operators or words over incompatible spaces, a vector outside
    the restricted subspace, an empty vector set or an empty spectrum."""


class ModelMismatch(WeylscaleError):
    """Operators passed together do not come from the same model, or a
    vector-level computation was asked of a symbolic spectral operator."""


class ConfigInvalid(WeylscaleError):
    """Experiment configuration failed validation; message names the field."""


def _orderable(value):
    """``value`` when it can be ordered against a number, else NaN (``None``, a
    string, a complex).  NaN fails every comparison, so a range check written
    ``not <in range>`` on the result rejects both."""
    try:
        value < 0  # a TypeError when value cannot be ordered
    except TypeError:
        return math.nan
    return value


def require_positive(value, what: str) -> None:
    """Raise ``OutOfRange`` unless ``value > 0``; NaN fails too, and so does a
    value that cannot be ordered against 0 (``None``, a string, a complex).

    The message formats ``value`` itself, so ``nan``, ``0`` and ``-1.0`` read as given.
    """
    if not _orderable(value) > 0:
        raise OutOfRange(f"{what} {value} must be positive")
