"""Spectral representation of positive operators and exact functional calculus.

Operators come in two variants.  A *matrix* operator is a finite Hermitian
matrix with a cached eigendecomposition and is used whenever concrete vectors
are needed.  A *spectral* operator is a sorted list of atoms (eigenvalue,
multiplicity), where the multiplicity may be the distinguished value ``INF``;
it retains statements about infinite-dimensional spectra (trace-class tests,
admissibility bounds) that only depend on spectral data.

Eigenvalues are canonicalized: values closer than ``ATOM_MERGE_TOL`` are
merged into one atom, and matrix eigenvalues are snapped to their atom
representative.  Selections by eigenvalue (the restricted subspace of
:mod:`weylscale.restriction`, the top eigenspace) therefore compare spectral
values exactly, with no endpoint tolerance.  A matrix operator's spectrum is
its snapped eigenvalue array: its bounds, its distance to another matrix
operator and the maps of functional calculus read that array.  When no two
values merged, its ``atoms`` are derived from the array on first read, and
kept, so most operators of a chain build none.  Every matrix operator is
built by :meth:`OperatorSpec.from_eigen`.  The bottom and top of any
spectrum are read only by :func:`inf_spectrum` and :func:`op_norm`.

A matrix operator holds its eigendecomposition; its dense matrix
``V diag V*`` is built the first time ``.matrix`` is read, and kept.  Most
operators of a functional-calculus chain are only read in their eigenbasis,
so most are never built.  Eigenvalue maps stay scalar (``math`` on each
value), since numpy's ``exp``, ``log`` and ``power`` may differ from
``math``'s by an ulp.

Whether a covariance dominates the identity at scale ``h`` (``A/h >= I``, and
``A >= I`` at ``h = 1``) is decided only by :func:`dominates_identity`, with an
``ATOM_MERGE_TOL`` slack relative to ``h``, and :func:`vector_pair` is the one
shape check of a vector pair against an operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainViolation,
    InvalidMatrix,
    ModelMismatch,
    OutOfRange,
    SpectrumBelowOne,
    _orderable,
)

#: Distinguished infinite multiplicity marker.
INF = math.inf

#: Atoms closer than this are merged into one spectral point.
ATOM_MERGE_TOL = 1e-12

#: Allowed conjugate-symmetry residual of matrix input, relative to its largest entry magnitude
#: above 1, so a matrix and its multiples are taken or refused alike.
HERMITICITY_TOL = 1e-12

#: Largest entry magnitude of matrix input, half the largest float: the sums
#: of ``m`` and ``m^H`` in the symmetrization and its residual stay finite.
MATRIX_ENTRY_MAX = np.finfo(float).max / 2


class Atom(NamedTuple):
    """One spectral point: a real eigenvalue with its multiplicity."""

    value: float
    multiplicity: float  # positive integer, or INF

    @property
    def infinite(self) -> bool:
        return self.multiplicity == INF


def _merge_sorted_values(values: Sequence[float], counts: Sequence[float]) -> tuple[Atom, ...]:
    """Group sorted values into atoms, merging points within ATOM_MERGE_TOL."""
    atoms: list[Atom] = []
    group: list[float] = []
    group_count = 0.0
    for value, count in zip(values, counts):
        if group and value - group[0] > ATOM_MERGE_TOL:
            atoms.append(Atom(_group_value(group), group_count))
            group, group_count = [], 0.0
        group.append(value)
        group_count += count
    if group:
        atoms.append(Atom(_group_value(group), group_count))
    return tuple(atoms)


def _dense_matrix(eigvals: np.ndarray, eigvecs: np.ndarray) -> np.ndarray:
    """Symmetrized ``V diag(eigvals) V*``, read-only."""
    matrix = (eigvecs * eigvals) @ eigvecs.conj().T
    matrix = (matrix + matrix.conj().T) / 2
    matrix.flags.writeable = False
    return matrix


def _group_value(group: list[float]) -> float:
    # a sorted group of equal floats is its first one (np.mean([0.1] * 3) is an ulp
    # above 0.1), so snapping snapped values moves none of them
    return float(group[0]) if group[0] == group[-1] else float(np.mean(group))


def _snap_eigenvalues(eigvals: np.ndarray) -> tuple[np.ndarray, tuple[Atom, ...] | None]:
    """Merge sorted matrix eigenvalues into atoms and snap each eigenvalue to
    its atom representative, so comparisons on either are exact.  The atoms are
    None when no two values merge: each value is then an atom of multiplicity 1."""
    values = eigvals.tolist()
    # the merge loop's own test (a gap past the largest float is inf, above the
    # tolerance too): every value starts a group of one, kept as it is
    if all(b - a > ATOM_MERGE_TOL for a, b in zip(values, values[1:])):
        return eigvals, None
    atoms = _merge_sorted_values(values, [1.0] * len(values))
    snapped = np.empty_like(eigvals)
    i = 0
    for atom in atoms:
        k = int(atom.multiplicity)
        snapped[i : i + k] = atom.value
        i += k
    return snapped, atoms


@dataclass(frozen=True, slots=True, eq=False)
class OperatorSpec:
    """A positive operator given by a Hermitian matrix or by spectral atoms.

    Instances are immutable; build them through :func:`make_operator` (or the
    ``from_matrix`` / ``from_atoms`` constructors) so the canonical spectral
    form is always in place.  Equality is identity, since the fields hold
    arrays.  ``_matrix`` caches the dense matrix of a matrix operator once
    :attr:`matrix` has built it, and ``_atoms`` its atoms once :attr:`atoms` has.
    """

    variant: str
    eigenvalues: np.ndarray | None
    eigenvectors: np.ndarray | None
    _atoms: tuple[Atom, ...] | None
    _matrix: np.ndarray | None = field(default=None, repr=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_matrix(cls, entries) -> "OperatorSpec":
        m = np.atleast_2d(np.asarray(entries, dtype=complex))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"matrix input must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidMatrix("matrix has NaN or infinite entries")
        with np.errstate(over="ignore"):  # a modulus past the largest float is inf, above the bound too
            largest = float(np.abs(m).max(initial=0.0))
        if largest > MATRIX_ENTRY_MAX:
            raise InvalidMatrix(
                f"matrix entry magnitude {largest:.3e} exceeds {MATRIX_ENTRY_MAX:.3e}, half the largest float"
            )
        residual = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        bound = HERMITICITY_TOL * max(1.0, largest)
        if residual > bound:
            raise InvalidMatrix(f"conjugate-symmetry residual {residual:.3e} exceeds {bound:g}")
        m = (m + m.conj().T) / 2
        return cls.from_eigen(*np.linalg.eigh(m), m)

    @classmethod
    def from_eigen(
        cls, eigvals: np.ndarray, eigvecs: np.ndarray, matrix: np.ndarray | None = None
    ) -> "OperatorSpec":
        """Matrix operator of ascending ``eigvals`` on the columns of ``eigvecs``, all frozen:
        the values snapped, and ``matrix`` kept when given; otherwise the symmetrized
        ``V diag V*`` of the snapped values is built on the first read of ``.matrix``.
        An empty spectrum raises DimensionMismatch."""
        if len(eigvals) == 0:
            raise DimensionMismatch("operator has an empty spectrum")
        snapped, atoms = _snap_eigenvalues(eigvals)
        for a in (matrix, snapped, eigvecs):
            if a is not None:
                a.flags.writeable = False
        return cls("matrix", snapped, eigvecs, atoms, _matrix=matrix)

    @classmethod
    def from_atoms(cls, pairs: Iterable[tuple[float, float]]) -> "OperatorSpec":
        """Spectral operator of one or more finite positive values with positive integer or INF
        multiplicities."""
        cleaned: list[tuple[float, float]] = []
        for value, mult in pairs:
            if not 0 < _orderable(value) < INF:
                raise OutOfRange(f"atom value {value} is not strictly positive and finite")
            value = float(value)
            if mult != INF:
                if not _orderable(mult) > 0 or mult != int(mult):
                    raise OutOfRange(f"atom multiplicity {mult} is not a positive integer")
                mult = int(mult)
            cleaned.append((value, mult))
        if not cleaned:
            raise DimensionMismatch("operator has an empty spectrum")
        cleaned.sort(key=lambda p: p[0])
        atoms = _merge_sorted_values([p[0] for p in cleaned], [p[1] for p in cleaned])
        return cls("spectral", None, None, atoms)

    # -- basic queries -----------------------------------------------------

    @property
    def is_matrix(self) -> bool:
        return self.variant == "matrix"

    @property
    def atoms(self) -> tuple[Atom, ...]:
        """The sorted spectral atoms; a matrix operator whose values did not merge
        derives them from its snapped values on first read."""
        if self._atoms is None:
            object.__setattr__(self, "_atoms", tuple(Atom(v, 1.0) for v in self.eigenvalues.tolist()))
        return self._atoms

    @property
    def matrix(self) -> np.ndarray | None:
        """The dense Hermitian matrix (None for the spectral variant), built on first read."""
        if self._matrix is None and self.is_matrix:
            object.__setattr__(self, "_matrix", _dense_matrix(self.eigenvalues, self.eigenvectors))
        return self._matrix

    @property
    def dimension(self) -> float:
        """Total dimension: matrix size, or sum of multiplicities (may be INF)."""
        if self.is_matrix:
            return self.eigenvalues.shape[0]
        return sum(a.multiplicity for a in self.atoms)

    def require_matrix(self) -> None:
        """ModelMismatch unless this is a matrix operator."""
        if not self.is_matrix:
            raise ModelMismatch("operation needs concrete eigenvectors")

    def __repr__(self) -> str:
        if self.is_matrix:
            return f"OperatorSpec(matrix {self.dimension}x{self.dimension}, spectrum {[a.value for a in self.atoms]})"
        spec = ", ".join(
            f"({a.value}, {'INF' if a.infinite else int(a.multiplicity)})" for a in self.atoms
        )
        return f"OperatorSpec(atoms [{spec}])"


def make_operator(data) -> OperatorSpec:
    """Build an operator from square matrix entries or an atom list.

    A sequence of ``(eigenvalue, multiplicity)`` tuples (or Atom instances)
    yields the spectral variant; any 2-d array-like (nested lists, ndarray)
    yields the matrix variant.  The tuple/list distinction settles inputs
    that would otherwise be ambiguous, e.g. an n x 2 real matrix.
    """
    if isinstance(data, OperatorSpec):
        return data
    if isinstance(data, (list, tuple)) and data and all(isinstance(item, tuple) for item in data):
        return OperatorSpec.from_atoms(data)
    return OperatorSpec.from_matrix(data)


def apply_function(op: OperatorSpec, fn: Callable[[float], float]) -> OperatorSpec:
    """Functional calculus: same eigenvectors/atoms, eigenvalues mapped by fn.

    Raises DomainViolation when fn is singular, undefined or non-finite at a
    spectral point.
    """

    def evaluate(x: float) -> float:
        try:
            y = fn(float(x))
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise DomainViolation(f"map undefined at spectral point {x}: {exc}") from exc
        if type(y) is float and math.isfinite(y):
            return y
        y = complex(y)
        if abs(y.imag) > 1e-12 * max(1.0, abs(y.real)):
            raise DomainViolation(f"map is not real at spectral point {x}: {y}")
        y = y.real
        if not math.isfinite(y):
            raise DomainViolation(f"map is singular at spectral point {x}")
        return y

    if op.is_matrix:
        # each value mapped once: a finite float as fn gives it, anything else
        # as the real float or the error evaluate makes of it
        values = [evaluate(v) for v in op.eigenvalues.tolist()]
        mapped = np.array(values)
        if all(a <= b for a, b in zip(values, values[1:])):
            # an order-keeping map (the stable sort's identity order) shares the
            # read-only eigenvectors
            return OperatorSpec.from_eigen(mapped, op.eigenvectors)
        order = np.argsort(mapped, kind="stable")
        return OperatorSpec.from_eigen(mapped[order], op.eigenvectors[:, order])

    mapped_pairs = sorted(
        ((evaluate(a.value), a.multiplicity) for a in op.atoms), key=lambda p: p[0]
    )
    atoms = _merge_sorted_values([p[0] for p in mapped_pairs], [p[1] for p in mapped_pairs])
    return OperatorSpec("spectral", None, None, atoms)


def inf_spectrum(op: OperatorSpec) -> float:
    """Bottom of the spectrum: the first snapped value of a matrix operator, or the first atom."""
    return float(op.eigenvalues[0]) if op.is_matrix else op.atoms[0].value


def op_norm(op: OperatorSpec) -> float:
    """Top of the spectrum: the last snapped value of a matrix operator, or the last atom."""
    return float(op.eigenvalues[-1]) if op.is_matrix else op.atoms[-1].value


def dominates_identity(op: OperatorSpec, h: float = 1.0) -> bool:
    """Whether ``op / h >= I``: the bottom of the spectrum over ``h`` is at least
    1 - ATOM_MERGE_TOL, so ``(op, h)`` and ``(c op, c h)`` get one verdict."""
    return inf_spectrum(op) / h >= 1 - ATOM_MERGE_TOL


def require_dominates_identity(op: OperatorSpec) -> float:
    """The bottom of the spectrum; SpectrumBelowOne unless dominates_identity(op)."""
    if not dominates_identity(op):
        raise SpectrumBelowOne(f"spectrum reaches {inf_spectrum(op)} < 1")
    return inf_spectrum(op)


def is_trace_class_minus_identity(op: OperatorSpec) -> bool:
    """Whether sum of multiplicity * (eigenvalue - 1) is finite.

    Requires spectrum >= 1.  Finite matrices always qualify; a spectral atom
    strictly above 1 with infinite multiplicity does not.
    """
    require_dominates_identity(op)
    if op.is_matrix:
        return True
    for atom in op.atoms:
        if atom.infinite and atom.value > 1 + ATOM_MERGE_TOL:
            return False
    return True


def vector_pair(op: OperatorSpec, f, g) -> tuple[np.ndarray, np.ndarray]:
    """f and g as flat complex vectors, checked against the matrix operator's dimension."""
    op.require_matrix()
    # reshape, not ravel: ravel copies a strided column, and a copy's products round differently
    f = np.asarray(f, dtype=complex).reshape(-1)
    g = np.asarray(g, dtype=complex).reshape(-1)
    if f.shape != (op.dimension,) or g.shape != (op.dimension,):
        raise DimensionMismatch(
            f"vectors of shape {f.shape}, {g.shape} against operator of dimension {op.dimension}"
        )
    return f, g


def quadratic_form(op: OperatorSpec, f, g) -> complex:
    """<f, op g> with the inner product conjugate-linear in the first slot."""
    f, g = vector_pair(op, f, g)
    return complex(np.vdot(f, op.matrix @ g))


def scalar_value(op: OperatorSpec) -> float:
    """The single spectral value of an operator acting as a scalar."""
    if len(op.atoms) == 1:
        return op.atoms[0].value
    raise ModelMismatch("operator with several spectral points is not a scalar")


def spectral_distance(a: OperatorSpec, b: OperatorSpec) -> float:
    """Max distance between the two canonical spectra (paired in order).

    Compares atom values and multiplicities; returns INF when the atom
    patterns are incompatible.  Two matrix operators are compared on their
    snapped values: equal patterns are equal runs of equal values, and the
    distance is the largest entrywise one, since a run holds one value.
    """
    if a.is_matrix and b.is_matrix:
        x, y = a.eigenvalues.tolist(), b.eigenvalues.tolist()
        if len(x) != len(y) or any((p == q) != (r == s) for p, q, r, s in zip(x, x[1:], y, y[1:])):
            return INF
        return max([0.0] + [abs(p - r) for p, r in zip(x, y)])
    if len(a.atoms) != len(b.atoms):
        return INF
    dist = 0.0
    for x, y in zip(a.atoms, b.atoms):
        if x.multiplicity != y.multiplicity:
            return INF
        dist = max(dist, abs(x.value - y.value))
    return dist
