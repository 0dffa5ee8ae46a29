"""Experiment suites: named scans over parameter grids, one report each.

Every suite resolves its inputs from an ExperimentConfig, walks the grid in
deterministic order, builds each cell in one frame (:func:`_cell`) from named
checks against the module contracts, and returns a ReportRecord.  Random draws
always come from the configured seed, so repeated runs are byte-identical.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from .config import ExperimentConfig, _allocated, _built, random_complex_vectors
from .errors import ConfigInvalid, OutOfRange, WeylscaleError
from .fock import (
    GnsModel, MixtureMeasure, c_parameter, check_doubled_cap, commutant_residual, gns_expectation, h_of_c,
    is_quasi_equivalent_to_fock, one_particle_number_expectation, universally_invariant_functional,
    weyl_relation_residual,
)
from .kms import (
    covariance_from_hamiltonian, kms_boundary_residuals, kms_model, rescaled_kms_residuals, rescaled_modular,
)
from .report import ReportRecord
from .restriction import (
    NonRegularFunctional, _spectral_correspondence, check_trace_property, restricted_kms_residuals,
    restricted_model, trace_state,
)
from .spectral import (
    ATOM_MERGE_TOL, INF, OperatorSpec, apply_function, dominates_identity, inf_spectrum,
    op_norm, spectral_distance,
)
from .states import (
    RescaledFockState, check_sigma_h_positivity, evaluate_state, gram_factors, h_max,
    quasi_free_functional, scan_for_gram_violation, two_point_criterion,
)
from .weyl import WeylWord


def _operator_echo(op: OperatorSpec | None) -> dict | None:
    if op is None:
        return None
    return {
        "variant": op.variant,
        "spectrum": [[a.value, "INF" if a.infinite else int(a.multiplicity)] for a in op.atoms],
        "dimension": op.dimension,
        "entries": op.matrix,
    }


def _config_echo(config: ExperimentConfig) -> dict:
    vectors: dict | None = None
    if config.vectors_explicit is not None:
        vectors = {"explicit_count": len(config.vectors_explicit)}
    elif config.random_count is not None:
        vectors = {"random_count": config.random_count, "random_sets": config.random_sets, "seed": config.seed}
    return {
        "operator": _operator_echo(config.operator),
        "hamiltonian": _operator_echo(config.hamiltonian),
        "beta": config.beta,
        "vectors": vectors,
        "h_values": list(config.h_values),
        "t_grid": config.t_grid.tolist(),
        "cutoff": config.cutoff,
        "tolerances": dict(config.tolerances),
        "format": config.output_format,
    }


#: Suite name -> ``run_*`` function, in registration (CLI) order.  Each
#: function carries the body's docstring, whose first line is the CLI help,
#: and a ``tolerance`` attribute naming the tolerance that ``--tol`` sets.
SUITES: dict = {}


def _suite(name: str, tolerance: str):
    """Register a suite body under its CLI name, inside the frame all suites share.

    The frame times the run and opens the ReportRecord with the config echo;
    the body validates the config, appends cells and sets the summary.  The
    frame then adds ``summary.<key>`` to the record's violations for each
    false ``*_ok`` summary flag, after the lines of the failing cells.
    ``tolerance`` is the suite's primary tolerance.
    """

    def register(body):
        @functools.wraps(body)
        def run(config: ExperimentConfig) -> ReportRecord:
            started = time.perf_counter()
            record = ReportRecord(name, _config_echo(config))
            body(config, record)
            flags = record.summary.items()
            record.violations += [f"summary.{key}" for key, ok in flags if key.endswith("_ok") and not ok]
            record.timing_seconds = time.perf_counter() - started
            return record

        run.tolerance = tolerance
        SUITES[name] = run
        return run

    return register


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigInvalid(message)


def _matrix_covariance(config: ExperimentConfig) -> OperatorSpec:
    if config.operator is not None:
        return config.operator
    _require(config.hamiltonian is not None, "operator: required")
    return _built("operator.kms", covariance_from_hamiltonian, config.hamiltonian, config.beta)


def _vectors(config: ExperimentConfig, dim: int, count: int) -> np.ndarray:
    """The explicit vectors, or ``count`` times ``random.count`` seeded draws,
    as the rows of one complex array.

    Suites cut the rows into consecutive sets or pairs; the draws fill the
    rows in order, so those slices hold the vectors that separate draws from
    the same generator would give.
    """
    if config.vectors_explicit is not None:
        _require(config.vectors_explicit.shape[1] == dim, f"vectors.explicit: expected dimension {dim}")
        return config.vectors_explicit
    _require(config.random_count is not None, "vectors: required for this suite")
    # one vector too large to allocate is the dimension's fault, whatever the count
    _allocated("space.dimension", np.empty, (2, dim))
    return _allocated("vectors.random.count", random_complex_vectors, config.rng(), count * config.random_count, dim)


def _guard_overflow(bound: float, vectors: np.ndarray):
    """Raise OutOfRange when a cell's array products over ``vectors`` could overflow.

    ``bound`` is a norm ``||A||`` times the dimension; with ``p`` the largest real
    or imaginary part of an entry of the vectors, at least 1, ``2 * bound * p^2``
    bounds ``||A|| ||f|| ||g||``.  It is a Python float product, so an overflow is
    ``inf``, never a numpy warning.
    """
    peak = max(1.0, float(np.max(np.abs(vectors.view(float)))))
    if not math.isfinite(2.0 * bound * peak * peak):
        raise OutOfRange(f"overflow: vector entries up to {peak:.3g} against a norm bound of {bound:.3g}")


def _cell(record: ReportRecord, keys: dict, body, *args):
    """Append one grid cell to ``record``, in the frame every suite's cells share.

    ``body(*args)`` returns the cell's fields and an ordered mapping of named
    checks; the cell is ``keys``, the fields, then ``ok``: whether every check
    holds.  A ``WeylscaleError`` raised by the body, or a ``MemoryError`` (numpy
    refusing an array the cell's sizes ask for), makes the cell ``keys``, its
    ``error`` and ``ok: false``, failing the check named ``error``.  A failing
    cell adds the line ``<cell> failed: <names of its failing checks>`` to
    ``record.violations``.
    """
    try:
        fields, checks = body(*args)
    except (WeylscaleError, MemoryError) as exc:
        fields, checks = {"error": str(exc)}, {"error": False}
    failed = [name for name, passed in checks.items() if not passed]
    cell = {**keys, **fields, "ok": not failed}
    record.cells.append(cell)
    if failed:
        record.violations.append(f"{cell} failed: {', '.join(failed)}")


def _modular_exponential_within(model, residual: float, tol: float) -> bool:
    """Whether ``residual``, the spectral distance between Delta and e^H, meets
    ``tol`` scaled by the size of Delta and the conditioning of the map A -> Delta.

    An eigenvalue ``delta = ((a + 1) / (a - 1))^{1/beta}`` of Delta changes, relative
    to itself, by ``2a / (beta (a^2 - 1)) <= 2 / (beta (a - 1))`` times a relative
    change of ``a > 1``, and ``delta / (beta (a - 1))`` falls as ``a`` grows.  The
    power ``1/beta`` multiplies the relative rounding of ``(a + 1) / (a - 1)`` by
    ``1/beta`` too.  So the rounding of A moves the spectrum of Delta by a multiple of
    ``||Delta|| / (beta (a_min - 1))``, that of ``(a + 1) / (a - 1)`` by a multiple of
    ``||Delta|| / beta``, and that of the power and of e^H by a multiple of
    ``||Delta||``.  The bound is ``tol`` for a well-conditioned Delta of unit size at
    ``beta >= 1`` and grows with all three.
    """
    a_min, norm = inf_spectrum(model.covariance), op_norm(model.modular)
    return residual <= tol * max(1.0, norm * max(1.0, 1.0 / (model.beta * (a_min - 1.0)), 1.0 / model.beta))


def _restricted_kms(rmodel, f, g, t_grid: np.ndarray, tol: float):
    """The restricted model's KMS residual fields and checks, for a cell body.

    ``f`` and ``g`` are projected onto the restricted subspace first.  The
    unrescaled and the rescaled residuals must each be within ``tol``.
    """
    f, g = rmodel.project(f), rmodel.project(g)
    base = restricted_kms_residuals(rmodel, f, g, t_grid)
    rescaled = restricted_kms_residuals(rmodel, f, g, t_grid, rescaled=True)
    fields = {
        "max_r0": float(np.max(base.r0)),
        "max_rbeta": float(np.max(base.r_beta)),
        "rescaled_max_r0": float(np.max(rescaled.r0)),
        "rescaled_max_rbeta": float(np.max(rescaled.r_beta)),
    }
    checks = {
        "kms_within": base.within(tol),
        "rescaled_kms_within": rescaled.within(tol),
    }
    return fields, checks


# ---------------------------------------------------------------------------
# positivity-scan


@_suite("positivity-scan", "gram")
def run_positivity_scan(config: ExperimentConfig, record: ReportRecord):
    """Gram-kernel PSD verdicts and the two-point criterion across an h grid."""
    covariance = _matrix_covariance(config)
    _require(len(config.h_values) > 0, "h_values: required")
    for h in config.h_values:
        _require(0 < h < INF, f"h_values: scale {h} must be positive and finite")
    admissible_bound = _built("operator", h_max, covariance)
    dim = covariance.dimension
    # random draws form random.sets sets of random.count; explicit vectors one set.
    # Every kernel of the run is assembled in one buffer, allocated before any draw.
    explicit = config.vectors_explicit
    size = (config.random_count or 0) if explicit is None else len(explicit)
    where = "vectors.random.count" if explicit is None else "vectors.explicit"
    kernel = _allocated(where, np.empty, (size, size), complex)
    rows = _vectors(config, dim, config.random_sets)
    sets = [rows[i : i + size] for i in range(0, len(rows), size)]
    phi = quasi_free_functional(covariance)
    lowest = covariance.eigenvectors[:, 0]
    gram_tol = config.tolerances["gram"]
    norm = op_norm(covariance)
    # each set's scale-free kernel factors, built at the first scale past the
    # overflow guard (which bounds them at every scale that passes it); each
    # kernel in the buffer is read before the next
    factors: list = []

    def body(h):
        # the kernel's phases scale with h, its differences of forms reach 4 G_jk
        _guard_overflow(4 * dim * max(norm, h), rows)
        if not factors:
            factors[:] = [gram_factors(phi, vecs) for vecs in sets]
        reports = [check_sigma_h_positivity(phi, f, h, gram_tol, kernel) for f in factors]
        all_psd = all(r.verdict for r in reports)
        check = two_point_criterion(covariance, lowest, 1j * lowest, h)
        admissible = dominates_identity(covariance, h)
        witness = None if admissible else scan_for_gram_violation(covariance, h)
        fields = {
            "regime": "admissible" if admissible else "beyond",
            "gram_all_psd": all_psd,
            "gram_min_eigenvalue": min(r.min_eigenvalue for r in reports),
            "two_point_lhs": check.lhs,
            "two_point_rhs": check.rhs,
            "two_point_pass": check.verdict,
            "witness_scale": None if witness is None else witness.scale,
            "witness_min_eigenvalue": None if witness is None else witness.min_eigenvalue,
        }
        if admissible:
            return fields, {"gram_all_psd": all_psd, "two_point_pass": check.verdict}
        return fields, {"two_point_fails": not check.verdict, "witness_found": witness is not None}

    for h in config.h_values:
        _cell(record, {"h": float(h)}, body, h)

    # error cells hold no verdicts; a scale passes when its kernels and its two-point check do
    verdicts = [(c, c["gram_all_psd"] and c["two_point_pass"]) for c in record.cells if "regime" in c]
    first = next((cell for cell, passed in verdicts if not passed), None)
    witness = None
    if first is not None and first["witness_scale"] is not None:
        witness = {"h": first["h"], "scale": first["witness_scale"], "min_eigenvalue": first["witness_min_eigenvalue"]}
    record.summary = {
        "h_max": admissible_bound,
        "empirical_threshold": max((cell["h"] for cell, passed in verdicts if passed), default=None),
        "first_failing_h": None if first is None else first["h"],
        "witness": witness,
    }


# ---------------------------------------------------------------------------
# kms-verify


#: The boundary residual fields of kms-verify cells; error cells have none.
_RESIDUAL_KEYS = ("max_r0", "max_rbeta", "rescaled_max_r0", "rescaled_max_rbeta")


@_suite("kms-verify", "residual")
def run_kms_verify(config: ExperimentConfig, record: ReportRecord):
    """Boundary residuals of the KMS condition across scales (and regimes)."""
    _require(config.hamiltonian is not None, "operator.kms: required for kms-verify")
    model = _built("operator.kms", kms_model, config.hamiltonian, config.beta)
    _require(len(config.h_values) > 0, "h_values: required")
    dim = config.hamiltonian.dimension
    vectors = _vectors(config, dim, 2)
    _require(len(vectors) % 2 == 0, "vectors.explicit: need an even count to form pairs")
    pairs = vectors.reshape(-1, 2, dim)
    tol = config.tolerances["residual"]
    two_route_tol = config.tolerances["two_route"]
    h_star = op_norm(model.covariance)

    # one scale's pairs are consecutive cells, so the memo keeps one model; a build
    # that raises is not kept, and each pair's cell raises it again
    @functools.lru_cache(maxsize=1)
    def scaled_model(h):
        return restricted_model(model.covariance, h, beta=model.beta) if h > 1 else rescaled_modular(model, h)

    def body(h, path, pair):
        if path == "invalid":
            raise OutOfRange("scale must be positive")
        scaled = model if path == "unrescaled" else scaled_model(h)
        # every path's covariance has norm at most h_star / min(h, 1)
        _guard_overflow(dim * h_star / min(h, 1.0), pair)
        f, g = pair
        if path == "restricted":
            fields, checks = _restricted_kms(scaled, f, g, config.t_grid, tol)
            bounded = op_norm(scaled.restricted_modular) <= scaled.lam_star + 1e-12
            residual = scaled.two_route_residual
            fields.update(lambda_star=scaled.lam_star, modular_bounded=bounded, two_route_residual=residual)
            checks.update(two_route=residual <= two_route_tol, modular_bounded=bounded)
            return fields, checks
        residuals = kms_boundary_residuals if path == "unrescaled" else rescaled_kms_residuals
        report = residuals(scaled, f, g, config.t_grid)
        fields = {
            "max_r0": float(np.max(report.r0)),
            "max_rbeta": float(np.max(report.r_beta)),
            "strip_sup": report.strip_sup,
        }
        checks = {"kms_within": report.within(tol)}
        if path == "rescaled":
            residual, bottom = scaled.two_route_residual, scaled.delta_bottom
            exact = inf_spectrum(scaled.generator_h) == bottom
            fields.update(two_route_residual=residual, delta_bottom=bottom, delta_bottom_exact=exact)
            checks.update(two_route=residual <= two_route_tol, delta_bottom_exact=exact)
        return fields, checks

    for h in config.h_values:
        # the restricted model above 1, the base model at 1, the rescaled model below
        path = "invalid" if not h > 0 else "unrescaled" if h == 1 else "restricted" if h > 1 else "rescaled"
        for index, pair in enumerate(pairs):
            _cell(record, {"h": float(h), "pair": index, "path": path}, body, h, path, pair)

    exp_residual = spectral_distance(model.modular, apply_function(model.hamiltonian, math.exp))
    record.summary = {
        "epsilon": model.epsilon,
        "h_star": h_star,
        "modular_exponential_residual": exp_residual,
        "modular_exponential_ok": _modular_exponential_within(model, exp_residual, tol),
        "max_residual": max(
            (cell.get(key, 0.0) for cell in record.cells for key in _RESIDUAL_KEYS), default=0.0
        ),
    }


# ---------------------------------------------------------------------------
# gns-check


def _clipped(vec: np.ndarray) -> np.ndarray:
    """``vec`` scaled to unit length if it is longer than 1.

    A norm whose square overflows is taken again on ``vec`` divided by its
    largest real or imaginary part, so such a vector is scaled to unit
    length too; every vector of finite norm keeps the bits of ``vec / norm``.
    """
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if math.isfinite(norm):
        return vec / max(1.0, norm)
    scaled = vec / max(np.max(np.abs(vec.real)), np.max(np.abs(vec.imag)))
    return scaled / np.linalg.norm(scaled)


@_suite("gns-check", "gns")
def run_gns_check(config: ExperimentConfig, record: ReportRecord):
    """Truncated GNS simulator against the Gaussian closed form."""
    covariance = _matrix_covariance(config)
    model = _built("operator/cutoff", GnsModel, covariance, config.cutoff)
    _built("cutoff", check_doubled_cap, model)
    phi = quasi_free_functional(covariance)
    tol = config.tolerances["gns"]
    clipped = [_clipped(vec) for vec in _vectors(config, covariance.dimension, 1)]

    def expectation(f):
        word = WeylWord.generator(f)
        deviation = abs(gns_expectation(model, word) - evaluate_state(phi, word))
        return {"closed_form_deviation": deviation}, {"closed_form": deviation <= tol}

    def relation(f, g):
        relation = weyl_relation_residual(model, f, g)
        commutant = commutant_residual(model, f, g)
        fields = {"weyl_relation_residual": relation, "commutant_residual": commutant}
        return fields, {"weyl_relation": relation <= tol, "commutant": commutant <= tol}

    for index, f in enumerate(clipped):
        _cell(record, {"kind": "expectation", "index": index}, expectation, f)
    for index, f in enumerate(clipped):
        # each vector against the next, a single vector against i times itself
        g = clipped[(index + 1) % len(clipped)] if len(clipped) > 1 else 1j * f
        _cell(record, {"kind": "relation", "index": index}, relation, f, g)
    # T1^2 and T2^2 hold entries of size about ||A|| / 2, so their difference rounds at a multiple of ||A||
    doubling = float(np.max(np.abs(model.T1 @ model.T1 - model.T2 @ model.T2 - np.eye(model.modes))))
    record.summary = {
        "doubling_identity_residual": doubling,
        "doubling_identity_ok": doubling <= 1e-10 * max(1.0, op_norm(covariance)),
        "max_closed_form_deviation": max(
            (c.get("closed_form_deviation", 0.0) for c in record.cells), default=0.0
        ),
    }


# ---------------------------------------------------------------------------
# rescale-fock


@_suite("rescale-fock", "pointwise")
def run_rescale_fock(config: ExperimentConfig, record: ReportRecord):
    """Rescaled Fock family: occupation expectation, quasi-equivalence, mixture match."""
    _require(len(config.h_values) > 0, "h_values: required")
    arithmetic_tol = config.tolerances["arithmetic"]
    pointwise_tol = config.tolerances["pointwise"]
    if config.random_count or config.vectors_explicit is not None:
        vectors = _vectors(config, config.space_dimension(), 1)
    else:
        vectors = []
    # the occupation of (1/h) I reads only ||unit||^2 = 1, so one entry stands for any dimension
    unit = np.ones(1, dtype=complex)

    def body(h):
        if not 0 < h <= 1:
            raise OutOfRange("scale outside (0, 1]")
        c = c_parameter(h)
        if c == 1.0:
            # below about 5.6e-17, (1 - h) / (1 + h) rounds to 1, outside h_of_c's [0, 1)
            raise OutOfRange("scale below float resolution: c rounds to 1")
        if h < 1 and 1.0 / h <= 1 + ATOM_MERGE_TOL:
            # a spectral atom that close to 1 counts as 1, so (1/h) I would read as I
            raise OutOfRange("scale just below 1: 1/h is not resolved from 1 at ATOM_MERGE_TOL")
        spectral_cov = OperatorSpec.from_atoms([(1.0 / h, INF)])
        occupation = one_particle_number_expectation(spectral_cov, unit)
        occupation_dev = abs(occupation - (1.0 - h) / (2.0 * h))
        quasi = is_quasi_equivalent_to_fock(spectral_cov)
        roundtrip_dev = abs(h_of_c(c) - h)
        exponent_dev = abs((1.0 + c) / (1.0 - c) - 1.0 / h)
        functional = RescaledFockState(h)
        mixture = universally_invariant_functional(MixtureMeasure(((c, 1.0),)))
        pointwise_dev = 0.0
        for vec in vectors:
            pointwise_dev = max(pointwise_dev, abs(functional.value(vec) - mixture.value(vec)))
        fields = {
            "occupation_expectation": occupation,
            "occupation_deviation": occupation_dev,
            "quasi_equivalent_to_fock": quasi,
            "c": c,
            "roundtrip_deviation": roundtrip_dev,
            "exponent_deviation": exponent_dev,
            "mixture_pointwise_deviation": pointwise_dev,
        }
        checks = {
            "occupation": occupation_dev <= arithmetic_tol * max(1.0, occupation),
            "quasi_equivalence": quasi == (h == 1),
            "roundtrip": roundtrip_dev <= 1e-14,
            # 1 - c cancels, so the round-off of (1+c)/(1-c) grows like eps/h^2
            "exponent": exponent_dev <= 1e-14 * h**-2,
            "mixture_pointwise": pointwise_dev <= pointwise_tol,
        }
        return fields, checks

    for h in config.h_values:
        _cell(record, {"h": float(h)}, body, h)
    identity_flag = is_quasi_equivalent_to_fock(OperatorSpec.from_atoms([(1.0, INF)]))
    finite_rank_flag = is_quasi_equivalent_to_fock(OperatorSpec.from_atoms([(1.0, INF), (5.0, 3)]))
    record.summary = {
        "identity_quasi_equivalent": identity_flag,
        "identity_quasi_equivalent_ok": identity_flag is True,
        "finite_rank_quasi_equivalent": finite_rank_flag,
        "finite_rank_quasi_equivalent_ok": finite_rank_flag is True,
    }


# ---------------------------------------------------------------------------
# restrict-scan


def _random_word(rng: np.random.Generator, dim: int) -> WeylWord:
    """A word of one to three generators, each vector and coefficient a complex Gaussian draw."""
    count = int(rng.integers(1, 4))
    vectors = random_complex_vectors(rng, count, dim)
    return WeylWord(dim, zip(vectors, random_complex_vectors(rng, count, 1)[:, 0]))


@_suite("restrict-scan", "residual")
def run_restrict_scan(config: ExperimentConfig, record: ReportRecord):
    """Spectral restriction across (1, h_star): subspaces, residuals, trace limit."""
    covariance = _matrix_covariance(config)
    _require(len(config.h_values) > 0, "h_values: required")
    _require(config.random_count is not None, "vectors.random: required for this suite")
    rng = config.rng()
    dim = covariance.dimension
    tol = config.tolerances["residual"]
    h_star = op_norm(covariance)
    has_kms = config.hamiltonian is not None
    # the scale and selection of the last scale whose model was built
    previous: tuple[float, tuple[int, ...]] | None = None

    def body(h):
        nonlocal previous
        rmodel = restricted_model(covariance, h, beta=config.beta if has_kms else None)
        selection = rmodel.selected_indices
        # subspaces shrink as the scale grows, whichever way the grid runs
        if previous is None:
            nested = True
        else:
            larger, smaller = (previous[1], selection) if h >= previous[0] else (selection, previous[1])
            nested = set(smaller) <= set(larger)
        previous = (float(h), selection)
        fields = {
            "subspace_dimension": int(rmodel.subspace_dimension),
            "rescaled_bottom": inf_spectrum(rmodel.rescaled_covariance),
            "rescaled_dominates_identity": dominates_identity(rmodel.rescaled_covariance),
            "nested": nested,
            "dichotomy_exact": None,
        }
        checks = {"rescaled_dominates_identity": fields["rescaled_dominates_identity"], "nested": nested}
        if len(selection) < dim:
            # the selection is a suffix of the eigenbasis, so column 0 is excluded
            functional = NonRegularFunctional(rmodel)
            direction = covariance.eigenvectors[:, 0]
            values = [functional.value(t * direction) for t in (0.0, 0.5, 1.0)]
            dichotomy = values[0] == 1.0 and values[1] == 0.0 and values[2] == 0.0
            fields["dichotomy_exact"] = dichotomy
            checks["dichotomy_exact"] = dichotomy
        if has_kms:
            # the covariance is built from this Hamiltonian and beta, so only the
            # atom-by-atom comparison of spectral_correspondence_check is left
            correspondence = _spectral_correspondence(config.hamiltonian, config.beta, h)
            fields["lambda_star"] = rmodel.lam_star
            fields["spectral_correspondence"] = correspondence
            checks["spectral_correspondence"] = correspondence
            f, g = random_complex_vectors(rng, 2, dim)
            kms_fields, kms_checks = _restricted_kms(rmodel, f, g, config.t_grid, tol)
            fields.update(kms_fields)
            checks.update(kms_checks)
        return fields, checks

    for h in config.h_values:
        _cell(record, {"h": float(h)}, body, h)

    pairs = [(_random_word(rng, dim), _random_word(rng, dim)) for _ in range(config.random_count)]
    deviation = check_trace_property(trace_state(), pairs)
    record.summary = {
        "h_star": h_star,
        "trace_property_deviation": deviation,
        "trace_property_ok": deviation == 0.0,
    }
