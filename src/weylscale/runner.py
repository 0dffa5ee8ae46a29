"""Experiment suites: named scans over parameter grids, one report each.

Every suite resolves its inputs from an ExperimentConfig, walks the grid in
deterministic order, marks each cell with an ``ok`` verdict against the
module contracts, and returns a ReportRecord.  Random draws always come from
the configured seed, so repeated runs are byte-identical.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from .config import ExperimentConfig, _built, random_complex_vectors
from .errors import ConfigInvalid, WeylscaleError
from .fock import (
    GnsModel,
    MixtureMeasure,
    c_parameter,
    check_doubled_cap,
    commutant_residual,
    gns_expectation,
    h_of_c,
    is_quasi_equivalent_to_fock,
    one_particle_number_expectation,
    universally_invariant_functional,
    weyl_relation_residual,
)
from .kms import (
    covariance_from_hamiltonian,
    kms_boundary_residuals,
    kms_model,
    rescaled_kms_residuals,
    rescaled_modular,
)
from .report import ReportRecord
from .restriction import (
    NonRegularFunctional,
    check_trace_property,
    restricted_kms_residuals,
    restricted_model,
    spectral_correspondence_check,
    trace_state,
)
from .spectral import (
    INF,
    OperatorSpec,
    apply_function,
    dominates_identity,
    inf_spectrum,
    op_norm,
    spectral_distance,
)
from .states import (
    RescaledFockState,
    check_sigma_h_positivity,
    evaluate_state,
    h_max,
    quasi_free_functional,
    scan_for_gram_violation,
    two_point_criterion,
)
from .weyl import WeylWord


def _operator_echo(op: OperatorSpec | None) -> dict | None:
    if op is None:
        return None
    return {
        "variant": op.variant,
        "spectrum": [
            [a.value, "INF" if a.infinite else int(a.multiplicity)] for a in op.atoms
        ],
        "dimension": op.dimension,
        "entries": op.matrix,
    }


def _config_echo(config: ExperimentConfig) -> dict:
    vectors: dict | None = None
    if config.vectors_explicit is not None:
        vectors = {"explicit_count": len(config.vectors_explicit)}
    elif config.random_count is not None:
        vectors = {
            "random_count": config.random_count,
            "random_sets": config.random_sets,
            "seed": config.seed,
        }
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
    the body validates the config, appends cells and sets the summary.
    ``tolerance`` is the suite's primary tolerance.
    """

    def register(body):
        @functools.wraps(body)
        def run(config: ExperimentConfig) -> ReportRecord:
            started = time.perf_counter()
            record = ReportRecord(name, _config_echo(config))
            body(config, record)
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
    return random_complex_vectors(config.rng(), count * config.random_count, dim)


def _peak(vectors: np.ndarray) -> float:
    """The largest real or imaginary part of an entry of the vectors, at least 1."""
    return max(1.0, float(np.max(np.abs(vectors.view(float)))))


def _overflow(bound: float, peak: float) -> str | None:
    """The error of a cell whose array products could overflow, else None.

    ``bound`` is a norm ``||A||`` times the dimension; with ``peak`` the
    :func:`_peak` ``p`` of the vectors, ``2 * bound * p^2`` bounds ``||A|| ||f|| ||g||``.
    It is a Python float product, so an overflow is ``inf``, never a numpy warning.
    """
    if math.isfinite(2.0 * bound * peak * peak):
        return None
    return f"overflow: vector entries up to {peak:.3g} against a norm bound of {bound:.3g}"


def _kms_within(report, covariance: OperatorSpec, f, g, tol: float) -> bool:
    """Whether the boundary residuals of ``report`` meet ``tol`` scaled by the size
    of the values they compare.

    A boundary value is a sum of products of ``V* f``, ``V* g``, ``V* A f`` and
    ``V* A g``; with ``V`` unitary, Cauchy-Schwarz bounds the moduli of its terms by
    ``(||A|| + 1) ||f|| ||g|| <= 2 ||A|| ||f|| ||g||`` (``||A|| >= 1``), and the rounding
    of a residual between two values equal in exact arithmetic is a multiple of
    that sum.  So the bound is ``tol`` for inputs of unit size and grows with them.
    """
    size = op_norm(covariance) * float(np.linalg.norm(f)) * float(np.linalg.norm(g))
    return report.max_residual <= tol * max(1.0, size)


def _restricted_kms(cell: dict, rmodel, f, g, t_grid: np.ndarray, tol: float) -> bool:
    """Write the restricted model's KMS residual fields into ``cell``.

    ``f`` and ``g`` are projected onto the restricted subspace first.  Returns
    whether the unrescaled and the rescaled residuals both meet ``tol``, each
    scaled as in :func:`_kms_within` by its own path's covariance.
    """
    f, g = rmodel.project(f), rmodel.project(g)
    base = restricted_kms_residuals(rmodel, f, g, t_grid)
    rescaled = restricted_kms_residuals(rmodel, f, g, t_grid, rescaled=True)
    cell["max_r0"] = float(np.max(base.r0))
    cell["max_rbeta"] = float(np.max(base.r_beta))
    cell["rescaled_max_r0"] = float(np.max(rescaled.r0))
    cell["rescaled_max_rbeta"] = float(np.max(rescaled.r_beta))
    return _kms_within(base, rmodel.restricted_covariance, f, g, tol) and _kms_within(
        rescaled, rmodel.rescaled_covariance, f, g, tol
    )


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
    rows = _vectors(config, dim, config.random_sets)
    # random draws form random.sets sets of random.count; explicit vectors one set
    size = config.random_count or len(rows)
    sets = [rows[i : i + size] for i in range(0, len(rows), size)]
    peak = _peak(rows)
    phi = quasi_free_functional(covariance)
    lowest = covariance.eigenvectors[:, 0]
    gram_tol = config.tolerances["gram"]
    norm = op_norm(covariance)

    threshold = None
    first_failing = None
    witness_summary = None
    for h in config.h_values:
        # the kernel's phases scale with h, its differences of forms reach 4 G_jk
        error = _overflow(4 * dim * max(norm, h), peak)
        if error is not None:
            record.cells.append({"h": float(h), "error": error, "ok": False})
            continue
        reports = [check_sigma_h_positivity(phi, vecs, h, gram_tol) for vecs in sets]
        all_psd = all(r.verdict for r in reports)
        min_eig = min(r.min_eigenvalue for r in reports)
        check = two_point_criterion(covariance, lowest, 1j * lowest, h)
        admissible = h <= admissible_bound + 1e-12
        witness = None
        if not admissible:
            witness = scan_for_gram_violation(covariance, h)
        if admissible:
            ok = all_psd and check.verdict
        else:
            ok = (not check.verdict) and witness is not None
        cell = {
            "h": float(h),
            "regime": "admissible" if admissible else "beyond",
            "gram_all_psd": all_psd,
            "gram_min_eigenvalue": min_eig,
            "two_point_lhs": check.lhs,
            "two_point_rhs": check.rhs,
            "two_point_pass": check.verdict,
            "witness_scale": None if witness is None else witness.scale,
            "witness_min_eigenvalue": None if witness is None else witness.min_eigenvalue,
            "ok": ok,
        }
        record.cells.append(cell)
        if all_psd and check.verdict:
            threshold = float(h) if threshold is None else max(threshold, float(h))
        elif first_failing is None:
            first_failing = float(h)
            if witness is not None:
                witness_summary = {
                    "h": float(h),
                    "scale": witness.scale,
                    "min_eigenvalue": witness.min_eigenvalue,
                }
    record.summary = {
        "h_max": admissible_bound,
        "empirical_threshold": threshold,
        "first_failing_h": first_failing,
        "witness": witness_summary,
    }


# ---------------------------------------------------------------------------
# kms-verify


def _kms_scale_model(model, h: float):
    """(path, model, error) of one kms-verify scale, shared by all its pairs: the
    restricted model above 1, the base model at 1, the rescaled model below, or
    the message of the error that kept the scale's model from being built."""
    if not h > 0:
        return "invalid", None, "scale must be positive"
    if h == 1:
        return "unrescaled", model, None
    path = "restricted" if h > 1 else "rescaled"
    try:
        if h > 1:
            return path, restricted_model(model.covariance, h, beta=model.beta), None
        return path, rescaled_modular(model, h), None
    except WeylscaleError as exc:
        return path, None, str(exc)


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

    for h in config.h_values:
        path, scaled, error = _kms_scale_model(model, h)
        for index, (f, g) in enumerate(pairs):
            cell = {"h": float(h), "pair": index, "path": path}
            # every path's covariance has norm at most h_star / min(h, 1)
            pair_error = error or _overflow(dim * h_star / min(h, 1.0), _peak(pairs[index]))
            if pair_error is not None:
                cell.update({"error": pair_error, "ok": False})
            elif path == "restricted":
                within = _restricted_kms(cell, scaled, f, g, config.t_grid, tol)
                bounded = op_norm(scaled.restricted_modular) <= scaled.lam_star + 1e-12
                ok = within and scaled.two_route_residual <= two_route_tol and bounded
                cell.update(
                    {
                        "lambda_star": scaled.lam_star,
                        "modular_bounded": bounded,
                        "two_route_residual": scaled.two_route_residual,
                        "ok": ok,
                    }
                )
            else:
                if path == "unrescaled":
                    report = kms_boundary_residuals(scaled, f, g, config.t_grid)
                    covariance = scaled.covariance
                else:
                    report = rescaled_kms_residuals(scaled, f, g, config.t_grid)
                    covariance = scaled.covariance_h
                cell["max_r0"] = float(np.max(report.r0))
                cell["max_rbeta"] = float(np.max(report.r_beta))
                cell["strip_sup"] = report.strip_sup
                ok = _kms_within(report, covariance, f, g, tol)
                if path == "rescaled":
                    bottom_exact = inf_spectrum(scaled.generator_h) == scaled.delta_bottom
                    ok = ok and scaled.two_route_residual <= two_route_tol and bottom_exact
                    cell["two_route_residual"] = scaled.two_route_residual
                    cell["delta_bottom"] = scaled.delta_bottom
                    cell["delta_bottom_exact"] = bottom_exact
                cell["ok"] = ok
            record.cells.append(cell)

    exp_residual = spectral_distance(model.modular, apply_function(model.hamiltonian, math.exp))
    record.summary = {
        "epsilon": model.epsilon,
        "h_star": h_star,
        "modular_exponential_residual": exp_residual,
        "modular_exponential_ok": exp_residual <= tol,
        "max_residual": max(
            (
                cell.get(key, 0.0)
                for cell in record.cells
                for key in ("max_r0", "max_rbeta", "rescaled_max_r0", "rescaled_max_rbeta")
            ),
            default=0.0,
        ),
    }


# ---------------------------------------------------------------------------
# gns-check


@_suite("gns-check", "gns")
def run_gns_check(config: ExperimentConfig, record: ReportRecord):
    """Truncated GNS simulator against the Gaussian closed form."""
    covariance = _matrix_covariance(config)
    model = _built("operator/cutoff", GnsModel, covariance, config.cutoff)
    _built("cutoff", check_doubled_cap, model)
    phi = quasi_free_functional(covariance)
    tol = config.tolerances["gns"]
    vectors = _vectors(config, covariance.dimension, 1)
    clipped = []
    for vec in vectors:
        norm = float(np.linalg.norm(vec))
        clipped.append(vec / norm if norm > 1 else vec)

    for index, f in enumerate(clipped):
        word = WeylWord.generator(f)
        deviation = abs(gns_expectation(model, word) - evaluate_state(phi, word))
        record.cells.append(
            {
                "kind": "expectation",
                "index": index,
                "closed_form_deviation": deviation,
                "ok": deviation <= tol,
            }
        )
    pair_list = (
        [(i, (i + 1) % len(clipped)) for i in range(len(clipped))]
        if len(clipped) > 1
        else [(0, 0)]
    )
    for i, j in pair_list:
        f = clipped[i]
        g = clipped[j] if i != j else 1j * clipped[i]
        relation = weyl_relation_residual(model, f, g)
        commutant = commutant_residual(model, f, g)
        record.cells.append(
            {
                "kind": "relation",
                "index": i,
                "weyl_relation_residual": relation,
                "commutant_residual": commutant,
                "ok": relation <= tol and commutant <= tol,
            }
        )
    doubling = float(
        np.max(np.abs(model.T1 @ model.T1 - model.T2 @ model.T2 - np.eye(model.modes)))
    )
    record.summary = {
        "doubling_identity_residual": doubling,
        "doubling_identity_ok": doubling <= 1e-10,
        "max_closed_form_deviation": max(
            (c["closed_form_deviation"] for c in record.cells if c["kind"] == "expectation"),
            default=0.0,
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
        dim = config.space_dimension()
        vectors = _vectors(config, dim, 1)
    else:
        dim, vectors = 1, []
    unit = np.zeros(dim, dtype=complex)
    unit[0] = 1.0

    for h in config.h_values:
        if not 0 < h <= 1:
            record.cells.append(
                {"h": float(h), "error": "scale outside (0, 1]", "ok": False}
            )
            continue
        c = c_parameter(h)
        if c == 1.0:
            # below about 5.6e-17, (1 - h) / (1 + h) rounds to 1, outside h_of_c's [0, 1)
            record.cells.append(
                {"h": float(h), "error": "scale below float resolution: c rounds to 1", "ok": False}
            )
            continue
        spectral_cov = OperatorSpec.from_atoms([(1.0 / h, INF)])
        occupation = one_particle_number_expectation(spectral_cov, unit)
        occupation_dev = abs(occupation - (1.0 - h) / (2.0 * h))
        quasi = is_quasi_equivalent_to_fock(spectral_cov)
        quasi_expected = h == 1
        roundtrip_dev = abs(h_of_c(c) - h)
        exponent_dev = abs((1.0 + c) / (1.0 - c) - 1.0 / h)
        functional = RescaledFockState(h)
        mixture = universally_invariant_functional(MixtureMeasure(((c, 1.0),)))
        pointwise_dev = 0.0
        for vec in vectors:
            pointwise_dev = max(
                pointwise_dev, abs(functional.value(vec) - mixture.value(vec))
            )
        ok = (
            occupation_dev <= arithmetic_tol
            and quasi == quasi_expected
            and roundtrip_dev <= 1e-14
            # 1 - c cancels, so the round-off of (1+c)/(1-c) grows like eps/h^2
            and exponent_dev <= 1e-14 * h**-2
            and pointwise_dev <= pointwise_tol
        )
        record.cells.append(
            {
                "h": float(h),
                "occupation_expectation": occupation,
                "occupation_deviation": occupation_dev,
                "quasi_equivalent_to_fock": quasi,
                "c": c,
                "roundtrip_deviation": roundtrip_dev,
                "exponent_deviation": exponent_dev,
                "mixture_pointwise_deviation": pointwise_dev,
                "ok": ok,
            }
        )
    identity_flag = is_quasi_equivalent_to_fock(OperatorSpec.from_atoms([(1.0, INF)]))
    finite_rank_flag = is_quasi_equivalent_to_fock(
        OperatorSpec.from_atoms([(1.0, INF), (5.0, 3)])
    )
    record.summary = {
        "identity_quasi_equivalent": identity_flag,
        "identity_quasi_equivalent_ok": identity_flag is True,
        "finite_rank_quasi_equivalent": finite_rank_flag,
        "finite_rank_quasi_equivalent_ok": finite_rank_flag is True,
    }


# ---------------------------------------------------------------------------
# restrict-scan


def _random_word(rng: np.random.Generator, dim: int) -> WeylWord:
    count = int(rng.integers(1, 4))
    word = WeylWord(dim)
    for vec, coeff in zip(
        random_complex_vectors(rng, count, dim), random_complex_vectors(rng, count, 1)
    ):
        word = word + WeylWord.generator(vec, complex(coeff[0]))
    return word


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

    previous: tuple[float, tuple[int, ...]] | None = None
    for h in config.h_values:
        try:
            rmodel = restricted_model(
                covariance, h, beta=config.beta if has_kms else None
            )
        except WeylscaleError as exc:
            record.cells.append({"h": float(h), "error": str(exc), "ok": False})
            continue
        selection = rmodel.selected_indices
        if previous is None:
            nested = True
        else:
            # subspaces shrink as the scale grows, whichever way the grid runs
            prev_h, prev_selection = previous
            if h >= prev_h:
                nested = set(selection) <= set(prev_selection)
            else:
                nested = set(prev_selection) <= set(selection)
        previous = (float(h), selection)
        cell = {
            "h": float(h),
            "subspace_dimension": int(rmodel.subspace_dimension),
            "rescaled_bottom": inf_spectrum(rmodel.rescaled_covariance),
            "rescaled_dominates_identity": dominates_identity(rmodel.rescaled_covariance),
            "nested": nested,
        }
        checks = [cell["rescaled_dominates_identity"], nested]
        if len(selection) < dim:
            # the selection is a suffix of the eigenbasis, so column 0 is excluded
            functional = NonRegularFunctional(rmodel)
            direction = covariance.eigenvectors[:, 0]
            values = [functional.value(t * direction) for t in (0.0, 0.5, 1.0)]
            dichotomy = values[0] == 1.0 and values[1] == 0.0 and values[2] == 0.0
            cell["dichotomy_exact"] = dichotomy
            checks.append(dichotomy)
        else:
            cell["dichotomy_exact"] = None
        if has_kms:
            cell["lambda_star"] = rmodel.lam_star
            correspondence = spectral_correspondence_check(
                covariance, config.hamiltonian, config.beta, h
            )
            cell["spectral_correspondence"] = correspondence
            checks.append(correspondence)
            f, g = random_complex_vectors(rng, 2, dim)
            checks.append(_restricted_kms(cell, rmodel, f, g, config.t_grid, tol))
        cell["ok"] = all(checks)
        record.cells.append(cell)

    pairs = [
        (_random_word(rng, dim), _random_word(rng, dim))
        for _ in range(config.random_count)
    ]
    deviation = check_trace_property(trace_state(), pairs)
    record.summary = {
        "h_star": h_star,
        "trace_property_deviation": deviation,
        "trace_property_ok": deviation == 0.0,
    }
