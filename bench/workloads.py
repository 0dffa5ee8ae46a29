"""Input generator: one seeded job list per workload, written as YAML configs.

Every job is one CLI suite run on one config file.  The sizes of a workload
are fixed and the seed moves only values (spectra, rotations, vectors,
norms, scales and, except on gns-oracle, job order), so the work a round
does is the same for every seed.  Scales are placed in spectral gaps chosen
here, never next to an eigenvalue, so no seeded cell sits on a regime
boundary.  The one job that does not depend on the seed is the known
restricted-path fault of kms-verify (see ``known_fault_job``).

This module imports numpy only; the program under test receives nothing but
the files written here.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("gns-oracle", "spectral-scan", "suite-mix")


@dataclass
class Job:
    """One CLI invocation plus the generator's own record of its inputs."""

    name: str
    suite: str
    config: str
    out: str
    spec: dict = field(default_factory=dict)
    known_fault: bool = False

    def argv(self) -> list:
        return [self.suite, "--config", self.config, "--out", self.out]


# ---------------------------------------------------------------------------
# YAML emission: block mappings, flow lists, numbers printed to round-trip.


def _scalar(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    real, imag = repr(value.real), repr(value.imag)
    return f'"{real}{"" if imag.startswith("-") else "+"}{imag}j"'


def _flow(value) -> str:
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_flow(item) for item in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_flow(v)}" for k, v in value.items()) + "}"
    return _scalar(value)


def _block(mapping: dict, indent: int = 0) -> list:
    lines = []
    pad = " " * indent
    for key, value in mapping.items():
        if isinstance(value, dict) and value and any(
            isinstance(v, (dict, list, np.ndarray)) for v in value.values()
        ):
            lines.append(f"{pad}{key}:")
            lines.extend(_block(value, indent + 2))
        elif key == "matrix":
            lines.append(f"{pad}{key}:")
            lines.extend(f"{pad}  - {_flow(row)}" for row in value)
        else:
            lines.append(f"{pad}{key}: {_flow(value)}")
    return lines


def write_config(path: str, document: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(_block(document)) + "\n")


# ---------------------------------------------------------------------------
# Spectral building blocks.


def hamiltonian_for_covariance(cov_values: np.ndarray, beta: float) -> np.ndarray:
    """One-particle energies whose equilibrium covariance coth(beta e / 2) is cov_values."""
    return np.log((cov_values + 1.0) / (cov_values - 1.0)) / beta


def block_rotated(values: np.ndarray, rng: np.random.Generator, block: int) -> np.ndarray:
    """Real symmetric matrix with the given spectrum, mixed inside diagonal blocks.

    Block-diagonal mixing keeps most entries at an exact zero, which keeps the
    YAML short, while the program still needs a full eigendecomposition.
    """
    n = len(values)
    values = rng.permutation(values)
    matrix = np.zeros((n, n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        q, _ = np.linalg.qr(rng.standard_normal((stop - start, stop - start)))
        matrix[start:stop, start:stop] = q @ np.diag(values[start:stop]) @ q.T
    return (matrix + matrix.T) / 2


def dense_hermitian(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = len(values)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    matrix = q @ np.diag(values) @ q.conj().T
    return (matrix + matrix.conj().T) / 2


def gapped_values(
    rng: np.random.Generator, n: int, low: float, high: float, scales, below: float, above: float
) -> np.ndarray:
    """n values in [low, high], none within (h / below, h * above) of any scale h.

    Each gap-free piece gets a fixed count of values, in proportion to its
    width, so the restricted subspace at each scale has the same dimension
    on every seed and so does the work done on it.  The top value is pinned
    just under ``high``, which keeps h_star steady.
    """
    edges = [low]
    for h in sorted(scales):
        edges.extend([h / below, h * above])
    edges.append(high)
    pieces = [(edges[i], edges[i + 1]) for i in range(0, len(edges), 2)]
    widths = np.array([b - a for a, b in pieces])
    counts = np.floor((n - 1) * widths / widths.sum()).astype(int)
    counts[-1] += n - 1 - counts.sum()
    values = [rng.uniform(a, b, count) for (a, b), count in zip(pieces, counts)]
    values.append([high - 0.02 * rng.uniform()])
    return np.sort(np.concatenate(values))


def complex_vectors(rng: np.random.Generator, count: int, dim: int, scale: float) -> np.ndarray:
    return scale * (rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))) / math.sqrt(2)


# ---------------------------------------------------------------------------
# Job makers.  Each writes one config and returns the Job.


def _job(workdir: str, name: str, suite: str, document: dict, spec: dict, known_fault=False) -> Job:
    config = os.path.join(workdir, name + ".yaml")
    write_config(config, document)
    return Job(name, suite, config, os.path.join(workdir, name + ".out"), spec, known_fault)


def positivity_job(workdir, name, rng, n, vectors, h_factors) -> Job:
    h_max = rng.uniform(1.5, 2.5)
    values = np.sort(np.concatenate([[h_max], h_max * rng.uniform(1.05, 3.0, n - 1)]))
    covariance = dense_hermitian(values, rng)
    vecs = complex_vectors(rng, vectors, n, 0.7 / math.sqrt(n))
    h_values = [float(h_max * f) for f in h_factors]
    document = {
        "operator": {"matrix": covariance.tolist()},
        "vectors": {"explicit": vecs.tolist()},
        "h_values": h_values,
    }
    spec = {"covariance": covariance, "vectors": vecs, "h_values": h_values}
    return _job(workdir, name, "positivity-scan", document, spec)


def kms_job(workdir, name, rng, n, block, t_count, cov_high, h_rescaled, h_restricted) -> Job:
    beta = float(rng.uniform(0.9, 1.1))
    cov = gapped_values(rng, n, 1.05, cov_high, [h_restricted], 1.25, 1.6)
    hamiltonian = block_rotated(hamiltonian_for_covariance(cov, beta), rng, block)
    h_values = [float(h_rescaled), 1.0, float(h_restricted)]
    document = {
        "operator": {"kms": {"beta": beta, "matrix": hamiltonian.tolist()}},
        "vectors": {"random": {"count": 1, "seed": int(rng.integers(1 << 30))}},
        "h_values": h_values,
        "t_grid": {"start": -5.0, "stop": 5.0, "count": t_count},
    }
    spec = {"hamiltonian": hamiltonian, "beta": beta, "h_values": h_values, "pairs": 1}
    return _job(workdir, name, "kms-verify", document, spec)


def known_fault_job(workdir) -> Job:
    """kms-verify on H = diag(linspace(0.5, 3, 128)), beta = 1, h = 1.5.

    The covariance has an eigenvalue just above h, so the restricted modular
    values reach ~676 and round-off puts the absolute two-route residual
    (~3e-11) past the absolute 1e-12 tolerance.  The inputs are fixed, so the
    job fails the same way in every run and on every seed.
    """
    hamiltonian = np.diag(np.linspace(0.5, 3.0, 128))
    document = {
        "operator": {"kms": {"beta": 1.0, "matrix": hamiltonian.tolist()}},
        "vectors": {"random": {"count": 1, "seed": 0}},
        "h_values": [1.5],
    }
    spec = {"hamiltonian": hamiltonian, "beta": 1.0, "h_values": [1.5], "pairs": 1}
    return _job(workdir, "kms-verify-known-fault", "kms-verify", document, spec, known_fault=True)


def restrict_job(workdir, name, rng, n, block, t_count, scales, vectors) -> Job:
    beta = float(rng.uniform(0.9, 1.1))
    cov = gapped_values(rng, n, 1.05, 4.0, scales, 1.1, 1.1)
    hamiltonian = block_rotated(hamiltonian_for_covariance(cov, beta), rng, block)
    h_values = [float(h) for h in scales]
    document = {
        "operator": {"kms": {"beta": beta, "matrix": hamiltonian.tolist()}},
        "vectors": {"random": {"count": vectors, "seed": int(rng.integers(1 << 30))}},
        "h_values": h_values,
        "t_grid": {"start": -5.0, "stop": 5.0, "count": t_count},
    }
    spec = {"hamiltonian": hamiltonian, "beta": beta, "h_values": h_values}
    return _job(workdir, name, "restrict-scan", document, spec)


def gns_job(workdir, name, rng, cutoff, vectors, max_norm) -> Job:
    """One-mode GNS check.  With A <= 2 and vector norms up to max_norm the
    truncation error stays at least 80 times below the 1e-5 tolerance at the
    cutoffs used here (checked at the worst corner of that range)."""
    a = float(rng.uniform(1.2, 2.0))
    norms = rng.uniform(0.5 * max_norm, max_norm, vectors)
    phases = np.exp(2j * math.pi * rng.uniform(size=vectors))
    vecs = (norms * phases).reshape(vectors, 1)
    document = {
        "operator": {"matrix": [[a]]},
        "vectors": {"explicit": vecs.tolist()},
        "cutoff": cutoff,
    }
    spec = {"covariance": np.array([[a]]), "vectors": vecs, "cutoff": cutoff}
    return _job(workdir, name, "gns-check", document, spec)


def fock_job(workdir, name, rng, dim, vectors, h_values) -> Job:
    document = {
        "space": {"dimension": dim},
        "vectors": {"random": {"count": vectors, "seed": int(rng.integers(1 << 30))}},
        "h_values": [float(h) for h in h_values],
    }
    spec = {"h_values": [float(h) for h in h_values]}
    return _job(workdir, name, "rescale-fock", document, spec)


# ---------------------------------------------------------------------------
# Workloads.


def build(workload: str, seed: int, workdir: str) -> list:
    """Write the configs of one round of ``workload`` into workdir; return its jobs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(workdir, exist_ok=True)
    if workload == "gns-oracle":
        # Fixed order: the peak memory of the cutoff-40 job depends on the
        # allocator state the job before it leaves (244 MB after cutoff 34,
        # 264 MB after cutoff 24 or in a fresh process), so a seeded order
        # would make peak_rss_mb vary with the seed.
        return [gns_job(workdir, f"gns-{i}-c{c}", rng, c, 1, 0.8) for i, c in enumerate((24, 30, 32, 34, 40))]
    if workload == "spectral-scan":
        jobs = [
            positivity_job(workdir, "positivity-6", rng, 6, 160, (0.5, 0.9, 1.1, 1.6)),
            positivity_job(workdir, "positivity-8", rng, 8, 160, (0.5, 0.9, 1.1, 1.6)),
            positivity_job(workdir, "positivity-12", rng, 12, 160, (0.5, 0.9, 1.1, 1.6)),
            kms_job(workdir, "kms", rng, 128, 4, 21, 4.0, rng.uniform(0.5, 0.8), 2.0),
            known_fault_job(workdir),
            restrict_job(workdir, "restrict", rng, 64, 4, 21, (1.3, 1.8, 2.5, 3.2), 2),
        ]
        return [jobs[i] for i in rng.permutation(len(jobs))]
    if workload == "suite-mix":
        jobs = []
        for i in range(4):
            jobs.append(positivity_job(workdir, f"positivity-{i}", rng, 4, 16, (0.6, 0.95, 1.3)))
            jobs.append(kms_job(workdir, f"kms-{i}", rng, 6, 3, 9, 3.0, rng.uniform(0.5, 0.8), 1.6))
            jobs.append(gns_job(workdir, f"gns-{i}", rng, 12 + 2 * i, 2, 0.4))
            jobs.append(fock_job(workdir, f"fock-{i}", rng, 4, 3, (0.25, 0.5, 0.75, 1.0)))
            jobs.append(restrict_job(workdir, f"restrict-{i}", rng, 6, 3, 9, (1.4, 2.2), 2))
        return [jobs[i] for i in rng.permutation(len(jobs))]
    raise ValueError(f"unknown workload {workload!r}")
