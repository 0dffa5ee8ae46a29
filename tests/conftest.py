import importlib.util
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

ROOT = Path(__file__).resolve().parents[1]

# Property tests draw the same examples on every run, so the suite stays
# deterministic; per-test @settings still override max_examples.
settings.register_profile("deterministic", derandomize=True, max_examples=50, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def bench_module(name: str):
    """``bench/<name>.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def first_jobs(tmp_path_factory):
    """The first job of each suite in suite-mix's seed-7 round, by suite."""
    jobs = {}
    for job in bench_module("workloads").build("suite-mix", 7, str(tmp_path_factory.mktemp("suite-mix"))):
        jobs.setdefault(job.suite, job)
    return jobs


def residual_operands(model, f, g) -> list:
    """The (P, Q, R, S) that the relation and the commutant residual of ``f, g`` take the max-norm of."""
    from weylscale import fock

    calls = []
    with mock.patch.object(fock, "_kron_difference_max", side_effect=lambda *args: calls.append(args) or 0.0):
        fock.weyl_relation_residual(model, f, g)
        fock.commutant_residual(model, f, g)
    return calls


def random_vector(rng, dim):
    return (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2)


def random_covariance(rng, dim, low=1.0, high=3.0):
    """Random Hermitian matrix with spectrum inside [low, high]."""
    from weylscale import OperatorSpec

    gaussian = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(gaussian)
    values = rng.uniform(low, high, dim)
    return OperatorSpec.from_matrix(q @ np.diag(values).astype(complex) @ q.conj().T)


def random_word(rng, dim, max_generators=3):
    from weylscale import WeylWord

    word = WeylWord(dim)
    for _ in range(int(rng.integers(1, max_generators + 1))):
        coeff = complex(rng.standard_normal() + 1j * rng.standard_normal())
        word = word + WeylWord.generator(random_vector(rng, dim), coeff)
    return word


def words_close(u, v, tol, vector_tol=1e-9):
    """Word comparison matching generator vectors up to rounding noise.

    Unlike key-exact word_distance this tolerates generators whose vectors
    land one ulp apart across a canonicalization grid boundary.
    """
    if len(u) != len(v):
        return False
    remaining = list(v.items())
    for vec, coeff in u.items():
        for index, (other_vec, other_coeff) in enumerate(remaining):
            if (
                np.linalg.norm(vec - other_vec) <= vector_tol
                and abs(coeff - other_coeff) <= tol
            ):
                remaining.pop(index)
                break
        else:
            return False
    return True
