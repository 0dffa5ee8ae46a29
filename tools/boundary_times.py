"""Median time of one KMS boundary report on the periodic chain, per dimension.

Usage: python3 tools/boundary_times.py N [N ...]

For each N the chain Hamiltonian ``H = (m^2 + 2) I - S - S*`` on C^N (``S`` the
cyclic shift, ``m^2 = 0.25``) is built at ``beta = 1`` from its closed-form
eigenbasis, the discrete Fourier modes with energies ``m^2 + 2 - 2 cos(2 pi k/N)``,
through ``OperatorSpec.from_eigen``: no ``eigh``.  One ``kms_boundary_residuals``
report of two fixed random vectors on the default time grid is run as a warm-up,
then ``REPEATS`` more are timed, and the median is printed in milliseconds.
The program runs from the ``src/`` of the checkout this file is in, with
single-threaded BLAS.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

#: Timed reports per dimension; the printed time is their median.
REPEATS = 21

MASS_SQUARED = 0.25
BETA = 1.0


def chain_model(n: int):
    """The equilibrium model of the periodic chain on C^n at ``BETA``."""
    import numpy as np
    from weylscale.kms import kms_model
    from weylscale.spectral import OperatorSpec

    k = np.arange(n)
    energies = MASS_SQUARED + 2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)
    order = np.argsort(energies, kind="stable")
    modes = np.exp(2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return kms_model(OperatorSpec.from_eigen(energies[order], modes[:, order]), BETA)


def report_seconds(n: int, repeats: int = REPEATS) -> float:
    """Median wall seconds of one boundary report on the chain of dimension n."""
    import numpy as np
    from weylscale.kms import kms_boundary_residuals

    model = chain_model(n)
    rng = np.random.default_rng(n)
    f, g = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    kms_boundary_residuals(model, f, g)
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        kms_boundary_residuals(model, f, g)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def main(argv: list, repeats: int = REPEATS) -> int:
    if not argv:
        raise SystemExit(__doc__.split("\n\n")[1])
    sizes = [int(arg) for arg in argv]
    # before numpy loads: single-threaded BLAS, as the benchmark runs the program
    os.environ.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(f"{'n':>6}  {'ms':>9}")
    for n in sizes:
        print(f"{n:>6}  {1e3 * report_seconds(n, repeats):9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
