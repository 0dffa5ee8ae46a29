"""Median time of the GNS max-norm with and without its row bound, per side.

Usage: python3 tools/kron_times.py SIDE [SIDE ...]

For each SIDE the operands are those of one gns-check relation cell as the
benchmark's gns configs draw them: one mode at cutoff ``2 (SIDE - 1)``, whose
reliable block has SIDE occupation numbers, a covariance drawn from
[1.2, 2.0], a vector ``f`` of norm in [0.4, 0.8] at a random phase, and
``g = i f``.  The four operands that ``weyl_relation_residual`` and
``commutant_residual`` pass to ``fock._kron_difference_max`` are recorded;
then, for each residual, one call of ``_kron_difference_max`` (rows skipped by
their bound) and one of ``_full_kron_difference_max`` (every block) are run as
a warm-up and ``REPEATS`` more of each are timed, interleaved.  One line per
residual gives both medians in microseconds, the share of the ``SIDE^4``
entries that ``_kron_difference_max`` evaluated, and whether the two results
are the same float.  The program runs from the ``src/`` of the checkout this
file is in, with single-threaded BLAS.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

#: Timed calls per residual and per evaluation; the printed times are their medians.
REPEATS = 41


def operands(side: int) -> dict:
    """The operands of the relation and the commutant residual of one cell at ``side``."""
    import numpy as np
    from weylscale import fock
    from weylscale.spectral import OperatorSpec

    rng = np.random.default_rng(side)
    model = fock.GnsModel(OperatorSpec.from_matrix([[rng.uniform(1.2, 2.0)]]), cutoff=2 * (side - 1))
    f = np.array([rng.uniform(0.4, 0.8) * np.exp(2j * math.pi * rng.uniform())])
    recorded, original = [], fock._kron_difference_max
    fock._kron_difference_max = lambda *args: recorded.append(args) or original(*args)
    try:
        fock.weyl_relation_residual(model, f, 1j * f)
        fock.commutant_residual(model, f, 1j * f)
    finally:
        fock._kron_difference_max = original
    return dict(zip(("relation", "commutant"), recorded))


def evaluated_share(args) -> float:
    """Share of the entries of ``P (x) Q - R (x) S`` that _kron_difference_max evaluates."""
    from weylscale import fock

    entries, original = [], fock._block_max
    fock._block_max = lambda p, q, r, s: entries.append(p.size * q.size) or original(p, q, r, s)
    try:
        fock._kron_difference_max(*args)
    finally:
        fock._block_max = original
    return sum(entries) / (args[0].size * args[1].size)


def measure(side: int, repeats: int = REPEATS) -> list:
    """(residual, bounded seconds, full seconds, evaluated share, equal) per residual at ``side``."""
    from weylscale import fock

    rows = []
    for name, args in operands(side).items():
        times = {fock._kron_difference_max: [], fock._full_kron_difference_max: []}
        results = {evaluate: evaluate(*args) for evaluate in times}
        for _ in range(repeats):
            for evaluate, samples in times.items():
                started = time.perf_counter()
                evaluate(*args)
                samples.append(time.perf_counter() - started)
        bounded, full = (statistics.median(samples) for samples in times.values())
        equal = len(set(results.values())) == 1
        rows.append((name, bounded, full, evaluated_share(args), equal))
    return rows


def main(argv: list, repeats: int = REPEATS) -> int:
    if not argv:
        raise SystemExit(__doc__.split("\n\n")[1])
    sides = [int(arg) for arg in argv]
    # before numpy loads: single-threaded BLAS, as the benchmark runs the program
    os.environ.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(f"{'side':>4}  {'residual':<9}  {'bound_us':>9}  {'full_us':>9}  {'evaluated':>9}  equal")
    for side in sides:
        for name, bounded, full, share, equal in measure(side, repeats):
            print(f"{side:>4}  {name:<9}  {1e6 * bounded:9.1f}  {1e6 * full:9.1f}  {share:9.3f}  {equal}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
