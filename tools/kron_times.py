"""Median time of the GNS max-norm, and the share of entries it evaluates, per side.

Usage: python3 tools/kron_times.py SIDE [SIDE ...]

For each SIDE the operands are those of one gns-check relation cell as the
benchmark's gns configs draw them: one mode at cutoff ``2 (SIDE - 1)``, whose
reliable block has SIDE occupation numbers, a covariance drawn from
[1.2, 2.0], a vector ``f`` of norm in [0.4, 0.8] at a random phase, and
``g = i f``.  The four operands that ``weyl_relation_residual`` and
``commutant_residual`` pass to ``fock._kron_difference_max`` are recorded;
then, for each residual, one call of ``_kron_difference_max`` is run as a
warm-up and ``REPEATS`` more are timed.  One line per residual gives the
median in microseconds, the share of the ``SIDE^4`` entries that
``_kron_difference_max`` evaluated, and the rows and the columns (of
``SIDE^2`` each) that it kept beside the seed row, the row of the largest
bound that it evaluates in full first: their bounds beat the seed, and the
rest are skipped.  A side of one block has no seed and keeps no more.  The
program runs from the ``src/`` of the checkout this file is in, with
single-threaded BLAS.
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


def evaluated(args) -> tuple:
    """The share of the entries of ``P (x) Q - R (x) S`` that _kron_difference_max
    evaluates, and the rows and the columns it evaluates beside the seed row."""
    from weylscale import fock

    blocks, original = [], fock._block_max
    fock._block_max = lambda p, q, r, s: blocks.append((p.size, q.size)) or original(p, q, r, s)
    try:
        fock._kron_difference_max(*args)
    finally:
        fock._block_max = original
    share = sum(rows * columns for rows, columns in blocks) / (args[0].size * args[1].size)
    kept = blocks[1:]
    return share, sum(rows for rows, _ in kept), kept[0][1] if kept else 0


def measure(side: int, repeats: int = REPEATS) -> list:
    """(residual, median seconds, evaluated share, rows kept, columns kept) per residual at ``side``."""
    from weylscale import fock

    rows = []
    for name, args in operands(side).items():
        fock._kron_difference_max(*args)
        samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            fock._kron_difference_max(*args)
            samples.append(time.perf_counter() - started)
        rows.append((name, statistics.median(samples), *evaluated(args)))
    return rows


def main(argv: list, repeats: int = REPEATS) -> int:
    if not argv:
        raise SystemExit(__doc__.split("\n\n")[1])
    sides = [int(arg) for arg in argv]
    # before numpy loads: single-threaded BLAS, as the benchmark runs the program
    os.environ.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(f"{'side':>4}  {'residual':<9}  {'median_us':>9}  {'evaluated':>9}  {'rows':>4}  {'columns':>7}")
    for side in sides:
        for name, seconds, share, rows, columns in measure(side, repeats):
            print(f"{side:>4}  {name:<9}  {1e6 * seconds:9.1f}  {share:9.3f}  {rows:>4}  {columns:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
