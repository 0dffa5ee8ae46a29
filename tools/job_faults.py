"""Wall time and minor page faults of each benchmark job, in one process.

Usage: python3 tools/job_faults.py WORKLOAD [SEED]

The jobs of ``bench/workloads.build(WORKLOAD, SEED)`` (SEED defaults to 1) are
written to a temporary directory and run by ``weylscale.cli.main`` from the
``src/`` of the checkout this file is in, in the order of
``bench/worker.py``: one warm-up job, a reference round, then ``ROUNDS``
measured rounds.  In a measured round a ``bench/speed.py`` sample is taken
before the first job and after each job, as the worker takes them: the
samples move the heap as they do in the benchmark, and without them the
fault counts do not match the benchmark's.  One line per job gives its exit
code, the median over the rounds of its wall time at the reference speed of
``speed.py``, and of its minor page faults (``ru_minflt`` of this process
across the job).  ``bench/workloads.py`` and ``bench/speed.py`` are loaded by
path; nothing is written under ``bench/``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import resource
import statistics
import sys
import tempfile
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

#: Measured rounds; each job's line is the median over them.
ROUNDS = 5


def load_bench(name: str):
    """The module ``bench/<name>.py`` of this checkout, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", os.path.join(ROOT, "bench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_job(cli, argv: list) -> tuple:
    """(exit code, wall seconds, minor page faults) of one CLI run."""
    with contextlib.redirect_stderr(io.StringIO()):
        faults = _minor_faults()
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed job, as in the benchmark
            code = 1
        elapsed = time.perf_counter() - started
        faults = _minor_faults() - faults
    return code, elapsed, faults


def measure(jobs: list, rounds: int = ROUNDS) -> list:
    """(exit code, median reference-speed seconds, median minor faults) per job."""
    speed = load_bench("speed")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import weylscale.cli as cli

    run_job(cli, jobs[0].argv())
    codes = [run_job(cli, job.argv())[0] for job in jobs]
    seconds: list = [[] for _ in jobs]
    faults: list = [[] for _ in jobs]
    for _ in range(rounds):
        before = speed.sample()
        for index, job in enumerate(jobs):
            _, elapsed, count = run_job(cli, job.argv())
            after = speed.sample()
            seconds[index].append(speed.to_reference(elapsed, before, after))
            faults[index].append(count)
            before = after
    return [(code, statistics.median(s), statistics.median(f)) for code, s, f in zip(codes, seconds, faults)]


def main(argv: list) -> int:
    if not 1 <= len(argv) <= 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    workload, seed = argv[0], int(argv[1]) if len(argv) > 1 else 1
    # before numpy loads: single-threaded BLAS, as the benchmark runs the program
    os.environ.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    with tempfile.TemporaryDirectory() as workdir:
        jobs = load_bench("workloads").build(workload, seed, workdir)
        rows = measure(jobs)
    print(f"{'job':<24} exit  {'ms':>8}  minor_faults")
    for job, (code, seconds, faults) in zip(jobs, rows):
        print(f"{job.name:<24} {code:>4}  {1e3 * seconds:8.2f}  {faults:12.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
