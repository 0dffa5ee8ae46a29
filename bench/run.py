"""Benchmark of the weylscale CLI suites.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It writes the workload's configs (bench/workloads.py), measures set-up in
fresh interpreters, runs the jobs in one worker process (bench/worker.py),
checks every reference report with the numpy-only checker (bench/check.py)
and prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, derived from spans (bench/spans.py).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# Before numpy loads: the calibration here and the program run single-threaded BLAS.
os.environ.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import check  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import UNITS, layer_metrics, read_spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh interpreters per run for set-up; the median is reported.
SETUP_SAMPLES = 5

#: Whole-run budget in seconds, below the 180 s a run may take.
BUDGET_S = 170.0

SETUP_SNIPPET = (
    "import sys\n"
    "import weylscale.cli\n"
    "from weylscale.config import ExperimentConfig\n"
    "for path in sys.argv[1:]:\n"
    "    ExperimentConfig.from_file(path)\n"
)


def environment(root: str) -> dict:
    """The program's environment: this checkout's sources, single-threaded BLAS.

    With BLAS free to use both cores of a small machine a single relation
    residual swung between 0.6 and 1.3 s; one thread keeps runs comparable.
    """
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise subprocess.TimeoutExpired("benchmark", BUDGET_S)
    return left


def setup_seconds(configs: list, env: dict, deadline: float) -> float:
    """Median time of a fresh interpreter importing the CLI and loading the configs."""
    samples = []
    before = speed.sample()
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, *configs],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=remaining(deadline),
        )
        elapsed = time.perf_counter() - started
        after = speed.sample()
        samples.append(speed.to_reference(elapsed, before, after))
        before = after
    return statistics.median(samples)


def run_worker(jobs: list, workdir: str, args, env: dict, deadline: float) -> dict:
    jobs_path = os.path.join(workdir, "jobs.json")
    result_path = os.path.join(workdir, "result.json")
    with open(jobs_path, "w", encoding="utf-8") as handle:
        json.dump([{"suite": j.suite, "argv": j.argv(), "out": j.out} for j in jobs], handle)
    subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            jobs_path,
            str(args.seconds),
            str(args.trace),
            result_path,
            trace_path(args),
        ],
        env=env,
        check=True,
        timeout=remaining(deadline),
    )
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def trace_path(args) -> str:
    return os.path.join(HERE, "_work", f"trace-{args.workload}-seed{args.seed}.jsonl")


def tally(jobs: list, result: dict) -> tuple:
    """(correct, attempted, failed, messages) over the timed jobs.

    A timed job fails when its exit code is not 0, its report differs from
    the reference report of the same job, or the checker disagrees with the
    reference report.  Only the known fault may fail; any other failure makes
    the run incorrect.
    """
    outcomes = []
    messages = []
    for job, reference in zip(jobs, result["reference"]):
        text = None
        if os.path.exists(job.out + ".ref"):
            with open(job.out + ".ref", encoding="utf-8") as handle:
                text = handle.read()
        passed, known, problems = check.job_outcome(job, reference["exit_code"], text)
        outcomes.append((passed, known and job.known_fault))
        if not passed and not (known and job.known_fault):
            messages.append(f"{job.name}: {problems[:5]} {reference['stderr'][-500:]}")
    correct, attempted, failed = True, 0, 0
    for timed_round in result["rounds"]:
        for job, (passed, expected_fault), timed, reference in zip(
            jobs, outcomes, timed_round["jobs"], result["reference"]
        ):
            attempted += 1
            same = timed["identical"] and timed["exit_code"] == reference["exit_code"]
            if passed and same:
                continue
            failed += 1
            if not (expected_fault and same):
                correct = False
                if not same:
                    messages.append(f"{job.name}: timed run differs from its reference run")
    return correct, attempted, failed, messages


def job_seconds(timed_round: dict) -> list:
    """Each job's wall time at the reference speed (see speed.py)."""
    cal = timed_round["calibration"]
    return [speed.to_reference(job["seconds"], cal[i], cal[i + 1]) for i, job in enumerate(timed_round["jobs"])]


def round_seconds(result: dict, traced: bool) -> list:
    return [sum(job_seconds(r)) for r in result["rounds"] if r["traced"] == traced]


def end_to_end(result: dict, setup_s: float) -> dict:
    untraced = [r for r in result["rounds"] if not r["traced"]]
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(round_seconds(result, False)), "s"),
        "job_s.p50": (statistics.median(t for r in untraced for t in job_seconds(r)), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(result: dict, args) -> dict:
    factors = {}
    for index, timed_round in enumerate(result["rounds"]):
        for job, (raw, scaled) in enumerate(zip(timed_round["jobs"], job_seconds(timed_round))):
            factors[index, job] = scaled / raw["seconds"]
    metrics = layer_metrics(
        read_spans(trace_path(args)), factors, round_seconds(result, True), round_seconds(result, False)
    )
    return {name: (value, UNITS[name]) for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "weylscale", "cli.py")):
        print("run from the root of a weylscale checkout: src/weylscale/cli.py not found", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    workdir = os.path.join(HERE, "_work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    env = environment(root)
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        setup_s = None
        if not args.trace:
            setup_s = setup_seconds([job.config for job in jobs], env, deadline)
        result = run_worker(jobs, workdir, args, env, deadline)
        correct, attempted, failed, messages = tally(jobs, result)
        metrics = per_layer(result, args) if args.trace else end_to_end(result, setup_s)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in messages:
        print(f"check: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:24s} {value:14.6f} {unit}")
    print(f"{args.workload:14s} jobs attempted {attempted}, failed {failed}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
