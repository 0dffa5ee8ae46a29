"""The one process that runs a workload's jobs back to back (closed loop, one client).

Usage: worker.py JOBS_JSON SECONDS TRACE RESULT_JSON TRACE_JSONL

Each job is ``weylscale.cli.main(argv)`` on a generated config with ``--out``
set to a file.  Order of work:

1. one warm-up job, discarded;
2. a reference round: every job once, untimed; its reports are kept;
3. timed rounds of the whole job list until SECONDS have passed, each job's
   report compared byte for byte with its reference, and a speed calibration
   sample (speed.py) taken before the first job and after each job.  With
   TRACE=1 the timed rounds alternate untraced and traced, in whole pairs.

The result file holds exit codes, wall times and identity flags; run.py
checks the reference reports and derives the metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import speed
from spans import JOB_SPAN, Tracer


def run_job(cli, job: dict, tracer: Tracer | None = None) -> tuple:
    """(exit code, wall seconds, report bytes or None, stderr text)."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(job["out"])
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        started = time.perf_counter()
        span = tracer.open(JOB_SPAN, job["suite"]) if tracer else None
        try:
            code = cli.main(job["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed job, not a failed benchmark
            traceback.print_exc()
            code = 1
        finally:
            if tracer:
                tracer.close(span)
        elapsed = time.perf_counter() - started
    try:
        with open(job["out"], "rb") as handle:
            report = handle.read()
    except FileNotFoundError:
        report = None
    return code, elapsed, report, stderr.getvalue()


def timed_round(cli, jobs: list, reference: list, tracer: Tracer | None = None) -> dict:
    """Every job once, with a calibration sample before the first and after each job."""
    calibration = [speed.sample()]
    entries = []
    for index, (job, expected) in enumerate(zip(jobs, reference)):
        if tracer:
            tracer.job = index
        code, elapsed, report, _ = run_job(cli, job, tracer)
        calibration.append(speed.sample())
        entries.append({"exit_code": code, "seconds": elapsed, "identical": report == expected})
    return {"traced": tracer is not None, "jobs": entries, "calibration": calibration}


def main(argv) -> int:
    jobs_path, seconds, trace_flag, result_path, trace_path = argv
    seconds = float(seconds)
    with open(jobs_path, encoding="utf-8") as handle:
        jobs = json.load(handle)

    import weylscale.cli as cli

    source = os.path.realpath(os.path.join("src", "weylscale"))
    if os.path.dirname(os.path.realpath(cli.__file__)) != source:
        print(f"weylscale imported from {cli.__file__}, not from {source}", file=sys.stderr)
        return 2

    run_job(cli, jobs[0])
    reference = []
    for job in jobs:
        code, _, report, stderr = run_job(cli, job)
        reference.append(report)
        if report is not None:
            with open(job["out"] + ".ref", "wb") as handle:
                handle.write(report)
        job.update(exit_code=code, stderr=stderr[-2000:])

    tracer = Tracer() if trace_flag == "1" else None
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        rounds.append(timed_round(cli, jobs, reference))
        if tracer:
            tracer.round = len(rounds)
            tracer.install()
            try:
                rounds.append(timed_round(cli, jobs, reference, tracer))
            finally:
                tracer.uninstall()
    if tracer:
        tracer.write(trace_path)
    result = {
        "reference": [{"exit_code": job["exit_code"], "stderr": job["stderr"]} for job in jobs],
        "rounds": rounds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
