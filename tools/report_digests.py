"""SHA-256 and exit code of every benchmark report of one checkout.

Usage: python3 tools/report_digests.py SRC OUT

SRC is the root of a checkout (it holds ``src/`` and ``bench/``).  The jobs of
``bench/workloads.build`` for each workload at seeds 7 and 11 are written to a
temporary directory and run once in each report format (``object`` and
``table``), by ``weylscale.cli.main`` from ``SRC/src`` in one child process.
OUT gets one line per report::

    <workload> <seed> <format> <job> exit=<code> <sha256 or "no-report">

so the reports of two checkouts can be compared with ``diff``.  Nothing is
written under ``SRC/bench``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

SEEDS = (7, 11)
FORMATS = ("object", "table")

#: Runs the argv lists read from standard input, one exit code per line on standard output.
_RUN_JOBS = """
import contextlib, io, json, os, sys
from weylscale.cli import main

for argv in json.load(sys.stdin):
    out = argv[argv.index("--out") + 1]
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = 1
    print(code)
"""


def _load_workloads(src: str):
    path = os.path.join(src, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


def _digest(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except FileNotFoundError:
        return "no-report"


def report_digests(src: str, workdir: str) -> list[str]:
    """The OUT lines for the checkout at ``src``, with configs and reports in ``workdir``."""
    workloads = _load_workloads(src)
    labels, argvs = [], []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            jobdir = os.path.join(workdir, f"{workload}-{seed}")
            for job in workloads.build(workload, seed, jobdir):
                for output_format in FORMATS:
                    out = f"{job.out}.{output_format}"
                    argv = [job.suite, "--config", job.config, "--out", out, "--format", output_format]
                    labels.append((f"{workload} {seed} {output_format} {job.name}", out))
                    argvs.append(argv)
    env = dict(os.environ, PYTHONPATH=os.path.join(src, "src"))
    result = subprocess.run(
        [sys.executable, "-c", _RUN_JOBS],
        input=json.dumps(argvs), env=env, capture_output=True, text=True, check=True,
    )
    codes = result.stdout.split()
    if len(codes) != len(argvs):
        raise RuntimeError(f"{len(codes)} exit codes for {len(argvs)} jobs:\n{result.stderr}")
    return [f"{label} exit={code} {_digest(out)}" for (label, out), code in zip(labels, codes)]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src, out = os.path.abspath(argv[0]), argv[1]
    with tempfile.TemporaryDirectory() as workdir:
        lines = report_digests(src, workdir)
    with open(out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
