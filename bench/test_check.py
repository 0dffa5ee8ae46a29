"""The checker accepts the program's reports and rejects perturbed ones.

Run from the root of the checkout:  python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import pytest

import check
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from weylscale import cli  # noqa: E402


def execute(job) -> tuple[int, str | None]:
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(job.argv())
    with open(job.out, encoding="utf-8") as handle:
        return code, handle.read()


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """One passing job and its report per suite, from the suite-mix generator."""
    jobs = workloads.build("suite-mix", 0, str(tmp_path_factory.mktemp("mix")))
    chosen = {}
    for job in jobs:
        if job.suite not in chosen:
            chosen[job.suite] = (job, *execute(job))
    return chosen


def perturbed(text: str, path: tuple, change) -> str:
    report = json.loads(text)
    holder = report
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = change(holder[path[-1]])
    return json.dumps(report)


def test_checker_accepts_every_suite(reports):
    assert set(reports) == set(check.CHECKS)
    for suite, (job, code, text) in reports.items():
        assert code == 0, suite
        assert check.job_outcome(job, code, text) == (True, False, [])


PERTURBATIONS = [
    ("positivity-scan", ("summary", "h_max"), lambda x: x * (1 + 1e-6)),
    ("positivity-scan", ("cells", 0, "regime"), lambda x: "beyond"),
    ("positivity-scan", ("cells", 1, "two_point_rhs"), lambda x: x * 1.01),
    ("positivity-scan", ("cells", 2, "gram_min_eigenvalue"), lambda x: x + 1e-6),
    ("kms-verify", ("summary", "epsilon"), lambda x: x + 1e-6),
    ("kms-verify", ("summary", "h_star"), lambda x: x * 1.001),
    ("kms-verify", ("cells", 0, "delta_bottom"), lambda x: x * 1.001),
    ("kms-verify", ("cells", 1, "max_r0"), lambda x: "NaN"),
    ("kms-verify", ("cells", 2, "lambda_star"), lambda x: x * 1.001),
    ("kms-verify", ("cells", 2, "two_route_residual"), lambda x: 1.0),
    ("restrict-scan", ("cells", 0, "subspace_dimension"), lambda x: x + 1),
    ("restrict-scan", ("cells", 1, "rescaled_bottom"), lambda x: 0.999),
    ("restrict-scan", ("cells", 0, "rescaled_max_rbeta"), lambda x: 1e-3),
    ("restrict-scan", ("summary", "trace_property_deviation"), lambda x: 1e-300),
    ("rescale-fock", ("cells", 1, "occupation_expectation"), lambda x: x * (1 + 1e-9)),
    ("rescale-fock", ("cells", 2, "c"), lambda x: x + 1e-9),
    ("rescale-fock", ("cells", 3, "quasi_equivalent_to_fock"), lambda x: not x),
    ("gns-check", ("cells", 0, "closed_form_deviation"), lambda x: 1e-3),
    ("gns-check", ("cells", 2, "commutant_residual"), lambda x: "INF"),
]


@pytest.mark.parametrize("suite, path, change", PERTURBATIONS)
def test_checker_rejects_a_perturbed_report(reports, suite, path, change):
    job, code, text = reports[suite]
    passed, known, problems = check.job_outcome(job, code, perturbed(text, path, change))
    assert not passed and not known and problems


def test_checker_rejects_a_truncated_report(reports):
    job, code, text = reports["kms-verify"]
    assert not check.job_outcome(job, code, text[: len(text) // 2])[0]


def test_known_fault_is_recognised(tmp_path):
    job = workloads.known_fault_job(str(tmp_path))
    code, text = execute(job)
    assert code == 3
    assert check.job_outcome(job, code, text) == (False, True, [])
    report = json.loads(text)
    residual = report["cells"][0]["two_route_residual"]
    assert 1e-12 < residual and math.isfinite(residual)


def _result(codes, identical):
    return {
        "reference": [{"exit_code": code, "stderr": ""} for code in codes],
        "rounds": [
            {"traced": False, "jobs": [{"exit_code": c, "seconds": 0.1, "identical": s} for c, s in zip(codes, identical)]}
        ],
    }


def test_timed_report_must_match_its_reference(reports, tmp_path):
    job, code, text = reports["rescale-fock"]
    with open(job.out + ".ref", "w", encoding="utf-8") as handle:
        handle.write(text)
    assert run.tally([job], _result([code], [True]))[:3] == (True, 1, 0)
    assert run.tally([job], _result([code], [False]))[:3] == (False, 1, 1)
    fault = workloads.known_fault_job(str(tmp_path))
    fault_code, fault_text = execute(fault)
    with open(fault.out + ".ref", "w", encoding="utf-8") as handle:
        handle.write(fault_text)
    assert run.tally([job, fault], _result([code, fault_code], [True, True]))[:3] == (True, 2, 1)
