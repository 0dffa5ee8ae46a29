"""tools/job_faults.py times one small suite-mix job and counts its page faults."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("_job_faults", ROOT / "tools" / "job_faults.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_small_suite_mix_job(tmp_path):
    tool = _tool()
    jobs = tool.load_bench("workloads").build("suite-mix", 1, str(tmp_path))
    job = next(job for job in jobs if job.suite == "positivity-scan")
    [(code, seconds, faults)] = tool.measure([job], rounds=2)
    assert code == 0
    assert 0 < seconds < 5
    assert faults >= 0
    assert Path(job.out).is_file()


def test_usage_without_a_workload():
    with pytest.raises(SystemExit, match="^Usage: python3 tools/job_faults.py WORKLOAD"):
        _tool().main([])
