"""tools/kron_times.py times the GNS max-norm and reports the share of entries it evaluates."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("_kron_times", ROOT / "tools" / "kron_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_small_side():
    # side 11: three blocks of rows, so rows are skipped by their bound
    rows = _tool().measure(11, repeats=2)
    assert [row[0] for row in rows] == ["relation", "commutant"]
    for _, seconds, share in rows:
        assert 0 < seconds < 1
        assert 0 < share < 1


def test_usage_without_a_side():
    with pytest.raises(SystemExit, match="^Usage: python3 tools/kron_times.py SIDE"):
        _tool().main([])
