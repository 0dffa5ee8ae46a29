"""tools/kron_times.py times the GNS max-norm and reports the share of entries it evaluates."""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("_kron_times", ROOT / "tools" / "kron_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_small_side():
    # side 11: more entries than one block, so the seed row and the bounds decide what is evaluated
    rows = _tool().measure(11, repeats=2)
    assert [row[0] for row in rows] == ["relation", "commutant"]
    for _, seconds, share, kept_rows, kept_columns in rows:
        assert 0 < seconds < 1
        assert 0 < share < 1
        # the seed row against every column, then the kept rows against the kept columns
        assert round(share * 11**4) == 11**2 + kept_rows * kept_columns
        assert 0 <= kept_rows < 11**2 and 0 <= kept_columns <= 11**2


def test_printed_columns(capsys, monkeypatch):
    # main sets single-threaded BLAS and puts src/ first on the path: both are restored after
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert _tool().main(["11"], repeats=1) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["side", "residual", "median_us", "evaluated", "rows", "columns"]
    assert [line.split()[:2] for line in lines[1:]] == [["11", "relation"], ["11", "commutant"]]


def test_usage_without_a_side():
    with pytest.raises(SystemExit, match="^Usage: python3 tools/kron_times.py SIDE"):
        _tool().main([])
