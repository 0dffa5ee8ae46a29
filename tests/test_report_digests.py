"""Smoke test of tools/report_digests.py on this checkout: every benchmark report, digested."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LINE = re.compile(r"(\S+) (7|11) (object|table) (\S+) exit=(\d+) ([0-9a-f]{64})")


def test_digests_of_every_benchmark_report(tmp_path):
    out = tmp_path / "digests.txt"
    subprocess.run([sys.executable, str(ROOT / "tools" / "report_digests.py"), str(ROOT), str(out)], check=True)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 124
    matches = [LINE.fullmatch(line) for line in lines]
    assert all(matches), [line for line, match in zip(lines, matches) if not match]
    failing = [match.group(4) for match in matches if match.group(5) != "0"]
    # the benchmark's known fault, two seeds in two formats, exits 3; every other job 0
    assert failing == ["kms-verify-known-fault"] * 4
    assert all(match.group(5) == "3" for match in matches if match.group(4) == "kms-verify-known-fault")
    assert len({(m.group(1), m.group(2), m.group(3), m.group(4)) for m in matches}) == 124
