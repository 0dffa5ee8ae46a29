"""The README's quick tour and example config run as written, so a deleted or renamed
public name, or a config key the parser no longer reads, fails here."""

import os
import re
import subprocess
import sys
from pathlib import Path

import weylscale
from weylscale.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    env = {**os.environ, "PYTHONPATH": str(Path(weylscale.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", tour],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_example_config_runs(tmp_path):
    (config,) = re.findall(r"```yaml\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    path = tmp_path / "kms.yaml"
    path.write_text(config, encoding="utf-8")
    assert main(["kms-verify", "--config", str(path), "--out", str(tmp_path / "report.json")]) == 0
