"""tools/mutants.py's edits stay in step with the code: each old text occurs once in its file."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location("_mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


@pytest.mark.parametrize("mutant", _mutants(), ids=lambda mutant: f"{mutant[0]}:{mutant[1][:40]}")
def test_each_mutant_edits_one_place(mutant):
    name, old, new = mutant
    text = (ROOT / "src" / "weylscale" / name).read_text(encoding="utf-8")
    assert old != new
    assert text.count(old) == 1
