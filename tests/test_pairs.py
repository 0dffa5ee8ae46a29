"""tools/pairs.py's summary and schema, on canned bench/run.py output: no benchmark runs."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("_pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(run_s: float, setup_s: float = 0.2, failed: int = 0) -> str:
    """bench/run.py's standard output for one suite-mix run, in its layout."""
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "job_s.p50": (run_s / 20, "s"),
        "peak_rss_mb": (80.0, "MB"),
    }
    lines = [f"{'suite-mix':14s} {name:24s} {value:14.6f} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"{'suite-mix':14s} jobs attempted 200, failed {failed}")
    entries = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    lines.append(json.dumps({"correct": True, "attempted": 200, "failed": failed, "metrics": entries}))
    return "\n".join(lines) + "\n"


BETTER = {"setup_s": "lower", "run_s": "lower", "job_s.p50": "lower", "peak_rss_mb": "lower"}


def test_parse_run_reads_the_last_line(pairs):
    run = pairs.parse_run(_stdout(0.0341, failed=3))
    assert run == {
        "correct": True,
        "attempted": 200,
        "failed": 3,
        "metrics": {"setup_s": 0.2, "run_s": 0.0341, "job_s.p50": 0.0341 / 20, "peak_rss_mb": 80.0},
    }


def test_quartiles(pairs):
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0}
    assert pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "iqr": 0.0}


def _runs(pairs, values):
    return [pairs.parse_run(_stdout(value)) for value in values]


def test_summary_of_a_clear_gain(pairs):
    parent = [0.0341, 0.0345, 0.0338, 0.0350, 0.0343, 0.0340, 0.0347, 0.0339, 0.0344, 0.0342]
    change = [0.0321, 0.0322, 0.0319, 0.0330, 0.0323, 0.0320, 0.0326, 0.0318, 0.0324, 0.0345]
    repeat = [0.0342, 0.0344, 0.0339, 0.0349, 0.0342, 0.0341, 0.0346, 0.0340, 0.0345, 0.0341]
    summary = pairs.summarize(
        list(zip(_runs(pairs, parent), _runs(pairs, change))),
        list(zip(_runs(pairs, parent), _runs(pairs, repeat))),
        BETTER,
    )
    run_s = summary["run_s"]
    assert run_s["wins"] == 9 and run_s["pairs"] == 10
    assert math.isclose(run_s["parent"]["median"], 0.03425)
    assert math.isclose(run_s["change"]["median"], 0.03225)
    assert math.isclose(run_s["gap"], -0.002)
    assert math.isclose(run_s["relative_gap"], -0.002 / 0.03425)
    assert math.isclose(run_s["aa"]["gap"], 0.0342 - 0.03425)
    assert run_s["aa"]["spread"] == abs(run_s["aa"]["gap"]) and run_s["aa"]["pairs"] == 10
    assert run_s["clears_noise"] is True
    # equal values in every pair: no wins, no gap, no claim
    assert summary["setup_s"]["wins"] == 0 and summary["setup_s"]["gap"] == 0.0
    assert summary["setup_s"]["clears_noise"] is False


@pytest.mark.parametrize(
    "change, reason",
    [
        ([0.0330] * 8 + [0.0350] * 2, "8 wins of 10"),
        ([0.0340] * 10, "a gap inside the parent's quartiles"),
        ([0.0360] * 10, "slower"),
    ],
)
def test_no_claim_without_wins_or_past_the_noise(pairs, change, reason):
    parent = [0.0341, 0.0345, 0.0338, 0.0350, 0.0343, 0.0340, 0.0347, 0.0339, 0.0344, 0.0342]
    summary = pairs.summarize(list(zip(_runs(pairs, parent), _runs(pairs, change))), [], BETTER)
    assert summary["run_s"]["clears_noise"] is False, reason


def test_no_claim_inside_the_aa_spread(pairs):
    parent = [0.0340] * 10
    change = [0.0330] * 10
    repeat = [0.0325] * 10  # the parent against itself moved further than the change did
    summary = pairs.summarize(
        list(zip(_runs(pairs, parent), _runs(pairs, change))),
        list(zip(_runs(pairs, parent), _runs(pairs, repeat))),
        BETTER,
    )
    assert summary["run_s"]["wins"] == 10 and summary["run_s"]["parent"]["iqr"] == 0.0
    assert summary["run_s"]["clears_noise"] is False


def test_summary_schema(pairs):
    runs = _runs(pairs, [0.03, 0.031, 0.029])
    summary = pairs.summarize(list(zip(runs, runs)), list(zip(runs, runs)), BETTER)
    assert set(summary) == set(BETTER)
    for entry in summary.values():
        assert set(entry) == {
            "better", "parent", "change", "gap", "relative_gap", "wins", "pairs", "aa", "clears_noise",
        }
        for side in ("parent", "change"):
            assert set(entry[side]) == {"median", "q1", "q3", "iqr"}
        assert set(entry["aa"]) == {"gap", "spread", "pairs"}
    json.dumps(summary)  # the file it goes into is JSON


def test_pairs_alternate_their_order(pairs):
    assert [pairs._ordered(i, "parent", "change") for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"),
    ]


def test_copies_have_paths_of_equal_length(pairs):
    assert len({len(name) for name in pairs.COPIES}) == 1
