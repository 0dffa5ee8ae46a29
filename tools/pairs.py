"""Paired timings of the working tree against a parent commit, with an A/A control.

Usage: python3 tools/pairs.py PARENT_REF [--workloads NAME ...] [--pairs N]
                              [--seconds S] [--seed N] [--out PATH]

Three fresh copies are made under one temporary directory, at paths of equal
length: ``parent`` and ``repeat`` from ``git archive PARENT_REF``, and
``change`` from the working tree (every file git tracks or would track,
as it is on disk).  For each workload, pair ``i`` runs ``bench/run.py
--trace 0`` at seed ``N + i`` on the parent and on the change, then on the
parent and on its repeat (the A/A control), the order of each pair
alternating with ``i``.  ``TRACED_PAIRS`` pairs of ``--trace 1`` runs of the
parent and the change follow, at the first seeds.
``tools/report_digests.py`` then runs on the parent and the change copies.

Every run prints one line as it ends.  The summary goes to ``--out``
(default ``BENCH_<short sha of PARENT_REF>.json`` in the current directory):
for each workload and end-to-end metric, the medians, quartiles and
interquartile range of the parent's and the change's runs, the median gap,
the pairs the change wins, and the A/A spread, the absolute gap between the
medians of the parent and its repeat; the median of each per-layer metric
over the traced runs; whether the reports of the two copies are
byte-identical with the same exit codes; and the machine.  A gain is claimed only when the change wins
nine pairs in ten and its median gap exceeds both the parent's
interquartile range and the A/A spread (``clears_noise``).
"""

from __future__ import annotations

import argparse
import collections
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

#: The copies, named with equal length so that their paths are too.
COPIES = ("parent", "repeat", "change")

#: Pairs of ``--trace 1`` runs, at the first seeds; each layer metric is their median.
TRACED_PAIRS = 3

#: Share of pairs the change must win for a gain, with its median gap beyond the noise.
WIN_SHARE = 0.9


def _git(*args: str, cwd: str = ROOT, text: bool = True):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=text).stdout


def make_copies(parent_ref: str, workdir: str) -> dict:
    """The three copies under ``workdir``: name -> path."""
    paths = {name: os.path.join(workdir, name) for name in COPIES}
    archive = os.path.join(workdir, "parent.tar")
    with open(archive, "wb") as handle:
        handle.write(_git("archive", "--format=tar", parent_ref, text=False))
    for name in ("parent", "repeat"):
        with tarfile.open(archive) as tar:
            tar.extractall(paths[name], filter="data")
    os.remove(archive)
    files = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for relative in filter(None, files):
        source = os.path.join(ROOT, relative)
        if os.path.isfile(source):  # a tracked file deleted in the working tree is left out
            target = os.path.join(paths["change"], relative)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(source, target)
    return paths


def parse_run(stdout: str) -> dict:
    """The result of one ``bench/run.py`` run from its standard output: its last
    line's JSON object, with each metric reduced to its value."""
    result = json.loads(stdout.strip().splitlines()[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def quartiles(values: list) -> dict:
    """Median, first and third quartile (inclusive method) and their distance."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list, controls: list, better: dict) -> dict:
    """Per metric: the parent's and the change's quartiles, the gap and wins over
    ``pairs`` of (parent run, change run), and the A/A spread over ``controls`` of
    (parent run, repeat run).  ``better`` maps a metric to ``"lower"`` or ``"higher"``."""
    summary = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "lower" else -1.0
        parent = [run["metrics"][name] for run, _ in pairs]
        change = [run["metrics"][name] for _, run in pairs]
        first = [run["metrics"][name] for run, _ in controls]
        again = [run["metrics"][name] for _, run in controls]
        parent_q, change_q = quartiles(parent), quartiles(change)
        gap = change_q["median"] - parent_q["median"]
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        aa_gap = statistics.median(again) - statistics.median(first) if controls else None
        spread = abs(aa_gap) if controls else None
        clears = (
            bool(pairs)
            and sign * gap < 0
            and wins >= WIN_SHARE * len(pairs)
            and abs(gap) > parent_q["iqr"]
            and (spread is None or abs(gap) > spread)
        )
        summary[name] = {
            "better": direction,
            "parent": parent_q,
            "change": change_q,
            "gap": gap,
            "relative_gap": gap / parent_q["median"] if parent_q["median"] else None,
            "wins": wins,
            "pairs": len(pairs),
            "aa": {"gap": aa_gap, "spread": spread, "pairs": len(controls)},
            "clears_noise": clears,
        }
    return summary


def run_bench(copy: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in ``copy``, parsed; its standard error is passed on."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=copy, capture_output=True, text=True)
    sys.stderr.write(completed.stderr)
    if completed.returncode != 0:
        raise SystemExit(f"{' '.join(command)} in {copy} exited {completed.returncode}")
    return parse_run(completed.stdout)


def _ordered(index: int, first: str, second: str) -> tuple:
    return (first, second) if index % 2 == 0 else (second, first)


def digests(paths: dict, workdir: str) -> dict:
    """Whether the benchmark reports of the parent and the change are byte-identical
    with the same exit codes, by the change's tools/report_digests.py."""
    lines = {}
    for name in ("parent", "change"):
        out = os.path.join(workdir, f"digests-{name}.txt")
        tool = os.path.join(paths["change"], "tools", "report_digests.py")
        subprocess.run([sys.executable, tool, paths[name], out], check=True)
        with open(out, encoding="utf-8") as handle:
            lines[name] = handle.read().splitlines()
    codes = collections.Counter(line.split(" exit=")[1].split()[0] for line in lines["change"])
    return {"reports": len(lines["change"]), "identical": lines["parent"] == lines["change"],
            "exit_codes": dict(sorted(codes.items()))}


def machine() -> dict:
    versions = {}
    for package in ("numpy", "scipy", "PyYAML"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "packages": versions,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def declared(copy: str) -> dict:
    """The copy's BENCHMARK.json."""
    with open(os.path.join(copy, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_ref")
    parser.add_argument("--workloads", nargs="+", default=None, help="default: every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=None, help="first seed (default: drawn at random)")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sha = _git("rev-parse", "--verify", f"{args.parent_ref}^{{commit}}").strip()
    seed0 = random.SystemRandom().randrange(1000, 1_000_000) if args.seed is None else args.seed
    seeds = [seed0 + i for i in range(args.pairs)]
    print(f"parent {sha[:7]}, seeds {seeds[0]}..{seeds[-1]}", flush=True)
    out = args.out or f"BENCH_{sha[:7]}.json"
    summary = {
        "schema": 1,
        "parent": {"ref": args.parent_ref, "sha": sha},
        "change": {"head": _git("rev-parse", "HEAD").strip(), "dirty": bool(_git("status", "--porcelain"))},
        "seeds": seeds,
        "seconds": args.seconds,
        "machine": machine(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="pairs-") as workdir:
        paths = make_copies(args.parent_ref, workdir)
        benchmark = declared(paths["change"])
        better = {entry["name"]: entry["better"] for entry in benchmark["end_to_end"]}
        for workload in args.workloads or [entry["name"] for entry in benchmark["workloads"]]:
            runs, grouped = [], {"pairs": [], "controls": []}
            for index, seed in enumerate(seeds):
                for group, copies in (("pairs", ("parent", "change")), ("controls", ("parent", "repeat"))):
                    result = {}
                    for name in _ordered(index, *copies):
                        result[name] = run_bench(paths[name], workload, seed, args.seconds, 0)
                        runs.append({"seed": seed, "group": group, "copy": name, **result[name]})
                        metrics = " ".join(f"{k}={v:.6g}" for k, v in result[name]["metrics"].items())
                        print(f"{workload} seed {seed} {group} {name}: {metrics}", flush=True)
                    grouped[group].append((result[copies[0]], result[copies[1]]))
            traced = {"parent": [], "change": []}
            for index, seed in enumerate(seeds[:TRACED_PAIRS]):
                for name in _ordered(index, "parent", "change"):
                    traced[name].append(run_bench(paths[name], workload, seed, args.seconds, 1)["metrics"])
            layers = {name: {metric: statistics.median(run[metric] for run in group) for metric in group[0]}
                      for name, group in traced.items()}
            summary["workloads"][workload] = {
                "correct": all(run["correct"] for run in runs),
                "metrics": summarize(grouped["pairs"], grouped["controls"], better),
                "layers": layers,
                "runs": runs,
            }
        summary["digests"] = digests(paths, workdir)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for workload, entry in summary["workloads"].items():
        for name, metric in entry["metrics"].items():
            print(f"{workload:14s} {name:12s} parent {metric['parent']['median']:.6g} "
                  f"change {metric['change']['median']:.6g} wins {metric['wins']}/{metric['pairs']} "
                  f"iqr {metric['parent']['iqr']:.3g} aa {metric['aa']['spread']:.3g} "
                  f"clears {metric['clears_noise']}")
    print(f"digests: {summary['digests']}; written {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
