"""Compare a parent and a change from their results files.

    python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl
    python3 perfbench/run.py pairs PARENT_ROOT CHANGE_ROOT --out DIR

``pairs`` runs the benchmark of each of two checkouts alternately, parent
first in even pairs and change first in odd ones, with one seed per pair,
for ``MIN_PAIRS`` pairs of ``run_seconds`` (BENCHMARK.json) runs, and
then compares; a change that claims a gain leaves perfbench/ as it is,
so both sides run identical benchmark code. ``compare`` pairs the
untraced runs of the two files by workload and seed and applies one rule
to every end-to-end metric:

* gain: at least 9/10 of at least 10 pairs won (ties count for neither),
  and the medians differ by more than the parent's interquartile range;
* unresolved: the parent's interquartile range, as a share of its
  median, exceeds the metric's bound, unless every change run beats
  every parent run;
* regression: the change's median is worse than the parent's by more
  than the bound;
* unchanged: none of these.

Bounds and directions come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> dict[str, list[dict]]:
    """Untraced runs of a results file, by workload, in file order."""
    runs: dict[str, list[dict]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            run = json.loads(line)
            if run["trace"] == 0:
                runs.setdefault(run["workload"], []).append(run)
    return runs


def pair_runs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Match the k-th parent run of a seed with the k-th change run of it."""
    pending: dict[int, list[dict]] = {}
    for run in change:
        pending.setdefault(run["seed"], []).append(run)
    pairs = []
    for run in parent:
        if pending.get(run["seed"]):
            pairs.append((run, pending[run["seed"]].pop(0)))
    return pairs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Apply the paired rule to one metric; ``parent[i]`` pairs with ``change[i]``."""
    sign = 1.0 if better == "higher" else -1.0
    n = len(parent)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    spread = iqr / p_med
    gain = sign * (c_med - p_med)
    worse = -gain / p_med
    dominated = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound and not dominated:
        result = "unresolved"
    elif worse > bound:
        result = "regression"
    elif n >= MIN_PAIRS and wins >= WIN_SHARE * n and gain > iqr:
        result = "gain"
    else:
        result = "unchanged"
    return {
        "verdict": result,
        "pairs": n,
        "wins": wins,
        "parent": [p_q1, p_med, p_q3],
        "change": [c_q1, c_med, c_q3],
        "parent_spread": spread,
        "change_vs_parent": (c_med - p_med) / p_med,
        "bound": bound,
    }


def compare(parent_file: Path, change_file: Path, benchmark: dict) -> dict:
    parent_runs, change_runs = load_runs(parent_file), load_runs(change_file)
    report = {}
    for workload in sorted(set(parent_runs) & set(change_runs)):
        pairs = pair_runs(parent_runs[workload], change_runs[workload])
        if not pairs:
            continue
        failed = [sum(side["failed"] for side in sides) for sides in zip(*pairs)]
        metrics = {}
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            metrics[name] = verdict(
                [p["metrics"][name]["value"] for p, _ in pairs],
                [c["metrics"][name]["value"] for _, c in pairs],
                spec["better"],
                spec["bound"],
            )
            if metrics[name]["verdict"] == "gain" and failed[1] > failed[0]:
                metrics[name]["verdict"] = "unchanged"
                metrics[name]["note"] = "gain void: the change failed more commands"
        report[workload] = {
            "pairs": len(pairs),
            "failed": {"parent": failed[0], "change": failed[1]},
            "identical_outputs": sum(p["output_digest"] == c["output_digest"] for p, c in pairs),
            "metrics": metrics,
        }
    return report


def print_report(report: dict) -> None:
    for workload, entry in report.items():
        print(
            f"{workload}: {entry['pairs']} pairs, failed commands parent {entry['failed']['parent']} / "
            f"change {entry['failed']['change']}, identical outputs {entry['identical_outputs']}/{entry['pairs']}"
        )
        if entry["pairs"] < MIN_PAIRS:
            print(f"  fewer than {MIN_PAIRS} pairs: no gain can be claimed")
        for name, m in entry["metrics"].items():
            p, c = m["parent"], m["change"]
            print(
                f"  {name:14s} {m['verdict']:11s} parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}]  "
                f"change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}]  {m['change_vs_parent']:+.1%}  "
                f"won {m['wins']}/{m['pairs']}  parent spread {m['parent_spread']:.1%} (bound {m['bound']:.0%})"
            )


def run_pairs(args: argparse.Namespace, seconds: int) -> tuple[Path, Path]:
    files = {"parent": args.out / "parent.jsonl", "change": args.out / "change.jsonl"}
    stale = [str(path) for path in files.values() if path.exists()]
    if stale:
        raise SystemExit(f"run.py pairs: {', '.join(stale)} already exist; choose an empty --out")
    args.out.mkdir(parents=True, exist_ok=True)
    roots = {"parent": args.parent_root, "change": args.change_root}
    for i in range(MIN_PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in args.workload:
            for side in order:
                cmd = [
                    sys.executable, "perfbench/run.py",
                    "--workload", workload,
                    "--seed", str(args.seed + i),
                    "--seconds", str(seconds),
                    "--trace", "0",
                    "--results", str(files[side].resolve()),
                ]
                done = subprocess.run(cmd, cwd=roots[side], stdout=subprocess.PIPE, text=True)
                last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
                print(f"pair {i + 1} {workload} {side}: exit {done.returncode} {last[0][:160]}", flush=True)
    return files["parent"], files["change"]


def main(argv: list[str], workloads: tuple[str, ...]) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description="Compare two sets of benchmark runs.")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("compare", help="compare two results files")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p = sub.add_parser("pairs", help="run alternating pairs on two checkouts, then compare")
    p.add_argument("parent_root", type=Path)
    p.add_argument("change_root", type=Path)
    p.add_argument("--out", type=Path, required=True, help="directory for the two results files")
    p.add_argument("--workload", action="append", choices=workloads, help="repeatable; default: all")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.mode == "pairs":
        args.workload = args.workload or list(workloads)
        args.parent, args.change = run_pairs(args, benchmark["run_seconds"])
    print_report(compare(args.parent, args.change, benchmark))
    return 0
