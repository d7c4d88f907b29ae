"""innoise benchmark: end-to-end and per-layer metrics on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl
    python3 perfbench/run.py pairs PARENT_ROOT CHANGE_ROOT --out DIR

A run builds the workload's inputs from the seed, then runs its
``python -m innoise`` commands one after another, each in a fresh
process, for a number of passes fixed by ``--seconds`` and the workload
(``harness.pass_count``), with the fixed ``reference.py`` timed beside
each pass to gauge the host's speed, and checks every output tree
against the oracle. With ``--trace 1`` it also calls
``innoise.cli.main`` in this process with the public layer functions
wrapped by a span recorder and reports per-layer metrics instead. The
last line of standard output is one JSON object; every run is also
appended, stamped with the machine and versions, to a results file.
See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("campaign", "dense", "export")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="Benchmark innoise on one workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=30.0, help="nominal time of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument(
        "--results",
        type=Path,
        default=ROOT / ".perfbench_results" / "results.jsonl",
        help="results file the run is appended to",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] in (["compare"], ["pairs"]):
        import compare

        return compare.main(argv, WORKLOADS)
    args = _parser().parse_args(argv)
    if not (SRC / "innoise" / "__init__.py").is_file():
        print(f"perfbench: no innoise sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = harness.trace if args.trace else harness.measure
        metrics, samples, session = run(args.workload, args.seed, args.seconds, work, SRC)
        log = work / "stderr.log"
        if session.failed and log.exists():
            sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-4000:])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    result = {
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": samples["runs"],
        "setups": samples["setups"],
        **harness.stamp(ROOT),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "failed_frac": session.failed / session.attempted,
        "structure": session.workload.structure,
        "output_digest": session.reference,
        "problems": session.problems,
        "samples": samples,
        **result,
    }
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with args.results.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    for problem in session.problems:
        print(f"FAIL {problem}")
    print(
        f"{args.workload} seed {args.seed} trace {args.trace}: {record['runs']} runs, "
        f"failed_frac {session.failed}/{session.attempted} = {record['failed_frac']:g}, "
        f"structure {record['structure']}"
    )
    for key, unit in units.items():
        print(f"  {key:38s} {metrics[key]:>16.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
