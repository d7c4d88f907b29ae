"""Measuring loops of the innoise benchmark.

``measure`` gives the end-to-end metrics of one untraced run, ``trace``
the per-layer metrics of one traced run. Both build the workload, run
its commands and feed every output tree to the oracle through a
``Session``, which counts attempted and failed commands.
"""

from __future__ import annotations

import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import oracle
import spans
import workloads
from innoise import cli

SETUPS = 9  # set-ups per run, spread over its passes
MIN_PASSES = 3  # timed passes per untraced run, however short --seconds is
STARTUP_PROBES = 3
# Fixed work, with no innoise code, run in a fresh process before every
# timed command and after the last: its time gauges the host's speed.
REFERENCE = Path(__file__).resolve().parent / "reference.py"
# Seconds reference.py takes on a quiet host; the unit of the timings.
REFERENCE_S = 0.25
# Seconds budgeted for one untraced pass over a workload's commands and
# their references, on a busy host. A run makes round(--seconds / PASS_S) passes
# whatever the code's speed, so a parent and a change are measured on
# equally many passes.
PASS_S = {"campaign": 1.5, "dense": 1.5, "export": 2.3}

END_TO_END = {"wall_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "cli.startup_s": "s",
    "cli.campaign.wall_s": "s",
    "cli.analyze.wall_s": "s",
    "cli.apd.wall_s": "s",
    "io.read_record.self_s": "s",
    "io.read_record.samples": "count",
    "io.read_record.bytes": "B",
    "io.read_record.samples_per_s": "1/s",
    "io.write_measurement_report.self_s": "s",
    "io.write_measurement_report.bytes": "B",
    "io.write_plot_data.self_s": "s",
    "io.write_plot_data.rows": "count",
    "io.write_plot_data.bytes": "B",
    "io.write_apd_csv.self_s": "s",
    "io.write_apd_csv.rows": "count",
    "io.write_apd_csv.bytes": "B",
    "io.write_baseline_report.self_s": "s",
    "io.write_campaign_report.self_s": "s",
    "io.write_record.self_s": "s",
    "baseline.compute_rms_level.self_s": "s",
    "baseline.validate_wgn.self_s": "s",
    "baseline.exceedances": "count",
    "bursts.extract_pulses.self_s": "s",
    "bursts.combine_pulses.self_s": "s",
    "bursts.detect_bursts.self_s": "s",
    "bursts.pulses": "count",
    "bursts.bursts": "count",
    "bursts.merges": "count",
    "stats.measurement_stats.self_s": "s",
    "stats.main_burst.self_s": "s",
    "stats.aggregate_campaign.self_s": "s",
    "apd.apd_pair.self_s": "s",
    "apd.grid_points": "count",
    "synth.generate_wgn.self_s": "s",
    "synth.inject_bursts.self_s": "s",
    "trace.overhead_s": "s",
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _size(path) -> int:
    return Path(path).stat().st_size


def _read_counts(args, kwargs, record) -> dict[str, int]:
    return {"io.read_record.samples": len(record), "io.read_record.bytes": _size(_arg(args, kwargs, 0, "path"))}


def _report_counts(args, kwargs, _) -> dict[str, int]:
    path = Path(_arg(args, kwargs, 2, "path"))
    return {"io.write_measurement_report.bytes": _size(path) + _size(path.with_suffix(".csv"))}


def _plot_counts(args, kwargs, _) -> dict[str, int]:
    return {
        "io.write_plot_data.rows": len(_arg(args, kwargs, 0, "record")),
        "io.write_plot_data.bytes": _size(_arg(args, kwargs, 2, "path")),
    }


def _apd_csv_counts(args, kwargs, _) -> dict[str, int]:
    curves = _arg(args, kwargs, 0, "curves")
    return {"io.write_apd_csv.rows": curves[0].levels_dbm.size, "io.write_apd_csv.bytes": _size(_arg(args, kwargs, 1, "path"))}


# Layer boundaries wrapped in the traced run. Per-burst and per-sample
# helpers (parameterize_burst, mean_power_dbm, the dBm/mW conversions)
# stay unwrapped so that tracing adds little.
COMMAND_LAYERS = {
    "io.read_record": _read_counts,
    "io.write_measurement_report": _report_counts,
    "io.write_plot_data": _plot_counts,
    "io.write_apd_csv": _apd_csv_counts,
    "io.write_baseline_report": None,
    "io.write_campaign_report": None,
    "baseline.compute_rms_level": None,
    "baseline.validate_wgn": lambda args, kwargs, result: {"baseline.exceedances": result.exceed_count},
    "bursts.extract_pulses": lambda args, kwargs, result: {"bursts.pulses": len(result)},
    "bursts.combine_pulses": None,
    "bursts.detect_bursts": lambda args, kwargs, result: {"bursts.bursts": len(result)},
    "stats.measurement_stats": None,
    "stats.main_burst": None,
    "stats.aggregate_campaign": None,
    "apd.apd_pair": lambda args, kwargs, result: {"apd.grid_points": result[0].levels_dbm.size},
}
SETUP_LAYERS = {"synth.generate_wgn": None, "synth.inject_bursts": None, "io.write_record": None}


@dataclass
class Pass:
    """One pass over a workload's commands."""

    walls: dict[str, float]  # wall seconds per CLI command name
    peak_rss_mb: float

    @property
    def wall(self) -> float:
        return sum(self.walls.values())


class Runner:
    """Runs ``python -m innoise`` in a fresh process per command, one at a time."""

    def __init__(self, src: Path, cwd: Path, log: Path):
        self.cwd = cwd
        self.log = log
        self.env = {**os.environ, "PYTHONPATH": str(src)}

    def run(self, argv: list[str]) -> tuple[int, float, float]:
        """Exit code, wall seconds and peak RSS in MB of one command."""
        return self._run([sys.executable, "-m", "innoise", *argv])

    def reference(self) -> float:
        """Wall seconds of one run of the fixed reference work."""
        code, wall, _ = self._run([sys.executable, str(REFERENCE)])
        if code != 0:
            raise RuntimeError(f"the reference work exited {code}")
        return wall

    def _run(self, command: list[str]) -> tuple[int, float, float]:
        with self.log.open("ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                command,
                cwd=self.cwd,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0


@contextmanager
def _chdir(path: Path):
    previous = Path.cwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


class Session:
    """One benchmark run: a built workload, its runner and the oracle verdicts."""

    def __init__(self, workload, seed: int, inputs: Path, runner: Runner):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.runner = runner
        self.reference: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _finish(self, out: str, walls: dict[str, float], codes: list[int], rss: float) -> Pass:
        outdir = self.inputs / out
        digest = oracle.tree_digest(outdir)
        if self.reference is None:
            try:
                found = oracle.check(self.workload, outdir, self.seed)
            except Exception as exc:  # a malformed output must count as a failure, not end the run
                found = [f"oracle could not read the output: {exc!r}"]
            self.reference = digest
        else:
            found = [] if digest == self.reference else [f"{out}: output tree differs from the first pass"]
        shutil.rmtree(outdir, ignore_errors=True)
        failed = sum(code != 0 for code in codes)
        self.attempted += len(codes)
        self.failed += failed or (len(codes) if found else 0)
        self.problems += found + [f"{out}: a command exited {code}" for code in codes if code != 0]
        return Pass(walls, rss)

    def subprocess_pass(self, out: str, references: list[float] | None = None) -> Pass:
        """Run each command in a fresh process; with ``references``, time the
        reference work before each command and append its seconds there."""
        walls: dict[str, float] = {}
        codes, rss = [], 0.0
        for argv in self.workload.commands:
            if references is not None:
                references.append(self.runner.reference())
            code, wall, peak = self.runner.run([*argv, "--out", out])
            walls[argv[0]] = walls.get(argv[0], 0.0) + wall
            codes.append(code)
            rss = max(rss, peak)
        return self._finish(out, walls, codes, rss)

    def inprocess_pass(self, out: str) -> Pass:
        walls: dict[str, float] = {}
        codes = []
        with _chdir(self.inputs), open(os.devnull, "w") as sink, redirect_stdout(sink), redirect_stderr(sink):
            for argv in self.workload.commands:
                start = time.perf_counter()
                try:
                    code = cli.main([*argv, "--out", out])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # an uncaught error is a failed command, as in a fresh process
                    code = 1
                walls[argv[0]] = walls.get(argv[0], 0.0) + time.perf_counter() - start
                codes.append(code)
        return self._finish(out, walls, codes, 0.0)


def pass_count(name: str, seconds: float) -> int:
    """Timed passes of an untraced run: fixed by the workload and ``seconds``."""
    return max(MIN_PASSES, round(seconds / PASS_S[name]))


def host_scaled(times: list[float], references: list[float]) -> float:
    """Median of ``times`` over the reference seconds timed beside each, in
    seconds of a host on which the reference takes REFERENCE_S."""
    return REFERENCE_S * statistics.median(t / r for t, r in zip(times, references, strict=True))


def _setup(name: str, seed: int, directory: Path):
    """Build a workload into ``directory``: the workload and the seconds it took."""
    start = time.perf_counter()
    workload = workloads.build(name, seed, directory)
    return workload, time.perf_counter() - start


def measure(name: str, seed: int, seconds: float, work: Path, src: Path) -> tuple[dict, dict, Session]:
    """Untraced run: end-to-end metrics."""
    inputs = work / "inputs"
    workload, first = _setup(name, seed, inputs)
    setups = [first]
    session = Session(workload, seed, inputs, Runner(src, inputs, work / "stderr.log"))
    digest = oracle.tree_digest(inputs)
    session.runner.run(["--help"])  # compile bytecode and warm the file cache before timing
    count = pass_count(name, seconds)
    # The other set-ups run between passes, spread over the whole run, into
    # a directory of their own; each must write the same bytes as the first.
    resetups = {round(k * count / SETUPS) for k in range(1, SETUPS)}
    setup_refs, passes, references = [0], [], []
    for index in range(count):
        if index in resetups:
            again = work / "setup"
            setups.append(_setup(name, seed, again)[1])
            setup_refs.append(index)
            if oracle.tree_digest(again) != digest:
                session.problems.append("set-up wrote different inputs for one seed")
            shutil.rmtree(again)
        passes.append(session.subprocess_pass(f"out{index}", references))
    references.append(session.runner.reference())
    # A shared 2-vCPU host runs everything up to twice as slow in phases
    # lasting from a second to minutes, so a raw time says more about the
    # phase a run hit than about the program. Each command is divided by
    # the mean of the references just before and after it, and each set-up
    # by the reference that follows it; the median of these ratios, times
    # REFERENCE_S, is the time on a quiet host (see README.md).
    host = [(before + after) / 2 for before, after in zip(references, references[1:])]
    n = len(workload.commands)
    wall_s = sum(
        host_scaled([p.walls[argv[0]] for p in passes], host[j::n]) for j, argv in enumerate(workload.commands)
    )
    walls = [p.wall for p in passes]
    metrics = {
        "wall_s": wall_s,
        "samples_per_s": workload.samples_read / wall_s,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "setup_s": host_scaled(setups, [references[i * n] for i in setup_refs]),
    }
    samples = {
        "runs": len(passes),
        "setups": len(setups),
        "setup_s": setups,
        "reference_s": references,
        "wall_s": walls,
        "wall_median_s": statistics.median(walls),
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
        "command_wall_s": [p.walls for p in passes],
    }
    return metrics, samples, session


def _layer_values(sub: Pass, plain: Pass, traced: Pass, recorder) -> dict[str, float]:
    values: dict[str, float] = {f"cli.{cmd}.wall_s": sub.walls.get(cmd, 0.0) for cmd in ("campaign", "analyze", "apd")}
    self_s = recorder.self_seconds()
    for target in COMMAND_LAYERS:
        values[f"{target}.self_s"] = self_s.get(target, 0.0)
    for key in PER_LAYER:
        if PER_LAYER[key] in ("count", "B"):
            values[key] = recorder.counts.get(key, 0)
    values["bursts.merges"] = values["bursts.pulses"] - values["bursts.bursts"]
    read_s = values["io.read_record.self_s"]
    values["io.read_record.samples_per_s"] = values["io.read_record.samples"] / read_s if read_s > 0 else 0.0
    values["trace.overhead_s"] = traced.wall - plain.wall
    return values


def trace(name: str, seed: int, seconds: float, work: Path, src: Path) -> tuple[dict, dict, Session]:
    """Traced run: per-layer metrics, and proof that tracing leaves outputs alone."""
    inputs = work / "inputs"
    setup_recorder = spans.Recorder()
    with spans.patched(setup_recorder, SETUP_LAYERS):
        workload = workloads.build(name, seed, inputs)
    session = Session(workload, seed, inputs, Runner(src, inputs, work / "stderr.log"))
    startup = [session.runner.run(["--help"])[1] for _ in range(STARTUP_PROBES)]
    per_pass: list[dict[str, float]] = []
    traced_walls: list[float] = []  # the base of each pass's per-layer shares
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        index = len(per_pass)
        sub = session.subprocess_pass(f"sub{index}")
        plain = session.inprocess_pass(f"plain{index}")
        recorder = spans.Recorder()
        with spans.patched(recorder, COMMAND_LAYERS):
            traced = session.inprocess_pass(f"traced{index}")
        per_pass.append(_layer_values(sub, plain, traced, recorder))
        traced_walls.append(traced.wall)
        now = time.perf_counter()
        if now - started + (now - begun) > seconds:  # another pass like this one would overrun
            break
    metrics = {key: statistics.median(values[key] for values in per_pass) for key in per_pass[0]}
    metrics["cli.startup_s"] = statistics.median(startup)
    setup_self = setup_recorder.self_seconds()
    for target in SETUP_LAYERS:
        metrics[f"{target}.self_s"] = setup_self.get(target, 0.0)
    missing = set(PER_LAYER) ^ set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {sorted(missing)}")
    samples = {
        "runs": len(per_pass),
        "setups": 1,
        "passes": per_pass,
        "traced_wall_s": traced_walls,
        "cli.startup_s": startup,
    }
    return metrics, samples, session


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def stamp(root: Path) -> dict:
    """Where and on what a result was measured."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(root),
    }


