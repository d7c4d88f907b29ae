"""Output checks for the benchmark workloads.

The expected values come from the generator's ground truth and from
brute-force recomputation with numpy, never from innoise itself. Each
check returns a list of problems; an empty list means the output tree is
correct.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from workloads import OFFSET_DB, RATE_HZ, Workload, power_dbm

APD_SAMPLE_ROWS = 1024
AMPLITUDE_TOL_DB = 1e-9


def tree_digest(directory: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _files(outdir: Path, expected: set[str]) -> list[str]:
    found = {p.name for p in outdir.iterdir()}
    if found != expected:
        return [f"output files {sorted(found)}, expected {sorted(expected)}"]
    return []


def _span_arrays(spans) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(spans, dtype=np.int64).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def _span_amplitudes(levels: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    power = np.append(np.power(10.0, levels / 10.0), 0.0)
    bounds = np.column_stack((starts, ends + 1)).ravel()
    sums = np.add.reduceat(power, bounds)[::2]
    return 10.0 * np.log10(sums / (ends - starts + 1))


def check_bursts(report: dict, spans, levels: np.ndarray, label: str) -> list[str]:
    """The report's bursts are exactly the expected spans, in order."""
    bursts = report.get("bursts", [])
    if report.get("n_bursts") != len(spans) or len(bursts) != len(spans):
        return [f"{label}: {len(bursts)} bursts (n_bursts {report.get('n_bursts')}), expected {len(spans)}"]
    if not spans:
        return []
    starts, ends = _span_arrays(spans)
    period_ms = 1000.0 / RATE_HZ
    want_start = starts * period_ms
    want_duration = (ends - starts + 1) * 1000.0 / RATE_HZ
    got_start = np.array([b["start_ms"] for b in bursts])
    got_duration = np.array([b["duration_ms"] for b in bursts])
    got_amplitude = np.array([b["amplitude_dbm"] for b in bursts])
    bad = np.flatnonzero((got_start != want_start) | (got_duration != want_duration))
    if bad.size:
        i = int(bad[0])
        return [
            f"{label}: burst {i + 1} at {got_start[i]!r} ms for {got_duration[i]!r} ms, "
            f"expected {want_start[i]!r} ms for {want_duration[i]!r} ms ({bad.size} differ)"
        ]
    off = np.abs(got_amplitude - _span_amplitudes(levels, starts, ends))
    if off.max() > AMPLITUDE_TOL_DB:
        return [f"{label}: burst {int(off.argmax()) + 1} amplitude off by {off.max():.3g} dB"]
    return []


def _check_main_burst(report: dict, spans, label: str) -> list[str]:
    lengths = [e - s + 1 for s, e in spans]
    index = lengths.index(max(lengths))
    main = report.get("main_burst", {})
    excluding = report.get("stats_excluding_main", {})
    if main.get("index") != index or main.get("duration_ms") != max(lengths) * 1000.0 / RATE_HZ:
        return [f"{label}: main burst {main}, expected index {index} of {max(lengths)} samples"]
    if excluding.get("n_bursts") != len(spans) - 1:
        return [f"{label}: stats_excluding_main has {excluding.get('n_bursts')} bursts, expected {len(spans) - 1}"]
    return []


def check_campaign(workload: Workload, outdir: Path, seed: int) -> list[str]:
    names = list(workload.spans)
    expected = {"baseline.json", "campaign.json", "campaign.csv"}
    for k in range(1, len(names) + 1):
        expected |= {f"measurement_{k:03d}.json", f"measurement_{k:03d}.csv"}
    problems = _files(outdir, expected)
    if problems:
        return problems
    base = _json(outdir / "baseline.json")
    validation = base.get("validation", {})
    if not validation.get("passed") or validation.get("exceed_count") != 0:
        problems.append(f"baseline.json: WGN check {validation}, expected a pass with 0 exceedances")
    if abs(base["rms_dbm"] - power_dbm(workload.levels["wgn.csv"])) > AMPLITUDE_TOL_DB:
        problems.append(f"baseline.json: rms {base['rms_dbm']!r} dBm disagrees with the record")
    if base["threshold_dbm"] != base["rms_dbm"] + OFFSET_DB:
        problems.append("baseline.json: threshold is not rms + 13 dB")
    for k, name in enumerate(names, start=1):
        report = _json(outdir / f"measurement_{k:03d}.json")
        if report.get("record_id") != name:
            problems.append(f"measurement_{k:03d}.json: record_id {report.get('record_id')!r}, expected {name!r}")
        problems += check_bursts(report, workload.spans[name], workload.levels[name], f"measurement_{k:03d}.json")
    char = _json(outdir / "campaign.json")
    counts = [len(workload.spans[name]) for name in names]
    if char.get("n_measurements") != len(names) or char.get("mean_n_bursts") != sum(counts) / len(counts):
        problems.append(
            f"campaign.json: {char.get('n_measurements')} measurements, mean {char.get('mean_n_bursts')} "
            f"bursts, expected {len(names)} and {sum(counts) / len(counts)}"
        )
    return problems


def check_dense(workload: Workload, outdir: Path, seed: int) -> list[str]:
    problems = _files(outdir, {"measurement.json", "measurement.csv"})
    if problems:
        return problems
    report = _json(outdir / "measurement.json")
    spans = workload.spans["dense.csv"]
    problems += check_bursts(report, spans, workload.levels["dense.csv"], "measurement.json")
    return problems + _check_main_burst(report, spans, "measurement.json")


def check_plot(text: str, spans, levels: np.ndarray) -> list[str]:
    """Every plot row carries its sample; burst_id runs equal the bursts."""
    lines = text.split("\n")
    if lines[0] != "time_ms,level_dbm,burst_id" or lines[-1] != "" or len(lines) != levels.size + 2:
        return [f"plot.csv: {len(lines) - 2} rows, expected a header and {levels.size} rows"]
    rows = [line.split(",") for line in lines[1:-1]]
    got_level = np.array([float(r[1]) for r in rows])
    got_id = np.array([int(r[2]) if r[2] else 0 for r in rows])
    got_time = np.array([float(r[0]) for r in rows])
    want_id = np.zeros(levels.size, dtype=np.int64)
    for i, (start, end) in enumerate(spans, start=1):
        want_id[start : end + 1] = i
    problems = []
    if not np.array_equal(got_level, levels):
        problems.append("plot.csv: level column differs from the record")
    if not np.array_equal(got_time, np.arange(levels.size) * (1000.0 / RATE_HZ)):
        problems.append("plot.csv: time column is not the sample times")
    bad = np.flatnonzero(got_id != want_id)
    if bad.size:
        i = int(bad[0])
        problems.append(f"plot.csv: sample {i} has burst_id {got_id[i]}, expected {want_id[i]} ({bad.size} differ)")
    return problems


def check_apd(path: Path, wgn: np.ndarray, rec: np.ndarray, seed: int) -> list[str]:
    """The grid is the exact union of levels; sampled rows match a brute count."""
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != "level_dbm,exceedance_wgn,exceedance_in":
        return [f"apd.csv: header {header!r}"]
    grid = np.union1d(wgn, rec)
    if table.shape != (grid.size, 3) or not np.array_equal(table[:, 0], grid):
        return [f"apd.csv: {table.shape[0]} levels, expected the {grid.size} distinct sample levels"]
    rows = np.random.default_rng(seed).choice(grid.size, size=min(APD_SAMPLE_ROWS, grid.size), replace=False)
    for i in np.sort(rows):
        level = table[i, 0]
        want = ((wgn > level).mean(), (rec > level).mean())
        if (table[i, 1], table[i, 2]) != want:
            return [f"apd.csv: row {i + 1} at {level!r} dBm reads {table[i, 1:].tolist()}, brute count {want}"]
    return []


def check_export(workload: Workload, outdir: Path, seed: int) -> list[str]:
    problems = _files(outdir, {"measurement.json", "measurement.csv", "plot.csv", "apd.csv"})
    if problems:
        return problems
    spans = workload.spans["in.csv"]
    levels = workload.levels["in.csv"]
    report = _json(outdir / "measurement.json")
    problems += check_bursts(report, spans, levels, "measurement.json")
    problems += _check_main_burst(report, spans, "measurement.json")
    problems += check_plot((outdir / "plot.csv").read_text(encoding="utf-8"), spans, levels)
    return problems + check_apd(outdir / "apd.csv", workload.levels["wgn.csv"], levels, seed)


CHECKS = {"campaign": check_campaign, "dense": check_dense, "export": check_export}


def check(workload: Workload, outdir: Path, seed: int) -> list[str]:
    """Problems with ``outdir`` as the output of ``workload``; empty when correct."""
    return CHECKS[workload.name](workload, Path(outdir), seed)
