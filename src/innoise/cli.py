"""Command-line interface: simulate, baseline, analyze, campaign, apd.

Each command reads every input and computes every result, writing
nothing, and returns a ``Plan``. ``main`` then writes the plan's files
into ``--out`` (default ``./out``) under fixed names, all or none, and
prints its line. Identical inputs produce byte-identical output trees.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import fields, replace
from enum import IntEnum
from functools import partial
from pathlib import Path
from typing import Callable

from . import io
from .apd import DEFAULT_GRID_DB, apd_pair, compute_apd
from .baseline import (
    DEFAULT_OFFSET_DB,
    Baseline,
    WgnValidation,
    compute_rms_level,
    derive_threshold,
    validate_wgn,
)
from .bursts import detect_bursts
from .model import ConfigError, DomainError, FormatError, MeasurementMeta
from .stats import aggregate_campaign, main_burst, measurement_stats
from .synth import generate_wgn, inject_bursts


class ExitStatus(IntEnum):
    OK = 0
    VALIDATION_FAILED = 1  # WGN record contains impulses
    IO_ERROR = 2
    BAD_INPUT = 3  # malformed file or configuration


# A plan: the exit status, each output file's name and writer, and the line to print.
Output = tuple[str, Callable[[Path], None]]
Plan = tuple[ExitStatus, list[Output], str]


def _baseline_step(
    wgn: Path | str, record_id: str, offset_db: float, fraction: float
) -> tuple[Baseline, WgnValidation, Output]:
    """Derive and check the baseline of the WGN record at ``wgn``."""
    record = io.read_record(wgn)
    rms = compute_rms_level(record)
    base = derive_threshold(rms, offset_db, source_record_id=record_id)
    validation = validate_wgn(record, base, fraction)
    return base, validation, ("baseline.json", partial(io.write_baseline_report, base, validation))


def cmd_baseline(args: argparse.Namespace) -> Plan:
    base, validation, output = _baseline_step(
        args.wgn_file, str(args.wgn_file), args.offset_db, args.max_exceed_fraction
    )
    verdict = "PASS" if validation.passed else f"FAIL ({validation.exceed_count} exceedances)"
    status = ExitStatus.OK if validation.passed else ExitStatus.VALIDATION_FAILED
    return status, [output], (
        f"baseline: rms {base.rms_dbm:.2f} dBm, threshold {base.threshold_dbm:.2f} dBm "
        f"(+{base.offset_db:g} dB), WGN check {verdict}"
    )


def cmd_analyze(args: argparse.Namespace) -> Plan:
    base, _ = io.read_baseline_report(args.baseline)
    record = io.read_record(args.in_file)
    burst_set = detect_bursts(record, base, record_id=str(args.in_file))
    stats = measurement_stats(burst_set)
    stats_excluding = None
    if args.main_burst and (analysis := main_burst(burst_set)) is not None:
        longest, stats_excluding = analysis
        stats = replace(stats, main_burst=longest)
    report = partial(
        io.write_measurement_report, stats, burst_set, stats_excluding_main=stats_excluding
    )
    outputs = [("measurement.json", report)]
    if args.plot_data:
        outputs.append(("plot.csv", partial(io.write_plot_data, record, burst_set)))
    return ExitStatus.OK, outputs, f"analyze: {stats.n_bursts} bursts in {args.in_file}"


def _merged_meta(record_meta: MeasurementMeta, manifest: io.CampaignManifest) -> MeasurementMeta:
    """Fill gaps in a record's metadata from the campaign manifest: each
    field keeps the record's value when set, otherwise takes the manifest's."""
    gaps = {
        f.name: getattr(manifest, f.name)
        for f in fields(MeasurementMeta)
        if getattr(record_meta, f.name) in (None, "") and hasattr(manifest, f.name)
    }
    return replace(record_meta, **gaps)


def cmd_campaign(args: argparse.Namespace) -> Plan:
    manifest = io.read_manifest(args.manifest)
    wgn = manifest.wgn_record
    base, validation, baseline_output = _baseline_step(
        manifest.wgn_path(), wgn, manifest.offset_db, manifest.max_exceed_fraction
    )
    if not validation.passed:
        return ExitStatus.VALIDATION_FAILED, [baseline_output], (
            f"campaign: WGN record {wgn} failed the impulse check "
            f"({validation.exceed_count} samples above threshold); not analyzing IN records"
        )

    outputs, all_stats, metas = [baseline_output], [], []
    for index, (name, path) in enumerate(zip(manifest.in_records, manifest.in_paths()), start=1):
        record = io.read_record(path)
        burst_set = detect_bursts(record, base, record_id=name)
        stats = measurement_stats(burst_set)
        report = partial(io.write_measurement_report, stats, burst_set)
        outputs.append((f"measurement_{index:03d}.json", report))
        all_stats.append(stats)
        metas.append(_merged_meta(record.meta, manifest))
    characterization = aggregate_campaign(all_stats, metas)
    outputs.append(("campaign.json", partial(io.write_campaign_report, characterization)))
    return ExitStatus.OK, outputs, (
        f"campaign: {characterization.n_measurements} measurements, "
        f"mean {characterization.mean_n_bursts:.2f} bursts"
    )


def cmd_apd(args: argparse.Namespace) -> Plan:
    first = io.read_record(args.file)
    if args.file2 is not None:
        curves = apd_pair(first, io.read_record(args.file2), grid_db=args.grid_db)
    else:
        curves = [compute_apd(first, grid_db=args.grid_db)]
    message = f"apd: wrote {Path(args.out) / 'apd.csv'}"
    return ExitStatus.OK, [("apd.csv", partial(io.write_apd_csv, curves))], message


def cmd_simulate(args: argparse.Namespace) -> Plan:
    record = generate_wgn(args.n, args.mean_dbm, args.seed, sample_rate_hz=args.sample_rate_hz)
    outputs = []
    if args.events is not None:
        events = io.read_event_specs(args.events)
        record, spans = inject_bursts(record, events)
        outputs.append(("ground_truth.json", partial(io.write_ground_truth, spans, events)))
    outputs.append(("record.csv", partial(io.write_record, record)))
    message = f"simulate: wrote {len(record)} samples to {Path(args.out) / 'record.csv'}"
    return ExitStatus.OK, outputs, message


def _write_outputs(out: Path, outputs: list[Output]) -> None:
    """Write every output into a staging directory in ``out``, then rename
    each staged file (a report's sibling CSV too) into ``out``. A failed
    write leaves no file of this run, nor ``out`` when this call made it."""
    created = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=out, prefix=".staging-") as staging:
            for name, write in outputs:
                write(Path(staging) / name)
            for path in Path(staging).iterdir():
                os.replace(path, out / path.name)
    except BaseException:
        if created and not any(out.iterdir()):
            out.rmdir()
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="innoise",
        description="Measure and characterize radio impulsive noise from a specific source.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory")
    add_parser = partial(sub.add_parser, parents=[common])

    p = add_parser("baseline", help="derive the detection threshold from a WGN record")
    p.add_argument("wgn_file", help="record CSV taken with the source off")
    p.add_argument(
        "--offset-db", type=float, default=DEFAULT_OFFSET_DB, help="threshold offset above r.m.s."
    )
    p.add_argument(
        "--max-exceed-fraction",
        type=float,
        default=0.0,
        help="tolerated fraction of above-threshold samples in the WGN record",
    )
    p.set_defaults(func=cmd_baseline)

    p = add_parser("analyze", help="detect bursts in one IN record")
    p.add_argument("in_file", help="record CSV taken with the source on")
    p.add_argument("--baseline", required=True, help="baseline JSON from the baseline command")
    p.add_argument("--plot-data", action="store_true", help="also write per-sample plot CSV")
    p.add_argument(
        "--main-burst",
        action="store_true",
        help="report the longest burst separately and the stats without it",
    )
    p.set_defaults(func=cmd_analyze)

    p = add_parser("campaign", help="run baseline + analyze + aggregation from a manifest")
    p.add_argument("manifest", help="campaign manifest JSON")
    p.set_defaults(func=cmd_campaign)

    p = add_parser("apd", help="amplitude probability distribution of one or two records")
    p.add_argument("file", help="record CSV (WGN record when pairing)")
    p.add_argument("file2", nargs="?", default=None, help="optional IN record CSV to overlay")
    p.add_argument(
        "--grid-db",
        type=float,
        nargs="?",
        const=DEFAULT_GRID_DB,
        default=None,
        help=f"evaluate on a uniform dB grid (spacing {DEFAULT_GRID_DB} when no value given)",
    )
    p.set_defaults(func=cmd_apd)

    p = add_parser("simulate", help="generate a synthetic record, optionally with bursts")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--mean-dbm", type=float, required=True, help="mean noise level in dBm")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--sample-rate-hz", type=float, default=8001.0, help="sample rate")
    p.add_argument("--events", default=None, help="JSON file of burst events to inject")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status, outputs, message = args.func(args)
        _write_outputs(Path(args.out), outputs)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return int(ExitStatus.IO_ERROR)
    except (FormatError, ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return int(ExitStatus.BAD_INPUT)
    print(message, file=sys.stdout if status is ExitStatus.OK else sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
