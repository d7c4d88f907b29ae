"""Measurement and characterization of radio impulsive noise (IN).

Workflow: establish a white-noise baseline with the source off, place the
detection threshold 13 dB above its r.m.s. level, extract above-threshold
pulses from records taken with the source on, combine them into bursts
(>50% of a burst's samples must exceed the threshold), then average burst
parameters per measurement and across a campaign. APD curves complement
the burst view.
"""

from .apd import ApdCurve, apd_pair, compute_apd
from .baseline import (
    Baseline,
    WgnValidation,
    compute_rms_level,
    derive_threshold,
    validate_wgn,
)
from .bursts import BurstSet, combine_pulses, detect_bursts, extract_pulses
from .io import CampaignManifest, read_manifest, read_record, write_record
from .model import (
    ConfigError,
    DomainError,
    FormatError,
    MeasurementMeta,
    SampleRecord,
    dbm_to_mw,
    mw_to_dbm,
)
from .stats import (
    MainBurst,
    MainBurstAnalysis,
    MeasurementStats,
    SourceCharacterization,
    aggregate_campaign,
    main_burst,
    measurement_stats,
    std_dev,
)
from .synth import BurstEventSpec, generate_wgn, inject_bursts

__version__ = "0.1.0"

__all__ = [
    "ApdCurve",
    "Baseline",
    "BurstEventSpec",
    "BurstSet",
    "CampaignManifest",
    "ConfigError",
    "DomainError",
    "FormatError",
    "MainBurst",
    "MainBurstAnalysis",
    "MeasurementMeta",
    "MeasurementStats",
    "SampleRecord",
    "SourceCharacterization",
    "WgnValidation",
    "aggregate_campaign",
    "apd_pair",
    "combine_pulses",
    "compute_apd",
    "compute_rms_level",
    "dbm_to_mw",
    "derive_threshold",
    "detect_bursts",
    "extract_pulses",
    "generate_wgn",
    "inject_bursts",
    "main_burst",
    "measurement_stats",
    "mw_to_dbm",
    "read_manifest",
    "read_record",
    "std_dev",
    "validate_wgn",
    "write_record",
]
