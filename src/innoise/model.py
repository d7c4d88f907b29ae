"""Core data model: dBm level records, scenario metadata, unit conversions.

Levels travel through the pipeline in dBm (receiver-native). Wherever a
"linear average" is required it is taken over linear power in milliwatts
and converted back to dB, never over the dB values themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WGN = "WGN"
IN = "IN"
RECORD_KINDS = (WGN, IN)

# Semantic aliases: a level in dBm, a linear power in milliwatts (> 0).
LevelDbm = float
PowerMw = float


class DomainError(ValueError):
    """Input outside an operation's mathematical or physical domain."""


class ConfigError(ValueError):
    """Inconsistent or out-of-range configuration value."""


class FormatError(ValueError):
    """Malformed input file."""


@dataclass(frozen=True)
class MeasurementMeta:
    """Scenario description attached to a record.

    Free text apart from the carrier frequency; the point is to describe the
    measured scenario (which source, which operational change, where) in
    enough detail that results from different sources stay comparable.
    """

    frequency_khz: float | None = None
    event: str = ""
    location: str = ""
    source: str = ""
    started_at: str | None = None


@dataclass(frozen=True, eq=False)
class SampleRecord:
    """A time series of receiver level samples in dBm.

    Samples are envelope level readings from a zero-span sample detector;
    no phase information is carried. The array is copied and frozen at
    construction so records are safe to share between threads.

    Construction checks every record invariant and raises DomainError for
    an empty record, a non-finite sample, a sample whose linear power in mW
    is beyond the float range, a sample rate that is not finite or is below
    1e-3 Hz (``checked_sample_rate``), an unknown ``kind`` or a
    ``meta.frequency_khz`` that is not a positive finite number.
    """

    levels: np.ndarray
    sample_rate_hz: float
    kind: str = IN
    meta: MeasurementMeta = field(default_factory=MeasurementMeta)

    def __post_init__(self) -> None:
        levels = np.array(self.levels, dtype=np.float64, copy=True).reshape(-1)
        levels.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        if levels.size == 0:
            raise DomainError("empty record")
        finite = np.isfinite(levels)
        if not finite.all():
            raise DomainError(f"non-finite sample at index {int(np.argmin(finite))}")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.power(10.0, levels.max() / 10.0)):
                i = int(np.argmin(np.isfinite(np.power(10.0, levels / 10.0))))
                raise DomainError(
                    f"sample at index {i}: {float(levels[i])!r} dBm has no finite power in mW"
                )
        object.__setattr__(self, "sample_rate_hz", checked_sample_rate(self.sample_rate_hz))
        if self.kind not in RECORD_KINDS:
            raise DomainError(f"kind must be one of {RECORD_KINDS}, got {self.kind!r}")
        freq = self.meta.frequency_khz
        if freq is not None and not (math.isfinite(freq) and freq > 0):
            raise DomainError(f"frequency_khz must be > 0 and finite when present, got {freq}")

    def __len__(self) -> int:
        return int(self.levels.size)


def checked_sample_rate(rate_hz: float) -> float:
    """``rate_hz`` as a float; DomainError unless it is finite and >= 1e-3 Hz.

    The floor bounds a duration of n samples by n * 10^6 ms, so durations,
    their means and deviations stay finite and fit the 2-decimal tables.
    """
    rate_hz = float(rate_hz)
    if not (math.isfinite(rate_hz) and rate_hz >= 1e-3):
        raise DomainError(f"sample_rate_hz must be finite and >= 0.001 Hz, got {rate_hz}")
    return rate_hz


def dbm_to_mw(level: LevelDbm) -> PowerMw:
    """Convert a dBm level to linear power in milliwatts: 10^(level/10)."""
    level = float(level)
    if not math.isfinite(level):
        raise DomainError(f"level must be finite, got {level!r}")
    try:
        return 10.0 ** (level / 10.0)
    except OverflowError:
        raise DomainError(f"level {level!r} dBm is beyond the float range in mW") from None


def mw_to_dbm(power: PowerMw) -> LevelDbm:
    """Convert linear milliwatt power to a dBm level: 10*log10(power)."""
    power = float(power)
    if not (power > 0.0 and math.isfinite(power)):
        raise DomainError(f"power must be > 0 mW and finite, got {power!r}")
    return 10.0 * math.log10(power)


def mean_power_dbm(levels: np.ndarray) -> LevelDbm:
    """dB value of the mean linear power of ``levels``.

    The sum is accumulated exactly (math.fsum), so the result is invariant
    under sample permutation down to the last bit. A mean power beyond the
    float range raises DomainError.
    """
    levels = np.asarray(levels, dtype=np.float64)
    if levels.size == 0:
        raise DomainError("empty record")
    with np.errstate(over="ignore"):
        powers = np.power(10.0, levels / 10.0)
    return mw_to_dbm(power_sum(powers.tolist()) / levels.size)


def power_sum(powers: list[PowerMw]) -> PowerMw:
    """Exact sum of linear powers (math.fsum); inf when it overflows."""
    try:
        return math.fsum(powers)
    except OverflowError:
        return math.inf
