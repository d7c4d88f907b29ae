"""Core data model: dBm level records, scenario metadata, unit conversions.

Levels travel through the pipeline in dBm (receiver-native). Wherever a
"linear average" is required it is taken over linear power in milliwatts
and converted back to dB, never over the dB values themselves.

Every level lies in [LEVEL_MIN_DBM, LEVEL_MAX_DBM], far beyond any receiver:
each linear power is a normal double in [1e-300, 1e290] mW, and as an array
holds under 2^60 doubles, every sum of them is below 1.2e308 mW.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

LEVEL_MIN_DBM = -3000.0
LEVEL_MAX_DBM = 2900.0

# Semantic aliases: a level in dBm, a linear power in milliwatts (> 0).
LevelDbm = float
PowerMw = float


class DomainError(ValueError):
    """Input outside an operation's mathematical or physical domain."""


class ConfigError(ValueError):
    """Inconsistent or out-of-range configuration value."""


class FormatError(ValueError):
    """Malformed input file."""


class LevelError(DomainError):
    """A level outside [LEVEL_MIN_DBM, LEVEL_MAX_DBM], NaN and infinities
    included: ``index`` is its place in its array and ``reason`` the message
    after the place."""

    def __init__(self, where: str, index: int, reason: str) -> None:
        super().__init__(f"{where}: {reason}")
        self.index, self.reason = index, reason


@dataclass(frozen=True)
class MeasurementMeta:
    """Scenario description attached to a record.

    Free text apart from the carrier frequency; the point is to describe the
    measured scenario (which source, which operational change, where) in
    enough detail that results from different sources stay comparable. Its
    fields are the record CSV's meta header keys. Construction raises
    DomainError for a ``frequency_khz`` that is not a positive finite number.
    """

    frequency_khz: float | None = None
    event: str = ""
    location: str = ""
    source: str = ""
    started_at: str | None = None

    def __post_init__(self) -> None:
        freq = self.frequency_khz
        if freq is not None and not (math.isfinite(freq) and freq > 0):
            raise DomainError(f"frequency_khz must be > 0 and finite when present, got {freq}")


@dataclass(frozen=True, eq=False)
class SampleRecord:
    """A time series of receiver level samples in dBm.

    Samples are envelope level readings from a zero-span sample detector;
    no phase information is carried. The array is copied and frozen at
    construction so records are safe to share between threads. A record
    does not say whether it is a WGN or an IN record: each command gives it
    that role by the argument it comes in.

    Construction checks every record invariant and raises DomainError for
    an empty record, a sample outside [LEVEL_MIN_DBM, LEVEL_MAX_DBM] (NaN
    and infinities included; ``_check_levels``) or a sample rate that is
    not finite or is below 1e-3 Hz (``checked_sample_rate``). The meta's
    frequency was checked when the meta was built (``MeasurementMeta``).
    """

    levels: np.ndarray
    sample_rate_hz: float
    meta: MeasurementMeta = field(default_factory=MeasurementMeta)

    def __post_init__(self) -> None:
        levels = np.array(self.levels, dtype=np.float64, copy=True).reshape(-1)
        levels.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        if levels.size == 0:
            raise DomainError("empty record")
        _check_levels(levels, "sample at index {}")
        object.__setattr__(self, "sample_rate_hz", checked_sample_rate(self.sample_rate_hz))

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


def _check_levels(levels: np.ndarray, name: str) -> None:
    """LevelError naming the first level outside [LEVEL_MIN_DBM, LEVEL_MAX_DBM]
    as ``name.format(index)``, looked for only when a min or max (or NaN) fails."""
    if not (levels.min() >= LEVEL_MIN_DBM and levels.max() <= LEVEL_MAX_DBM):
        i = int(np.argmin((levels >= LEVEL_MIN_DBM) & (levels <= LEVEL_MAX_DBM)))
        raise LevelError(
            name.format(i),
            i,
            f"{float(levels[i])!r} dBm; a level must be finite "
            f"and in [{LEVEL_MIN_DBM:g}, {LEVEL_MAX_DBM:g}] dBm",
        )


def dbm_to_mw(level: LevelDbm) -> PowerMw:
    """Convert a dBm level in [LEVEL_MIN_DBM, LEVEL_MAX_DBM] to milliwatts."""
    level = float(level)
    _check_levels(np.array([level]), "level")
    return 10.0 ** (level / 10.0)


def mw_to_dbm(power: PowerMw) -> LevelDbm:
    """Convert linear milliwatt power to a dBm level: 10*log10(power)."""
    power = float(power)
    if not (power > 0.0 and math.isfinite(power)):
        raise DomainError(f"power must be > 0 mW and finite, got {power!r}")
    return 10.0 * math.log10(power)


# How many samples mean_power_dbm converts to linear power at a time: no
# array holds every sample's power, and a bucket of one block's parts holds
# at most 2**16 integers below 2**27, so its float sum, below 2**43, is exact.
_POWER_BLOCK = 1 << 16
# np.frexp's exponent of the least positive double, 2**-1074 = 0.5 * 2**-1073
_FREXP_MIN = -1073


def mean_power_dbm(levels: np.ndarray) -> LevelDbm:
    """dB value of the mean linear power of ``levels``, a SampleRecord's and
    so never empty.

    The powers are summed exactly, in one Python int, which is then rounded
    to a double once, to nearest and a tie to even, as ``math.fsum`` rounds
    the same sum; that double is divided by the count. So the result does
    not change with the sample order or the block size, down to the last
    bit. A block's powers p = f 2**e, f in [0.5, 1), by ``np.frexp``, are
    integers f 2**53 = hi 2**26 + lo, hi < 2**27 and lo < 2**26, times
    2**(e - 53); ``np.bincount`` sums each part by exponent, exactly, and
    the int gathers the bucket sums, each shifted by its exponent.
    """
    levels = np.asarray(levels, dtype=np.float64)
    total = 0  # the sum of the powers times 2**(53 - _FREXP_MIN)
    for i in range(0, levels.size, _POWER_BLOCK):
        frac = np.power(10.0, levels[i : i + _POWER_BLOCK] / 10.0)
        exp = np.empty(frac.size, np.intp)
        np.frexp(frac, out=(frac, exp))
        least = int(np.minimum.reduce(exp))
        exp -= least
        frac *= 2.0**27
        hi = np.floor(frac)
        frac -= hi
        frac *= 2.0**26  # lo
        hi = np.bincount(exp, hi).astype(np.int64).tolist()
        lo = np.bincount(exp, frac).astype(np.int64).tolist()
        del frac, exp  # before the next block's arrays, so the peak stays flat
        block = sum(map(operator.lshift, hi, range(len(hi)))) << 26
        block += sum(map(operator.lshift, lo, range(len(lo))))
        total += block << (least - _FREXP_MIN)
    # int / int is the true quotient rounded once; this one is a power of 2
    return mw_to_dbm(total / (1 << (53 - _FREXP_MIN)) / levels.size)
