import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from innoise import model
from innoise.model import (
    LEVEL_MAX_DBM,
    LEVEL_MIN_DBM,
    DomainError,
    MeasurementMeta,
    SampleRecord,
    dbm_to_mw,
    mean_power_dbm,
    mw_to_dbm,
)


OUTSIDE_LEVELS = (
    np.nextafter(LEVEL_MIN_DBM, -math.inf),
    np.nextafter(LEVEL_MAX_DBM, math.inf),
    3082.0,  # about 1.6e308 mW: two such powers sum past the float range
    -1e300,
    1e308,
    math.nan,
    math.inf,
    -math.inf,
)


def test_dbm_to_mw_known_values():
    assert dbm_to_mw(0.0) == pytest.approx(1.0, abs=1e-15)
    assert dbm_to_mw(-30.0) == pytest.approx(0.001, rel=1e-12)
    # hand-computed inverse of 10*log10(5.5e-7)
    assert dbm_to_mw(-62.5964) == pytest.approx(5.5e-7, abs=1e-10)


def test_mw_to_dbm_known_values():
    assert mw_to_dbm(1.0) == 0.0
    assert mw_to_dbm(5.5e-7) == pytest.approx(-62.5964, abs=1e-4)
    assert mw_to_dbm(dbm_to_mw(-80.0)) == pytest.approx(-80.0, abs=1e-9)


def test_conversion_domain_errors():
    with pytest.raises(DomainError):
        dbm_to_mw(float("nan"))
    with pytest.raises(DomainError):
        dbm_to_mw(float("inf"))
    with pytest.raises(DomainError):
        mw_to_dbm(0.0)
    with pytest.raises(DomainError):
        mw_to_dbm(-1.0)
    with pytest.raises(DomainError):
        mw_to_dbm(float("nan"))
    with pytest.raises(DomainError):
        mw_to_dbm(float("inf"))
    # both bounds are levels; the next double outside either, or far past it, is not
    assert dbm_to_mw(LEVEL_MIN_DBM) == 1e-300
    assert dbm_to_mw(LEVEL_MAX_DBM) == 1e290
    for level in OUTSIDE_LEVELS:
        with pytest.raises(DomainError, match=r"^level: .* a level must be finite and in \[-3000, 2900\] dBm$"):
            dbm_to_mw(level)


@given(st.lists(st.floats(min_value=-400.0, max_value=400.0), min_size=1, max_size=50))
def test_mean_power_has_the_same_bits_for_every_block_size(levels):
    levels = np.array(levels)
    expected = mean_power_dbm(levels).hex()
    for block in (1, 3):
        with mock.patch.object(model, "_POWER_BLOCK", block):
            assert mean_power_dbm(levels).hex() == expected


@given(st.floats(min_value=-400.0, max_value=400.0))
def test_round_trip_within_nano_db(level):
    assert mw_to_dbm(dbm_to_mw(level)) == pytest.approx(level, abs=1e-9)


@given(
    st.floats(min_value=-400.0, max_value=400.0),
    st.floats(min_value=1e-6, max_value=100.0),
)
def test_dbm_to_mw_strictly_monotonic(level, step):
    assert dbm_to_mw(level + step) > dbm_to_mw(level)


def test_mean_power_dbm_of_constants_is_identity():
    for x in (-80.0, -62.3, 0.0, 17.5):
        assert mean_power_dbm(np.full(5, x)) == pytest.approx(x, abs=1e-12)


def test_record_copies_and_freezes_levels():
    src = np.array([-80.0, -81.0])
    record = SampleRecord(levels=src, sample_rate_hz=8001.0)
    src[0] = 0.0
    assert record.levels[0] == -80.0
    with pytest.raises(ValueError):
        record.levels[0] = 1.0


# A SampleRecord validates itself: construction is the one invariant check.


def test_validate_record_accepts_four_second_capture():
    record = SampleRecord(levels=np.full(32004, -85.0), sample_rate_hz=8001.0)
    assert len(record) == 32004
    assert len(record) / record.sample_rate_hz == pytest.approx(4.0, rel=1e-3)


def test_validate_record_empty():
    with pytest.raises(DomainError, match="empty record"):
        SampleRecord(levels=[], sample_rate_hz=8001.0)


def test_validate_record_names_nan_index():
    levels = [-80.0] * 10
    levels[7] = math.nan
    with pytest.raises(DomainError, match="index 7"):
        SampleRecord(levels=levels, sample_rate_hz=8001.0)
    levels[7] = -math.inf
    with pytest.raises(DomainError, match="index 7"):
        SampleRecord(levels=levels, sample_rate_hz=8001.0)


def test_validate_record_level_range():
    record = SampleRecord(levels=[LEVEL_MAX_DBM, -80.0, LEVEL_MIN_DBM], sample_rate_hz=8001.0)
    assert record.levels.tolist() == [2900.0, -80.0, -3000.0]
    assert math.isfinite(mean_power_dbm(np.full(10, LEVEL_MAX_DBM)))
    for level in OUTSIDE_LEVELS:
        # the first sample outside the range is named, after one inside it
        levels = [-80.0, LEVEL_MIN_DBM, level, LEVEL_MAX_DBM, level]
        with pytest.raises(DomainError, match=r"^sample at index 2: .* dBm; a level must be"):
            SampleRecord(levels=levels, sample_rate_hz=8001.0)


def test_validate_record_bad_rate_and_frequency():
    for kwargs, message in [
        ({"sample_rate_hz": 0.0}, "sample_rate_hz"),
        ({"sample_rate_hz": -5.0}, "sample_rate_hz"),
        ({"sample_rate_hz": math.inf}, "sample_rate_hz"),
        ({"sample_rate_hz": math.nan}, "sample_rate_hz"),
        ({"sample_rate_hz": 1e-4}, "sample_rate_hz"),  # below the 1e-3 Hz floor
        ({"meta": {"frequency_khz": -5.0}}, "frequency_khz"),
        ({"meta": {"frequency_khz": 0.0}}, "frequency_khz"),
        ({"meta": {"frequency_khz": math.inf}}, "frequency_khz"),
    ]:
        with pytest.raises(DomainError, match=message):
            meta = MeasurementMeta(**kwargs.pop("meta", {}))
            SampleRecord(**{"levels": [-80.0], "sample_rate_hz": 8001.0, "meta": meta, **kwargs})


@pytest.mark.parametrize("frequency_khz", [math.inf, math.nan, 0.0, -5.0])
def test_meta_refuses_a_frequency_that_is_not_positive_and_finite(frequency_khz):
    # every meta is checked when it is built, read from a record or not, so
    # no campaign report can write a frequency that is not JSON (Infinity)
    with pytest.raises(DomainError, match=r"^frequency_khz must be > 0 and finite"):
        MeasurementMeta(frequency_khz=frequency_khz, event="e")
