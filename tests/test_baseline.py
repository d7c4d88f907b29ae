import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from innoise.baseline import compute_rms_level, derive_threshold, validate_wgn
from innoise.io import write_baseline_report
from innoise.model import ConfigError, DomainError, SampleRecord
from innoise.synth import generate_wgn


def _rec(levels, rate=8001.0):
    return SampleRecord(levels=levels, sample_rate_hz=rate, kind="WGN")


def test_rms_of_constant_record():
    assert compute_rms_level(_rec([-80.0] * 16)) == pytest.approx(-80.0, abs=1e-12)


def test_rms_of_two_level_record():
    # mean of 1e-6 and 1e-7 mW is 5.5e-7 mW = -62.5964 dBm
    assert compute_rms_level(_rec([-60.0, -70.0])) == pytest.approx(-62.5964, abs=1e-3)


def test_rms_idempotent_on_constants():
    for x in (-95.5, -60.0, 3.25):
        assert compute_rms_level(_rec([x, x, x, x])) == pytest.approx(x, abs=1e-12)


def test_rms_empty_record():
    with pytest.raises(DomainError):
        compute_rms_level(_rec([]))


def test_rms_invariant_under_permutation_exactly():
    rng = np.random.Generator(np.random.Philox(5))
    levels = -90.0 + 10.0 * rng.random(500)
    shuffled = rng.permutation(levels)
    assert compute_rms_level(_rec(levels)) == compute_rms_level(_rec(shuffled))


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_rms_shift_property(shift):
    levels = np.array([-92.0, -88.5, -90.1, -85.0, -94.7])
    base = compute_rms_level(_rec(levels))
    assert compute_rms_level(_rec(levels + shift)) == pytest.approx(base + shift, abs=1e-9)


def test_derive_threshold_default_offset():
    base = derive_threshold(-80.0)
    assert base.offset_db == 13.0
    assert base.threshold_dbm == -67.0


def test_derive_threshold_arithmetic():
    assert derive_threshold(-62.60, 13.0).threshold_dbm == pytest.approx(-49.60, abs=1e-12)


def test_derive_threshold_rejects_nonpositive_offset():
    with pytest.raises(ConfigError):
        derive_threshold(-80.0, 0.0)
    with pytest.raises(ConfigError):
        derive_threshold(-80.0, -1.0)


def test_validate_wgn_all_below_threshold():
    base = derive_threshold(-80.0)
    record = _rec([-80.0, -70.0, -67.1])  # max 0.1 dB below threshold
    result = validate_wgn(record, base)
    assert result.passed
    assert result.exceed_count == 0
    assert result.exceed_indices == ()
    assert result.max_level_dbm == -67.1


def test_validate_wgn_sample_at_threshold_is_not_exceedance():
    base = derive_threshold(-80.0)
    result = validate_wgn(_rec([-90.0, -67.0]), base)
    assert result.passed and result.exceed_count == 0


def test_validate_wgn_single_exceedance_reported():
    base = derive_threshold(-80.0)
    result = validate_wgn(_rec([-90.0, -66.9, -90.0]), base)
    assert not result.passed
    assert result.exceed_count == 1
    assert result.exceed_indices == (1,)
    assert result.max_level_dbm == -66.9


def test_validate_wgn_fraction_allows_some_exceedances():
    base = derive_threshold(-80.0)
    record = _rec([-66.0] + [-90.0] * 99)
    assert not validate_wgn(record, base, max_exceed_fraction=0.0).passed
    assert validate_wgn(record, base, max_exceed_fraction=0.01).passed


@pytest.mark.parametrize("fraction", [float("nan"), float("inf"), -0.01])
def test_validate_wgn_rejects_bad_fraction(fraction):
    with pytest.raises(ConfigError, match="max_exceed_fraction"):
        validate_wgn(_rec([-90.0, -66.0]), derive_threshold(-80.0), max_exceed_fraction=fraction)


def test_validate_wgn_passes_iff_max_below_threshold():
    base = derive_threshold(-80.0)
    rng = np.random.Generator(np.random.Philox(9))
    for _ in range(50):
        levels = -90.0 + 30.0 * rng.random(40)
        result = validate_wgn(_rec(levels), base)
        assert result.passed == (levels.max() <= base.threshold_dbm)


def test_a_zero_maximum_writes_one_baseline_whatever_the_sample_order(tmp_path):
    # max() keeps whichever zero its SIMD path meets first: with -0.0 and 0.0
    # among the levels, a record and its reversal may disagree on the sign
    path = tmp_path / "baseline.json"
    for i, j in itertools.permutations(range(9), 2):
        levels = np.full(9, -5.0)
        levels[[i, j]] = -0.0, 0.0
        texts = []
        for record in (_rec(levels), _rec(levels[::-1])):
            baseline = derive_threshold(compute_rms_level(record))
            write_baseline_report(baseline, validate_wgn(record, baseline), path)
            texts.append(path.read_text())
        assert texts[0] == texts[1], (i, j)
        assert '"max_level_dbm": 0.0\n' in texts[0]


def test_validate_wgn_on_synthetic_rayleigh_envelope():
    # expected exceedances for 1e5 samples: ~2e-4, so a clean pass
    record = generate_wgn(100_000, -100.0, seed=42)
    base = derive_threshold(compute_rms_level(record))
    assert validate_wgn(record, base).passed
