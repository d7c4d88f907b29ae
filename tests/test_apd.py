import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from innoise.apd import MAX_GRID_POINTS, apd_pair, compute_apd
from innoise.model import ConfigError, DomainError, SampleRecord
from innoise.synth import BurstEventSpec, generate_wgn, inject_bursts
from apd_oracle import curve_points, exact_grid_oracle, exceedance_at, exceedance_oracle


def _rec(levels, rate=8001.0, kind="IN"):
    return SampleRecord(levels=levels, sample_rate_hz=rate, kind=kind)


def test_three_sample_curve():
    curve = compute_apd(_rec([-80.0, -70.0, -60.0]))
    assert curve_points(curve) == [(-80.0, 2 / 3), (-70.0, 1 / 3), (-60.0, 0.0)]
    assert exceedance_at(curve, -75.0) == pytest.approx(2 / 3)
    assert curve.n_samples == 3


def test_exceedance_outside_sample_range():
    curve = compute_apd(_rec([-80.0, -70.0, -60.0]))
    assert exceedance_at(curve, -60.0) == 0.0
    assert exceedance_at(curve, -50.0) == 0.0
    assert exceedance_at(curve, -80.0001) == 1.0


def test_constant_record_is_a_step():
    curve = compute_apd(_rec([-80.0] * 10))
    assert curve_points(curve) == [(-80.0, 0.0)]
    assert exceedance_at(curve, -80.1) == 1.0
    assert exceedance_at(curve, -80.0) == 0.0


def test_empty_record_rejected():
    with pytest.raises(DomainError):
        compute_apd(_rec([]))


def test_uniform_grid_spacing_and_coverage():
    curve = compute_apd(_rec([-80.0, -75.3, -70.0]), grid_db=0.1)
    levels = curve.levels_dbm
    assert levels[0] == -80.0
    assert levels[-1] >= -70.0
    assert np.allclose(np.diff(levels), 0.1)
    assert curve.exceedance[0] == pytest.approx(2 / 3)
    assert curve.exceedance[-1] == 0.0


def test_grid_spacing_must_be_positive():
    record = _rec([-80.0, -70.0])
    with pytest.raises(ConfigError):
        compute_apd(record, grid_db=0.0)
    with pytest.raises(ConfigError):
        compute_apd(record, grid_db=-0.5)


def test_grid_point_count_checked_before_allocation(monkeypatch):
    record = _rec([-80.0, -70.0])
    assert compute_apd(record, grid_db=20.0 / MAX_GRID_POINTS).levels_dbm.size <= MAX_GRID_POINTS

    def no_allocation(*args, **kwargs):
        raise AssertionError("grid allocated before its size was checked")

    monkeypatch.setattr(np, "arange", no_allocation)
    with pytest.raises(ConfigError, match="points"):
        compute_apd(record, grid_db=1e-12)
    with pytest.raises(ConfigError, match="points"):
        apd_pair(record, _rec([-3000.0, 2900.0]), grid_db=1e-306)  # the ratio overflows


def test_pair_identical_inputs_identical_curves():
    record = _rec([-90.0, -85.0, -70.0, -70.0])
    wgn_curve, in_curve = apd_pair(record, record)
    assert np.array_equal(wgn_curve.levels_dbm, in_curve.levels_dbm)
    assert np.array_equal(wgn_curve.exceedance, in_curve.exceedance)


def test_pair_shares_grid_and_injection_dominates():
    wgn = generate_wgn(20_000, -100.0, seed=31)
    injected, _ = inject_bursts(wgn, [BurstEventSpec(1000 + 400 * i, 12, 24.0) for i in range(8)])
    wgn_curve, in_curve = apd_pair(wgn, injected)
    assert np.array_equal(wgn_curve.levels_dbm, in_curve.levels_dbm)
    assert np.all(in_curve.exceedance >= wgn_curve.exceedance - 1e-12)


def test_pair_same_distribution_agrees_within_sampling_error():
    a = generate_wgn(50_000, -100.0, seed=1)
    b = generate_wgn(50_000, -100.0, seed=2)
    curve_a, curve_b = apd_pair(a, b, grid_db=1.0)
    # binomial sd at p=0.5, n=5e4 is ~0.0022; allow 6 sigma
    assert np.max(np.abs(curve_a.exceedance - curve_b.exceedance)) < 0.014


def test_curve_monotone_and_ends_at_zero():
    record = generate_wgn(5_000, -100.0, seed=77)
    for grid_db in (None, 0.1, 1.0):
        curve = compute_apd(record, grid_db=grid_db)
        assert np.all(np.diff(curve.exceedance) <= 0)
        assert np.all((curve.exceedance >= 0) & (curve.exceedance <= 1))
        assert curve.exceedance[-1] == 0.0
        assert exceedance_at(curve, float(record.levels.min()) - 0.001) == 1.0


@settings(max_examples=200)
@given(st.lists(st.floats(min_value=-120.0, max_value=-40.0), min_size=1, max_size=60))
def test_matches_sort_and_count_oracle(levels):
    record = _rec(levels)
    curve = compute_apd(record)
    for level, prob in curve_points(curve):
        assert prob == exceedance_oracle(levels, level)
    # between-level queries follow the step function
    for level in np.linspace(min(levels) - 1.0, max(levels) + 1.0, 13):
        assert exceedance_at(curve, level) == exceedance_oracle(levels, level)


# a few levels, so that two drawn records tie within and across themselves,
# and both zeros
FEW_LEVELS = st.sampled_from([-0.0, 0.0, -80.0, -70.5, 5e-324, 1e-300, 12.25])


@settings(max_examples=300)
@given(
    st.integers(1, 40).flatmap(
        lambda n: st.tuples(
            st.lists(FEW_LEVELS, min_size=n, max_size=n),
            st.lists(FEW_LEVELS, min_size=1, max_size=41).filter(lambda b: len(b) != n),
        )
    )
)
def test_pair_grid_and_exceedance_are_exactly_the_oracles(pair):
    wgn, in_ = pair
    curves = apd_pair(_rec(wgn, kind="WGN"), _rec(in_))
    grid, exceedances = exact_grid_oracle(wgn, in_)
    for curve, exceedance in zip(curves, exceedances):
        # repr tells -0.0 from 0.0; each exceedance is count / n, rounded once
        assert list(map(repr, curve.levels_dbm.tolist())) == list(map(repr, grid))
        assert curve.exceedance.tolist() == exceedance


@pytest.mark.parametrize("n", [10, 100, 1_000])
def test_exact_grid_zero_does_not_depend_on_the_sort(n):
    # np.sort orders equal zeros by its SIMD path, so which zero comes first
    # differs between CPUs; the grid holds +0.0 if any record holds +0.0
    mixed = np.random.default_rng(n).choice([-0.0, 0.0, -1.0, 1.0], n)
    mixed[:2] = [0.0, -0.0]
    negative = np.where(mixed == 0.0, -0.0, mixed)
    cases = [
        ([mixed], 0.0), ([negative], -0.0), ([mixed[::-1]], 0.0),
        ([negative, mixed], 0.0), ([mixed, negative], 0.0), ([negative, negative[::-1]], -0.0),
    ]
    for levels, zero in cases:
        records = [_rec(x) for x in levels]
        curve = compute_apd(*records) if len(records) == 1 else apd_pair(*records)[0]
        (at,) = np.flatnonzero(curve.levels_dbm == 0.0)
        assert math.copysign(1.0, curve.levels_dbm[at]) == math.copysign(1.0, zero)
