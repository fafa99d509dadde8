"""Error simulation: trial mechanics, summary statistics, and bucketing.

Frozen oracles:
    nearest-rank p95 of [0.01, 0.02, ..., 1.00] = 0.95 (95th of 100 sorted)
    deviations [0.1, -0.3, 0.2]: mae = 0.2, msd ~ 0, p95 = 0.3
    zero noise on all three counts -> deviation exactly 0
"""

import inspect
import math
from decimal import Decimal

import numpy as np
import pytest

from dpcoverage import errorsim
from dpcoverage.errorsim import (
    ErrorReport,
    SimulationConfig,
    bucket_by_households,
    error_reports_for_release,
    estimate_error_ranges,
    nearest_rank,
    trial_deviations,
)
from dpcoverage.mechanism import NoiseSeed
from dpcoverage.release import HouseholdRecord, PrivateZipRecord, RawZipRecord, privatize_record
from oracles import deviation_from_noise, simulate_once, summarize_deviations

EPS2 = Decimal("0.2")


def priv(zone="00001", low=10.0, high=40.0, services=80.0, non=20.0):
    return PrivateZipRecord(zone, low, high, services, non, EPS2)


def test_zero_noise_gives_zero_deviation():
    assert deviation_from_noise(priv(), 200, 0.0, 0.0, 0.0) == 0.0


def test_trial_with_clamped_services_is_undefined():
    record = priv(services=5.0)
    assert deviation_from_noise(record, 200, 0.0, -5.0, 0.0) is None
    assert deviation_from_noise(record, 200, 0.0, -7.0, 0.0) is None
    assert deviation_from_noise(record, 200, 0.0, -4.0, 0.0) is not None


def test_undefined_release_has_no_deviation():
    record = priv(services=0.0)
    assert deviation_from_noise(record, 200, 1.0, 1.0, 1.0) is None


def test_simulate_once_matches_vectorized_trials():
    record = priv()
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=42, k=8)
    batch = trial_deviations(record, 200, config)
    singles = [simulate_once(record, 200, 0.1, NoiseSeed(42, record.zone, "", i)) for i in range(1, 9)]
    defined = [s for s in singles if s is not None]
    assert list(batch) == defined


def test_estimate_error_ranges_is_deterministic():
    record = priv()
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=42, k=500)
    assert estimate_error_ranges(record, 200, config) == estimate_error_ranges(record, 200, config)


def test_reports_depend_only_on_private_record():
    # two different raw records, privatized under searched seeds so that
    # every noisy count clamps to zero, yield the same private record and
    # therefore bit-identical error reports
    def find_all_zero_seed(raw):
        for seed in range(20_000):
            candidate = privatize_record(raw, "0.1", seed)
            if (candidate.low_speed_dp, candidate.high_speed_dp, candidate.services_dp, candidate.non_services_dp) == (0.0, 0.0, 0.0, 0.0):
                return candidate
        raise AssertionError("no all-clamping seed found in range")

    priv_a = find_all_zero_seed(RawZipRecord("00042", 1, 1, 1, 1))
    priv_b = find_all_zero_seed(RawZipRecord("00042", 2, 2, 2, 2))
    assert priv_a == priv_b
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=7, k=200)
    assert estimate_error_ranges(priv_a, 100, config) == estimate_error_ranges(priv_b, 100, config)

    # and the API cannot see raw counts at all
    parameters = inspect.signature(estimate_error_ranges).parameters
    assert set(parameters) == {"priv", "households", "config"}


def test_report_invariants_across_zones():
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=11, k=2000)
    for zone_idx, services in enumerate((30.0, 80.0, 500.0, 4000.0), start=1):
        record = priv(zone=f"{zone_idx:05d}", high=services / 2, services=services, non=services / 4)
        report = estimate_error_ranges(record, 1000, config)
        d = trial_deviations(record, 1000, config)
        assert report.mae >= 0.0
        assert abs(report.msd) <= report.mae + 1e-12
        assert np.any(np.isclose(np.abs(d), report.p95, rtol=0, atol=0))  # p95 is a member
        assert report.k == 2000
        assert report.defined_fraction == d.size / 2000


def test_defined_fraction_drops_when_services_clamp():
    # services_dp = 3 with scale-10 noise clamps often
    record = priv(services=3.0)
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=5, k=4000)
    report = estimate_error_ranges(record, 100, config)
    assert 0.0 < report.defined_fraction < 1.0
    # P(clamp) = 0.5 * exp(-3/10) ~ 0.37; allow a generous band
    assert 0.5 < report.defined_fraction < 0.75


def test_undefined_zone_reports_absent_statistics():
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=5, k=100)
    for report in (
        estimate_error_ranges(priv(services=0.0), 100, config),
        estimate_error_ranges(priv(), None, config),
    ):
        assert report.mae is None and report.msd is None and report.p95 is None
        assert report.defined_fraction == 0.0
        assert report.k == 100


def test_nearest_rank_oracle_values():
    hundred = [i / 100 for i in range(1, 101)]
    assert nearest_rank(hundred, 0.95) == 0.95
    assert nearest_rank([7.0], 0.95) == 7.0
    assert nearest_rank([10.0, 20.0], 0.95) == 20.0  # ceil(1.9) = 2nd
    assert nearest_rank([3.0, 1.0, 2.0], 1.0) == 3.0
    assert nearest_rank(hundred, 0.01) == 0.01


def test_nearest_rank_domain():
    with pytest.raises(ValueError):
        nearest_rank([], 0.95)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 1.5)


def test_summarize_deviations_hand_values():
    mae, msd, p95 = summarize_deviations([0.1, -0.3, 0.2])
    assert mae == pytest.approx(0.2)
    assert msd == pytest.approx(0.0, abs=1e-15)
    assert p95 == 0.3


def test_doubling_epsilon_halves_mae():
    record = priv(low=0.0, high=1e6, services=2e6, non=1e6)
    loose = estimate_error_ranges(record, 4_000_000, SimulationConfig(per_query_epsilon=0.1, base_seed=3, k=100_000))
    tight = estimate_error_ranges(record, 4_000_000, SimulationConfig(per_query_epsilon=0.2, base_seed=3, k=100_000))
    assert abs(loose.mae / tight.mae - 2.0) < 0.1  # within 5%


def test_first_order_deviation_for_huge_services_count():
    # with services ~ 1e9 the noise on services and non_services is
    # negligible and d_i ~ -eta_H / households
    from dpcoverage.mechanism import LaplaceParams, laplace_sample

    record = priv(low=0.0, high=1e6, services=1e9, non=0.0)
    households = 2_000_000
    params = LaplaceParams(1.0, 0.1)
    for iteration in range(1, 6):
        d = simulate_once(record, households, 0.1, NoiseSeed(42, record.zone, "", iteration))
        eta_high = laplace_sample(params, NoiseSeed(42, record.zone, "high_speed", iteration))
        assert d == pytest.approx(-eta_high / households, rel=1e-2)


def test_clamping_shifts_signed_deviation():
    # tiny counts clamp constantly, so the trials are materially biased
    record = priv(low=1.0, high=1.0, services=2.0, non=1.0)
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=17, k=20_000)
    report = estimate_error_ranges(record, 10, config)
    d = trial_deviations(record, 10, config)
    standard_error = float(np.std(d)) / math.sqrt(d.size)
    assert abs(report.msd) > 4 * standard_error


def test_no_clamping_keeps_deviations_centered():
    record = priv(low=0.0, high=1e6, services=2e6, non=1e6)
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=23, k=50_000)
    report = estimate_error_ranges(record, 4_000_000, config)
    d = trial_deviations(record, 4_000_000, config)
    assert report.defined_fraction == 1.0
    assert abs(report.msd) <= 4 * float(np.std(d)) / math.sqrt(d.size)


def test_error_reports_for_release_order_and_block_size(monkeypatch):
    privs = [priv(zone=f"{i:05d}", services=50.0 + i) for i in range(1, 30)]
    households = {p.zone: HouseholdRecord(p.zone, 500) for p in privs}
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=9, k=200)
    reports = error_reports_for_release(privs, households, config)
    assert [r.zone for r in reports] == [p.zone for p in privs]
    backward = error_reports_for_release(list(reversed(privs)), households, config)
    assert backward == list(reversed(reports))
    for block_trials in (1, 200, 7 * 200, 1 << 20):  # one zone per block ... all zones in one
        monkeypatch.setattr(errorsim, "BLOCK_TRIALS", block_trials)
        assert error_reports_for_release(privs, households, config) == reports


def _scalar_report(record, households, config):
    """Reference: every trial through the scalar oracle, statistics by hand."""
    trials = [
        simulate_once(record, households, config.per_query_epsilon, NoiseSeed(config.base_seed, record.zone, "", i))
        for i in range(1, config.k + 1)
    ]
    defined = [t for t in trials if t is not None]
    if not defined:
        return None
    return (*summarize_deviations(defined), len(defined) / config.k)


def test_error_reports_match_scalar_oracle():
    # clamping zones (some trials undefined), an undefined release, no
    # household figure, and ordinary zones
    privs = [
        priv(zone="00001", services=3.0),
        priv(zone="00002", services=12.0, high=4.0, non=1.0),
        priv(zone="00003"),
        priv(zone="00004", services=0.0),
        priv(zone="00005", services=5000.0, high=2000.0, non=900.0),
        priv(zone="00006", services=40.0),
    ]
    households = {p.zone: HouseholdRecord(p.zone, 150) for p in privs if p.zone != "00006"}
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=31, k=300)
    reports = error_reports_for_release(privs, households, config)
    assert 0.0 < reports[0].defined_fraction < 1.0  # the masked path is exercised
    for record, report in zip(privs, reports):
        figure = households.get(record.zone)
        expected = _scalar_report(record, figure.households, config) if figure and record.services_dp > 0 else None
        if expected is None:
            assert (report.mae, report.msd, report.p95, report.defined_fraction) == (None, None, None, 0.0)
            continue
        mae, msd, p95, fraction = expected
        assert report.mae == pytest.approx(mae, rel=1e-12)
        assert report.msd == pytest.approx(msd, rel=1e-12, abs=1e-12 * mae)
        assert report.p95 == p95
        assert report.defined_fraction == fraction


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(per_query_epsilon=0.1, base_seed=0, k=0)
    with pytest.raises(Exception):
        SimulationConfig(per_query_epsilon=-0.1, base_seed=0, k=10)
    assert SimulationConfig(per_query_epsilon=0.1, base_seed=0).k == 1000  # default trials


def test_bucket_by_households_hand_case():
    report = ErrorReport("00001", 0.1, 0.01, 0.2, 100, 1.0)
    summaries = bucket_by_households([(report, 500)], [0, 1000, 10000])
    assert [(s.low, s.high) for s in summaries] == [(0, 1000), (1000, 10000), (10000, None)]
    assert summaries[0].zone_count == 1
    assert summaries[0].mean_mae == pytest.approx(0.1)
    assert summaries[1].zone_count == 0
    assert summaries[1].mean_mae is None


def test_bucket_means_average_member_zones():
    reports = [
        (ErrorReport("00001", 0.1, 0.0, 0.2, 10, 1.0), 100),
        (ErrorReport("00002", 0.3, 0.0, 0.4, 10, 1.0), 900),
        (ErrorReport("00003", None, None, None, 10, 0.0), 150),  # counted, not averaged
        (ErrorReport("00004", 0.5, 0.0, 0.6, 10, 1.0), 5000),
    ]
    summaries = bucket_by_households(reports, [0, 1000])
    assert summaries[0].zone_count == 3
    assert summaries[0].mean_mae == pytest.approx(0.2)
    assert summaries[1].zone_count == 1
    assert summaries[1].mean_mae == pytest.approx(0.5)


def test_bucket_threshold_validation():
    report = ErrorReport("00001", 0.1, 0.0, 0.2, 10, 1.0)
    with pytest.raises(ValueError):
        bucket_by_households([(report, 5)], [])
    with pytest.raises(ValueError):
        bucket_by_households([(report, 5)], [0, 0])
    with pytest.raises(ValueError):
        bucket_by_households([(report, 5)], [100, 50])
    with pytest.raises(ValueError, match="below the first threshold"):
        bucket_by_households([(report, 5)], [10, 100])
