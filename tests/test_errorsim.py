"""Error simulation: trial mechanics, summary statistics, and bucketing.

Frozen oracles:
    nearest-rank p95 of [0.01, 0.02, ..., 1.00] = 0.95 (95th of 100 sorted)
    deviations [0.1, -0.3, 0.2]: mae = 0.2, msd ~ 0, p95 = 0.3
    zero noise on all three counts -> deviation exactly 0
"""

import inspect
import math
import os
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
from dpcoverage.mechanism import LaplaceParams, ParameterError, laplace_stream
from dpcoverage.release import (
    PrivateZipRecord,
    RawZipRecord,
    coverage_rows,
    household_column,
    privatize_record,
    release_dataset,
)
from dpcoverage.synth import SynthSpec, generate
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
    singles = [simulate_once(record, 200, 0.1, 42, i) for i in range(1, 9)]
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


@pytest.mark.parametrize("seed", [-1, 2**64, 1.0])
def test_simulation_config_refuses_a_seed_the_noise_kernel_refuses(seed):
    # the seed rule is the noise kernel's: a config it accepted could not draw
    with pytest.raises(ParameterError):
        SimulationConfig(per_query_epsilon=0.1, base_seed=seed, k=5)
    with pytest.raises(ParameterError):
        laplace_stream(LaplaceParams(1.0, 0.1), seed, "00001", "high_speed")


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
    from dpcoverage.mechanism import laplace_sample

    record = priv(low=0.0, high=1e6, services=1e9, non=0.0)
    households = 2_000_000
    params = LaplaceParams(1.0, 0.1)
    for iteration in range(1, 6):
        d = simulate_once(record, households, 0.1, 42, iteration)
        eta_high = laplace_sample(params, 42, record.zone, "high_speed", iteration)
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
    households = {p.zone: 500 for p in privs}
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=9, k=200)
    reports = error_reports_for_release(privs, households, config)
    assert [r.zone for r in reports] == [p.zone for p in privs]
    backward = error_reports_for_release(list(reversed(privs)), households, config)
    assert list(backward) == list(reversed(reports))
    for block_trials in (1, 200, 7 * 200, 1 << 20):  # one zone per block ... all zones in one
        monkeypatch.setattr(errorsim, "BLOCK_TRIALS", block_trials)
        assert list(error_reports_for_release(privs, households, config)) == list(reports)


def _split_case():
    """Five blocks at k = 300, which does not divide BLOCK_TRIALS, with UNDEFINED zones and clamped trials."""
    privs = [priv(zone=f"{i:05d}", services=float(i % 40)) for i in range(1, 1001)]  # services 0 to 39
    households = {p.zone: 100 + int(p.zone) % 7 for p in privs if int(p.zone) % 97}
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=13, k=300)
    assert errorsim.BLOCK_TRIALS % config.k and len(privs) > 4 * (errorsim.BLOCK_TRIALS // config.k)
    return privs, households, config


def test_reports_do_not_depend_on_the_worker_count(monkeypatch):
    privs, households, config = _split_case()
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(errorsim, "_workers", lambda blocks, workers=workers: workers)
        results.append(error_reports_for_release(privs, households, config))
    fractions = results[0].column("defined_fraction")
    assert np.isnan(results[0].column("mae")).any() and ((0 < fractions) & (fractions < 1)).any()
    for other in results[1:]:
        assert other.column("zone") == results[0].column("zone")
        for name in ("mae", "msd", "p95", "k", "defined_fraction"):
            assert other.column(name).tobytes() == results[0].column(name).tobytes(), name


def test_a_reused_workspace_carries_nothing_from_one_block_to_the_next(monkeypatch):
    # np.empty may hand a block the memory an earlier block freed; a zone's
    # report must be what a simulation of that zone alone gives, in the last
    # partial block and after rows with undefined trials too
    privs, households, config = _split_case()
    chosen = range(0, len(privs), 23)
    active = [i for i, p in enumerate(privs) if p.zone in households and p.services_dp > 0]
    per_block = errorsim.BLOCK_TRIALS // config.k
    assert set(active[len(active) // per_block * per_block :]) & set(chosen)

    def statistics(report):
        return [None if value is None else np.float64(value).tobytes()
                for value in (report.mae, report.msd, report.p95, report.defined_fraction)]

    alone = [statistics(estimate_error_ranges(privs[i], households.get(privs[i].zone), config)) for i in chosen]
    for workers in (1, 2):
        monkeypatch.setattr(errorsim, "_workers", lambda blocks, workers=workers: workers)
        reports = error_reports_for_release(privs, households, config)
        assert [statistics(reports[i]) for i in chosen] == alone
    fractions = reports.column("defined_fraction")
    assert any(position % per_block and fractions[active[position - 1]] < 1
               for position, i in enumerate(active) if i in chosen)


class BlockFailed(Exception):
    pass


@pytest.mark.parametrize("where, raised, match", [
    ("00001", BlockFailed, "block failed"),  # the parent's share
    ("00999", RuntimeError, "exit status 1"),  # the last child's share
])
def test_a_failed_block_raises_and_leaves_no_child(monkeypatch, where, raised, match):
    privs, households, config = _split_case()
    trials = errorsim._trials

    def failing(zones, *args):
        if where in zones:
            raise BlockFailed("block failed")
        return trials(zones, *args)

    monkeypatch.setattr(errorsim, "_workers", lambda blocks: 3)
    monkeypatch.setattr(errorsim, "_trials", failing)
    with pytest.raises(raised, match=match):
        error_reports_for_release(privs, households, config)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_stops_when_its_parent_is_gone(monkeypatch):
    privs, households, config = _split_case()
    monkeypatch.setattr(errorsim, "_workers", lambda blocks: 2)
    monkeypatch.setattr(os, "getppid", lambda: -1)  # what every child sees once its parent has died
    with pytest.raises(RuntimeError, match="exit status 1"):
        error_reports_for_release(privs, households, config)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_one_block_simulation_starts_no_process(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=3, k=1000)
    assert estimate_error_ranges(priv(), 200, config).defined_fraction == 1.0


def test_worker_count_is_usable_cpus_capped_by_blocks_and_max(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert [errorsim._workers(blocks) for blocks in (0, 1, 3, 100)] == [1, 1, 3, errorsim.MAX_WORKERS]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 6}, raising=False)
    assert errorsim._workers(100) == 2
    monkeypatch.delattr(os, "fork", raising=False)
    assert errorsim._workers(100) == 1
    monkeypatch.undo()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert errorsim._workers(100) == 1


def _scalar_report(record, households, config):
    """Reference: every trial through the scalar oracle, statistics by hand."""
    trials = [
        simulate_once(record, households, config.per_query_epsilon, config.base_seed, i)
        for i in range(1, config.k + 1)
    ]
    defined = [t for t in trials if t is not None]
    if not defined:
        return None
    return (*summarize_deviations(defined), len(defined) / config.k)


def _check_against_scalar_oracle(privs, households, config):
    """Every zone's report from one error_reports_for_release call against _scalar_report."""
    reports = error_reports_for_release(privs, households, config)
    for record, report in zip(privs, reports):
        figure = households.get(record.zone)
        expected = _scalar_report(record, figure, config) if figure and record.services_dp > 0 else None
        if expected is None:
            assert (report.mae, report.msd, report.p95, report.defined_fraction) == (None, None, None, 0.0)
            continue
        mae, msd, p95, fraction = expected
        assert report.mae == pytest.approx(mae, rel=1e-12)
        assert report.msd == pytest.approx(msd, rel=1e-12, abs=1e-12 * mae)
        assert report.p95 == p95
        assert report.defined_fraction == fraction
    return reports


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
    households = {p.zone: 150 for p in privs if p.zone != "00006"}
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=31, k=300)
    reports = _check_against_scalar_oracle(privs, households, config)
    assert 0.0 < reports[0].defined_fraction < 1.0  # the masked path is exercised


def test_p95_matches_scalar_oracle_when_every_row_has_another_defined_count():
    # one block whose rows all have different defined trial counts, so that
    # each row's nearest rank lies elsewhere
    privs = [priv(zone=f"{i:05d}", services=0.5 + 4 * i) for i in range(8)]
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=31, k=1000)
    assert len(privs) <= errorsim.BLOCK_TRIALS // config.k
    reports = _check_against_scalar_oracle(privs, {p.zone: 150 for p in privs}, config)
    assert len(set(reports.column("defined_fraction").tolist())) == len(privs)


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(per_query_epsilon=0.1, base_seed=0, k=0)
    with pytest.raises(Exception):
        SimulationConfig(per_query_epsilon=-0.1, base_seed=0, k=10)
    with pytest.raises(ValueError):  # 1 / 1e-320 is inf
        SimulationConfig(per_query_epsilon=1e-320, base_seed=0, k=10)
    assert SimulationConfig(per_query_epsilon=0.1, base_seed=0).k == 1000  # default trials


def test_bucket_by_households_hand_case():
    report = ErrorReport("00001", 0.1, 0.01, 0.2, 100, 1.0)
    summaries = bucket_by_households([report], {"00001": 500}, [0, 1000, 10000])
    assert [(s.low, s.high) for s in summaries] == [(0, 1000), (1000, 10000), (10000, None)]
    assert summaries[0].zone_count == 1
    assert summaries[0].mean_mae == pytest.approx(0.1)
    assert summaries[1].zone_count == 0
    assert summaries[1].mean_mae is None


def test_bucket_means_average_member_zones():
    reports = [
        ErrorReport("00001", 0.1, 0.0, 0.2, 10, 1.0),
        ErrorReport("00002", 0.3, 0.0, 0.4, 10, 1.0),
        ErrorReport("00003", None, None, None, 10, 0.0),  # counted, not averaged
        ErrorReport("00004", 0.5, 0.0, 0.6, 10, 1.0),
    ]
    households = {"00001": 100, "00002": 900, "00003": 150, "00004": 5000}
    summaries = bucket_by_households(reports, households, [0, 1000])
    assert summaries[0].zone_count == 3
    assert summaries[0].mean_mae == pytest.approx(0.2)
    assert summaries[1].zone_count == 1
    assert summaries[1].mean_mae == pytest.approx(0.5)


def test_bucket_threshold_validation():
    report = ErrorReport("00001", 0.1, 0.0, 0.2, 10, 1.0)
    with pytest.raises(ValueError):
        bucket_by_households([report], {"00001": 5}, [])
    with pytest.raises(ValueError):
        bucket_by_households([report], {"00001": 5}, [0, 0])
    with pytest.raises(ValueError):
        bucket_by_households([report], {"00001": 5}, [100, 50])
    with pytest.raises(ValueError, match="below the first threshold"):
        bucket_by_households([report], {"00001": 5}, [10, 100])
    for thresholds in ([0, 1.5], [0, "100"], [True, 100]):
        with pytest.raises(ValueError, match="thresholds must be integers"):
            bucket_by_households([report], {"00001": 5}, thresholds)
    for thresholds in ([0, 2**63], [-2**63 - 1, 0]):  # no household figure reaches 2**63
        with pytest.raises(ValueError) as raised:
            bucket_by_households([report], {"00001": 5}, thresholds)
        assert str(raised.value) == f"thresholds must be signed 64-bit integers, got {thresholds!r}"
    assert [s.zone_count for s in bucket_by_households([report], {"00001": 5}, [-2**63, 2**63 - 1])] == [1, 0]


def test_a_zone_without_a_household_figure_is_in_no_bucket():
    reports = [ErrorReport("00001", 0.1, 0.0, 0.2, 10, 1.0), ErrorReport("00002", 0.3, 0.0, 0.4, 10, 1.0)]
    # 00002 has no figure: it is neither counted at the first threshold nor refused as below it
    for thresholds in ([0, 1000], [10, 1000]):
        summaries = bucket_by_households(reports, {"00001": 100}, thresholds)
        assert [s.zone_count for s in summaries] == [1, 0]
        assert summaries[0].mean_mae == pytest.approx(0.1)


def test_error_ranges_cover_the_truth_95_percent_of_the_time():
    # the paper's claim: a zone's p95 bounds how far its estimate is from the
    # truth. Zones are independent, so the share inside is binomial: the
    # tolerance is 4 sigma at the checked zones' count plus 0.001 of bias.
    # Over 30 other seeds (101-130) the mean share was 0.9493 overall and
    # 0.9494 / 0.9495 in the two buckets; nearest rank 950 of 1000 trials
    # predicts 950/1001 = 0.9491.
    counts, households = generate(SynthSpec(10_000, (50, 200_000), (0.1, 0.95), (0.5, 0.9), seed=7))
    figures = dict(zip(households.column("zone"), households.column("households").tolist()))
    privs = release_dataset(counts, "0.1", 8)
    released = coverage_rows(privs, household_column(privs.column("zone"), figures)).column("coverage")
    p95 = error_reports_for_release(privs, figures, SimulationConfig("0.1", 9, k=1000)).column("p95")
    high, services, non_services = (counts.column(label) for label in ("high_speed", "services", "non_services"))
    size = households.column("households")
    truth = np.clip(high * (services + non_services) / (services * size), 0.0, 1.0)
    inside = np.abs(released - truth) <= p95  # clip(raw_coverage) at full precision, not the 3-decimal column
    defined = ~np.isnan(p95)
    assert defined.sum() >= 9_990
    for low, high_end in [(0, None), (10_000, 100_000), (100_000, None)]:
        checked = defined & (size >= low) & (size < (high_end or np.inf))
        n = int(checked.sum())
        assert n >= 1_000
        tolerance = 4 * math.sqrt(0.95 * 0.05 / n) + 0.001
        assert abs(inside[checked].mean() - 0.95) <= tolerance, (low, high_end, n, inside[checked].mean())
