"""Acceptance gate: every shipping criterion, one test each.

Each test re-derives its expected values from analytic formulas or an
independently coded reference, never from the implementation under test.
A test prints its PASS line only after every assertion has held. Run
with -s to see the lines.

Frozen oracles used below:
    Lap(scale λ): E|X| = λ, sd = λ√2, P(X ≤ -t) = ½e^(-t/λ) for t ≥ 0,
    95th percentile of |X| = λ·ln 20 ≈ 29.9573 at λ = 10.
"""

import hashlib
import inspect
import math
import time
from decimal import Decimal
from pathlib import Path

import numpy as np

from dpcoverage import io
from dpcoverage.accountant import Query, as_epsilon, par, seq, total_epsilon
from dpcoverage.cli import run
from dpcoverage.errorsim import (
    SimulationConfig,
    estimate_error_ranges,
    bucket_by_households,
    error_reports_for_release,
    nearest_rank,
    trial_deviations,
)
from dpcoverage.mechanism import LaplaceParams, NoiseSeed, laplace_stream, privatize_count
from dpcoverage.release import (
    PrivateZipRecord,
    RawZipRecord,
    compute_coverage,
    privatize_record,
    release_query_plan,
)


def test_c01_composition_arithmetic():
    hand_plan = seq(
        par(Query("a", "0.1"), Query("b", "0.1")),
        par(Query("c", "0.1"), Query("d", "0.1")),
    )
    assert total_epsilon(hand_plan) == Decimal("0.2")
    release_plan = release_query_plan(as_epsilon("0.1"))
    assert total_epsilon(release_plan) == Decimal("0.2")
    assert str(total_epsilon(release_plan)) == "0.2"  # decimal-exact, zero tolerance
    print("ACCEPTANCE C1 (composition arithmetic): PASS")


def test_c02_laplace_sampler_moments():
    start = time.perf_counter()
    params = LaplaceParams(1.0, 0.1)  # scale 10
    draws = laplace_stream(params, 20260815, "00000", "moments", count=1_000_000)
    scale = 10.0
    # 4 sigma of the mean at sd = scale*sqrt(2)
    assert abs(draws.mean()) <= 4 * scale * math.sqrt(2) / math.sqrt(draws.size)
    assert abs(draws.mean()) <= 0.057
    assert abs(np.abs(draws).mean() - scale) <= 0.02 * scale
    p95 = nearest_rank(np.abs(draws), 0.95)
    assert abs(p95 - scale * math.log(20.0)) <= 0.03 * scale * math.log(20.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print("ACCEPTANCE C2 (laplace sampler moments): PASS")


def test_c03_clamp_probability():
    start = time.perf_counter()
    params = LaplaceParams(1.0, 0.1)
    n = 100_000
    noise = laplace_stream(params, 77, "00000", "clamp", count=n)
    # cross-check the stream against the scalar privatization on a prefix
    for i in range(50):
        single = privatize_count(2.0, params, NoiseSeed(77, "00000", "clamp", i))
        assert single == max(0.0, 2.0 + noise[i])
    outputs = np.maximum(0.0, 2.0 + noise)
    zero_fraction = float(np.count_nonzero(outputs == 0.0)) / n
    analytic = 0.5 * math.exp(-2.0 / 10.0)  # P(2 + X <= 0), X ~ Lap(10)
    assert abs(zero_fraction - analytic) <= 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print("ACCEPTANCE C3 (clamp probability): PASS")


def test_c04_coverage_formula_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    n = 10_000
    highs = rng.uniform(0.0, 1e6, size=n)
    services = rng.uniform(1.0, 1e6, size=n)
    non_services = rng.uniform(0.0, 1e6, size=n)
    households = rng.integers(1, 10_000_000, size=n)
    for h, m, o, hud in zip(highs, services, non_services, households):
        ours = compute_coverage(h, m, o, int(hud))
        # independent transcription: devices, divided by the share of
        # devices sitting on active service lines, per household
        reference = h * (m / (m + o)) ** (-1) * (1.0 / int(hud))
        assert abs(ours - reference) <= 4 * math.ulp(max(abs(ours), abs(reference)))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print("ACCEPTANCE C4 (coverage formula equivalence): PASS")


def test_c05_first_order_error_scale():
    start = time.perf_counter()
    priv = PrivateZipRecord("90210", 0.0, 1e6, 1e9, 0.0, Decimal("0.2"))
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=5150, k=100_000)
    report = estimate_error_ranges(priv, 2_000_000, config)
    # services is so large that only the high-speed noise matters:
    # d ~ -eta_H / households, so MAE ~ scale / households = 10 / 2e6
    expected = (1.0 / 0.1) / 2_000_000
    assert report.defined_fraction == 1.0
    assert abs(report.mae - expected) <= 0.05 * expected
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print("ACCEPTANCE C5 (first-order error scale): PASS")


def test_c06_error_shrinks_with_households():
    start = time.perf_counter()
    magnitudes = [100, 1_000, 10_000, 100_000, 1_000_000]
    privs = []
    households = {}
    zone_index = 1
    for hud in magnitudes:
        for _ in range(8):
            zone = f"{zone_index:05d}"
            zone_index += 1
            # counts proportional to households, true coverage exactly 0.5
            services = int(0.8 * hud)
            high = int(0.4 * hud)
            raw = RawZipRecord(zone, services - high, high, services, hud - services)
            true_cov = raw.high_speed * (raw.services + raw.non_services) / (raw.services * hud)
            assert true_cov == 0.5
            privs.append(privatize_record(raw, "0.1", 606))
            households[zone] = hud
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=606, k=2000)
    reports = error_reports_for_release(privs, households, config)
    assert all(r.mae is not None for r in reports)
    buckets = bucket_by_households(reports, households, magnitudes)
    assert len(buckets) == len(magnitudes)
    assert all(b.zone_count == 8 for b in buckets)
    means = [b.mean_mae for b in buckets]
    assert all(a > b for a, b in zip(means, means[1:]))  # strictly decreasing
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print("ACCEPTANCE C6 (error shrinks with households): PASS")


def test_c07_post_processing_purity():
    # Two raw records differing only in low_speed. A seed where the
    # low-speed noise drives both below zero clamps them to the same
    # privatized record, and then the error simulation cannot tell them
    # apart: it sees only the privatized record.
    raw_a = RawZipRecord("77777", 1, 300, 400, 500)
    raw_b = RawZipRecord("77777", 2, 300, 400, 500)
    match_seed = None
    for seed in range(200):
        if privatize_record(raw_a, "0.1", seed) == privatize_record(raw_b, "0.1", seed):
            match_seed = seed
            break
    assert match_seed is not None, "no clamping seed found in 200 tries"
    priv_a = privatize_record(raw_a, "0.1", match_seed)
    priv_b = privatize_record(raw_b, "0.1", match_seed)
    assert priv_a == priv_b
    assert priv_a.low_speed_dp == 0.0
    assert priv_a.services_dp > 0.0  # reports are real, not degenerate

    config = SimulationConfig(per_query_epsilon=0.1, base_seed=match_seed, k=500)
    report_a = estimate_error_ranges(priv_a, 1200, config)
    report_b = estimate_error_ranges(priv_b, 1200, config)
    assert report_a == report_b  # bit-identical dataclasses

    # dataflow: the simulation takes the privatized record and nothing
    # derived from the raw one
    names = list(inspect.signature(estimate_error_ranges).parameters)
    assert names == ["priv", "households", "config"]
    print("ACCEPTANCE C7 (post-processing purity): PASS")


def test_c08_bias_bound():
    start = time.perf_counter()
    k = 100_000
    priv = PrivateZipRecord("88888", 0.0, 1e6, 2e6, 1e6, Decimal("0.2"))
    config = SimulationConfig(per_query_epsilon=0.1, base_seed=808, k=k)
    params = LaplaceParams(1.0, 0.1)

    # verify the no-clamping premise: every trial count stays above
    # 10 * scale = 100 for all three re-noised streams
    for label, count in (("high_speed", priv.high_speed_dp), ("services", priv.services_dp), ("non_services", priv.non_services_dp)):
        noise = laplace_stream(params, config.base_seed, priv.zone, label, start=1, count=k)
        assert float((count + noise).min()) > 10.0 * params.scale

    d = trial_deviations(priv, 4_000_000, config)
    assert d.size == k
    msd = float(d.mean())
    sample_sd = float(d.std(ddof=1))
    assert abs(msd) <= 4.0 * sample_sd / math.sqrt(k)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print("ACCEPTANCE C8 (bias bound): PASS")


def test_c09_end_to_end_determinism_and_scale(tmp_path):
    counts = tmp_path / "counts.csv"
    households = tmp_path / "households.csv"
    released = tmp_path / "released.csv"
    final = tmp_path / "final.csv"

    def pipeline():
        assert run(["synth", "--zones", "32653", "--seed", "11", "--out-counts", str(counts),
                    "--out-households", str(households)]) == 0
        assert run(["release", "--counts", str(counts), "--households", str(households),
                    "--epsilon", "0.1", "--seed", "11", "--out", str(released)]) == 0
        assert run(["simulate-error", "--release", str(released), "--households", str(households),
                    "--epsilon", "0.1", "--k", "200", "--seed", "11", "--out", str(final)]) == 0

    start = time.perf_counter()
    pipeline()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0

    rows = io.read_release_csv(final)
    assert len(rows) == 32653

    outputs = sorted(p for p in tmp_path.iterdir() if p.is_file())
    assert len(outputs) >= 8  # four csvs + sidecar + manifests
    first_digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs}
    pipeline()
    second_digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs}
    assert first_digests == second_digests  # byte-identical repeat run
    print("ACCEPTANCE C9 (end-to-end determinism and scale): PASS")


def test_c10_nearest_rank_percentile():
    values = [i / 100 for i in range(1, 101)]
    # hand-sort oracle: ceil(0.95 * 100) = 95th smallest of an already
    # sorted vector is 0.95 itself
    assert nearest_rank(values, 0.95) == 0.95
    print("ACCEPTANCE C10 (nearest-rank percentile): PASS")
