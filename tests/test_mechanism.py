"""Laplace sampler: determinism, open-interval support, and analytic moments.

Frozen oracle values for Laplace(0, scale):
    E|X|            = scale
    Var(X)          = 2 * scale**2
    P(|X| > t)      = exp(-t / scale)
    p95 of |X|      = scale * ln(20)            (= 29.957... for scale 10)
    P(X <= -c)      = 0.5 * exp(-c / scale)     (clamp-to-zero probability)
Statistical checks run on fixed seeds, so they are deterministic.
"""

import hashlib
import math

import numpy as np
import pytest

from dpcoverage.mechanism import (
    LaplaceParams,
    NoiseSeed,
    ParameterError,
    laplace_sample,
    laplace_stream,
    privatize_count,
)

SCALE10 = LaplaceParams(sensitivity=1.0, epsilon=0.1)


def test_scale_is_derived_from_sensitivity_and_epsilon():
    assert SCALE10.scale == 10.0
    assert LaplaceParams(2.0, 0.1).scale == 20.0
    assert LaplaceParams(1.0, 0.5).scale == 2.0


@pytest.mark.parametrize("sensitivity,epsilon", [
    (0.0, 0.1), (-1.0, 0.1), (float("nan"), 0.1), (float("inf"), 0.1),
    (1.0, 0.0), (1.0, -0.1), (1.0, float("nan")), (1.0, float("inf")),
])
def test_parameter_domain_errors(sensitivity, epsilon):
    with pytest.raises(ParameterError):
        LaplaceParams(sensitivity, epsilon)


def test_noise_seed_domain():
    with pytest.raises(ParameterError):
        NoiseSeed(-1, "00001", "high_speed")
    with pytest.raises(ParameterError):
        NoiseSeed(1 << 64, "00001", "high_speed")
    with pytest.raises(ParameterError):
        NoiseSeed(0, "00001", "high_speed", iteration=-1)
    NoiseSeed(7, "00001", "high_speed", 3)  # in the domain


def test_identical_seed_identical_draw():
    seed = NoiseSeed(123456789, "90210", "services", 5)
    first = laplace_sample(SCALE10, seed)
    again = laplace_sample(SCALE10, seed)
    assert first == again


def test_distinct_streams_give_distinct_draws():
    base = NoiseSeed(42, "00001", "high_speed", 0)
    value = laplace_sample(SCALE10, base)
    assert value != laplace_sample(SCALE10, NoiseSeed(42, "00002", "high_speed", 0))
    assert value != laplace_sample(SCALE10, NoiseSeed(42, "00001", "services", 0))
    assert value != laplace_sample(SCALE10, NoiseSeed(42, "00001", "high_speed", 1))
    assert value != laplace_sample(SCALE10, NoiseSeed(43, "00001", "high_speed", 0))


def test_batch_matches_single_draws_bitwise():
    batch = laplace_stream(SCALE10, 42, "00001", "high_speed", start=0, count=20)
    singles = [laplace_sample(SCALE10, NoiseSeed(42, "00001", "high_speed", i)) for i in range(20)]
    assert list(batch) == singles
    # a batch starting mid-stream lines up too
    tail = laplace_stream(SCALE10, 42, "00001", "high_speed", start=7, count=5)
    assert list(tail) == singles[7:12]


def test_draws_are_finite():
    draws = laplace_stream(SCALE10, 0, "00000", "low_speed", count=100_000)
    assert np.all(np.isfinite(draws))


def test_mean_absolute_noise_matches_scale():
    # E|X| = scale; sem of |X| is scale/sqrt(N) ~ 0.022 here
    draws = laplace_stream(SCALE10, 1, "00001", "high_speed", count=200_000)
    assert abs(np.abs(draws).mean() - 10.0) < 0.2


def test_sample_mean_within_symmetry_band():
    # sd of Lap(scale) is scale*sqrt(2), so a 4 sigma band for the mean
    # of n draws is 4 * scale * sqrt(2) / sqrt(n); checked on a fixed seed
    n = 1_000_000
    draws = laplace_stream(SCALE10, 42, "00001", "high_speed", count=n)
    assert abs(draws.mean()) <= 4.0 * SCALE10.scale * math.sqrt(2.0) / math.sqrt(n)


def test_tail_probability_matches_analytic_cdf():
    # P(|X| > scale * ln 2) = 1/2 exactly
    n = 200_000
    threshold = SCALE10.scale * math.log(2.0)
    draws = laplace_stream(SCALE10, 9, "12345", "non_services", count=n)
    observed = float(np.mean(np.abs(draws) > threshold))
    assert abs(observed - 0.5) < 0.005  # ~4.5 sigma of a Bernoulli(1/2) mean


def test_doubling_epsilon_halves_noise():
    n = 1_000_000
    loose = laplace_stream(LaplaceParams(1.0, 0.1), 5, "00001", "high_speed", count=n)
    tight = laplace_stream(LaplaceParams(1.0, 0.2), 5, "00001", "high_speed", count=n)
    ratio = np.abs(loose).mean() / np.abs(tight).mean()
    assert abs(ratio - 2.0) < 0.06  # within 3%


def test_privatize_count_is_clamped_formula():
    for i in range(50):
        seed = NoiseSeed(7, "00001", "high_speed", i)
        released = privatize_count(2, SCALE10, seed)
        assert released == max(0.0, 2 + laplace_sample(SCALE10, seed))
        assert released >= 0.0


def test_privatize_count_zero_count_clamps_half_the_time():
    # count 0: released value is 0 exactly when the draw is negative
    draws = laplace_stream(SCALE10, 3, "00001", "low_speed", count=100_000)
    released = np.maximum(0.0, 0 + draws)
    assert abs(float(np.mean(released == 0.0)) - 0.5) < 0.01
    assert released.min() == 0.0


def test_privatize_count_is_real_valued():
    # no rounding: released values keep their fractional part
    values = [privatize_count(100, SCALE10, NoiseSeed(11, "00001", "services", i)) for i in range(10)]
    assert any(v != int(v) for v in values)


def test_clamp_probability_matches_analytic_value():
    # P(released == 0 | count=2, scale 10) = 0.5 * exp(-0.2) = 0.40936...
    n = 100_000
    draws = laplace_stream(SCALE10, 21, "00002", "high_speed", count=n)
    released = np.maximum(0.0, 2 + draws)
    expected = 0.5 * math.exp(-0.2)
    assert abs(float(np.mean(released == 0.0)) - expected) < 0.01


def test_privatize_count_rejects_bad_counts():
    seed = NoiseSeed(0, "00001", "high_speed", 0)
    with pytest.raises(ParameterError):
        privatize_count(-1, SCALE10, seed)
    with pytest.raises(ParameterError):
        privatize_count(float("nan"), SCALE10, seed)


def test_stream_start_count_domain():
    with pytest.raises(ParameterError):
        laplace_stream(SCALE10, 0, "00001", "high_speed", start=-1)
    with pytest.raises(ParameterError):
        laplace_stream(SCALE10, -1, "00001", "high_speed")


# Noise format 2, transcribed independently of the kernel: key
# (base_seed, "dpcovf02"), counter (i // 4, 0, h0, h1) with h0, h1 the
# halves of BLAKE2b-128(zone \x1f label), lane i % 4 of the first block a
# fresh Philox4x64-10 emits, then the odd 52-bit lattice and the inverse CDF.
FORMAT2_DOMAIN = 0x323066766F637064  # b"dpcovf02" read little-endian


def _format2_draw(scale, base_seed, zone, label, iteration):
    digest = hashlib.blake2b(f"{zone}\x1f{label}".encode("utf-8"), digest_size=16).digest()
    h0, h1 = int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:], "little")
    philox = np.random.Philox(
        key=np.array([base_seed, FORMAT2_DOMAIN], dtype=np.uint64),
        counter=np.array([iteration // 4, 0, h0, h1], dtype=np.uint64),
    )
    word = int(philox.random_raw(iteration % 4 + 1)[iteration % 4])
    u = (2 * (word >> 12) + 1) / 2**53 - 0.5
    assert u != 0.0 and abs(u) < 0.5
    return -scale * math.copysign(1.0, u) * math.log(1.0 - 2.0 * abs(u))


@pytest.mark.parametrize("base_seed,zone,label,iteration", [
    (0, "00000", "low_speed", 0),
    (42, "00001", "high_speed", 1),
    (7, "90210", "services", 3),
    (7, "90210", "services", 4),
    (2**64 - 1, "99999", "non_services", 11),
    (20260815, "00000", "moments", 999_999),
])
def test_known_answers_match_a_fresh_philox(base_seed, zone, label, iteration):
    expected = _format2_draw(SCALE10.scale, base_seed, zone, label, iteration)
    assert laplace_sample(SCALE10, NoiseSeed(base_seed, zone, label, iteration)) == expected


def test_format2_known_answer_is_pinned():
    # a change of hash, domain, lattice or numpy's Philox shows here
    assert _format2_draw(10.0, 42, "00001", "high_speed", 0) == -1.6603883521197118
    assert laplace_sample(SCALE10, NoiseSeed(42, "00001", "high_speed", 0)) == -1.6603883521197118


def test_far_offset_seek_matches_the_oracle():
    start = 10**9
    draws = laplace_stream(SCALE10, 5, "12345", "services", start=start, count=9)
    expected = [_format2_draw(SCALE10.scale, 5, "12345", "services", start + i) for i in range(9)]
    assert list(draws) == expected


def test_zone_column_rows_match_single_streams():
    zones = ("00001", "00002", "31415")
    column = laplace_stream(SCALE10, 3, zones, "services", start=2, count=6)
    assert column.shape == (3, 6)
    for row, zone in zip(column, zones):
        assert list(row) == list(laplace_stream(SCALE10, 3, zone, "services", start=2, count=6))
    seeds = NoiseSeed(3, zones, "services", 2)
    assert list(laplace_sample(SCALE10, seeds)) == list(column[:, 0])
    released = privatize_count(np.array([0.0, 5.0, 100.0]), SCALE10, seeds)
    assert list(released) == [max(0.0, c + x) for c, x in zip((0.0, 5.0, 100.0), column[:, 0])]
    with pytest.raises(ParameterError):
        privatize_count(np.array([1.0, -1.0, 2.0]), SCALE10, seeds)
    with pytest.raises(ParameterError):
        privatize_count(np.array([1.0, 2.0]), SCALE10, seeds)
