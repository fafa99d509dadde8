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
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import laplace_from_words

from dpcoverage import mechanism
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
    (1.0, 1e-320), (1e300, 1e-10),  # each is finite, but the scale sensitivity / epsilon is inf
    (1.0, 1e-308), (1e300, 1e-8),  # a finite scale whose draws can overflow a count below 2**63
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


def _fresh_philox_word(base_seed, zone, label, iteration):
    """Word iteration of a substream, from a Philox numpy builds at the stream's address."""
    digest = hashlib.blake2b(f"{zone}\x1f{label}".encode("utf-8"), digest_size=16).digest()
    h0, h1 = int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:], "little")
    philox = np.random.Philox(
        key=np.array([base_seed, FORMAT2_DOMAIN], dtype=np.uint64),
        counter=np.array([iteration // 4, 0, h0, h1], dtype=np.uint64),
    )
    return int(philox.random_raw(iteration % 4 + 1)[iteration % 4])


def _format2_draw(scale, base_seed, zone, label, iteration):
    word = _fresh_philox_word(base_seed, zone, label, iteration)
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


def test_a_substream_ends_at_position_2_to_the_66():
    # counter word 0 is iteration // 4 and word 1 stays 0, so 2**66 - 1 is the last position
    last = 2**66 - 1
    assert list(laplace_stream(SCALE10, 5, "12345", "services", start=last - 3, count=4)) == [
        _format2_draw(SCALE10.scale, 5, "12345", "services", last - i) for i in (3, 2, 1, 0)]
    for start, count in [(last, 2), (last + 1, 1), (last + 1, 0), (2**70, 1)]:
        with pytest.raises(ParameterError, match=f"start={start} count={count} reads past them"):
            laplace_stream(SCALE10, 5, "12345", "services", start=start, count=count)
    with pytest.raises(ParameterError, match=f"start={last + 1} count=1"):
        laplace_sample(SCALE10, NoiseSeed(5, "12345", "services", last + 1))


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


def test_threads_reading_multiword_streams_at_once_get_the_bits_of_lone_calls():
    # each call re-addresses a generator stream by stream: one that another
    # thread shared could be re-addressed between a stream's state and its read
    calls = [([f"{thread}{zone:04d}" for zone in range(6)], label)
             for thread, label in enumerate(("high_speed", "services", "non_services", "low_speed"))]
    alone = [laplace_stream(SCALE10, 9, zones, label, start=1, count=200) for zones, label in calls]
    start = threading.Barrier(len(calls))

    def read(call: tuple[list[str], str]) -> list[np.ndarray]:
        start.wait(timeout=60)
        return [laplace_stream(SCALE10, 9, *call, start=1, count=200) for _ in range(50)]

    with ThreadPoolExecutor(len(calls)) as pool:
        found = list(pool.map(read, calls))
    for expected, draws in zip(alone, found):
        assert all(block.tobytes() == expected.tobytes() for block in draws)


@pytest.mark.parametrize("count", [
    np.array([True, False]),
    np.array(["3", "4"]),
    np.array([3, 4], dtype=object),
    ["3", "4"],
    [True, 2.0],
    [3, None],
    "34",
])
def test_a_column_of_counts_refuses_what_a_single_count_refuses(count):
    # numpy would read every one of these as two float counts
    with pytest.raises(ParameterError) as raised:
        privatize_count(count, SCALE10, NoiseSeed(1, ("00001", "00002"), "x"))
    assert str(raised.value) == "counts must be 2 nonnegative finite numbers"


@pytest.mark.parametrize("case", [
    "check_seed(True)",
    "NoiseSeed iteration=True",
    "SimulationConfig k=True",
    "SynthSpec zone_count=True",
    "SynthSpec household_range=(True, 5)",
    "laplace_stream count=2.5",
    "laplace_stream start=1.5",
    "laplace_stream count=True",
])
def test_integer_parameters_refuse_bools_and_non_integers(case):
    # bool is an int subclass, and numpy's TypeError is no parameter check
    from dpcoverage.errorsim import SimulationConfig
    from dpcoverage.mechanism import check_seed
    from dpcoverage.synth import SynthSpec

    make, error = {
        "check_seed(True)": (lambda: check_seed(True), ParameterError),
        "NoiseSeed iteration=True": (lambda: NoiseSeed(1, "00001", "x", iteration=True), ParameterError),
        "SimulationConfig k=True": (lambda: SimulationConfig(0.1, 1, k=True), ValueError),
        "SynthSpec zone_count=True": (lambda: SynthSpec(True, (1, 5), (0.1, 0.9), (0.5, 0.9), 1), ValueError),
        "SynthSpec household_range=(True, 5)": (lambda: SynthSpec(3, (True, 5), (0.1, 0.9), (0.5, 0.9), 1), ValueError),
        "laplace_stream count=2.5": (lambda: laplace_stream(SCALE10, 1, "00001", "x", count=2.5), ParameterError),
        "laplace_stream start=1.5": (lambda: laplace_stream(SCALE10, 1, "00001", "x", start=1.5), ParameterError),
        "laplace_stream count=True": (lambda: laplace_stream(SCALE10, 1, "00001", "x", count=True), ParameterError),
    }[case]
    with pytest.raises(error) as raised:
        make()
    assert type(raised.value) is error  # ParameterError is a ValueError: the type is exact, numpy's is not


@pytest.mark.parametrize("case", [
    "as_epsilon(True)",
    "Query epsilon=True",
    "LaplaceParams sensitivity=True",
    "LaplaceParams epsilon=True",
    "PrivateZipRecord low_speed_dp=True",
    "privatize_count count=True",
    "compute_coverage high_speed=True",
    "SimulationConfig per_query_epsilon=True",
    "LaplaceParams sensitivity=10**400",
    "SimulationConfig per_query_epsilon=10**400",
    "PrivateZipRecord low_speed_dp=10**400",
    "privatize_count count=10**400",
    "privatize_count counts=[10**400]",
    "compute_coverage high_speed=10**400",
])
def test_real_parameters_refuse_bools(case):
    # bool is an int subclass, but True is no epsilon, scale or count; nor
    # is an int beyond float range, which math.isfinite cannot even convert
    from dpcoverage.accountant import PlanError, Query, as_epsilon, total_epsilon
    from dpcoverage.errorsim import SimulationConfig
    from dpcoverage.release import IngestionError, PrivateZipRecord, compute_coverage

    make, error, message = {
        "as_epsilon(True)": (lambda: as_epsilon(True), PlanError, "cannot interpret True as an epsilon"),
        "Query epsilon=True": (lambda: total_epsilon(Query("x", True)), PlanError,
                               "cannot interpret True as an epsilon"),
        "LaplaceParams sensitivity=True": (lambda: LaplaceParams(True, True), ParameterError,
                                           "sensitivity must be a positive finite real, got True"),
        "LaplaceParams epsilon=True": (lambda: LaplaceParams(1.0, True), ParameterError,
                                       "epsilon must be a positive finite real, got True"),
        "PrivateZipRecord low_speed_dp=True": (lambda: PrivateZipRecord("00001", True, 1.0, 1.0, 1.0, "0.2"),
                                               IngestionError,
                                               "low_speed_dp must be a nonnegative finite real, got True"),
        "privatize_count count=True": (lambda: privatize_count(True, SCALE10, NoiseSeed(1, "00001", "x")),
                                       ParameterError, "count must be a nonnegative finite number, got True"),
        "compute_coverage high_speed=True": (lambda: compute_coverage(True, True, 0.0, 5), ValueError,
                                             "high_speed must be a nonnegative finite real, got True"),
        "SimulationConfig per_query_epsilon=True": (lambda: SimulationConfig(True, 1, k=5), ParameterError,
                                                    "epsilon must be a positive finite real, got True"),
        "LaplaceParams sensitivity=10**400": (lambda: LaplaceParams(10**400, 1.0), ParameterError,
                                              f"sensitivity must be a positive finite real, got {10**400}"),
        "SimulationConfig per_query_epsilon=10**400": (lambda: SimulationConfig(10**400, 1, k=5), ParameterError,
                                                       f"epsilon must be a positive finite real, got {10**400}"),
        "PrivateZipRecord low_speed_dp=10**400": (
            lambda: PrivateZipRecord("00001", 10**400, 1.0, 1.0, 1.0, "0.2"), IngestionError,
            f"low_speed_dp must be a nonnegative finite real, got {10**400}"),
        "privatize_count count=10**400": (lambda: privatize_count(10**400, SCALE10, NoiseSeed(1, "00001", "x")),
                                          ParameterError, f"count must be a nonnegative finite number, got {10**400}"),
        "privatize_count counts=[10**400]": (
            lambda: privatize_count([10**400], SCALE10, NoiseSeed(1, ("00001",), "x")), ParameterError,
            "counts must be 1 nonnegative finite numbers"),
        "compute_coverage high_speed=10**400": (lambda: compute_coverage(10**400, 1.0, 1.0, 5), ValueError,
                                                f"high_speed must be a nonnegative finite real, got {10**400}"),
    }[case]
    with pytest.raises(error) as raised:
        make()
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_is_real_is_a_finite_int_or_float_and_no_bool():
    from dpcoverage.mechanism import is_real

    assert all(is_real(value) for value in (0, -3, 2.5, np.float64(0.1), 10**18, int(sys.float_info.max)))
    assert not any(is_real(value) for value in (True, False, math.inf, math.nan, "1", None, np.int64(1),
                                                10**400, -(10**400), int(sys.float_info.max) + 1))


# ------------------------------------------------ array Philox against numpy's generator


@settings(max_examples=40, deadline=None)
@given(
    base_seed=st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
    # lanes 0-3; 2**62; the last block, where counter word 0 wraps and carries into word 1
    start=st.one_of(st.integers(0, 3), st.sampled_from([2**62, 2**66 - 4, 2**66 - 1]), st.integers(0, 2**66 - 1)),
    streams=st.one_of(st.integers(0, 5), st.sampled_from([100, 257])),
    label=st.text(max_size=4),
)
def test_array_philox_matches_numpys_generator_bit_for_bit(base_seed, start, streams, label):
    zones = [f"{row:05d}" for row in range(streams)]
    expected = [_fresh_philox_word(base_seed, zone, label, start) for zone in zones]
    assert mechanism._philox_words(base_seed, mechanism._digests(zones, label), start).tolist() == expected
    assert mechanism._raw_words(base_seed, zones, label, start, 1)[:, 0].tolist() == expected


# ------------------------------------------------ the kernel's transform against its first form


def _edge_words():
    """Words whose top 52 bits m give the largest and smallest |u|, each with its low 12 bits all 0 and all 1."""
    tops = [0, 2**51 - 1, 2**51, 2**52 - 1]
    return np.array([(m << 12) | low for m in tops for low in (0, 0xFFF)], dtype=np.uint64)


@pytest.mark.parametrize("scale", [10.0, 1 / 0.37])
def test_the_kernel_gives_the_bits_of_the_eleven_step_transform(scale):
    random = np.random.default_rng(20261020).integers(0, 2**64, size=10**6, dtype=np.uint64, endpoint=False)
    for words in (random, _edge_words()):
        expected = laplace_from_words(words, scale)
        found = mechanism._laplace_from_words(words.copy(), scale)
        assert np.array_equal(found.view(np.uint64), expected.view(np.uint64))
    # the edge words give the largest draws, which MAX_DRAW_SCALES bounds, and the smallest, never 0
    edges = np.abs(mechanism._laplace_from_words(_edge_words(), scale))
    assert edges.max() <= scale * mechanism.MAX_DRAW_SCALES and edges.min() > 0
