"""Property-based checks for the algebraic pieces."""

import math
from decimal import Decimal

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcoverage.accountant import as_epsilon, parallel_compose, sequential_compose
from dpcoverage.errorsim import nearest_rank
from dpcoverage.release import clip_unit, compute_coverage, coverage_columns
from dpcoverage.synth import SynthSpec, generate

epsilons = st.decimals(min_value="0.001", max_value="100", places=3).map(as_epsilon)


@given(st.lists(epsilons, min_size=1, max_size=8))
def test_sequential_composition_is_the_sum(parts):
    assert sequential_compose(parts) == sum(parts, Decimal(0))


@given(st.lists(epsilons, min_size=1, max_size=8))
def test_parallel_composition_is_the_max(parts):
    assert parallel_compose(parts) == max(parts)
    assert parallel_compose(parts) <= sequential_compose(parts)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=50),
       st.floats(min_value=0.01, max_value=1.0))
def test_nearest_rank_returns_a_member(values, q):
    result = nearest_rank(values, q)
    assert result in values
    assert sum(1 for v in values if v <= result) >= math.ceil(q * len(values))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=50))
def test_nearest_rank_is_monotone_in_q(values):
    assert nearest_rank(values, 0.25) <= nearest_rank(values, 0.75) <= nearest_rank(values, 1.0)
    assert nearest_rank(values, 1.0) == max(values)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_clip_unit_bounded_and_idempotent(x):
    y = clip_unit(x)
    assert 0.0 <= y <= 1.0
    assert clip_unit(y) == y


@given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False))
def test_clip_unit_preserves_order(a, b):
    if a <= b:
        assert clip_unit(a) <= clip_unit(b)


@given(
    st.floats(min_value=0.0, max_value=1e12),
    st.floats(min_value=1e-6, max_value=1e12),
    st.floats(min_value=0.0, max_value=1e12),
    st.integers(min_value=1, max_value=10**7),
)
def test_coverage_matches_literal_transcription(high, services, non_services, households):
    # reference form: devices * (share of devices on active service lines)^-1,
    # scaled by households
    reference = high * (services / (services + non_services)) ** (-1) * (1.0 / households)
    ours = compute_coverage(high, services, non_services, households)
    tolerance = 4 * math.ulp(max(abs(ours), abs(reference), 1e-300))
    assert abs(ours - reference) <= tolerance


# every input a release can produce short of an absurd epsilon: noisy
# counts up to 2**64, services 0 (clamped) or at least 1e-20, any figure
# that household_column passes, 0 where a zone has none
_counts = st.floats(min_value=0.0, max_value=2.0**64)
_services = st.one_of(st.just(0.0), st.floats(min_value=1e-20, max_value=2.0**64))
_figures = st.integers(min_value=0, max_value=2**63 - 1)


@given(st.lists(st.tuples(_counts, _services, _counts, _figures), min_size=1, max_size=20))
def test_a_coverage_exists_exactly_where_services_and_households_are_positive(zones):
    high, services, non_services, figures = map(np.array, zip(*zones))
    coverage = coverage_columns(high, services, non_services, figures.astype(np.int64))
    assert (np.isfinite(coverage) == ((services > 0) & (figures > 0))).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_synth_round_trip_bound_holds_for_any_seed(seed):
    spec = SynthSpec(zone_count=20, household_range=(50, 20000),
                     coverage_range=(0.1, 0.95), services_share_range=(0.5, 0.9), seed=seed)
    raws, households = generate(spec)
    rng_targets = _replay_targets(spec)
    for raw, hh, target in zip(raws, households, rng_targets):
        true_cov = raw.high_speed * (raw.services + raw.non_services) / (raw.services * hh.households)
        assert abs(true_cov - target) <= 0.5 / raw.services + 1e-12
        assert abs(true_cov - target) <= 1.0 / hh.households + 1e-12


def _replay_targets(spec):
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    rng.integers(spec.household_range[0], spec.household_range[1] + 1, size=spec.zone_count)
    return rng.uniform(spec.coverage_range[0], spec.coverage_range[1], size=spec.zone_count)
