"""Synthetic data generator: determinism, count invariants, and round trip."""

import numpy as np
import pytest

from dpcoverage.release import compute_coverage
from dpcoverage.synth import SynthSpec, generate


def default_spec(**overrides):
    params = dict(
        zone_count=200,
        household_range=(50, 200_000),
        coverage_range=(0.1, 0.95),
        services_share_range=(0.5, 0.9),
        seed=7,
    )
    params.update(overrides)
    return SynthSpec(**params)


def replay_draws(spec):
    # mirror of generate's documented draw order, used to recover the
    # hidden per-zone targets for round-trip checks
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    households = rng.integers(spec.household_range[0], spec.household_range[1] + 1, size=spec.zone_count)
    targets = rng.uniform(spec.coverage_range[0], spec.coverage_range[1], size=spec.zone_count)
    shares = rng.uniform(spec.services_share_range[0], spec.services_share_range[1], size=spec.zone_count)
    return households, targets, shares


def test_identical_specs_give_identical_datasets():
    first = generate(default_spec())
    again = generate(default_spec())
    assert [list(table) for table in first] == [list(table) for table in again]
    different = generate(default_spec(seed=8))
    assert [list(table) for table in different] != [list(table) for table in first]


def test_zone_ids_are_sequential_zero_padded():
    counts, households = generate(default_spec(zone_count=12))
    assert [c.zone for c in counts] == [f"{i:05d}" for i in range(1, 13)]
    assert [h.zone for h in households] == [c.zone for c in counts]


def test_count_invariants():
    counts, households = generate(default_spec())
    by_zone = {h.zone: h.households for h in households}
    for record in counts:
        total = by_zone[record.zone]
        assert record.low_speed >= 0
        assert record.high_speed >= 0
        assert record.services >= 1
        assert record.non_services >= 0
        assert record.low_speed + record.high_speed <= record.services
        assert record.services + record.non_services == total  # one device per household


def test_household_range_is_inclusive():
    counts, households = generate(default_spec(zone_count=50, household_range=(5, 5)))
    assert all(h.households == 5 for h in households)


def test_true_coverage_round_trips_the_target():
    spec = default_spec(zone_count=300)
    counts, households = generate(spec)
    _, targets, _ = replay_draws(spec)
    by_zone = {h.zone: h.households for h in households}
    for record, target in zip(counts, targets):
        true_coverage = compute_coverage(record.high_speed, record.services, record.non_services, by_zone[record.zone])
        # integer rounding of high_speed moves coverage by at most 1/(2*services)
        assert abs(true_coverage - target) <= 0.5 / record.services + 1e-12
        # with services shares >= 0.5 that is within 1/households
        assert abs(true_coverage - target) <= 1.0 / by_zone[record.zone] + 1e-12


def test_zero_zones_gives_empty_outputs():
    counts, households = generate(default_spec(zone_count=0))
    assert list(counts) == []
    assert list(households) == []


@pytest.mark.parametrize("overrides", [
    dict(zone_count=-1),
    dict(zone_count=100_000),
    dict(household_range=(0, 10)),
    dict(household_range=(10, 5)),
    dict(coverage_range=(-0.1, 0.5)),
    dict(coverage_range=(0.5, 1.5)),
    dict(coverage_range=(0.9, 0.2)),
    dict(services_share_range=(0.0, 0.5)),
    dict(services_share_range=(0.5, 1.1)),
    dict(seed=-1),
])
def test_synth_spec_rejects_bad_fields(overrides):
    with pytest.raises(ValueError):
        default_spec(**overrides)
