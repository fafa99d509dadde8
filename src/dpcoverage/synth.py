"""Reproducible synthetic device counts and household totals.

The generator inverts the coverage formula. Per zone it draws a household
total, a target coverage b and a services share s, assumes one measured
device per household (total devices = households, a modeling convenience),
then derives integer counts:

    services     = round(s * households), at least 1
    non_services = households - services
    high_speed   = round(b * services)
    low_speed    = services - high_speed

With these counts the true-count coverage equals high_speed / services,
which reproduces the target within 1/(2 * services) exactly; for services
shares of at least one half that is within 1/households.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpcoverage.accountant import check_seed, is_int
from dpcoverage.release import Columns, HouseholdRecord, RawZipRecord


@dataclass(frozen=True)
class SynthSpec:
    """Shape of one synthetic dataset.

    Ranges are inclusive. household_range covers positive integers,
    coverage_range lies within [0, 1], services_share_range within (0, 1].
    Zone ids are the zero-padded integers 00001..zone_count, so zone_count
    is capped at 99999.
    """

    zone_count: int
    household_range: tuple[int, int]
    coverage_range: tuple[float, float]
    services_share_range: tuple[float, float]
    seed: int

    def __post_init__(self) -> None:
        if not (is_int(self.zone_count) and 0 <= self.zone_count <= 99999):
            raise ValueError(f"zone_count must be an integer in [0, 99999], got {self.zone_count!r}")
        hh_lo, hh_hi = self.household_range
        if not (is_int(hh_lo) and is_int(hh_hi) and 1 <= hh_lo <= hh_hi):
            raise ValueError(f"household_range must be integers 1 <= lo <= hi, got {self.household_range!r}")
        b_lo, b_hi = self.coverage_range
        if not (0.0 <= b_lo <= b_hi <= 1.0):
            raise ValueError(f"coverage_range must satisfy 0 <= lo <= hi <= 1, got {self.coverage_range!r}")
        s_lo, s_hi = self.services_share_range
        if not (0.0 < s_lo <= s_hi <= 1.0):
            raise ValueError(f"services_share_range must satisfy 0 < lo <= hi <= 1, got {self.services_share_range!r}")
        check_seed(self.seed)


def generate(spec: SynthSpec) -> tuple[Columns[RawZipRecord], Columns[HouseholdRecord]]:
    """Deterministic dataset for a spec; identical specs give identical bits.

    The counts and households come back as Columns, computed over whole
    arrays; np.rint rounds ties to even, as round() does.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    n = spec.zone_count
    households = rng.integers(spec.household_range[0], spec.household_range[1] + 1, size=n)
    targets = rng.uniform(spec.coverage_range[0], spec.coverage_range[1], size=n)
    shares = rng.uniform(spec.services_share_range[0], spec.services_share_range[1], size=n)

    services = np.minimum(households, np.maximum(1, np.rint(shares * households).astype(np.int64)))
    high_speed = np.minimum(services, np.maximum(0, np.rint(targets * services).astype(np.int64)))
    zones = [f"{i + 1:05d}" for i in range(n)]
    counts = Columns(
        RawZipRecord,
        zone=zones,
        low_speed=services - high_speed,
        high_speed=high_speed,
        services=services,
        non_services=households - services,
    )
    return counts, Columns(HouseholdRecord, zone=zones, households=households)
