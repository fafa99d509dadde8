"""Privatize per-zone device counts and estimate broadband coverage.

Each zone contributes four device counts: low_speed and high_speed split
the same devices by measured download speed (below / at-or-above the
broadband threshold), while services and non_services split them by
whether the device uses the subset of services whose logs carry speed
measurements. Coverage is estimated from the noisy counts and the zone's
public household total as

    coverage = high_speed * (services + non_services) / (services * households)

that is, the high-speed device count scaled up by the inverse of the
measured-services share, expressed as a fraction of households. The
low_speed count is privatized and published alongside the others but never
enters the coverage formula.

All four counts are privatized independently with sensitivity-1 Laplace
noise and clamped at zero. The release is accounted as two sequential
rounds of two parallel (disjoint-partition) count queries, so its exact
total privacy cost is twice the per-query epsilon.

A release runs as column passes: one noise-kernel call per count label
over every zone, then the coverage formula over whole arrays. Frozen
per-zone records are built only for the caller.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Mapping, Sequence

import numpy as np

from dpcoverage.accountant import EpsilonLike, Query, Sequential, as_epsilon, par, seq, total_epsilon
from dpcoverage.mechanism import LaplaceParams, NoiseSeed, privatize_count

logger = logging.getLogger(__name__)

_ZIP_RE = re.compile(r"^[0-9]{5}$")

# Substream labels for the four counts, in CSV column order.
COUNT_LABELS = ("low_speed", "high_speed", "services", "non_services")

COUNT_SENSITIVITY = 1.0  # one user moves any device count by at most 1


class IngestionError(ValueError):
    """Input records are malformed (bad zone, bad count, duplicate zone)."""


class DegenerateCountError(ValueError):
    """The services count is zero, so the coverage formula has no value."""


def _check_zone(zone: str) -> str:
    if not (isinstance(zone, str) and _ZIP_RE.match(zone)):
        raise IngestionError(f"zone must be a 5-digit zip string, got {zone!r}")
    return zone


def _check_count(name: str, value: int) -> None:
    # bool is an int subclass; reject it explicitly
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= 0):
        raise IngestionError(f"{name} must be a nonnegative integer, got {value!r}")


@dataclass(frozen=True)
class RawZipRecord:
    """True device counts for one zone. Never published."""

    zone: str
    low_speed: int
    high_speed: int
    services: int
    non_services: int

    def __post_init__(self) -> None:
        _check_zone(self.zone)
        _check_count("low_speed", self.low_speed)
        _check_count("high_speed", self.high_speed)
        _check_count("services", self.services)
        _check_count("non_services", self.non_services)


@dataclass(frozen=True)
class HouseholdRecord:
    """Public household total for one zone."""

    zone: str
    households: int

    def __post_init__(self) -> None:
        _check_zone(self.zone)
        if not (isinstance(self.households, int) and not isinstance(self.households, bool) and self.households >= 1):
            raise IngestionError(f"households must be a positive integer, got {self.households!r}")


@dataclass(frozen=True)
class PrivateZipRecord:
    """Clamped noisy counts for one zone plus the epsilon spent on them."""

    zone: str
    low_speed_dp: float
    high_speed_dp: float
    services_dp: float
    non_services_dp: float
    epsilon_total: Decimal

    def __post_init__(self) -> None:
        _check_zone(self.zone)
        for name in ("low_speed_dp", "high_speed_dp", "services_dp", "non_services_dp"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
                raise IngestionError(f"{name} must be a nonnegative finite real, got {value!r}")
        object.__setattr__(self, "epsilon_total", as_epsilon(self.epsilon_total))


@dataclass(frozen=True)
class CoverageEstimate:
    """Published coverage for one zone.

    coverage is clipped to [0, 1]; raw_coverage keeps the pre-clip value
    so analysts can see how aggressive the clip was. Both are None when
    the estimate is undefined (noisy services count of zero, or no
    household figure for the zone). Undefined is reported, never imputed.
    """

    zone: str
    coverage: float | None
    raw_coverage: float | None

    def __post_init__(self) -> None:
        _check_zone(self.zone)
        if (self.coverage is None) != (self.raw_coverage is None):
            raise IngestionError("coverage and raw_coverage must be both set or both None")
        if self.coverage is not None:
            if not (0.0 <= self.coverage <= 1.0):
                raise IngestionError(f"coverage must lie in [0, 1], got {self.coverage!r}")
            if not math.isfinite(self.raw_coverage):
                raise IngestionError(f"raw_coverage must be finite, got {self.raw_coverage!r}")

    @property
    def defined(self) -> bool:
        return self.coverage is not None


def clip_unit(value: float | np.ndarray) -> float | np.ndarray:
    """Clip to [0, 1], elementwise over arrays. Post-processing; idempotent."""
    return np.minimum(1.0, np.maximum(0.0, value))


def compute_coverage(high_speed: float, services: float, non_services: float, households: int) -> float:
    """Coverage estimate before clipping.

    high_speed * (services + non_services) / (services * households).
    Raises DegenerateCountError when services == 0; callers publish
    UNDEFINED for that zone rather than imputing a value.
    """
    for name, value in (("high_speed", high_speed), ("services", services), ("non_services", non_services)):
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be a nonnegative finite real, got {value!r}")
    if not (isinstance(households, int) and not isinstance(households, bool) and households >= 1):
        raise ValueError(f"households must be a positive integer, got {households!r}")
    if services == 0:
        raise DegenerateCountError("services count is zero; coverage is undefined for this zone")
    return coverage_columns(high_speed, services, non_services, households)


def release_query_plan(per_query_epsilon: EpsilonLike) -> Sequential:
    """Accounting plan for one release of the four counts.

    low/high speed split one partition of the devices, services/non_services
    split another, so each pair composes in parallel; the two pairs query
    the same underlying devices and compose sequentially.
    """
    eps = as_epsilon(per_query_epsilon)
    return seq(
        par(Query("low_speed", eps), Query("high_speed", eps)),
        par(Query("services", eps), Query("non_services", eps)),
    )


def coverage_columns(
    high_speed: np.ndarray,
    services: np.ndarray,
    non_services: np.ndarray,
    households: np.ndarray,
) -> np.ndarray:
    """The coverage formula, elementwise over arrays, without compute_coverage's checks.

    Elements whose services count is zero come out inf or nan; callers
    mask them as UNDEFINED.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return high_speed * (services + non_services) / (services * households)


def household_column(zones: Sequence[str], households: Mapping[str, HouseholdRecord]) -> np.ndarray:
    """Each zone's household total as an int64 column, 0 where the zone has no figure."""
    figures = (h.households if (h := households.get(zone)) is not None else 0 for zone in zones)
    return np.fromiter(figures, dtype=np.int64, count=len(zones))


def _noisy_counts(
    records: Sequence[RawZipRecord],
    params: LaplaceParams,
    base_seed: int,
    round_counts: bool,
) -> np.ndarray:
    """(len(records), 4) clamped noisy counts, one kernel call per count label."""
    zones = tuple(record.zone for record in records)
    true = np.array(
        [(r.low_speed, r.high_speed, r.services, r.non_services) for r in records], dtype=np.float64
    ).reshape(len(records), len(COUNT_LABELS))
    noisy = np.column_stack(
        [
            privatize_count(true[:, column], params, NoiseSeed(base_seed, zones, label, 0))
            for column, label in enumerate(COUNT_LABELS)
        ]
    ).reshape(len(records), len(COUNT_LABELS))
    # rint rounds ties to even, as round() does
    return np.rint(noisy) if round_counts else noisy


def privatize_record(
    raw: RawZipRecord,
    per_query_epsilon: EpsilonLike,
    base_seed: int,
    *,
    round_counts: bool = False,
) -> PrivateZipRecord:
    """Privatize one zone's four counts with independent seeded noise.

    Noise draws use substreams (zone, "low_speed"/"high_speed"/"services"/"non_services") at iteration 0, so
    a zone's output depends only on its own record and the base seed.
    round_counts optionally rounds the clamped counts to whole devices
    (ties to even); the default publishes real values.
    """
    eps = as_epsilon(per_query_epsilon)
    noisy = _noisy_counts([raw], LaplaceParams(COUNT_SENSITIVITY, float(eps)), base_seed, round_counts)
    return PrivateZipRecord(raw.zone, *noisy[0].tolist(), total_epsilon(release_query_plan(eps)))


def release_dataset(
    records: Sequence[RawZipRecord],
    households: Mapping[str, HouseholdRecord],
    per_query_epsilon: EpsilonLike,
    base_seed: int,
    *,
    round_counts: bool = False,
) -> list[tuple[PrivateZipRecord, CoverageEstimate]]:
    """Privatize every zone in the release list, preserving input order.

    Duplicate zones are rejected up front. Zones with no household figure
    are released with an UNDEFINED coverage estimate (their noisy counts
    are still published) and reported in one log warning, not dropped.
    Each zone's output is a pure function of its record and the base
    seed, whatever the order or company of the other records.
    """
    seen: set[str] = set()
    for record in records:
        if record.zone in seen:
            raise IngestionError(f"duplicate zone in release list: {record.zone}")
        seen.add(record.zone)

    eps = as_epsilon(per_query_epsilon)
    epsilon_total = total_epsilon(release_query_plan(eps))
    noisy = _noisy_counts(records, LaplaceParams(COUNT_SENSITIVITY, float(eps)), base_seed, round_counts)

    zones = [record.zone for record in records]
    missing = [zone for zone in zones if zone not in households]
    if missing:
        logger.warning(
            "%d zone(s) have no household figure and are released with UNDEFINED coverage: %s%s",
            len(missing),
            ", ".join(missing[:5]),
            ", ..." if len(missing) > 5 else "",
        )
    figures = household_column(zones, households)
    raw = coverage_columns(noisy[:, 1], noisy[:, 2], noisy[:, 3], figures)
    defined = (figures > 0) & (noisy[:, 2] > 0)
    clipped = clip_unit(raw)

    pairs = []
    for record, counts, ok, value, raw_value in zip(
        records, noisy.tolist(), defined.tolist(), clipped.tolist(), raw.tolist()
    ):
        priv = PrivateZipRecord(record.zone, *counts, epsilon_total)
        estimate = CoverageEstimate(record.zone, value, raw_value) if ok else CoverageEstimate(record.zone, None, None)
        pairs.append((priv, estimate))
    return pairs
