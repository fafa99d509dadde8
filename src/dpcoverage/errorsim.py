"""Simulated error ranges for privatized coverage estimates.

Works purely on already-privatized counts. Fresh Laplace noise (same
scale as the release) is layered on top of the released noisy counts k
times; each trial's noisy counts are clamped at zero and pushed through
the same clipped coverage formula as the release, and the deviations

    d_i = released_coverage - trial_coverage_i

are summarized per zone as mean absolute error, mean signed deviation and
the nearest-rank 95th percentile of |d_i|. Only the three counts that
enter the coverage formula (high_speed, services, non_services) are
re-noised. Trials whose noisy services count clamps to zero have no
trial coverage; they are excluded from the statistics and reported via
defined_fraction instead of being imputed.

Because the raw counts are never touched, everything here is
post-processing of the released record and spends no privacy budget.

The simulation runs over blocks of zones held as (zones x k) arrays:
one noise-kernel call per label and block, undefined trials masked, the
p95 picked with np.partition at the nearest rank. ErrorReport records are
built only for the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

# laplace_sample is not called here, since trials draw whole blocks through
# laplace_stream; it stays importable as errorsim.laplace_sample because
# bench/invoke.py wraps that name to time the simulation's noise draws.
from dpcoverage.mechanism import LaplaceParams, laplace_sample, laplace_stream  # noqa: F401
from dpcoverage.release import (
    COUNT_SENSITIVITY,
    HouseholdRecord,
    PrivateZipRecord,
    clip_unit,
    compute_coverage,
    coverage_columns,
    household_column,
)

if TYPE_CHECKING:
    from dpcoverage.io import ReleaseRow

# Substreams re-noised per trial; same labels as the release, which uses
# iteration 0 of each. Trials use iterations 1..k.
SIMULATED_LABELS = ("high_speed", "services", "non_services")

# Trials per block: a block holds max(1, BLOCK_TRIALS // k) zones, so each
# (zones x k) working array stays near 0.5 MB whatever k is. Larger blocks
# were measured to raise peak memory without saving time.
BLOCK_TRIALS = 1 << 16

P95 = 0.95


@dataclass(frozen=True)
class SimulationConfig:
    """Trial count, per-query epsilon and master seed for one simulation."""

    per_query_epsilon: float
    base_seed: int
    k: int = 1000

    def __post_init__(self) -> None:
        if not (isinstance(self.k, int) and self.k >= 1):
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if not (isinstance(self.base_seed, int) and self.base_seed >= 0):
            raise ValueError(f"base_seed must be a nonnegative integer, got {self.base_seed!r}")
        # delegate epsilon domain checks
        LaplaceParams(COUNT_SENSITIVITY, float(self.per_query_epsilon))


@dataclass(frozen=True)
class ErrorReport:
    """Per-zone deviation summary.

    Statistics are None when no trial produced a defined deviation
    (defined_fraction == 0); k always records the trials attempted.
    """

    zone: str
    mae: float | None
    msd: float | None
    p95: float | None
    k: int
    defined_fraction: float


@dataclass(frozen=True)
class BucketSummary:
    """Mean error statistics over zones grouped by household count.

    high is None for the unbounded top bucket. Means are None when the
    bucket holds no zone with defined statistics.
    """

    low: int
    high: int | None
    zone_count: int
    mean_mae: float | None
    mean_msd: float | None
    mean_p95: float | None


def nearest_rank(values: Sequence[float] | np.ndarray, q: float) -> float:
    """Nearest-rank percentile: element ceil(q*n) of the ascending sort.

    Always returns a member of values; no interpolation.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q!r}")
    data = np.sort(np.asarray(values, dtype=float))
    if data.size == 0:
        raise ValueError("nearest_rank of an empty sequence is undefined")
    return float(data[math.ceil(q * data.size) - 1])


def _trials(
    zones: Sequence[str],
    counts: np.ndarray,
    households: np.ndarray,
    config: SimulationConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Deviations and their defined mask, both (zones x k), for zones with a defined release.

    counts holds each zone's (high_speed, services, non_services) noisy
    counts; households is positive.
    """
    params = LaplaceParams(COUNT_SENSITIVITY, float(config.per_query_epsilon))
    eta = [
        laplace_stream(params, config.base_seed, zones, label, start=1, count=config.k)
        for label in SIMULATED_LABELS
    ]
    high, services, non_services, households = counts[:, 0:1], counts[:, 1:2], counts[:, 2:3], households[:, None]
    released = clip_unit(coverage_columns(high, services, non_services, households))
    trial_high = np.maximum(0.0, high + eta[0])
    trial_services = np.maximum(0.0, services + eta[1])
    trial_non_services = np.maximum(0.0, non_services + eta[2])
    raw = coverage_columns(trial_high, trial_services, trial_non_services, households)
    return released - clip_unit(raw), trial_services > 0.0


def trial_deviations(priv: PrivateZipRecord, households: int, config: SimulationConfig) -> np.ndarray:
    """Defined deviations for trials 1..k of one zone.

    Undefined trials are dropped, so the result can be shorter than k.
    """
    # raises when the release itself has no coverage or households is not a positive integer
    compute_coverage(priv.high_speed_dp, priv.services_dp, priv.non_services_dp, households)
    counts = np.array([[priv.high_speed_dp, priv.services_dp, priv.non_services_dp]])
    d, defined = _trials([priv.zone], counts, np.array([households]), config)
    return d[0][defined[0]]


def _statistics(d: np.ndarray, defined: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (mae, msd, p95, defined trial count) over the defined trials.

    Rows without a defined trial get nan statistics.
    """
    n = defined.sum(axis=1)
    absolute = np.abs(d, out=np.zeros_like(d), where=defined)
    with np.errstate(divide="ignore", invalid="ignore"):
        mae = absolute.sum(axis=1) / n
        msd = np.where(defined, d, 0.0).sum(axis=1) / n
    # nearest rank among the defined trials: undefined ones sort last
    absolute[~defined] = np.inf
    rank = np.maximum(np.ceil(P95 * n).astype(np.int64) - 1, 0)
    absolute.partition(np.unique(rank))
    p95 = np.where(n > 0, absolute[np.arange(len(n)), rank], np.nan)
    return mae, msd, p95, n


def _reports(
    zones: Sequence[str],
    counts: np.ndarray,
    households: np.ndarray,
    config: SimulationConfig,
) -> list[ErrorReport]:
    """Reports for zones given as columns; households is 0 where a zone has no figure."""
    reports: list[ErrorReport | None] = [None] * len(zones)
    active = np.flatnonzero((households > 0) & (counts[:, 1] > 0))
    per_block = max(1, BLOCK_TRIALS // config.k)
    for lo in range(0, len(active), per_block):
        rows = active[lo : lo + per_block].tolist()
        d, defined = _trials([zones[i] for i in rows], counts[rows], households[rows], config)
        for i, mae, msd, p95, n in zip(rows, *(column.tolist() for column in _statistics(d, defined))):
            if n:
                reports[i] = ErrorReport(zones[i], mae, msd, p95, config.k, n / config.k)
    return [
        report if report is not None else ErrorReport(zone, None, None, None, config.k, 0.0)
        for zone, report in zip(zones, reports)
    ]


def estimate_error_ranges(
    priv: PrivateZipRecord,
    households: int | None,
    config: SimulationConfig,
) -> ErrorReport:
    """Deviation statistics over k seeded trials for one zone.

    Zones whose released coverage is undefined (services_dp == 0 or no
    household figure) get a report with defined_fraction 0 and absent
    statistics.
    """
    figures = {} if households is None else {priv.zone: HouseholdRecord(priv.zone, households)}
    return error_reports_for_release([priv], figures, config)[0]


def error_reports_for_release(
    privs: Sequence[PrivateZipRecord],
    households: Mapping[str, HouseholdRecord],
    config: SimulationConfig,
) -> list[ErrorReport]:
    """Reports for a whole release, in input order.

    Each zone's report is a pure function of its record, its household
    figure and the config, whatever the order or company of the others.
    """
    zones = [priv.zone for priv in privs]
    counts = np.fromiter(
        (value for p in privs for value in (p.high_speed_dp, p.services_dp, p.non_services_dp)),
        dtype=np.float64,
        count=3 * len(privs),
    ).reshape(len(privs), 3)
    return _reports(zones, counts, household_column(zones, households), config)


def bucket_by_households(
    reports: Sequence[tuple[ErrorReport | ReleaseRow, int]],
    thresholds: Sequence[int],
) -> list[BucketSummary]:
    """Group zones into half-open household buckets and average their stats.

    Only each report's zone, mae, msd and p95 are read, so the rows of a
    published release table serve as well as fresh ErrorReports.
    thresholds must be strictly ascending; they induce buckets
    [t0, t1), ..., [t_{n-2}, t_{n-1}), plus an unbounded [t_{n-1}, inf)
    so every zone at or above the first threshold lands in exactly one
    bucket. Zones below the first threshold are an error. Zones with
    absent statistics count toward zone_count but not toward the means.
    """
    thresholds = list(thresholds)
    if not thresholds:
        raise ValueError("at least one threshold is required")
    if any(not isinstance(t, int) or isinstance(t, bool) for t in thresholds):
        raise ValueError(f"thresholds must be integers, got {thresholds!r}")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError(f"thresholds must be strictly ascending, got {thresholds!r}")

    edges: list[tuple[int, int | None]] = [
        (low, high) for low, high in zip(thresholds, thresholds[1:])
    ] + [(thresholds[-1], None)]
    members: list[list[ErrorReport | ReleaseRow]] = [[] for _ in edges]

    for report, households in reports:
        if households < thresholds[0]:
            raise ValueError(
                f"zone {report.zone} has households={households}, below the first threshold {thresholds[0]}"
            )
        for index, (low, high) in enumerate(edges):
            if households >= low and (high is None or households < high):
                members[index].append(report)
                break

    summaries = []
    for (low, high), bucket in zip(edges, members):
        defined = [r for r in bucket if r.mae is not None]
        if defined:
            mean_mae = float(np.mean([r.mae for r in defined]))
            mean_msd = float(np.mean([r.msd for r in defined]))
            mean_p95 = float(np.mean([r.p95 for r in defined]))
        else:
            mean_mae = mean_msd = mean_p95 = None
        summaries.append(BucketSummary(low, high, len(bucket), mean_mae, mean_msd, mean_p95))
    return summaries
