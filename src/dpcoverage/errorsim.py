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
p95 picked with np.partition at the nearest rank. The reports come back as
Columns; an ErrorReport is built only for a row the caller reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# laplace_sample is not called here, since trials draw whole blocks through
# laplace_stream; it stays importable as errorsim.laplace_sample because
# bench/invoke.py wraps that name to time the simulation's noise draws.
from dpcoverage.mechanism import LaplaceParams, laplace_sample, laplace_stream  # noqa: F401
from dpcoverage.release import (
    COUNT_SENSITIVITY,
    Columns,
    HouseholdRecord,
    Pairs,
    PrivateZipRecord,
    ReleaseRow,
    as_columns,
    clip_unit,
    compute_coverage,
    coverage_columns,
    coverage_rows,
    household_column,
)

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
    released: np.ndarray,
    config: SimulationConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Deviations and their defined mask, both (zones x k), for zones with a defined release.

    counts holds each zone's (high_speed, services, non_services) noisy
    counts and released their published coverage; households is positive.
    """
    params = LaplaceParams(COUNT_SENSITIVITY, float(config.per_query_epsilon))
    eta = [
        laplace_stream(params, config.base_seed, zones, label, start=1, count=config.k)
        for label in SIMULATED_LABELS
    ]
    high, services, non_services, households = counts[:, 0:1], counts[:, 1:2], counts[:, 2:3], households[:, None]
    trial_high = np.maximum(0.0, high + eta[0])
    trial_services = np.maximum(0.0, services + eta[1])
    trial_non_services = np.maximum(0.0, non_services + eta[2])
    raw = coverage_columns(trial_high, trial_services, trial_non_services, households)
    return released[:, None] - clip_unit(raw), trial_services > 0.0


def trial_deviations(priv: PrivateZipRecord, households: int, config: SimulationConfig) -> np.ndarray:
    """Defined deviations for trials 1..k of one zone.

    Undefined trials are dropped, so the result can be shorter than k.
    """
    # raises when the release itself has no coverage or households is not a positive integer
    released = clip_unit(compute_coverage(priv.high_speed_dp, priv.services_dp, priv.non_services_dp, households))
    counts = np.array([[priv.high_speed_dp, priv.services_dp, priv.non_services_dp]])
    d, defined = _trials([priv.zone], counts, np.array([households]), np.array([released]), config)
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
) -> Columns[ErrorReport]:
    """Reports for a whole release, in input order.

    privs are Columns of PrivateZipRecord or a list of them; the reports
    come back as Columns of ErrorReport. Each zone's report is a pure
    function of its record, its household figure and the config, whatever
    the order or company of the others.
    """
    table = as_columns(privs, PrivateZipRecord)
    zones = table.column("zone")
    counts = np.column_stack([table.column(f"{label}_dp") for label in SIMULATED_LABELS]).astype(np.float64)
    figures = household_column(zones, households)
    released = coverage_rows(table, figures).column("coverage")
    mae, msd, p95 = (np.full(len(zones), np.nan) for _ in range(3))
    trials = np.zeros(len(zones), dtype=np.int64)
    active = np.flatnonzero(~np.isnan(released))
    per_block = max(1, BLOCK_TRIALS // config.k)
    for lo in range(0, len(active), per_block):
        rows = active[lo : lo + per_block]
        d, defined = _trials([zones[i] for i in rows.tolist()], counts[rows], figures[rows], released[rows], config)
        mae[rows], msd[rows], p95[rows], trials[rows] = _statistics(d, defined)
    return Columns(
        ErrorReport,
        zone=zones,
        mae=mae,
        msd=msd,
        p95=p95,
        k=np.full(len(zones), config.k, dtype=np.int64),
        defined_fraction=trials / config.k,
    )


def _bucket_columns(reports: Sequence[tuple[ErrorReport | ReleaseRow, int]]) -> tuple[Sequence[str], np.ndarray, list]:
    """(zones, households, [mae, msd, p95]) columns of (report, households) pairs, NaN for None."""
    names = ("mae", "msd", "p95")
    if isinstance(reports, Pairs) and isinstance(reports.first, Columns):
        first = reports.first
        return first.column("zone"), np.asarray(reports.second), [first.column(name) for name in names]
    pairs = list(reports)
    stats = [np.array([getattr(report, name) for report, _ in pairs], dtype=np.float64) for name in names]
    return [report.zone for report, _ in pairs], np.array([figure for _, figure in pairs], dtype=np.int64), stats


def bucket_by_households(
    reports: Sequence[tuple[ErrorReport | ReleaseRow, int]],
    thresholds: Sequence[int],
) -> list[BucketSummary]:
    """Group zones into half-open household buckets and average their stats.

    reports are (report, households) pairs: a list of them, or Pairs of
    Columns of ErrorReport or ReleaseRow and a households column. Only
    each report's zone, mae, msd and p95 are read, so the rows of a
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

    zones, households, (mae, msd, p95) = _bucket_columns(reports)
    bucket = np.searchsorted(np.asarray(thresholds, dtype=np.int64), households, side="right") - 1
    below = np.flatnonzero(bucket < 0)
    if below.size:
        row = int(below[0])
        raise ValueError(
            f"zone {zones[row]} has households={int(households[row])}, below the first threshold {thresholds[0]}"
        )

    highs: list[int | None] = [*thresholds[1:], None]
    defined = ~np.isnan(mae)
    summaries = []
    for index, (low, high) in enumerate(zip(thresholds, highs)):
        members = bucket == index
        chosen = members & defined
        if chosen.any():
            # np.mean over the member zones' values in zone order, as a list of them would give
            means = [float(np.mean(column[chosen])) for column in (mae, msd, p95)]
        else:
            means = [None, None, None]
        summaries.append(BucketSummary(low, high, int(members.sum()), *means))
    return summaries
