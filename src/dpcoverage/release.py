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
over every zone, then the coverage formula over whole arrays.

Tables travel as columns, from file to kernel to file: Columns holds one
list or numpy array per field of a record type, and builds a frozen
record only for a row that a caller reads, at the API edge. Each record
type's checks are one row rule here (raw_zip_problem, household_problem,
private_zip_problem, release_row_problem); the readers run a rule down
whole columns, and each record runs it on itself.

ReleaseRow is the one record of a published row, and its rule is the
rule of the release table. coverage_rows is the one function from noisy
counts and household figures to those rows: it fills a row's coverage,
decides UNDEFINED, and leaves the error columns empty. simulate-error is
the only producer of those columns, computed from the published noisy
counts alone (see dpcoverage.errorsim). dpcoverage.io holds the file
format, not the row.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, fields
from decimal import Decimal
from itertools import repeat
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from dpcoverage.accountant import EpsilonLike, Query, Sequential, as_epsilon, par, seq, total_epsilon
from dpcoverage.mechanism import LaplaceParams, NoiseSeed, privatize_count

logger = logging.getLogger(__name__)

_ZIP_RE = re.compile(r"[0-9]{5}")

# Substream labels for the four counts, in CSV column order.
COUNT_LABELS = ("low_speed", "high_speed", "services", "non_services")

COUNT_SENSITIVITY = 1.0  # one user moves any device count by at most 1


class IngestionError(ValueError):
    """Input records are malformed (bad zone, bad count, duplicate zone)."""


class DegenerateCountError(ValueError):
    """The services count is zero, so the coverage formula has no value."""


# ---------------------------------------------------------------- row rules
#
# Each record's rule is written once, as a function of one row's values,
# every field in field order, that returns the message of the first check
# the row fails, or None. The readers map a rule down whole columns, and
# a record's __post_init__ runs it on its own values.


def _check_row(rule: Callable[..., str | None], *values: object) -> None:
    problem = rule(*values)
    if problem is not None:
        raise IngestionError(problem)


def _zone_problem(zone: object) -> str | None:
    if isinstance(zone, str) and _ZIP_RE.fullmatch(zone):
        return None
    return f"zone must be a 5-digit zip string, got {zone!r}"


def _integer_problem(name: str, value: object, minimum: int, kind: str) -> str | None:
    # bool is an int subclass; reject it explicitly. Columns hold ints as int64.
    if type(value) is int and minimum <= value < 2**63:  # the common case, tested first
        return None
    if not (isinstance(value, int) and not isinstance(value, bool) and value >= minimum):
        return f"{name} must be a {kind} integer, got {value!r}"
    if value >= 2**63:
        return f"{name} must be below 2**63, got {value!r}"
    return None


def _real_problem(name: str, value: object) -> str | None:
    if type(value) is float and 0.0 <= value < math.inf:  # the common case, tested first
        return None
    if isinstance(value, (int, float)) and math.isfinite(value) and value >= 0:
        return None
    return f"{name} must be a nonnegative finite real, got {value!r}"


def raw_zip_problem(zone, low_speed, high_speed, services, non_services) -> str | None:
    """Rule of a RawZipRecord row."""
    return (
        _zone_problem(zone)
        or _integer_problem("low_speed", low_speed, 0, "nonnegative")
        or _integer_problem("high_speed", high_speed, 0, "nonnegative")
        or _integer_problem("services", services, 0, "nonnegative")
        or _integer_problem("non_services", non_services, 0, "nonnegative")
    )


def household_problem(zone, households) -> str | None:
    """Rule of a HouseholdRecord row."""
    return _zone_problem(zone) or _integer_problem("households", households, 1, "positive")


def private_zip_problem(zone, low_speed_dp, high_speed_dp, services_dp, non_services_dp, epsilon_total) -> str | None:
    """Rule of a PrivateZipRecord row; as_epsilon checks its epsilon."""
    return (
        _zone_problem(zone)
        or _real_problem("low_speed_dp", low_speed_dp)
        or _real_problem("high_speed_dp", high_speed_dp)
        or _real_problem("services_dp", services_dp)
        or _real_problem("non_services_dp", non_services_dp)
    )


def release_row_problem(zone, coverage, raw_coverage, mae, msd, p95, epsilon) -> str | None:
    """Rule of a ReleaseRow: the rules of a row of the release table."""
    problem = _zone_problem(zone)
    if problem is not None:
        return problem
    if (coverage is None) != (raw_coverage is None):
        return "coverage and raw_coverage must be both set or both None"
    if coverage is not None:
        if not (0.0 <= coverage <= 1.0):
            return f"coverage must lie in [0, 1], got {coverage!r}"
        if not math.isfinite(raw_coverage):
            return f"raw_coverage must be finite, got {raw_coverage!r}"
    if mae is None and msd is None and p95 is None:
        return None
    if mae is None or msd is None or p95 is None:
        return "mae, msd and p95 must be all set or all None"
    if coverage is None:
        return f"zone {zone} has error statistics but no coverage"
    if not (math.isfinite(mae) and math.isfinite(msd) and math.isfinite(p95) and mae >= 0 and p95 >= 0):
        return f"mae, msd and p95 must be finite, mae and p95 nonnegative, got {[mae, msd, p95]!r}"
    return None


def first_duplicate(zones: Sequence[str]) -> int | None:
    """Row of the first zone that an earlier row already has."""
    if len(set(zones)) == len(zones):
        return None
    seen: set[str] = set()
    for row, zone in enumerate(zones):
        if zone in seen:
            return row
        seen.add(zone)
    return None


# ---------------------------------------------------------------- records


@dataclass(frozen=True)
class RawZipRecord:
    """True device counts for one zone. Never published."""

    zone: str
    low_speed: int
    high_speed: int
    services: int
    non_services: int

    def __post_init__(self) -> None:
        _check_row(raw_zip_problem, self.zone, self.low_speed, self.high_speed, self.services, self.non_services)


@dataclass(frozen=True)
class HouseholdRecord:
    """Public household total for one zone."""

    zone: str
    households: int

    def __post_init__(self) -> None:
        _check_row(household_problem, self.zone, self.households)


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
        _check_row(
            private_zip_problem,
            self.zone, self.low_speed_dp, self.high_speed_dp, self.services_dp, self.non_services_dp,
            self.epsilon_total,
        )
        object.__setattr__(self, "epsilon_total", as_epsilon(self.epsilon_total))


@dataclass(frozen=True)
class ReleaseRow:
    """One row of the published per-zone table.

    coverage is the estimate clipped to [0, 1], shown to 3 decimals in the
    file; raw_coverage keeps the pre-clip value so analysts can see how
    aggressive the clip was. Both are None when the estimate is undefined
    (noisy services count of zero, or no household figure for the zone).
    Undefined is reported, never imputed. The error statistics mae, msd
    and p95 are None until simulate-error fills them in, and only a
    defined coverage can carry them.
    """

    zone: str
    coverage: float | None
    raw_coverage: float | None
    mae: float | None
    msd: float | None
    p95: float | None
    epsilon: Decimal

    def __post_init__(self) -> None:
        _check_row(
            release_row_problem,
            self.zone, self.coverage, self.raw_coverage, self.mae, self.msd, self.p95, self.epsilon,
        )

    @property
    def defined(self) -> bool:
        return self.coverage is not None


# ---------------------------------------------------------------- columns

R = TypeVar("R")


def _dtype(annotation: str) -> type | None:
    """numpy dtype of a record field held as an array, by its annotation; None for a list."""
    return {"int": np.int64, "float": np.float64, "float | None": np.float64}.get(annotation)


class Columns(Sequence[R]):
    """Rows of one record type, held as one column per field.

    int and float fields are numpy arrays, with NaN standing for None (no
    record holds a NaN: the row rules refuse non-finite values, and the
    kernels make none); other fields, such as zones and epsilons, are
    lists. len() is free. Indexing or iterating builds each row's record,
    and so runs its checks, only for the rows read.
    """

    def __init__(self, record: type[R], **columns: Sequence) -> None:
        self.record = record
        self.columns = {f.name: columns[f.name] for f in fields(record)}

    def column(self, name: str) -> Sequence:
        return self.columns[name]

    def __len__(self) -> int:
        return len(self.columns["zone"])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Columns(self.record, **{name: column[index] for name, column in self.columns.items()})
        return self.record(*(_value(column[index]) for column in self.columns.values()))

    def __iter__(self) -> Iterator[R]:
        return map(self.record, *map(_values, self.columns.values()))

    def take(self, rows: Sequence[int]) -> Columns[R]:
        """The given rows, in the given order."""
        return Columns(
            self.record,
            **{
                name: column[rows] if isinstance(column, np.ndarray) else [column[row] for row in rows]
                for name, column in self.columns.items()
            },
        )


def _value(value: object) -> object:
    """One column entry as a Python object, None for NaN."""
    if isinstance(value, np.generic):
        value = value.item()
        return None if value != value else value
    return value


def _values(column: Sequence) -> list:
    """A column's values as Python objects, None for NaN."""
    if not isinstance(column, np.ndarray):
        return column
    values = column.tolist()
    if column.dtype.kind == "f" and np.isnan(column).any():
        values = [None if value != value else value for value in values]
    return values


def columns_of(record: type[R], *values: list) -> Columns[R]:
    """Columns of record from one list of Python values per field, in field order."""
    columns = {}
    for field, column in zip(fields(record), values, strict=True):
        dtype = _dtype(field.type)
        columns[field.name] = column if dtype is None else np.array(column, dtype=dtype)
    return Columns(record, **columns)


def as_columns(rows: Iterable[R], record: type[R]) -> Columns[R]:
    """rows as Columns of record: unchanged if they already are, else converted once."""
    if isinstance(rows, Columns):
        return rows
    rows = list(rows)
    return columns_of(record, *([getattr(row, field.name) for row in rows] for field in fields(record)))


class Pairs(Sequence[tuple]):
    """Two sequences of equal length read side by side, as (first[i], second[i])."""

    def __init__(self, first: Sequence, second: Sequence) -> None:
        self.first = first
        self.second = second

    def __len__(self) -> int:
        return len(self.first)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Pairs(self.first[index], self.second[index])
        return self.first[index], self.second[index]

    def __iter__(self) -> Iterator[tuple]:
        return zip(self.first, self.second)


class Households(Mapping[str, HouseholdRecord]):
    """Household totals held as a zone -> figure dict.

    Looking a zone up builds its HouseholdRecord; household_column reads
    the figures directly.
    """

    def __init__(self, figures: dict[str, int]) -> None:
        self.figures = figures

    def __getitem__(self, zone: str) -> HouseholdRecord:
        return HouseholdRecord(zone, self.figures[zone])

    def __contains__(self, zone: object) -> bool:
        return zone in self.figures

    def __iter__(self) -> Iterator[str]:
        return iter(self.figures)

    def __len__(self) -> int:
        return len(self.figures)


def clip_unit(value: float | np.ndarray) -> float | np.ndarray:
    """Clip to [0, 1], elementwise over arrays. Post-processing; idempotent."""
    return np.minimum(1.0, np.maximum(0.0, value))


def compute_coverage(high_speed: float, services: float, non_services: float, households: int) -> float:
    """Coverage estimate before clipping.

    high_speed * (services + non_services) / (services * households).
    Raises DegenerateCountError when services == 0; callers publish
    UNDEFINED for that zone rather than imputing a value.
    """
    problem = (
        _real_problem("high_speed", high_speed)
        or _real_problem("services", services)
        or _real_problem("non_services", non_services)
        or _integer_problem("households", households, 1, "positive")
    )
    if problem is not None:
        raise ValueError(problem)
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

    Elements whose services count is zero come out inf or nan;
    coverage_rows masks them as UNDEFINED.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return high_speed * (services + non_services) / (services * households)


def household_column(zones: Sequence[str], households: Mapping[str, HouseholdRecord]) -> np.ndarray:
    """Each zone's household total as an int64 column, 0 where the zone has no figure."""
    if isinstance(households, Households):
        figures = households.figures
    else:
        figures = {zone: record.households for zone, record in households.items()}
    return np.fromiter(map(figures.get, zones, repeat(0)), dtype=np.int64, count=len(zones))


def coverage_rows(privs: Columns[PrivateZipRecord], figures: np.ndarray) -> Columns[ReleaseRow]:
    """The release table of a set of noisy counts: coverage and epsilon columns, empty error columns.

    figures comes from household_column, 0 where a zone has no household
    figure. A zone is UNDEFINED when its figure or its services_dp is 0:
    its raw coverage is NaN, and clip_unit carries the NaN into its coverage.
    """
    services = privs.column("services_dp")
    raw = coverage_columns(privs.column("high_speed_dp"), services, privs.column("non_services_dp"), figures)
    raw = np.where((figures > 0) & (services > 0), raw, np.nan)
    absent = np.full(len(privs), np.nan)
    return Columns(ReleaseRow, zone=privs.column("zone"), coverage=clip_unit(raw), raw_coverage=raw,
                   mae=absent, msd=absent, p95=absent, epsilon=privs.column("epsilon_total"))


def _noisy_counts(
    zones: Sequence[str],
    true: np.ndarray,
    params: LaplaceParams,
    base_seed: int,
    round_counts: bool,
) -> np.ndarray:
    """(zones, 4) clamped noisy counts from (zones, 4) true counts, one kernel call per count label."""
    zones = tuple(zones)
    noisy = np.column_stack(
        [
            privatize_count(true[:, column], params, NoiseSeed(base_seed, zones, label, 0))
            for column, label in enumerate(COUNT_LABELS)
        ]
    ).reshape(len(zones), len(COUNT_LABELS))
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
    true = np.array([[raw.low_speed, raw.high_speed, raw.services, raw.non_services]], dtype=np.float64)
    noisy = _noisy_counts([raw.zone], true, LaplaceParams(COUNT_SENSITIVITY, float(eps)), base_seed, round_counts)
    return PrivateZipRecord(raw.zone, *noisy[0].tolist(), total_epsilon(release_query_plan(eps)))


def release_dataset(
    records: Sequence[RawZipRecord],
    households: Mapping[str, HouseholdRecord],
    per_query_epsilon: EpsilonLike,
    base_seed: int,
    *,
    round_counts: bool = False,
) -> Pairs:
    """Privatize every zone in the release list, preserving input order.

    records are Columns of RawZipRecord or a list of them. The result
    reads as (PrivateZipRecord, ReleaseRow) pairs, one per zone; its first
    and second are the two tables as Columns, for the two writers; the
    second is coverage_rows of the first.

    Duplicate zones are rejected up front. Zones with no household figure
    are released with an UNDEFINED coverage estimate (their noisy counts
    are still published) and reported in one log warning, not dropped.
    Each zone's output is a pure function of its record and the base
    seed, whatever the order or company of the other records.
    """
    table = as_columns(records, RawZipRecord)
    zones = table.column("zone")
    duplicate = first_duplicate(zones)
    if duplicate is not None:
        raise IngestionError(f"duplicate zone in release list: {zones[duplicate]}")

    eps = as_epsilon(per_query_epsilon)
    epsilon_total = total_epsilon(release_query_plan(eps))
    true = np.column_stack([table.column(label) for label in COUNT_LABELS]).astype(np.float64)
    noisy = _noisy_counts(zones, true, LaplaceParams(COUNT_SENSITIVITY, float(eps)), base_seed, round_counts)

    figures = household_column(zones, households)
    missing = np.flatnonzero(figures == 0)
    if missing.size:
        logger.warning(
            "%d zone(s) have no household figure and are released with UNDEFINED coverage: %s%s",
            missing.size,
            ", ".join(zones[row] for row in missing[:5].tolist()),
            ", ..." if missing.size > 5 else "",
        )
    privs = Columns(
        PrivateZipRecord,
        zone=zones,
        **{f"{label}_dp": noisy[:, column] for column, label in enumerate(COUNT_LABELS)},
        epsilon_total=[epsilon_total] * len(zones),
    )
    return Pairs(privs, coverage_rows(privs, figures))
