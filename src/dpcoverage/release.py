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

release_dataset is the only step that reads raw counts and spends
epsilon: one noise-kernel call per count label over every zone, giving
the noisy-count table. Everything after it is post-processing of those
noisy counts and costs no privacy: the published table is coverage_rows
of that table and the zones' household figures, the coverage formula
over whole arrays. Nothing here logs: the command line reports zones
without a household figure.

Tables travel as columns, from file to kernel to file: Columns holds one
list or numpy array per field of a record type, and builds a frozen
record only for a row that a caller reads, at the API edge. Each record
type's checks are one row rule here (raw_zip_problem, household_problem,
private_zip_problem, release_row_problem); the readers run a rule down
whole columns, and each record runs it on itself. A household figure is
a plain int at the API, alone or in a zone -> figure mapping;
HouseholdRecord is only the households file's row.

ReleaseRow is the one record of a published row, and its rule is the
rule of the release table. coverage_rows is the one function from noisy
counts and household figures to those rows: it fills a row's coverage,
decides UNDEFINED, and leaves the error columns empty. simulate-error is
the only producer of those columns, computed from the published noisy
counts alone (see dpcoverage.errorsim). dpcoverage.io holds the file
format, not the row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from decimal import Decimal
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from dpcoverage.accountant import EpsilonLike, Query, Sequential, as_epsilon, is_int, par, seq, total_epsilon
from dpcoverage.mechanism import LaplaceParams, is_real, privatize_count

# Substream labels for the four counts, in CSV column order.
COUNT_LABELS = ("low_speed", "high_speed", "services", "non_services")

# The counts the coverage formula reads, in coverage_columns' argument order.
COVERAGE_LABELS = ("high_speed", "services", "non_services")

COUNT_SENSITIVITY = 1.0  # one user moves any device count by at most 1


class IngestionError(ValueError):
    """Input records are malformed (bad zone, bad count, duplicate zone)."""


class DegenerateCountError(ValueError):
    """The coverage formula has no finite value: the services count is zero, or a product overflows."""


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
    if isinstance(zone, str) and zone.isascii() and len(zone) == 5 and zone.isdigit():
        return None
    return f"zone must be a 5-digit zip string, got {zone!r}"


def _integer_problem(name: str, value: object, minimum: int, kind: str) -> str | None:
    if type(value) is int and minimum <= value < 2**63:  # the common case, tested first; Columns hold int64
        return None
    if not (is_int(value) and value >= minimum):
        return f"{name} must be a {kind} integer, got {value!r}"
    if value >= 2**63:
        return f"{name} must be below 2**63, got {value!r}"
    return None


def _real_problem(name: str, value: object) -> str | None:
    if type(value) is float and 0.0 <= value < math.inf:  # the common case, tested first
        return None
    if is_real(value) and value >= 0:
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
    """Rule of a ReleaseRow: the rules of a row of the release table; as_epsilon checks its epsilon."""
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
    """One row of the households file: a zone's public household total."""

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
    aggressive the clip was. Both are None where the estimate is not finite
    (services count of zero, no household figure, or an overflow).
    Undefined is reported, never imputed. The error statistics mae, msd
    and p95 are None until simulate-error fills them in, and only a
    defined coverage can carry them. They describe raw_coverage clipped to
    [0, 1] at full precision, not the 3-decimal coverage, which can lie up
    to 0.0005 further from the truth.
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
        object.__setattr__(self, "epsilon", as_epsilon(self.epsilon))

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
    lists. len() is free. Indexing a row or iterating builds each row's
    record, and so runs its checks, only for the rows read; indexing a row
    converts its one-row slice as iterating does, so it builds the same
    record or raises the same error. Indexing with a slice selects rows as
    Columns.
    """

    def __init__(self, record: type[R], **columns: Sequence) -> None:
        self.record = record
        self.columns = {f.name: columns[f.name] for f in fields(record)}

    def column(self, name: str) -> Sequence:
        return self.columns[name]

    def __len__(self) -> int:
        return len(self.columns["zone"])

    def __getitem__(self, index):
        """The record of row index; for a slice, those rows as Columns."""
        if isinstance(index, (int, np.integer)):  # tested first: the common case
            row = slice(index, index + 1 or None)  # the last row's slice, from -1, runs to the end
            return self.record(*(_values(column[row])[0] for column in self.columns.values()))
        return Columns(self.record, **{name: column[index] for name, column in self.columns.items()})

    def __iter__(self) -> Iterator[R]:
        return map(self.record, *map(_values, self.columns.values()))


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


def clip_unit(value: float | np.ndarray, out: np.ndarray | None = None) -> float | np.ndarray:
    """Clip to [0, 1], elementwise over arrays, into out if given. Post-processing; idempotent."""
    return np.minimum(1.0, np.maximum(0.0, value, out=out), out=out)


def compute_coverage(high_speed: float, services: float, non_services: float, households: int) -> float:
    """Coverage estimate before clipping: coverage_columns of one zone, its inputs checked.

    The counts run as float64, as the release holds them. Raises
    DegenerateCountError where the result is not finite (services == 0,
    or an overflow); callers publish UNDEFINED rather than imputing.
    """
    problem = (
        _real_problem("high_speed", high_speed)
        or _real_problem("services", services)
        or _real_problem("non_services", non_services)
        or _integer_problem("households", households, 1, "positive")
    )
    if problem is not None:
        raise ValueError(problem)
    coverage = float(coverage_columns(float(high_speed), float(services), float(non_services), households))
    if not math.isfinite(coverage):
        raise DegenerateCountError(f"coverage is {coverage}: the services count is zero, or a product overflowed")
    return coverage


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


def count_noise(epsilon: EpsilonLike) -> LaplaceParams:
    """Every count query's noise at a per-query epsilon, which goes through float() unless it is an int or a bool.

    LaplaceParams then refuses True and an int beyond float range as it refuses any other epsilon.
    """
    return LaplaceParams(COUNT_SENSITIVITY, epsilon if isinstance(epsilon, int) else float(epsilon))


def coverage_columns(
    high_speed: np.ndarray,
    services: np.ndarray,
    non_services: np.ndarray,
    households: np.ndarray,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """The coverage formula, elementwise over arrays or scalars; a coverage exists where it is finite.

    It is inf or nan where services or households is 0 and where a
    product overflows, and raises no floating-point warning. out, if given,
    is (scratch, coverage), two float64 arrays of the result's shape, and
    coverage may be non_services itself: the call overwrites both and
    returns coverage. Without out, each step allocates its result.
    """
    scratch, coverage = (None, None) if out is None else out
    with np.errstate(all="ignore"):
        numerator = np.multiply(high_speed, np.add(services, non_services, out=coverage), out=coverage)
        return np.divide(numerator, np.multiply(services, households, out=scratch), out=coverage)


def household_column(zones: Sequence[str], households: Mapping[str, int]) -> np.ndarray:
    """Each zone's household total as an int64 column, 0 where it has none (no entry, or None).

    A figure that household_problem refuses raises IngestionError naming its zone.
    """
    figures = list(map(households.get, zones))
    for zone, figure in zip(zones, figures):
        plain = figure is None or (type(figure) is int and 0 < figure < 2**63)  # the common cases, tested first
        problem = None if plain else household_problem(zone, figure)
        if problem is not None:
            raise IngestionError(f"zone {zone}: {problem}")
    return np.fromiter((figure or 0 for figure in figures), dtype=np.int64, count=len(zones))


def coverage_rows(privs: Columns[PrivateZipRecord], figures: np.ndarray) -> Columns[ReleaseRow]:
    """The release table of a set of noisy counts: coverage and epsilon columns, empty error columns.

    figures comes from household_column, 0 where a zone has no household
    figure. A zone is UNDEFINED where coverage_columns is not finite: its
    raw coverage is NaN, and clip_unit carries the NaN into its coverage.
    """
    counts = (privs.column(f"{label}_dp") for label in COVERAGE_LABELS)
    raw = coverage_columns(*counts, figures)
    raw[~np.isfinite(raw)] = np.nan
    absent = np.full(len(privs), np.nan)
    return Columns(ReleaseRow, zone=privs.column("zone"), coverage=clip_unit(raw), raw_coverage=raw,
                   mae=absent, msd=absent, p95=absent, epsilon=privs.column("epsilon_total"))


def privatize_record(
    raw: RawZipRecord,
    per_query_epsilon: EpsilonLike,
    base_seed: int,
    *,
    round_counts: bool = False,
) -> PrivateZipRecord:
    """Privatize one zone's four counts: release_dataset([raw], ...)[0].

    Each count's noise is the draw at address (base_seed, zone, label, 0),
    the label being the count's name ("low_speed", "high_speed", "services"
    or "non_services"), so a zone's output depends only on its own record
    and the base seed.
    round_counts optionally rounds the clamped counts to whole devices
    (ties to even); the default publishes real values.
    """
    return release_dataset([raw], per_query_epsilon, base_seed, round_counts=round_counts)[0]


def release_dataset(
    records: Sequence[RawZipRecord],
    per_query_epsilon: EpsilonLike,
    base_seed: int,
    *,
    round_counts: bool = False,
) -> Columns[PrivateZipRecord]:
    """Privatize every zone in the release list, preserving input order: the noisy-count table.

    This is the only step that reads raw counts and spends epsilon. records
    are Columns of RawZipRecord or a list of them; the result is the
    sidecar table, one PrivateZipRecord per zone. The published table is
    coverage_rows of it and the household figures, post-processing that
    spends nothing more.

    Duplicate zones are rejected up front. Each zone's output is a pure
    function of its record and the base seed, whatever the order or
    company of the other records.

    epsilon protects one device's contribution: a device moves one count
    of each parallel pair by 1, so the release costs 2 * per_query_epsilon
    per device. A household with D measured devices is protected at
    2 * D * per_query_epsilon only, by group privacy, and per-zone totals
    cannot bound D: that bound is the upstream count step's to enforce.
    """
    table = as_columns(records, RawZipRecord)
    zones = table.column("zone")
    duplicate = first_duplicate(zones)
    if duplicate is not None:
        raise IngestionError(f"duplicate zone in release list: {zones[duplicate]}")

    eps = as_epsilon(per_query_epsilon)
    epsilon_total = total_epsilon(release_query_plan(eps))
    params = count_noise(eps)
    noisy = {}
    for label in COUNT_LABELS:
        column = privatize_count(table.column(label), params, base_seed, zones, label)
        # rint rounds ties to even, as round() does
        noisy[f"{label}_dp"] = np.rint(column) if round_counts else column
    return Columns(PrivateZipRecord, zone=zones, **noisy, epsilon_total=[epsilon_total] * len(zones))
