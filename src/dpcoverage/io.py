"""CSV formats for the pipeline's inputs and outputs.

All files use comma separators, a fixed header row, and LF line endings
(so repeat runs are byte-identical across platforms). Undefined values
are written as empty fields, never imputed. Full-precision floats are
written with repr, which round-trips exactly; only the published
broadband_usage column is fixed to 3 decimal places.

Readers abort on the first malformed row and name its line number.
Writers replace their target atomically: a crash mid-write leaves the
old file, never a truncated one.
"""

from __future__ import annotations

import contextlib
import csv
import os
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

from dpcoverage.accountant import as_epsilon
from dpcoverage.errorsim import BucketSummary, ErrorReport
from dpcoverage.release import CoverageEstimate, HouseholdRecord, PrivateZipRecord, RawZipRecord

COUNTS_HEADER = ["zip", "low_speed_devices", "high_speed_devices", "services_devices", "non_services_devices"]
HOUSEHOLDS_HEADER = ["zip", "households"]
RELEASE_HEADER = ["zip", "broadband_usage", "broadband_usage_raw", "error_mae", "error_msd", "error_p95", "epsilon"]
PRIVATE_COUNTS_HEADER = ["zip", "low_speed_dp", "high_speed_dp", "services_dp", "non_services_dp", "epsilon"]
BUCKET_HEADER = ["bucket_low", "bucket_high", "zones", "mean_mae", "mean_msd", "mean_p95"]


class CsvFormatError(ValueError):
    """A CSV file has a bad header or a malformed row."""


@dataclass(frozen=True)
class ReleaseRow:
    """One row of the published per-zone table.

    coverage is the clipped estimate shown to 3 decimals in the file;
    error statistics are None until a simulation fills them in. Undefined
    coverage leaves coverage and raw_coverage None.
    """

    zone: str
    coverage: float | None
    raw_coverage: float | None
    mae: float | None
    msd: float | None
    p95: float | None
    epsilon: Decimal


def private_counts_path(release_path: str | Path) -> Path:
    """Sidecar carrying the noisy counts a release was computed from."""
    return Path(f"{release_path}.private-counts.csv")


@contextlib.contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """Text handle on a temporary file beside path, moved onto path on success.

    On any exception the temporary file is deleted and path keeps its old
    bytes, so a crash never leaves a truncated file under the final name.
    """
    temporary = Path(f"{path}.{os.getpid()}.tmp")
    handle = open(temporary, "w", encoding="utf-8", newline="")
    try:
        with handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _write_table(path: str | Path, header: list[str], rows: Iterable[Sequence]) -> None:
    with atomic_writer(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _row_error(path: str | Path, line_num: int, problem: str) -> CsvFormatError:
    return CsvFormatError(f"{path}: line {line_num}: {problem}")


def _read_table(path: str | Path, header: list[str], parse_row: Callable[[list[str]], Any]) -> list:
    """Records parsed from the rows of a CSV file with the given header.

    Rejects an empty file, a wrong header, a row with the wrong number of
    fields, a row parse_row rejects with ValueError, and a zone seen on an
    earlier row; row errors name their line.
    """
    records = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        first = next(reader, None)
        if first is None:
            raise CsvFormatError(f"{path}: empty file, expected header {','.join(header)}")
        if first != header:
            raise CsvFormatError(f"{path}: bad header {','.join(first)!r}, expected {','.join(header)!r}")
        for row in reader:
            if len(row) != len(header):
                raise _row_error(path, reader.line_num, f"expected {len(header)} fields, got {len(row)}")
            try:
                record = parse_row(row)
            except ValueError as exc:
                raise _row_error(path, reader.line_num, str(exc))
            if record.zone in seen:
                raise _row_error(path, reader.line_num, f"duplicate zone {record.zone}")
            seen.add(record.zone)
            records.append(record)
    return records


def _parse_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}")


def _parse_float(text: str, name: str) -> float | None:
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{name} must be a real number, got {text!r}")


def read_counts_csv(path: str | Path) -> list[RawZipRecord]:
    """True per-zone device counts. Duplicate zones are rejected."""
    return _read_table(
        path, COUNTS_HEADER, lambda row: RawZipRecord(row[0], *map(_parse_int, row[1:], COUNTS_HEADER[1:]))
    )


def write_counts_csv(path: str | Path, records: Sequence[RawZipRecord]) -> None:
    rows = ([r.zone, r.low_speed, r.high_speed, r.services, r.non_services] for r in records)
    _write_table(path, COUNTS_HEADER, rows)


def read_households_csv(path: str | Path) -> dict[str, HouseholdRecord]:
    """Public household totals, keyed by zone. Duplicate zones are rejected."""
    records = _read_table(
        path, HOUSEHOLDS_HEADER, lambda row: HouseholdRecord(row[0], _parse_int(row[1], "households"))
    )
    return {record.zone: record for record in records}


def write_households_csv(path: str | Path, records: Sequence[HouseholdRecord]) -> None:
    _write_table(path, HOUSEHOLDS_HEADER, ([r.zone, r.households] for r in records))


def _format_float(value: float | None) -> str:
    return "" if value is None else repr(value)


def _release_fields(r: ReleaseRow) -> list[str]:
    coverage = "" if r.coverage is None else f"{r.coverage:.3f}"
    return [r.zone, coverage, *map(_format_float, (r.raw_coverage, r.mae, r.msd, r.p95)), str(r.epsilon)]


def write_release_csv(path: str | Path, rows: Sequence[ReleaseRow]) -> None:
    _write_table(path, RELEASE_HEADER, map(_release_fields, rows))


def _parse_release_row(row: list[str]) -> ReleaseRow:
    coverage, raw_coverage = map(_parse_float, row[1:3], RELEASE_HEADER[1:3])
    if (coverage is None) != (raw_coverage is None):
        raise ValueError("broadband_usage and broadband_usage_raw must be both set or both empty")
    errors = map(_parse_float, row[3:6], RELEASE_HEADER[3:6])
    return ReleaseRow(row[0], coverage, raw_coverage, *errors, epsilon=as_epsilon(row[6]))


def read_release_csv(path: str | Path) -> list[ReleaseRow]:
    return _read_table(path, RELEASE_HEADER, _parse_release_row)


def write_private_counts_csv(path: str | Path, privs: Sequence[PrivateZipRecord]) -> None:
    """Noisy-count sidecar; lets error simulation run as pure post-processing."""
    rows = (
        [p.zone, *map(repr, (p.low_speed_dp, p.high_speed_dp, p.services_dp, p.non_services_dp)), str(p.epsilon_total)]
        for p in privs
    )
    _write_table(path, PRIVATE_COUNTS_HEADER, rows)


def read_private_counts_csv(path: str | Path) -> list[PrivateZipRecord]:
    return _read_table(
        path, PRIVATE_COUNTS_HEADER, lambda row: PrivateZipRecord(row[0], *map(float, row[1:5]), as_epsilon(row[5]))
    )


def write_bucket_csv(path: str | Path, summaries: Sequence[BucketSummary]) -> None:
    rows = (
        [s.low, "" if s.high is None else s.high, s.zone_count, *map(_format_float, (s.mean_mae, s.mean_msd, s.mean_p95))]
        for s in summaries
    )
    _write_table(path, BUCKET_HEADER, rows)


def release_rows(
    pairs: Sequence[tuple[PrivateZipRecord, CoverageEstimate]],
    reports: Sequence[ErrorReport] | None = None,
) -> list[ReleaseRow]:
    """Assemble output rows from release pairs and optional error reports."""
    if reports is not None and len(reports) != len(pairs):
        raise ValueError(f"got {len(reports)} error reports for {len(pairs)} release rows")
    rows: list[ReleaseRow] = []
    for index, (priv, estimate) in enumerate(pairs):
        report = reports[index] if reports is not None else None
        if report is not None and report.zone != priv.zone:
            raise ValueError(f"error report zone {report.zone} does not match release zone {priv.zone}")
        errors = (None, None, None) if report is None else (report.mae, report.msd, report.p95)
        rows.append(ReleaseRow(priv.zone, estimate.coverage, estimate.raw_coverage, *errors, priv.epsilon_total))
    return rows
