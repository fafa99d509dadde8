"""CSV formats for the pipeline's inputs and outputs.

All files use comma separators, a fixed header row, and LF line endings
(so repeat runs are byte-identical across platforms). Undefined values
are written as empty fields, never imputed. Full-precision floats are
written with repr, which round-trips exactly; only the published
broadband_usage column is fixed to 3 decimal places.

Readers parse a file into columns (release.Columns; households become a
release.Households mapping); a column pass only tells whether the table
is good. A bad table is then walked row by row, to name its first bad
row in file order and that row's line number. Writers take Columns, or a
list of records that they convert once, and replace their target
atomically: a crash mid-write leaves the old file, never a truncated one.

This module holds only the formats: the records it reads and writes, and
their validity rules, belong to dpcoverage.release and dpcoverage.errorsim.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from dpcoverage.accountant import as_epsilon
from dpcoverage.errorsim import BucketSummary
from dpcoverage.release import (
    COUNT_LABELS,
    Columns,
    HouseholdRecord,
    Households,
    PrivateZipRecord,
    RawZipRecord,
    ReleaseRow,
    as_columns,
    columns_of,
    household_problem,
    private_zip_problem,
    raw_zip_problem,
    release_row_problem,
)

COUNTS_HEADER = ["zip", "low_speed_devices", "high_speed_devices", "services_devices", "non_services_devices"]
HOUSEHOLDS_HEADER = ["zip", "households"]
RELEASE_HEADER = ["zip", "broadband_usage", "broadband_usage_raw", "error_mae", "error_msd", "error_p95", "epsilon"]
PRIVATE_COUNTS_HEADER = ["zip", "low_speed_dp", "high_speed_dp", "services_dp", "non_services_dp", "epsilon"]
BUCKET_HEADER = ["bucket_low", "bucket_high", "zones", "mean_mae", "mean_msd", "mean_p95"]


class CsvFormatError(ValueError):
    """A CSV file has a bad header or a malformed row."""


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


Parser = tuple[Callable[[str], Any], Callable[[str, ValueError], str]]  # (convert, message(text, error))


def _read_table(
    path: str | Path,
    header: list[str],
    parsers: Sequence[Parser],
    rule: Callable[..., str | None],
) -> list[list]:
    """Checked columns of values from a CSV file with the given header, zones first.

    Each parser converts one column after the zone; rule, the record's row
    rule, runs over the converted columns. Rejects an empty file, a wrong
    header, a row with the wrong number of fields, a value a parser or the
    rule refuses, a row the csv module cannot parse, and a zone seen on an
    earlier row. The column pass only answers whether the table is good;
    if not, _first_problem finds what a row-by-row reader would raise.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            first = next(reader, None)
        except csv.Error as exc:
            raise _row_error(path, reader.line_num, str(exc))
        if first is None:
            raise CsvFormatError(f"{path}: empty file, expected header {','.join(header)}")
        if first != header:
            raise CsvFormatError(f"{path}: bad header {','.join(first)!r}, expected {','.join(header)!r}")
        texts: list[list[str]] = [[] for _ in header]
        lines: list[int] = []  # each row's last line: a quoted field may span lines
        rows: list[list[str]] = []  # rows not yet moved into texts
        stop = None  # why reading ended before the end of the file
        try:
            for row in reader:
                if len(row) != len(header):
                    stop = f"expected {len(header)} fields, got {len(row)}"
                    break
                lines.append(reader.line_num)
                rows.append(row)
                if len(rows) == 4096:  # move rows into texts in slices, never holding the whole file twice
                    _extend_columns(texts, rows)
                    rows = []
        except csv.Error as exc:
            # the csv module's own parse errors, such as a field over its size limit
            stop = str(exc)
        _extend_columns(texts, rows)
        if stop is not None:
            lines.append(reader.line_num)

    zones = texts[0]
    try:
        values = [zones, *(list(map(convert, column)) for (convert, _), column in zip(parsers, texts[1:]))]
    except ValueError:
        values = None
    if values is None or stop is not None or any(map(rule, *values)) or len(set(zones)) < len(zones):
        row, problem = _first_problem(texts, parsers, rule, stop)
        raise _row_error(path, lines[row], problem)
    return values


def _first_problem(texts: list[list[str]], parsers: Sequence[Parser], rule: Callable, stop: str | None) -> tuple:
    """The first bad row and its problem, as a row-by-row reader meets them.

    Within a row: each field's parse in column order, then the rule, then
    a repeated zone. Past the last row read, why reading stopped.
    """
    seen: set[str] = set()
    for row, (zone, *fields) in enumerate(zip(*texts)):
        values = [zone]
        for (convert, message), text in zip(parsers, fields):
            try:
                values.append(convert(text))
            except ValueError as exc:
                return row, message(text, exc)
        problem = rule(*values) or (f"duplicate zone {zone}" if zone in seen else None)
        if problem is not None:
            return row, problem
        seen.add(zone)
    return len(texts[0]), stop


def _extend_columns(columns: list[list[str]], rows: list[list[str]]) -> None:
    for column, fields in zip(columns, zip(*rows)):
        column.extend(fields)


def _integers(name: str) -> Parser:
    return int, lambda text, _: f"{name} must be an integer, got {text!r}"


def _optional_reals(name: str) -> Parser:
    return (lambda text: None if text == "" else float(text)), lambda text, _: f"{name} must be a real number, got {text!r}"


_REALS: Parser = (float, lambda _, exc: str(exc))


def _epsilons() -> Parser:
    """as_epsilon, run once per distinct text of the file being read."""
    return functools.lru_cache(maxsize=None)(as_epsilon), lambda _, exc: str(exc)


def read_counts_csv(path: str | Path) -> Columns[RawZipRecord]:
    """True per-zone device counts. Duplicate zones are rejected."""
    parsers = [_integers(name) for name in COUNTS_HEADER[1:]]
    return columns_of(RawZipRecord, *_read_table(path, COUNTS_HEADER, parsers, raw_zip_problem))


def write_counts_csv(path: str | Path, records: Sequence[RawZipRecord]) -> None:
    table = as_columns(records, RawZipRecord)
    counts = (table.column(label).tolist() for label in COUNT_LABELS)
    _write_table(path, COUNTS_HEADER, zip(table.column("zone"), *counts))


def read_households_csv(path: str | Path) -> Households:
    """Public household totals, keyed by zone. Duplicate zones are rejected."""
    zones, figures = _read_table(path, HOUSEHOLDS_HEADER, [_integers("households")], household_problem)
    return Households(dict(zip(zones, figures)))


def write_households_csv(path: str | Path, records: Sequence[HouseholdRecord]) -> None:
    table = as_columns(records, HouseholdRecord)
    _write_table(path, HOUSEHOLDS_HEADER, zip(table.column("zone"), table.column("households").tolist()))


def _format_floats(column: np.ndarray, form: Callable[[float], str] = repr) -> list[str]:
    """Each value in its text form, NaN (None) as an empty field."""
    return ["" if value != value else form(value) for value in column.tolist()]


def release_text(rows: Sequence[ReleaseRow]) -> dict[str, list[str]]:
    """The release table's fields as write_release_csv writes them, one list per RELEASE_HEADER column.

    broadband_usage has 3 decimals, the other reals repr (which
    round-trips), epsilon str; an UNDEFINED or absent value is "".
    """
    table = as_columns(rows, ReleaseRow)
    columns = [
        table.column("zone"),
        _format_floats(table.column("coverage"), "{:.3f}".format),
        *(_format_floats(table.column(name)) for name in ("raw_coverage", "mae", "msd", "p95")),
        list(map(str, table.column("epsilon"))),
    ]
    return dict(zip(RELEASE_HEADER, columns))


def write_release_csv(path: str | Path, rows: Sequence[ReleaseRow]) -> None:
    _write_table(path, RELEASE_HEADER, zip(*release_text(rows).values()))


def read_release_csv(path: str | Path) -> Columns[ReleaseRow]:
    parsers = [*map(_optional_reals, RELEASE_HEADER[1:6]), _epsilons()]
    return columns_of(ReleaseRow, *_read_table(path, RELEASE_HEADER, parsers, release_row_problem))


def write_private_counts_csv(path: str | Path, privs: Sequence[PrivateZipRecord]) -> None:
    """Noisy-count sidecar; lets error simulation run as pure post-processing."""
    table = as_columns(privs, PrivateZipRecord)
    counts = (map(repr, table.column(f"{label}_dp").tolist()) for label in COUNT_LABELS)
    epsilons = map(str, table.column("epsilon_total"))
    _write_table(path, PRIVATE_COUNTS_HEADER, zip(table.column("zone"), *counts, epsilons))


def read_private_counts_csv(path: str | Path) -> Columns[PrivateZipRecord]:
    parsers = [_REALS] * len(COUNT_LABELS) + [_epsilons()]
    return columns_of(PrivateZipRecord, *_read_table(path, PRIVATE_COUNTS_HEADER, parsers, private_zip_problem))


def _format_float(value: float | None) -> str:
    return "" if value is None else repr(value)


def write_bucket_csv(path: str | Path, summaries: Sequence[BucketSummary]) -> None:
    rows = (
        [s.low, "" if s.high is None else s.high, s.zone_count, *map(_format_float, (s.mean_mae, s.mean_msd, s.mean_p95))]
        for s in summaries
    )
    _write_table(path, BUCKET_HEADER, rows)
