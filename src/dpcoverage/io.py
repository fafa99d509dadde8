"""CSV formats for the pipeline's inputs and outputs.

All files use comma separators, a fixed header row, and LF line endings
(so repeat runs are byte-identical across platforms). Undefined values
are written as empty fields, never imputed. Full-precision floats are
written with repr, which round-trips exactly; only the published
broadband_usage column is fixed to 3 decimal places.

Readers parse a file into columns (release.Columns; households become a
zone -> figure dict of ints, the shape the API takes them in). Each file
is read and decoded once; one that is not UTF-8 text is refused as such.
A plain file (no quote, CR or NUL, a final newline, the same number of
commas on every line, no line over the csv module's field limit, and the
right header) is split with str.split and checked column by column.
Every other file, and every plain file that check refuses, is read row
by row by csv.reader, which names the first bad row in file order and
its line number.

Writers take Columns, or a list of records that they convert once, and
replace their target atomically: a crash mid-write leaves the old file,
never a truncated one. They write WRITE_CHUNK_ROWS rows at a time as
plain comma-joined lines, which the plain-file split reads back; a row
with a field that would need quoting (a comma, quote, CR, LF or NUL) is
refused, not quoted, and the target keeps its old bytes.

This module holds only the formats: the records it reads and writes, and
their validity rules, belong to dpcoverage.release and dpcoverage.errorsim.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import os
from io import StringIO
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from dpcoverage.accountant import as_epsilon, sync_directory
from dpcoverage.release import (
    COUNT_LABELS,
    Columns,
    HouseholdRecord,
    PrivateZipRecord,
    RawZipRecord,
    ReleaseRow,
    as_columns,
    columns_of,
    first_duplicate,
    household_problem,
    private_zip_problem,
    raw_zip_problem,
    release_row_problem,
)

if TYPE_CHECKING:  # for an annotation only, so that io stays below errorsim
    from dpcoverage.errorsim import BucketSummary

COUNTS_HEADER = ["zip", "low_speed_devices", "high_speed_devices", "services_devices", "non_services_devices"]
HOUSEHOLDS_HEADER = ["zip", "households"]
RELEASE_HEADER = ["zip", "broadband_usage", "broadband_usage_raw", "error_mae", "error_msd", "error_p95", "epsilon"]
PRIVATE_COUNTS_HEADER = ["zip", "low_speed_dp", "high_speed_dp", "services_dp", "non_services_dp", "epsilon"]
BUCKET_HEADER = ["bucket_low", "bucket_high", "zones", "mean_mae", "mean_msd", "mean_p95"]

# Rows joined into one write: a bound on the rows and text a write holds at
# once. Joining a whole 32,653-row table raised the peak memory of release
# from 60 to 72 MB. Writing a 32,653-zone synth's two tables and 51
# 100-zone slices five times in one process raised its peak by 0.6-1.3 MB
# with chunks of 1,024 rows and by 0.1-0.3 MB with chunks of 256, which
# cost up to 5 ms more on a 32,653-row table.
WRITE_CHUNK_ROWS = 256


class CsvFormatError(ValueError):
    """A CSV file has a bad header or a malformed row."""


def private_counts_path(release_path: str | Path) -> Path:
    """Sidecar carrying the noisy counts a release was computed from."""
    return Path(f"{release_path}.private-counts.csv")


def temporary_path(path: str | Path) -> Path:
    """The file beside path that atomic_writer writes and then moves onto path."""
    return Path(f"{path}.{os.getpid()}.tmp")


@contextlib.contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """Text handle on a temporary file beside path, moved onto path on success.

    On any exception the temporary file is deleted and path keeps its old
    bytes, so a crash never leaves a truncated file under the final name.
    The new bytes are on disk (fsync) before the move, and the move is on
    disk (fsync of the directory) before this returns, so a power loss
    leaves path with its old bytes or its new ones, never an empty file.
    """
    temporary = temporary_path(path)
    handle = open(temporary, "w", encoding="utf-8", newline="")
    try:
        with handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
        sync_directory(path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _write_table(path: str | Path, header: list[str], rows: Iterable[Sequence[str]]) -> None:
    """header and rows as comma-joined lines, WRITE_CHUNK_ROWS rows to each write.

    These are the csv module's lines for rows of str fields, as wide as
    the header, with no comma, quote, CR, LF or NUL. Any other chunk is
    refused with a ValueError naming path, which keeps its old bytes.
    """
    rows = itertools.chain([header], rows)
    width = len(header)
    with atomic_writer(path) as handle:
        while chunk := list(itertools.islice(rows, WRITE_CHUNK_ROWS)):
            text = "\n".join(map(",".join, chunk)) + "\n"
            if not (
                set(map(len, chunk)) == {width}
                and text.count(",") == len(chunk) * (width - 1) and text.count("\n") == len(chunk)
                and '"' not in text and "\r" not in text and "\x00" not in text
            ):
                raise ValueError(f"{path}: a row is not {width} fields wide or a field would need quoting")
            handle.write(text)


def _row_error(path: str | Path, line_num: int, problem: str) -> CsvFormatError:
    return CsvFormatError(f"{path}: line {line_num}: {problem}")


Parser = tuple[Callable[[str], Any], Callable[[str, ValueError], str]]  # (convert, message(text, error))


def _split_columns(text: str, header: list[str]) -> list[list[str]] | None:
    """The columns of a plain table's rows, split on commas and newlines; None unless the table is plain.

    Plain text is what csv.reader reads as split does: no quote, CR or
    NUL, a final newline, exactly one comma fewer than the header has
    fields on every line, no line longer than the csv module's field
    limit, and the right header.
    """
    if not text.endswith("\n") or '"' in text or "\r" in text or "\x00" in text:
        return None
    lines = text[:-1].split("\n")  # not splitlines, which also splits on \v, \f, \x1c.. and \u2028
    width = len(header)
    if (
        lines[0] != ",".join(header)
        or set(map(str.count, lines, itertools.repeat(","))) != {width - 1}
        or max(map(len, lines)) > csv.field_size_limit()
    ):
        return None
    if len(lines) == 1:
        return [[] for _ in header]
    del lines  # freed before the fields are made
    fields = text[text.index("\n") + 1 : -1].replace("\n", ",").split(",")
    return [fields[column::width] for column in range(width)]


def _read_table(
    path: str | Path,
    header: list[str],
    parsers: Sequence[Parser],
    rule: Callable[..., str | None],
) -> list[list]:
    """Checked columns of values from a CSV file with the given header, zones first.

    Each parser converts one column after the zone; rule, the record's row
    rule, runs over the converted values. Rejects an empty file, a wrong
    header, a row with the wrong number of fields, a value a parser or the
    rule refuses, a row the csv module cannot parse, a zone seen on an
    earlier row, and a file that is not UTF-8 text (as such, naming no
    line). The file is read and decoded once. A plain file is split into
    columns with str.split and checked column by column; any other file,
    and a plain one that check refuses, is read row by row by _read_rows.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            text = handle.read()
    except UnicodeDecodeError:
        raise CsvFormatError(f"{path}: not UTF-8 text") from None
    texts = _split_columns(text, header)
    if texts is not None:
        del text  # held beside the values, it raised summarize's peak RSS by 3 MB; a plain text is rebuilt below
        zones = texts[0]
        try:
            values = [zones, *(list(map(convert, column)) for (convert, _), column in zip(parsers, texts[1:]))]
        except ValueError:
            values = None
        if values is not None and not any(map(rule, *values)) and first_duplicate(zones) is None:
            return values
        text = "\n".join(map(",".join, [header, *zip(*texts)])) + "\n"
    return _read_rows(path, text, header, parsers, rule)


def _read_rows(
    path: str | Path, text: str, header: list[str], parsers: Sequence[Parser], rule: Callable[..., str | None]
) -> list[list]:
    """_read_table's columns from csv.reader, row by row, or the first problem in file order.

    Within a row: its field count, each field's parse in column order,
    then the rule, then a repeated zone. A problem names the row's last
    line, since a quoted field may span lines.
    """
    reader = csv.reader(StringIO(text, newline=""))
    columns: list[list] = [[] for _ in header]
    seen: set[str] = set()
    try:
        first = next(reader, None)
        if first is None:
            raise CsvFormatError(f"{path}: empty file, expected header {','.join(header)}")
        if first != header:
            raise CsvFormatError(f"{path}: bad header {','.join(first)!r}, expected {','.join(header)!r}")
        for row in reader:
            if len(row) != len(header):
                raise _row_error(path, reader.line_num, f"expected {len(header)} fields, got {len(row)}")
            zone, *fields = row
            values = [zone]
            for (convert, message), field in zip(parsers, fields):
                try:
                    values.append(convert(field))
                except ValueError as exc:
                    raise _row_error(path, reader.line_num, message(field, exc)) from None
            problem = rule(*values) or (f"duplicate zone {zone}" if zone in seen else None)
            if problem is not None:
                raise _row_error(path, reader.line_num, problem)
            seen.add(zone)
            for column, value in zip(columns, values):
                column.append(value)
    except csv.Error as exc:  # the csv module's own parse errors, such as a field over its size limit
        raise _row_error(path, reader.line_num, str(exc)) from None
    return columns


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
    counts = (map(str, table.column(label).tolist()) for label in COUNT_LABELS)
    _write_table(path, COUNTS_HEADER, zip(table.column("zone"), *counts))


def read_households_csv(path: str | Path) -> dict[str, int]:
    """Public household totals, zone -> figure. Duplicate zones are rejected."""
    zones, figures = _read_table(path, HOUSEHOLDS_HEADER, [_integers("households")], household_problem)
    return dict(zip(zones, figures))


def write_households_csv(path: str | Path, records: Sequence[HouseholdRecord]) -> None:
    table = as_columns(records, HouseholdRecord)
    _write_table(path, HOUSEHOLDS_HEADER, zip(table.column("zone"), map(str, table.column("households").tolist())))


def _format_floats(column: np.ndarray, form: Callable[[float], str] = repr) -> list[str]:
    """Each value in its text form, NaN (None) as an empty field."""
    return ["" if value != value else form(value) for value in column.tolist()]


def _coverage_text(column: np.ndarray) -> list[str]:
    return _format_floats(column, "{:.3f}".format)


def published_coverage(coverage: np.ndarray) -> np.ndarray:
    """Each broadband_usage as write_release_csv writes it, read back: 3 decimals, NaN where UNDEFINED."""
    return np.array([float(text or "nan") for text in _coverage_text(coverage)])


def release_text(rows: Sequence[ReleaseRow]) -> dict[str, list[str]]:
    """The release table's fields as write_release_csv writes them, one list per RELEASE_HEADER column.

    broadband_usage has 3 decimals, the other reals repr (which
    round-trips), epsilon str; an UNDEFINED or absent value is "".
    """
    table = as_columns(rows, ReleaseRow)
    columns = [
        table.column("zone"),
        _coverage_text(table.column("coverage")),
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


def write_bucket_csv(path: str | Path, summaries: Sequence[BucketSummary]) -> None:
    rows = (
        [str(s.low), "" if s.high is None else str(s.high), str(s.zone_count),
         *_format_floats(np.array([s.mean_mae, s.mean_msd, s.mean_p95], dtype=np.float64))]
        for s in summaries
    )
    _write_table(path, BUCKET_HEADER, rows)
