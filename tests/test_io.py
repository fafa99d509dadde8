"""CSV schemas: round trips, formatting, and malformed-row diagnostics."""

import csv
import os
import stat
import tempfile
from collections.abc import Mapping
from decimal import Decimal
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcoverage import io
from dpcoverage.io import CsvFormatError, ReleaseRow
from dpcoverage.cli import run
from dpcoverage.release import COUNT_LABELS, Columns, HouseholdRecord, PrivateZipRecord, RawZipRecord
from dpcoverage.synth import SynthSpec, generate
from oracles import read_table


def test_counts_round_trip(tmp_path):
    path = tmp_path / "counts.csv"
    records = [RawZipRecord("00001", 1, 2, 3, 4), RawZipRecord("99999", 0, 0, 0, 0)]
    io.write_counts_csv(path, records)
    assert list(io.read_counts_csv(path)) == records
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "zip,low_speed_devices,high_speed_devices,services_devices,non_services_devices"


def test_households_round_trip(tmp_path):
    path = tmp_path / "households.csv"
    records = [HouseholdRecord("00001", 50), HouseholdRecord("00002", 200000)]
    io.write_households_csv(path, records)
    loaded = io.read_households_csv(path)
    assert loaded == {r.zone: r.households for r in records}
    assert path.read_text(encoding="utf-8").splitlines()[0] == "zip,households"


def test_release_csv_format_and_round_trip(tmp_path):
    path = tmp_path / "released.csv"
    rows = [
        ReleaseRow("00001", 0.5376900958454515, 0.5376900958454515, 7.1e-05, -5.7e-06, 2.0e-4, Decimal("0.2")),
        ReleaseRow("00002", None, None, None, None, None, Decimal("0.2")),  # undefined zone
        ReleaseRow("00003", 1.0, 3.25, None, None, None, Decimal("0.2")),
    ]
    io.write_release_csv(path, rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "zip,broadband_usage,broadband_usage_raw,error_mae,error_msd,error_p95,epsilon"
    assert lines[1].startswith("00001,0.538,")  # 3 decimal places for the headline number
    assert lines[2] == "00002,,,,,,0.2"  # undefined printed as empty fields
    loaded = io.read_release_csv(path)
    assert [r.zone for r in loaded] == ["00001", "00002", "00003"]
    assert loaded[1].coverage is None
    assert loaded[2].raw_coverage == 3.25
    assert loaded[0].epsilon == Decimal("0.2")


def test_release_csv_rewrite_is_byte_stable(tmp_path):
    # parse-then-rewrite must not change a single byte (pass-through columns)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    rows = [ReleaseRow("00001", 0.123456789, 0.123456789, 0.25, -0.5, 0.75, Decimal("0.2"))]
    io.write_release_csv(first, rows)
    io.write_release_csv(second, io.read_release_csv(first))
    assert first.read_bytes() == second.read_bytes()


def test_private_counts_round_trip_is_exact(tmp_path):
    path = tmp_path / "priv.csv"
    privs = [PrivateZipRecord("00001", 41.076189823048225, 88.72176663630663, 110.30837417520895, 21.45672954675789, Decimal("0.2"))]
    io.write_private_counts_csv(path, privs)
    assert list(io.read_private_counts_csv(path)) == privs  # repr round-trips floats exactly


def test_malformed_count_row_reports_line_number(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(
        "zip,low_speed_devices,high_speed_devices,services_devices,non_services_devices\n"
        "00001,1,2,3,4\n"
        "00002,1,x,3,4\n",
        encoding="utf-8",
    )
    with pytest.raises(CsvFormatError, match="line 3"):
        io.read_counts_csv(path)


def test_negative_count_row_reports_line_number(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(
        "zip,low_speed_devices,high_speed_devices,services_devices,non_services_devices\n"
        "00001,1,2,-3,4\n",
        encoding="utf-8",
    )
    with pytest.raises(CsvFormatError, match="line 2"):
        io.read_counts_csv(path)


def test_short_row_reports_line_number(tmp_path):
    path = tmp_path / "households.csv"
    path.write_text("zip,households\n00001\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="line 2"):
        io.read_households_csv(path)


def test_duplicate_zone_reports_line_number(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(
        "zip,low_speed_devices,high_speed_devices,services_devices,non_services_devices\n"
        "00001,1,2,3,4\n"
        "00001,1,2,3,4\n",
        encoding="utf-8",
    )
    with pytest.raises(CsvFormatError, match="line 3.*duplicate"):
        io.read_counts_csv(path)


def test_wrong_header_is_rejected(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("zip,a,b,c,d\n", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="header"):
        io.read_counts_csv(path)


def test_empty_file_is_rejected(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(CsvFormatError, match="empty"):
        io.read_counts_csv(path)


def test_lf_line_endings(tmp_path):
    path = tmp_path / "counts.csv"
    io.write_counts_csv(path, [RawZipRecord("00001", 1, 2, 3, 4)])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


READERS = {
    "counts": (io.read_counts_csv, io.COUNTS_HEADER, "00001,1,2,3,4", "00002,1,x,3,4"),
    "households": (io.read_households_csv, io.HOUSEHOLDS_HEADER, "00001,50", "00002,many"),
    "release": (io.read_release_csv, io.RELEASE_HEADER, "00001,0.500,0.5,,,,0.2", "00002,0.500,0.5,,,,free"),
    "private-counts": (io.read_private_counts_csv, io.PRIVATE_COUNTS_HEADER, "00001,1.5,2.5,3.5,4.5,0.2", "00002,1.5,x,3.5,4.5,0.2"),
}

# per reader: a row whose last field is bad, a row whose first field (the
# zone) is bad, and a good row with a quoted field spanning two lines
SPLIT_ROWS = {
    "counts": ("00002,1,2,3,-4", "0003,1,2,3,4", '00004,1,2,3,"4\n"'),
    "households": ("00002,0", "0003,50", '00004,"50\n"'),
    "release": ("00002,0.500,0.5,,,,0", "0003,0.500,0.5,,,,0.2", '00004,0.500,0.5,,,,"0.2\n"'),
    "private-counts": ("00002,1.5,2.5,3.5,4.5,0", "0003,1.5,2.5,3.5,4.5,0.2", '00004,1.5,2.5,3.5,"4.5\n",0.2'),
}


@pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["LF", "CRLF"])  # CRLF: never plain, read row by row
@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("case,match", [
    ("empty", "empty file"),
    ("bad header", "bad header"),
    ("unparsable header", "line 1: field larger than field limit"),
    ("short row", "line 3: expected"),
    ("malformed value", "line 3:"),
    ("duplicate zone", "line 3: duplicate zone 00001"),
    ("oversized field", "line 3: field larger than field limit"),
    ("zone with a trailing newline", "line 4: zone must be a 5-digit zip string"),
    ("not UTF-8", "not UTF-8 text$"),  # no line: the file is refused for its bytes
    ("not UTF-8 past a short row", "not UTF-8 text$"),  # ... even where the bad byte is past the decoder's first 8 KB
])
def test_reader_diagnostics(tmp_path, reader, case, match, ending):
    read, header, good, bad = READERS[reader]
    lines = {
        "empty": [],
        "bad header": ["zip,nonsense", good],
        "unparsable header": ['"' + "x" * 200_000 + '"', good],
        "short row": [",".join(header), good, good.rsplit(",", 1)[0]],
        "malformed value": [",".join(header), good, bad],
        "duplicate zone": [",".join(header), good, good],
        "oversized field": [",".join(header), good, '00002,"' + "x" * 200_000 + '"' + good[5:]],
        "zone with a trailing newline": [",".join(header), good, '"00002\n"' + good[5:]],  # lines 3-4
        "not UTF-8": [",".join(header), good, good + "\udcff"],  # the byte 0xff
        "not UTF-8 past a short row": [",".join(header), good, good.rsplit(",", 1)[0],
                                       *(f"{zone:05d}{good[5:]}" for zone in range(3, 1000)), good + "\udcff"],
    }[case]
    path = tmp_path / "in.csv"
    path.write_bytes("".join(line + ending for line in lines).encode("utf-8", errors="surrogateescape"))
    with pytest.raises(CsvFormatError, match=match) as caught:
        read(path)
    assert str(caught.value).startswith(f"{path}: ")


@pytest.mark.parametrize("reader, row, name", [
    ("counts", "00002,1,9223372036854775808,3,4", "high_speed"),
    ("households", "00002,9223372036854775808", "households"),
])
def test_integers_of_2_to_the_63_are_refused(tmp_path, reader, row, name):
    # counts and household figures are held as int64
    read, header, good, _ = READERS[reader]
    path = tmp_path / "in.csv"
    path.write_text("".join(line + "\n" for line in [",".join(header), good, row]), encoding="utf-8")
    with pytest.raises(CsvFormatError) as raised:
        read(path)
    assert str(raised.value) == f"{path}: line 3: {name} must be below 2**63, got 9223372036854775808"


@pytest.mark.parametrize("reader", sorted(READERS))
def test_reader_reports_the_first_bad_row_in_file_order(tmp_path, reader):
    # the columns are checked one after another, but the error must name
    # line 3 (bad last field), not line 4 (bad first field)
    read, header, good, _ = READERS[reader]
    bad_last, bad_first, _ = SPLIT_ROWS[reader]
    path = tmp_path / "in.csv"
    path.write_text("".join(line + "\n" for line in [",".join(header), good, bad_last, bad_first]), encoding="utf-8")
    with pytest.raises(CsvFormatError, match=f"^{path}: line 3: "):
        read(path)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_reader_line_numbers_count_quoted_newlines(tmp_path, reader):
    # lines 2-3 hold one good row; the bad row after it is on line 4
    read, header, good, _ = READERS[reader]
    bad_last, _, spanning = SPLIT_ROWS[reader]
    path = tmp_path / "in.csv"
    path.write_text("".join(line + "\n" for line in [",".join(header), spanning, bad_last]), encoding="utf-8")
    with pytest.raises(CsvFormatError, match=f"^{path}: line 4: "):
        read(path)
    path.write_text("".join(line + "\n" for line in [",".join(header), spanning, good]), encoding="utf-8")
    assert len(read(path)) == 2


zones = st.lists(st.integers(1, 99999).map(lambda n: f"{n:05d}"), unique=True, max_size=8)
counts = st.integers(0, 2**63 - 1)
reals = st.floats(min_value=0.0, allow_infinity=False)
epsilons = st.decimals(min_value="0.001", max_value="100", places=3).map(lambda e: Decimal(str(e)))
statistics = st.one_of(
    st.none(),
    st.tuples(reals, st.floats(allow_nan=False, allow_infinity=False), reals),
)
release_rows = st.tuples(
    st.one_of(st.none(), st.tuples(st.integers(0, 1000).map(lambda n: n / 1000),  # 3 decimals survive the file
                                   st.floats(allow_nan=False, allow_infinity=False))),
    statistics,
    epsilons,
)


def _round_trip(write, read, records):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.csv"
        write(path, records)
        return read(path)


READS = {
    "counts": (io.read_counts_csv, io.write_counts_csv),
    "households": (io.read_households_csv, io.write_households_csv),
    "release": (io.read_release_csv, io.write_release_csv),
    "private-counts": (io.read_private_counts_csv, io.write_private_counts_csv),
}


def _records(form, zones, data):
    """Valid records of one format, one per zone."""
    if form == "counts":
        return [RawZipRecord(zone, *data.draw(st.tuples(counts, counts, counts, counts))) for zone in zones]
    if form == "households":
        return [HouseholdRecord(zone, data.draw(st.integers(1, 2**63 - 1))) for zone in zones]
    if form == "private-counts":
        return [PrivateZipRecord(zone, *data.draw(st.tuples(reals, reals, reals, reals)), data.draw(epsilons))
                for zone in zones]
    rows = []
    for zone in zones:
        coverage, stats, epsilon = data.draw(release_rows)
        coverage, raw = coverage if coverage is not None else (None, None)
        stats = stats if stats is not None and coverage is not None else (None, None, None)
        rows.append(ReleaseRow(zone, coverage, raw, *stats, epsilon))
    return rows


@settings(max_examples=40, deadline=None)
@given(zones, st.data())
def test_every_format_round_trips(zones, data):
    for form, (read, write) in READS.items():
        records = _records(form, zones, data)
        loaded = _round_trip(write, read, records)
        assert ([HouseholdRecord(*item) for item in loaded.items()] if form == "households" else list(loaded)) == records


def test_failed_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "counts.csv"
    io.write_counts_csv(path, [RawZipRecord("00001", 1, 2, 3, 4), RawZipRecord("00002", 5, 6, 7, 8)])
    before = path.read_bytes()

    def rows():
        yield RawZipRecord("00009", 9, 9, 9, 9)
        raise RuntimeError("interrupted halfway")

    with pytest.raises(RuntimeError, match="halfway"):
        io.write_counts_csv(path, rows())
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind


def test_a_write_syncs_the_new_bytes_before_the_move_and_the_move_after_it(tmp_path, monkeypatch):
    # a machine crash must leave the old table or the new one, never an empty or missing file
    path = tmp_path / "counts.csv"
    io.write_counts_csv(path, [RawZipRecord("00001", 1, 2, 3, 4)])
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        status = os.fstat(fd)
        directory = stat.S_ISDIR(status.st_mode)
        events.append(("fsync", "directory" if directory else "file", status.st_ino, None if directory else status.st_size))
        fsync(fd)

    def recording_replace(source, target):
        events.append(("replace", Path(source).name, Path(target).name))
        replace(source, target)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    io.write_counts_csv(path, [RawZipRecord("00001", 1, 2, 3, 4), RawZipRecord("00002", 5, 6, 7, 8)])
    written = path.stat()
    assert events == [
        ("fsync", "file", written.st_ino, written.st_size),  # the temporary file, with all its bytes
        ("replace", io.temporary_path(path).name, path.name),
        ("fsync", "directory", tmp_path.stat().st_ino, None),
    ]


# ------------------------------------------------ io's readers against the reference reader

BAD_TEXTS = ["x", "", "-1", "-0.5", "inf", "nan", "1e999", "1.5", "0", "0.20", " 7 ", "1\n", "12345",
             "9223372036854775808"]
BAD_ZONES = ["0001", "abcde", "000001", "", "00001\n", "1234x"]
EDITS = st.lists(
    st.tuples(st.sampled_from(["field", "zone", "repeated zone", "short row", "spanning field"]),
              st.integers(0, 99), st.integers(0, 99), st.sampled_from(BAD_TEXTS)),
    max_size=3,
)


def _edit(rows, kind, first, second, text):
    row = rows[first % len(rows)]
    if kind in ("field", "short row") and len(row) == 1:  # a short row keeps its zone
        return
    if kind == "field":
        row[1 + second % (len(row) - 1)] = text
    elif kind == "zone":
        row[0] = BAD_ZONES[second % len(BAD_ZONES)]
    elif kind == "repeated zone":
        row[0] = rows[second % len(rows)][0]
    elif kind == "short row":
        row.pop()
    else:  # a quoted field spanning two lines
        row[second % len(row)] += "\n"


def _columns(table):
    """A reader's result as one list of Python values per column, None for NaN."""
    if isinstance(table, Mapping):  # households
        return [list(table), list(table.values())]
    return [[None if value != value else value for value in (column.tolist() if hasattr(column, "tolist") else column)]
            for column in table.columns.values()]


def _outcome(read, path):
    """The reader's columns, or the text of the CsvFormatError it raises."""
    try:
        return read(path)
    except CsvFormatError as exc:
        return str(exc)


@pytest.mark.parametrize("form", sorted(READS))
@settings(max_examples=60, deadline=None)
@given(zones=st.lists(st.integers(1, 99999).map(lambda n: f"{n:05d}"), unique=True, min_size=1, max_size=6),
       edits=EDITS, data=st.data())
def test_readers_agree_with_the_reference_reader(form, zones, edits, data):
    # the column check and its row walk must raise what a plain row-by-row
    # reader raises (line and message), and give its columns for a good table
    read, write = READS[form]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "table.csv"
        write(path, _records(form, zones, data))
        header, *rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
        for edit in edits:
            _edit(rows, *edit)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows([header, *rows])
        expected = _outcome(lambda p: read_table(p, form), path)
        found = _outcome(read, path)
    if isinstance(expected, str) or isinstance(found, str):
        assert found == expected
    else:
        assert _columns(found) == expected
    if not edits:
        assert not isinstance(expected, str)


# ------------------------------------------------ the split pass against the row reader

PLAIN_FIELDS = {
    "counts": ["1", "0", "x", "-4", "12"],
    "households": ["50", "0", "many", "7"],
    "release": ["0.500", "0.5", "", "1.5", "x"],
    "private-counts": ["1.5", "0", "-2.5", "x", "4"],
}
PERTURBATIONS = ["quoted field", "CRLF", "lone CR", "blank line", "NUL", "no final newline",
                 "extra comma", "missing comma", "field over the limit", "not UTF-8"]
FIELD_LIMIT = 100  # the csv module's field limit while the property runs: above every header line, and cheap to pass


def _table_bytes(form, data):
    """A small table of one format as bytes, and whether it was left plain."""
    read, header, good, _ = READERS[form]
    zones = data.draw(st.lists(st.sampled_from(["00001", "00002", "00003", "0004", "00005"]), max_size=5))
    tail = good.split(",")[1:]
    lines = [",".join(header)] + [
        ",".join([zone, *(data.draw(st.sampled_from([text, *PLAIN_FIELDS[form]])) for text in tail)]) for zone in zones
    ]
    if form in ("release", "private-counts"):  # the epsilon column
        lines[1:] = [line.rsplit(",", 1)[0] + "," + data.draw(st.sampled_from(["0.2", "0.20", "abc"])) for line in lines[1:]]
    perturbations = data.draw(st.lists(st.tuples(st.sampled_from(PERTURBATIONS), st.integers(0, 99)), max_size=2))
    ending, final = "\n", True
    for kind, at in perturbations:
        line = at % len(lines)
        if kind == "quoted field":
            fields = lines[line].split(",")
            fields[at % len(fields)] = f'"{fields[at % len(fields)]}"'
            lines[line] = ",".join(fields)
        elif kind == "CRLF":
            ending = "\r\n"
        elif kind == "lone CR":
            lines[line] += "\r"
        elif kind == "blank line":
            lines.insert(line + 1, "")
        elif kind == "NUL":
            lines[line] += "\x00"
        elif kind == "no final newline":
            final = False
        elif kind == "extra comma":
            lines[line] += ","
        elif kind == "missing comma":
            lines[line] = lines[line].replace(",", "", 1)
        elif kind == "field over the limit":
            lines[line] += "9" * (FIELD_LIMIT + 1)
        else:  # the byte 0xff
            lines[line] += "\udcff"
    text = ending.join(lines) + (ending if final else "")
    return text.encode("utf-8", errors="surrogateescape"), not perturbations


@pytest.mark.parametrize("form", sorted(READERS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_the_split_pass_agrees_with_the_csv_reader_pass(form, data):
    # a plain file is split with str.split, any other read row by row by
    # csv.reader: both must give the same columns, line numbers and diagnostics
    read, header, _, _ = READERS[form]
    content, plain = _table_bytes(form, data)
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "table.csv"
            path.write_bytes(content)
            found = _outcome(read, path)
            with mock.patch.object(io, "_split_columns", lambda text, header: None):
                expected = _outcome(read, path)
            try:
                split = io._split_columns(content.decode("utf-8"), header)
            except UnicodeDecodeError:
                split = None
    finally:
        csv.field_size_limit(limit)
    if plain:
        assert split is not None
    if isinstance(expected, str) or isinstance(found, str):
        assert found == expected
    else:
        assert _columns(found) == _columns(expected)


TEXTS = st.text(alphabet=["a", "7", ",", '"', "\r", "\n", "\x00", " "], max_size=4)
FIELDS = st.one_of(TEXTS, TEXTS, TEXTS, st.integers(-5, 5), st.floats(allow_nan=False), st.none())
PLAIN_ROWS = st.lists(st.text(alphabet=["a", "7", " ", "\u00e9"], max_size=4), min_size=2, max_size=2)


def _plain(rows):
    """Rows of str fields, as wide as the households header, none holding a comma, quote, CR, LF or NUL."""
    return all(
        len(row) == len(io.HOUSEHOLDS_HEADER)
        and all(isinstance(field, str) and not set(field) & set(',"\r\n\x00') for field in row)
        for row in rows
    )


@settings(max_examples=150, deadline=None)
@example(rows=[["a,b", "c"]], chunk=1)
@example(rows=[['a"b', "c"]], chunk=1)
@example(rows=[["a\rb", "c"]], chunk=1)
@example(rows=[["a\nb", "c"]], chunk=1)
@example(rows=[["a\x00b", "c"]], chunk=1)
@example(rows=[["a", "b"], [""], ["c", "d"]], chunk=4)
@given(rows=st.lists(st.one_of(PLAIN_ROWS, PLAIN_ROWS, st.lists(FIELDS, min_size=1, max_size=3)), max_size=12),
       chunk=st.integers(1, 4))
def test_the_writer_writes_plain_rows_as_csv_writer_does_and_refuses_any_other(rows, chunk):
    # every chunk is written as comma-joined lines: csv.writer's lines for
    # plain rows; any other rows are refused, not quoted, and the old file stays
    with tempfile.TemporaryDirectory() as directory, mock.patch.object(io, "WRITE_CHUNK_ROWS", chunk):
        path = Path(directory) / "table.csv"
        path.write_bytes(b"old bytes\n")
        if _plain(rows):
            expected = StringIO()
            csv.writer(expected, lineterminator="\n").writerows([io.HOUSEHOLDS_HEADER, *rows])
            io._write_table(path, io.HOUSEHOLDS_HEADER, rows)
            assert path.read_bytes() == expected.getvalue().encode("utf-8")
        else:
            with pytest.raises((ValueError, TypeError)) as refusal:  # TypeError: a field that is not a str
                io._write_table(path, io.HOUSEHOLDS_HEADER, rows)
            assert refusal.type is TypeError or str(path) in str(refusal.value)
            assert path.read_bytes() == b"old bytes\n"
            assert os.listdir(directory) == ["table.csv"]


@pytest.mark.parametrize("character", [",", '"', "\r", "\n", "\x00"], ids=["comma", "quote", "CR", "LF", "NUL"])
def test_a_field_that_would_need_quoting_is_refused_and_the_old_file_kept(tmp_path, character):
    path = tmp_path / "households.csv"
    io.write_households_csv(path, [HouseholdRecord("00001", 7)])
    before = path.read_bytes()
    with pytest.raises(ValueError) as refusal:
        io._write_table(path, io.HOUSEHOLDS_HEADER, [["00002", "8"], ["00003", f"9{character}9"]])
    assert str(path) in str(refusal.value)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_a_public_writer_refuses_a_zone_that_would_need_quoting(tmp_path):
    # Columns built directly skip the record rule; a quoted "0,001" is a zone the readers refuse
    path = tmp_path / "counts.csv"
    io.write_counts_csv(path, [RawZipRecord("00001", 1, 2, 3, 4)])
    before = path.read_bytes()
    table = Columns(RawZipRecord, zone=["0,001"], **{label: np.array([1]) for label in COUNT_LABELS})
    with pytest.raises(ValueError) as refusal:
        io.write_counts_csv(path, table)
    assert str(path) in str(refusal.value)
    assert path.read_bytes() == before


def test_every_table_the_pipeline_writes_takes_the_split_pass(tmp_path, monkeypatch):
    # the benchmark's reads stay on the split pass only while every table
    # the package writes is plain; every 7th zone has no household row, so
    # some zones are UNDEFINED
    monkeypatch.chdir(tmp_path)
    counts, households = generate(SynthSpec(200, (50, 200000), (0.1, 0.95), (0.5, 0.9), seed=5))
    io.write_counts_csv("counts.csv", counts)
    io.write_households_csv("households.csv", [record for index, record in enumerate(households) if index % 7])
    assert run(["release", "--counts", "counts.csv", "--households", "households.csv", "--seed", "1",
                "--out", "r.csv"]) == 0
    assert run(["simulate-error", "--release", "r.csv", "--households", "households.csv", "--k", "3", "--seed", "1",
                "--out", "final.csv"]) == 0
    tables = {
        "counts.csv": io.COUNTS_HEADER,
        "households.csv": io.HOUSEHOLDS_HEADER,
        "r.csv": io.RELEASE_HEADER,
        "r.csv.private-counts.csv": io.PRIVATE_COUNTS_HEADER,
        "final.csv": io.RELEASE_HEADER,
    }
    split = {name: io._split_columns(Path(name).read_text(encoding="utf-8"), header) for name, header in tables.items()}
    assert None not in split.values()
    assert "" in split["r.csv"][1] and set(split["r.csv"][3]) == {""}  # UNDEFINED zones, no error columns
    assert "" in split["final.csv"][3] and set(split["final.csv"][3]) != {""}
    for table in ("r.csv", "final.csv"):  # buckets of ints and empty means, then of the error columns' means
        assert run(["summarize", "--in", table, "--households", "households.csv", "--out", "buckets.csv"]) == 0
        lines = Path("buckets.csv").read_text(encoding="utf-8").splitlines()
        assert all(line.count(",") == 5 and '"' not in line for line in lines)
