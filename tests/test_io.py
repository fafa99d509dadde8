"""CSV schemas: round trips, formatting, and malformed-row diagnostics."""

import csv
import os
import stat
import tempfile
from collections.abc import Mapping
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcoverage import io
from dpcoverage.io import CsvFormatError, ReleaseRow
from dpcoverage.release import HouseholdRecord, PrivateZipRecord, RawZipRecord
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
    ("not UTF-8", "not UTF-8 text$"),  # no offset or line: the decoder reads in chunks
])
def test_reader_diagnostics(tmp_path, reader, case, match):
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
    }[case]
    path = tmp_path / "in.csv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", errors="surrogateescape")
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
