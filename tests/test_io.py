"""CSV schemas: round trips, formatting, and malformed-row diagnostics."""

from decimal import Decimal

import pytest

from dpcoverage import io
from dpcoverage.errorsim import ErrorReport
from dpcoverage.io import CsvFormatError, ReleaseRow
from dpcoverage.release import CoverageEstimate, HouseholdRecord, PrivateZipRecord, RawZipRecord


def test_counts_round_trip(tmp_path):
    path = tmp_path / "counts.csv"
    records = [RawZipRecord("00001", 1, 2, 3, 4), RawZipRecord("99999", 0, 0, 0, 0)]
    io.write_counts_csv(path, records)
    assert io.read_counts_csv(path) == records
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "zip,low_speed_devices,high_speed_devices,services_devices,non_services_devices"


def test_households_round_trip(tmp_path):
    path = tmp_path / "households.csv"
    records = [HouseholdRecord("00001", 50), HouseholdRecord("00002", 200000)]
    io.write_households_csv(path, records)
    loaded = io.read_households_csv(path)
    assert loaded == {r.zone: r for r in records}
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
    assert io.read_private_counts_csv(path) == privs  # repr round-trips floats exactly


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


def test_release_rows_assembly_checks_alignment():
    priv = PrivateZipRecord("00001", 1.0, 2.0, 3.0, 4.0, Decimal("0.2"))
    estimate = CoverageEstimate("00001", 0.5, 0.5)
    report = ErrorReport("00001", 0.1, 0.0, 0.2, 10, 1.0)
    rows = io.release_rows([(priv, estimate)], [report])
    assert rows[0].mae == 0.1
    rows_without = io.release_rows([(priv, estimate)])
    assert rows_without[0].mae is None
    with pytest.raises(ValueError):
        io.release_rows([(priv, estimate)], [])
    mismatched = ErrorReport("00002", 0.1, 0.0, 0.2, 10, 1.0)
    with pytest.raises(ValueError):
        io.release_rows([(priv, estimate)], [mismatched])


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


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("case,match", [
    ("empty", "empty file"),
    ("bad header", "bad header"),
    ("short row", "line 3: expected"),
    ("malformed value", "line 3:"),
    ("duplicate zone", "line 3: duplicate zone 00001"),
])
def test_reader_diagnostics(tmp_path, reader, case, match):
    read, header, good, bad = READERS[reader]
    lines = {
        "empty": [],
        "bad header": ["zip,nonsense", good],
        "short row": [",".join(header), good, good.rsplit(",", 1)[0]],
        "malformed value": [",".join(header), good, bad],
        "duplicate zone": [",".join(header), good, good],
    }[case]
    path = tmp_path / "in.csv"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(CsvFormatError, match=match) as caught:
        read(path)
    assert str(caught.value).startswith(f"{path}: ")


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
