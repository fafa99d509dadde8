"""Coverage formula, record validation, and the per-zone release path.

Frozen hand evaluations of the coverage formula
high * (services + non_services) / (services * households):
    (80, 400, 100, 125)   -> 80 * 500 / (400 * 125)  = 0.8
    (80, 100,  25, 1000)  -> 80 * 125 / (100 * 1000) = 0.1
    (1e6, 1e9, 0, 2e6)    -> 0.5
"""

import inspect
import logging
import math
from dataclasses import fields
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcoverage.accountant import PlanError
from dpcoverage.mechanism import LaplaceParams, NoiseSeed, privatize_count
from dpcoverage.release import (
    Columns,
    DegenerateCountError,
    HouseholdRecord,
    IngestionError,
    PrivateZipRecord,
    RawZipRecord,
    ReleaseRow,
    as_columns,
    clip_unit,
    columns_of,
    compute_coverage,
    coverage_columns,
    coverage_rows,
    household_column,
    privatize_record,
    release_dataset,
)
from oracles import estimate_coverage


def _released(records, households, per_query_epsilon, base_seed, **options):
    """(PrivateZipRecord, ReleaseRow) pairs, one per zone, as the release command builds its two tables."""
    privs = release_dataset(records, per_query_epsilon, base_seed, **options)
    return list(zip(privs, coverage_rows(privs, household_column(privs.column("zone"), households))))


def test_coverage_formula_hand_values():
    assert compute_coverage(80, 400, 100, 125) == 0.8
    assert compute_coverage(80, 100, 25, 1000) == 0.1
    assert compute_coverage(1e6, 1e9, 0, 2_000_000) == 0.5
    assert compute_coverage(0, 10, 10, 100) == 0.0


def test_coverage_zero_services_is_degenerate():
    with pytest.raises(DegenerateCountError):
        compute_coverage(10, 0, 10, 100)


def test_coverage_that_overflows_is_degenerate():
    # 1e200 * (1e200 + 1e200) is inf: no coverage, as where services is zero
    with pytest.raises(DegenerateCountError):
        compute_coverage(1e200, 1e200, 1e200, 1)


@pytest.mark.parametrize("args", [
    (-1, 10, 10, 100),
    (10, -1, 10, 100),
    (10, 10, -1, 100),
    (10, 10, 10, 0),
    (float("nan"), 10, 10, 100),
    (10, 10, 10, 1.5),
    (10**400, 1.0, 1.0, 5),  # no float holds it
])
def test_coverage_domain_errors(args):
    with pytest.raises(ValueError):
        compute_coverage(*args)


def test_clip_unit():
    assert clip_unit(-0.5) == 0.0
    assert clip_unit(0.37) == 0.37
    assert clip_unit(2.5) == 1.0
    for x in (-1.0, 0.0, 0.5, 1.0, 7.0):
        assert clip_unit(clip_unit(x)) == clip_unit(x)


def test_coverage_columns_and_clip_unit_in_place_give_the_same_bits():
    rng = np.random.default_rng(5)
    high, services, non_services = (np.maximum(0.0, rng.normal(10.0, 20.0, (4, 50))) for _ in range(3))
    households = rng.integers(1, 500, (4, 1))
    expected = clip_unit(coverage_columns(high, services, non_services, households))
    assert (services == 0.0).any() and np.isnan(expected).any()  # zero services give nan in both
    scratch, coverage = np.full(high.shape, 7.0), non_services.copy()  # coverage may be non_services itself
    assert coverage_columns(high, services, coverage, households, out=(scratch, coverage)) is coverage
    assert clip_unit(coverage, out=coverage) is coverage
    assert coverage.tobytes() == expected.tobytes()


def test_raw_record_validation():
    RawZipRecord("00501", 0, 0, 0, 0)  # zero counts are legal
    with pytest.raises(IngestionError):
        RawZipRecord("1234", 0, 0, 0, 0)
    with pytest.raises(IngestionError):
        RawZipRecord("123456", 0, 0, 0, 0)
    with pytest.raises(IngestionError):
        RawZipRecord("abcde", 0, 0, 0, 0)
    with pytest.raises(IngestionError):
        RawZipRecord("00501\n", 0, 0, 0, 0)  # $ would match before a final newline
    for zone in ("١٢٣٤٥", "０００１２", "¹²³⁴⁵"):  # 5 characters, str.isdigit() true, not ASCII
        with pytest.raises(IngestionError):
            RawZipRecord(zone, 0, 0, 0, 0)
    with pytest.raises(IngestionError):
        RawZipRecord("00501", -1, 0, 0, 0)
    with pytest.raises(IngestionError):
        RawZipRecord("00501", 0, True, 0, 0)
    with pytest.raises(IngestionError):
        RawZipRecord("00501", 0, 0.5, 0, 0)
    RawZipRecord("00501", 0, 2**63 - 1, 0, 0)  # Columns hold counts as int64
    with pytest.raises(IngestionError, match=r"^high_speed must be below 2\*\*63, got 9223372036854775808$"):
        RawZipRecord("00501", 0, 2**63, 0, 0)


def test_household_record_validation():
    HouseholdRecord("00501", 1)
    with pytest.raises(IngestionError):
        HouseholdRecord("00501", 0)
    with pytest.raises(IngestionError):
        HouseholdRecord("00501", -5)
    HouseholdRecord("00501", 2**63 - 1)
    with pytest.raises(IngestionError, match=r"^households must be below 2\*\*63, got 9223372036854775808$"):
        HouseholdRecord("00501", 2**63)


def test_private_record_validation():
    PrivateZipRecord("00501", 0.0, 1.5, 2.5, 0.0, Decimal("0.2"))
    with pytest.raises(IngestionError):
        PrivateZipRecord("00501", -0.1, 1.5, 2.5, 0.0, Decimal("0.2"))
    with pytest.raises(IngestionError):
        PrivateZipRecord("00501", 0.0, float("inf"), 2.5, 0.0, Decimal("0.2"))
    with pytest.raises(IngestionError):
        PrivateZipRecord("00001", 10**400, 1.0, 1.0, 1.0, "0.2")  # no float holds it


def test_release_row_validation():
    eps = Decimal("0.2")
    ReleaseRow("00501", None, None, None, None, None, eps)
    ReleaseRow("00501", 0.5, 0.5, None, None, None, eps)
    ReleaseRow("00501", 1.0, 3.25, 0.0, -0.5, 0.0, eps)
    assert not ReleaseRow("00501", None, None, None, None, None, eps).defined
    for fields in [
        ("0501", 0.5, 0.5, None, None, None),  # not a zip code
        ("00501", 0.5, None, None, None, None),  # coverage without raw_coverage
        ("00501", 1.5, 1.5, None, None, None),  # coverage outside [0, 1]
        ("00501", float("nan"), 0.5, None, None, None),
        ("00501", 1.0, float("inf"), None, None, None),
        ("00501", 0.5, 0.5, 0.1, None, 0.2),  # only some error statistics
        ("00501", None, None, 0.1, 0.0, 0.2),  # error statistics on an undefined zone
        ("00501", 0.5, 0.5, float("nan"), 0.0, 0.2),
        ("00501", 0.5, 0.5, 0.1, float("-inf"), 0.2),
        ("00501", 0.5, 0.5, -0.1, 0.0, 0.2),
        ("00501", 0.5, 0.5, 0.1, 0.0, -1.0),
    ]:
        with pytest.raises(IngestionError):
            ReleaseRow(*fields, eps)


@pytest.mark.parametrize("epsilon", [-1, 0, "garbage", "inf", None])
def test_release_row_refuses_an_epsilon_the_reader_refuses(epsilon):
    with pytest.raises(PlanError):
        ReleaseRow("00001", 0.5, 0.5, None, None, None, epsilon)
    assert ReleaseRow("00001", 0.5, 0.5, None, None, None, 0.2).epsilon == Decimal("0.2")  # as read back


def test_privatize_record_is_deterministic_and_accounted():
    raw = RawZipRecord("90210", 30, 70, 100, 20)
    first = privatize_record(raw, "0.1", 42)
    again = privatize_record(raw, "0.1", 42)
    assert first == again
    assert first.epsilon_total == Decimal("0.2")
    assert str(first.epsilon_total) == "0.2"
    other_seed = privatize_record(raw, "0.1", 43)
    assert other_seed != first


def test_privatize_record_matches_hand_chained_steps():
    # the record path must equal four explicit privatize_count calls plus
    # the coverage formula, with the same seeds, bit for bit
    raw = RawZipRecord("00007", 0, 3, 2, 1)
    households = 1_000_000
    base_seed = 314159
    priv = privatize_record(raw, "0.1", base_seed)
    params = LaplaceParams(1.0, 0.1)
    by_hand = {
        label: privatize_count(value, params, NoiseSeed(base_seed, "00007", label, 0))
        for label, value in (("low_speed", 0), ("high_speed", 3), ("services", 2), ("non_services", 1))
    }
    assert priv.low_speed_dp == by_hand["low_speed"]
    assert priv.high_speed_dp == by_hand["high_speed"]
    assert priv.services_dp == by_hand["services"]
    assert priv.non_services_dp == by_hand["non_services"]

    estimate = estimate_coverage(priv, households)
    if by_hand["services"] == 0:
        assert not estimate.defined
    else:
        raw_expected = compute_coverage(by_hand["high_speed"], by_hand["services"], by_hand["non_services"], households)
        assert estimate.raw_coverage == raw_expected
        assert estimate.coverage == clip_unit(raw_expected)


def test_low_speed_count_never_enters_coverage():
    # identical zone and seed, wildly different low_speed: the noisy
    # low_speed differs but the published coverage is bit-identical
    a = privatize_record(RawZipRecord("33101", 5, 40, 80, 20), "0.1", 99)
    b = privatize_record(RawZipRecord("33101", 50_000, 40, 80, 20), "0.1", 99)
    assert a.low_speed_dp != b.low_speed_dp
    assert estimate_coverage(a, 500) == estimate_coverage(b, 500)


def test_estimate_coverage_clips_and_preserves_raw():
    priv = PrivateZipRecord("00001", 0.0, 1000.0, 10.0, 0.0, Decimal("0.2"))
    estimate = estimate_coverage(priv, 1)
    assert estimate.coverage == 1.0
    assert estimate.raw_coverage == 1000.0 * 10.0 / (10.0 * 1)
    assert estimate.raw_coverage >= estimate.coverage


def test_estimate_coverage_undefined_cases():
    priv = PrivateZipRecord("00001", 0.0, 5.0, 0.0, 3.0, Decimal("0.2"))
    assert not estimate_coverage(priv, 100).defined  # noisy services clamped to 0
    defined_priv = PrivateZipRecord("00001", 0.0, 5.0, 4.0, 3.0, Decimal("0.2"))
    assert not estimate_coverage(defined_priv, None).defined  # no household figure


def test_release_dataset_preserves_input_order():
    records = [RawZipRecord(f"{i:05d}", 10, 20, 30, 5) for i in range(1, 6)]
    households = {r.zone: 100 for r in records}
    pairs = _released(records, households, "0.1", 7)
    assert [priv.zone for priv, _ in pairs] == [r.zone for r in records]


def test_release_dataset_cannot_see_household_figures():
    # the one step that reads raw counts and spends epsilon takes no household
    # figure: coverage is post-processing of its noisy counts
    assert list(inspect.signature(release_dataset).parameters) == [
        "records", "per_query_epsilon", "base_seed", "round_counts",
    ]


def test_release_dataset_rejects_duplicate_zones():
    records = [RawZipRecord("00001", 1, 2, 3, 4), RawZipRecord("00001", 5, 6, 7, 8)]
    with pytest.raises(IngestionError, match="duplicate zone"):
        release_dataset(records, "0.1", 7)


@pytest.mark.parametrize("figure", [0, -5, True, 3.5, "5", HouseholdRecord("00001", 5)], ids=repr)
@pytest.mark.parametrize("entry", ["household_column", "error_reports_for_release", "bucket_by_households"])
def test_a_bad_household_figure_is_refused_naming_its_zone(entry, figure):
    from dpcoverage.errorsim import SimulationConfig, bucket_by_households, error_reports_for_release

    records = [RawZipRecord("00001", 1, 200, 300, 40), RawZipRecord("00002", 1, 200, 300, 40)]
    households = {"00001": 500, "00002": figure}  # a record is no figure, even one of another zone
    privs = [privatize_record(record, "0.1", 1) for record in records]
    call = {
        "household_column": lambda: household_column([record.zone for record in records], households),
        "error_reports_for_release": lambda: error_reports_for_release(privs, households, SimulationConfig(0.1, 1, k=5)),
        "bucket_by_households": lambda: bucket_by_households(
            error_reports_for_release(privs, {}, SimulationConfig(0.1, 1, k=5)), households, [1]
        ),
    }[entry]
    with pytest.raises(IngestionError) as raised:
        call()
    assert str(raised.value) == f"zone 00002: households must be a positive integer, got {figure!r}"


def test_release_dataset_emits_no_log_record(caplog):
    # zones without a household figure are reported by the command line, once
    records = [RawZipRecord("00001", 10, 20, 30, 5), RawZipRecord("00002", 10, 20, 30, 5)]
    with caplog.at_level(logging.DEBUG):
        pairs = _released(records, {"00001": 100}, "0.1", 7)
        privatize_record(records[0], "0.1", 7)
    assert not pairs[1][1].defined
    assert caplog.records == []


def test_zone_output_is_independent_of_other_records():
    records = [
        RawZipRecord("00001", 1, 2, 3, 4),
        RawZipRecord("00002", 10, 20, 30, 40),
        RawZipRecord("00003", 100, 200, 300, 400),
    ]
    households = {r.zone: 1000 for r in records}
    forward = _released(records, households, "0.1", 7)
    backward = _released(list(reversed(records)), households, "0.1", 7)
    by_zone_fwd = {priv.zone: (priv, est) for priv, est in forward}
    by_zone_bwd = {priv.zone: (priv, est) for priv, est in backward}
    assert by_zone_fwd == by_zone_bwd


def test_release_dataset_matches_per_zone_records():
    # the column pass gives every zone exactly what the one-zone path gives
    records = [RawZipRecord(f"{i:05d}", i, 2 * i, 3 * i, i) for i in range(1, 40)]
    households = {r.zone: 50 + r.low_speed for r in records}
    for round_counts in (False, True):
        pairs = _released(records, households, "0.1", 7, round_counts=round_counts)
        for record, (priv, estimate) in zip(records, pairs):
            assert priv == privatize_record(record, "0.1", 7, round_counts=round_counts)
            assert estimate == estimate_coverage(priv, households[record.zone])
        subset = _released(records[5:9], households, "0.1", 7, round_counts=round_counts)
        assert list(subset) == list(pairs[5:9])


def test_round_counts_releases_whole_devices():
    raw = RawZipRecord("90210", 30, 70, 100, 20)
    priv = privatize_record(raw, "0.1", 42, round_counts=True)
    for value in (priv.low_speed_dp, priv.high_speed_dp, priv.services_dp, priv.non_services_dp):
        assert value == math.floor(value)
        assert value >= 0.0


def test_raw_coverage_is_at_least_clipped_coverage():
    records = [RawZipRecord(f"{i:05d}", 5 * i, 10 * i, 20 * i, 3 * i) for i in range(1, 30)]
    households = {r.zone: 60 for r in records}
    for priv, estimate in _released(records, households, "0.1", 13):
        if estimate.defined:
            assert estimate.raw_coverage >= estimate.coverage
            assert 0.0 <= estimate.coverage <= 1.0


def test_columns_build_checked_records_on_access():
    eps = Decimal("0.2")
    rows = [
        ReleaseRow("00001", 0.5, 0.5, None, None, None, eps),
        ReleaseRow("00002", None, None, None, None, None, eps),
    ]
    table = as_columns(rows, ReleaseRow)
    assert as_columns(table, ReleaseRow) is table  # converted once
    assert len(table) == 2 and list(table) == rows
    assert table[-1] == rows[-1] and list(table[1:]) == rows[1:]
    assert table[0].mae is None  # NaN in a float column reads back as None
    broken = Columns(ReleaseRow, **{**table.columns, "coverage": np.array([1.5, np.nan])})
    with pytest.raises(IngestionError, match="coverage must lie in"):
        broken[0]  # the row is checked when its record is built
    assert broken[1] == rows[1]


# one strategy per field annotation; a None in a float field is held as NaN,
# and some values of each kind break their record's rules
_field_values = {
    "str": st.integers(0, 99999).map("{:05d}".format),
    "int": st.integers(-1, 2**63 - 1),
    "float": st.one_of(st.none(), st.floats(-1.0, 1e300)),
    "float | None": st.one_of(st.none(), st.floats(-0.5, 1.5)),
    "Decimal": st.sampled_from(["0", "0.25", "2"]).map(Decimal),
}


@st.composite
def _tables(draw):
    """Columns of one record type built by columns_of, perhaps with one numeric field a list of numpy scalars."""
    record = draw(st.sampled_from([RawZipRecord, HouseholdRecord, PrivateZipRecord, ReleaseRow]))
    rows = draw(st.lists(st.tuples(*(_field_values[field.type] for field in fields(record))), max_size=4))
    table = columns_of(record, *([row[i] for row in rows] for i in range(len(fields(record)))))
    numeric = [name for name, column in table.columns.items() if isinstance(column, np.ndarray)]
    name = draw(st.one_of(st.none(), st.sampled_from(numeric)))
    if name is None:
        return table
    return Columns(record, **{**table.columns, name: list(table.column(name))})


_undefined = as_columns([ReleaseRow("00001", None, None, None, None, None, Decimal("0.2"))], ReleaseRow)


@settings(max_examples=200, deadline=None)
@example(Columns(ReleaseRow, **{**_undefined.columns, "mae": list(_undefined.column("mae"))}))
@given(_tables())
def test_indexing_a_row_builds_the_record_iterating_builds(table):
    # a NaN numpy scalar is not None: iteration refuses it, and so must indexing
    def outcome(read, key):
        """The record read(key) builds, or the type of the exception it raises."""
        try:
            return read(key)
        except Exception as error:
            return type(error)

    n = len(table)
    iterated = [outcome(lambda row: next(iter(table[row:row + 1])), row) for row in range(n)]
    if not any(isinstance(record, type) for record in iterated):
        assert list(table) == iterated
    for index in range(-n, n):
        assert outcome(table.__getitem__, index) == outcome(table.__getitem__, np.int64(index)) == iterated[index]
    for index in (n, -n - 1, np.int64(n), np.int64(-n - 1)):
        with pytest.raises(IndexError):
            table[index]
