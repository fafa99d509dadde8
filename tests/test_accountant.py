"""Exact-decimal composition arithmetic, plan validation, and the ledger.

Frozen hand-folded totals:
    SEQ(a:0.1, b:0.1)                 = 0.2
    PAR(a:0.1, b:0.2)                 = 0.2
    SEQ(PAR(a:0.1, b:0.2), c:0.05)    = 0.25
    the release plan (two parallel pairs in sequence) at 0.1 = 0.2
"""

import os
import stat
from decimal import Decimal

import pytest

from dpcoverage.accountant import (
    BudgetExceededError,
    BudgetLedger,
    LedgerEntry,
    PlanError,
    Query,
    append_journal,
    as_epsilon,
    describe_plan,
    load_journal,
    load_ledger,
    par,
    parallel_compose,
    seq,
    sequential_compose,
    total_epsilon,
    validate_plan,
)
from dpcoverage.release import release_query_plan


def test_epsilons_are_decimal_exact():
    total = sequential_compose(["0.1", "0.1"])
    assert total == Decimal("0.2")
    assert str(total) == "0.2"  # no float dust in published totals
    assert sequential_compose(["0.1", "0.2", "0.3"]) == Decimal("0.6")


def test_as_epsilon_accepts_floats_via_repr():
    assert as_epsilon(0.1) == Decimal("0.1")
    assert as_epsilon(Decimal("0.25")) == Decimal("0.25")
    assert as_epsilon("1") == Decimal(1)
    assert as_epsilon(2) == Decimal(2)


@pytest.mark.parametrize("bad", ["0", "-0.3", 0, -1, "abc", float("nan"), float("inf"), None])
def test_as_epsilon_rejects_nonpositive_and_garbage(bad):
    with pytest.raises(PlanError):
        as_epsilon(bad)


def test_parallel_compose_is_max():
    assert parallel_compose(["0.1", "0.2"]) == Decimal("0.2")
    assert parallel_compose(["0.3"]) == Decimal("0.3")


def test_empty_composition_is_a_domain_error():
    with pytest.raises(PlanError):
        sequential_compose([])
    with pytest.raises(PlanError):
        parallel_compose([])


def test_total_epsilon_folds_nested_plans():
    plan = seq(par(Query("a", "0.1"), Query("b", "0.2")), Query("c", "0.05"))
    assert total_epsilon(plan) == Decimal("0.25")
    assert total_epsilon(Query("solo", "0.4")) == Decimal("0.4")


def test_release_plan_total_is_exactly_twice_per_query():
    assert total_epsilon(release_query_plan("0.1")) == Decimal("0.2")
    assert total_epsilon(release_query_plan("0.05")) == Decimal("0.1")
    assert str(total_epsilon(release_query_plan("0.1"))) == "0.2"


def test_adding_a_sequential_child_never_decreases_total():
    base = seq(Query("a", "0.1"), Query("b", "0.2"))
    grown = seq(Query("a", "0.1"), Query("b", "0.2"), Query("c", "0.05"))
    assert total_epsilon(grown) > total_epsilon(base)


def test_parallel_total_equals_worst_child():
    plan = par(Query("a", "0.1"), Query("b", "0.5"), Query("c", "0.3"))
    assert total_epsilon(plan) == max(Decimal("0.1"), Decimal("0.5"), Decimal("0.3"))


def test_parallel_branches_must_have_disjoint_labels():
    with pytest.raises(PlanError):
        validate_plan(par(Query("x", "0.1"), Query("x", "0.1")))
    # duplicate labels inside one branch are fine (sequential reuse of the
    # same data); overlap across branches is not
    validate_plan(par(seq(Query("x", "0.1"), Query("x", "0.1")), Query("y", "0.1")))
    with pytest.raises(PlanError):
        validate_plan(par(seq(Query("x", "0.1"), Query("y", "0.1")), Query("y", "0.1")))


def test_empty_composite_node_is_invalid():
    with pytest.raises(PlanError):
        total_epsilon(seq())
    with pytest.raises(PlanError):
        total_epsilon(par())


def test_a_plan_reports_its_first_fault_depth_first():
    with pytest.raises(PlanError, match="at least one child"):
        validate_plan(par(seq(), Query("x", "0.1"), Query("x", "0.1")))  # before the overlap after it
    with pytest.raises(PlanError, match="not a query plan node"):
        validate_plan(par(Query("x", "0.1"), "y"))


def test_query_validation():
    with pytest.raises(PlanError):
        Query("", "0.1")
    with pytest.raises(PlanError):
        Query("a", "-0.1")


def test_describe_plan():
    assert describe_plan(release_query_plan("0.1")) == (
        "SEQ(PAR(low_speed:0.1,high_speed:0.1),PAR(services:0.1,non_services:0.1))"
    )


def test_ledger_charges_accumulate_exactly():
    ledger = BudgetLedger("1.0")
    ledger.charge(release_query_plan("0.1"), timestamp="t1")
    ledger.charge(release_query_plan("0.1"), timestamp="t2")
    assert ledger.spent == Decimal("0.4")
    assert ledger.remaining == Decimal("0.6")
    assert ledger.spent == sum((e.epsilon for e in ledger.entries), Decimal(0))


def test_rejected_charge_leaves_ledger_untouched():
    ledger = BudgetLedger("0.3")
    ledger.charge(release_query_plan("0.1"), timestamp="t1")
    before = list(ledger.entries)
    spent_before = ledger.spent
    with pytest.raises(BudgetExceededError) as excinfo:
        ledger.charge(release_query_plan("0.1"), timestamp="t2")
    assert excinfo.value.requested == Decimal("0.2")
    assert excinfo.value.remaining == Decimal("0.1")
    assert ledger.entries == before
    assert ledger.spent == spent_before


def test_charge_exactly_to_the_limit_is_allowed():
    ledger = BudgetLedger("0.4")
    ledger.charge(release_query_plan("0.1"), timestamp="t1")
    ledger.charge(release_query_plan("0.1"), timestamp="t2")
    assert ledger.remaining == Decimal("0")


def test_loading_an_overspent_journal_fails():
    entries = [LedgerEntry("t1", "a", Decimal("0.3")), LedgerEntry("t2", "b", Decimal("0.3"))]
    with pytest.raises(BudgetExceededError):
        BudgetLedger("0.5", entries)


def test_journal_round_trip(tmp_path):
    path = tmp_path / "journal.txt"
    ledger = BudgetLedger("1.0")
    e1 = ledger.charge(release_query_plan("0.1"), timestamp="2026-01-01T00:00:00+00:00")
    e2 = ledger.charge(Query("extra", "0.05"), timestamp="2026-01-02T00:00:00+00:00", description="extra query")
    append_journal(path, e1)
    append_journal(path, e2)
    loaded = load_journal(path)
    assert loaded == ledger.entries
    reloaded = load_ledger(path, "1.0")
    assert reloaded.spent == Decimal("0.25")
    assert reloaded.remaining == Decimal("0.75")


def test_missing_journal_is_an_empty_ledger(tmp_path):
    ledger = load_ledger(tmp_path / "absent.txt", "1.0")
    assert ledger.entries == [] and ledger.remaining == Decimal("1.0")
    assert not (tmp_path / "absent.txt").exists()


def test_a_charge_syncs_the_journal_and_its_directory(tmp_path, monkeypatch):
    # a journal the charge creates must keep its directory entry through a machine crash
    synced = []
    fsync = os.fsync

    def recording(fd):
        synced.append((fd, stat.S_ISDIR(os.fstat(fd).st_mode)))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", recording)
    entry = BudgetLedger("1.0").charge(release_query_plan("0.1"), timestamp="2026-01-01T00:00:00+00:00")
    append_journal(tmp_path / "fresh.txt", entry)
    assert [directory for _, directory in synced] == [False, True]  # the file, then its directory
    with pytest.raises(OSError):
        os.fstat(synced[1][0])  # and the directory's descriptor is closed again


def test_journal_is_append_only_text(tmp_path):
    path = tmp_path / "journal.txt"
    append_journal(path, LedgerEntry("2026-01-01T00:00:00+00:00", "release one", Decimal("0.2")))
    append_journal(path, LedgerEntry("2026-01-02T00:00:00+00:00", "release two", Decimal("0.2")))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "2026-01-01T00:00:00+00:00\trelease one\t0.2"
    assert lines[1] == "2026-01-02T00:00:00+00:00\trelease two\t0.2"


def test_malformed_journal_line_reports_line_number(tmp_path):
    path = tmp_path / "journal.txt"
    path.write_text("t1\tok\t0.2\nnot a valid line\n", encoding="utf-8")
    with pytest.raises(PlanError, match="line 2"):
        load_journal(path)


def test_journal_skips_blank_lines_and_names_the_line_of_a_bad_epsilon(tmp_path):
    path = tmp_path / "journal.txt"
    path.write_text("t1\tok\t0.2\n\nt2\tok\t0.1\n", encoding="utf-8")
    assert [entry.epsilon for entry in load_journal(path)] == [Decimal("0.2"), Decimal("0.1")]
    path.write_text("t1\tok\t0.2\n\nt2\tbad\tabc\n", encoding="utf-8")
    with pytest.raises(PlanError) as raised:
        load_journal(path)
    assert str(raised.value) == f"{path}: line 3: cannot interpret 'abc' as an epsilon"


def test_ledger_entry_rejects_control_characters():
    with pytest.raises(PlanError):
        LedgerEntry("t1", "bad\tdescription", Decimal("0.1"))
    with pytest.raises(PlanError):
        LedgerEntry("t\n1", "ok", Decimal("0.1"))


def test_sums_that_would_round_are_refused():
    # Decimal's default context rounds to 28 digits: 0.2 + 1.0E-30 would
    # come out 0.2, so a charge could pass the budget unseen
    ledger = BudgetLedger("0.2")
    ledger.charge(release_query_plan("0.1"), timestamp="t1")
    with pytest.raises(PlanError, match="exactly"):
        ledger.charge(release_query_plan("5E-31"), timestamp="t2")
    assert [entry.epsilon for entry in ledger.entries] == [Decimal("0.2")]
    with pytest.raises(PlanError, match="exactly"):
        total_epsilon(release_query_plan("0.6666666666666666666666666666"))
    with pytest.raises(PlanError, match="exactly"):
        sequential_compose(["1e999999999", "1"])  # refused at once, never carried in a billion digits
    entries = [LedgerEntry("t1", "a", Decimal("0.2")), LedgerEntry("t2", "b", Decimal("1.0E-30"))]
    with pytest.raises(PlanError, match="exactly"):
        BudgetLedger("0.3", entries)
    assert total_epsilon(release_query_plan("0.3333333333333333333333333333")) == Decimal("0.6666666666666666666666666666")


def test_an_overspent_ledger_is_not_reported_as_a_charge(tmp_path):
    journal = tmp_path / "journal.tsv"
    journal.write_text("t1\ta\t0.2\n", encoding="utf-8")
    with pytest.raises(BudgetExceededError) as excinfo:
        load_ledger(journal, "0.1")
    assert str(excinfo.value) == f"{journal}: the journal already spends 0.2, more than the budget 0.1"


def test_total_epsilon_has_one_mode_and_it_validates():
    # a nested overlap is refused, never folded to 0.2
    with pytest.raises(PlanError, match="disjoint"):
        total_epsilon(seq(par(Query("services", "0.1"), Query("services", "0.1")), Query("x", "0.1")))
    with pytest.raises(TypeError):
        total_epsilon(Query("x", "0.1"), validate=False)
