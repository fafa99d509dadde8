"""CLI: pipeline wiring, manifests, exit codes, and diagnostics."""

import argparse
import contextlib
import fcntl
import json
import os
import re
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from decimal import Decimal
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpcoverage import cli, errorsim, io
from dpcoverage.accountant import LedgerEntry, append_journal, load_journal, seq, total_epsilon
from dpcoverage.cli import run
from dpcoverage.mechanism import LaplaceParams, laplace_stream
from dpcoverage.release import COUNT_LABELS, HouseholdRecord, RawZipRecord, release_query_plan


def make_inputs(tmp_path, zones=20, seed=7):
    counts = tmp_path / "counts.csv"
    households = tmp_path / "households.csv"
    rc = run([
        "synth", "--zones", str(zones), "--households", "100:5000", "--seed", str(seed),
        "--out-counts", str(counts), "--out-households", str(households),
    ])
    assert rc == 0
    return counts, households


def test_full_pipeline_succeeds(tmp_path, capsys):
    counts, households = make_inputs(tmp_path)
    released = tmp_path / "released.csv"
    final = tmp_path / "final.csv"
    buckets = tmp_path / "buckets.csv"

    assert run(["release", "--counts", str(counts), "--households", str(households),
                "--epsilon", "0.1", "--seed", "42", "--out", str(released)]) == 0
    assert run(["simulate-error", "--release", str(released), "--households", str(households),
                "--epsilon", "0.1", "--k", "50", "--seed", "42", "--out", str(final)]) == 0
    assert run(["summarize", "--in", str(final), "--households", str(households),
                "--thresholds", "0,1000,10000", "--out", str(buckets)]) == 0

    rows = io.read_release_csv(final)
    assert len(rows) == 20
    assert all(r.mae is not None for r in rows if r.coverage is not None)
    assert buckets.read_text(encoding="utf-8").splitlines()[0] == "bucket_low,bucket_high,zones,mean_mae,mean_msd,mean_p95"


def test_release_logs_total_epsilon(tmp_path, capsys):
    counts, households = make_inputs(tmp_path)
    out = tmp_path / "released.csv"
    capsys.readouterr()
    assert run(["release", "--counts", str(counts), "--households", str(households),
                "--epsilon", "0.1", "--seed", "1", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "total_epsilon=0.2" in captured.err


def test_manifest_records_params_and_digests(tmp_path):
    counts, households = make_inputs(tmp_path, zones=5)
    out = tmp_path / "released.csv"
    assert run(["release", "--counts", str(counts), "--households", str(households),
                "--epsilon", "0.1", "--seed", "42", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "released.csv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["tool"] == "dpcoverage"
    assert manifest["subcommand"] == "release"
    assert manifest["parameters"]["seed"] == 42
    assert manifest["parameters"]["epsilon"] == "0.1"
    assert "k" not in manifest["parameters"]  # release never fills the error columns
    assert set(manifest["input_digests"]) == {str(counts), str(households)}
    assert all(d.startswith("sha256:") for d in manifest["input_digests"].values())


def _replay(manifest):
    """The command line of a manifest, rebuilt from its parameters alone: each key names its flag."""
    argv = [manifest["subcommand"]]
    for key, value in manifest["parameters"].items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not False:
            argv += [flag, str(value)]
    return argv


def _flag_keys(subcommand):
    """A subcommand's flags, spelled as manifest keys."""
    parser = cli.build_parser()
    sub = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    flags = [flag for action in sub.choices[subcommand]._actions for flag in action.option_strings]
    return {flag[2:].replace("-", "_") for flag in flags if flag.startswith("--") and flag != "--help"}


def test_replaying_a_manifest_reproduces_outputs(tmp_path):
    counts, households = tmp_path / "counts.csv", tmp_path / "households.csv"
    released, final, buckets = tmp_path / "released.csv", tmp_path / "final.csv", tmp_path / "buckets.csv"
    commands = {
        counts: ["synth", "--zones", "10", "--households", "100:5000", "--bce", "0.2:0.8",
                 "--services-share", "0.6:0.7", "--seed", "7",
                 "--out-counts", str(counts), "--out-households", str(households)],
        released: ["release", "--counts", str(counts), "--households", str(households), "--epsilon", "1E-1",
                   "--seed", "42", "--round-counts", "--out", str(released),
                   "--journal", str(tmp_path / "journal.tsv"), "--budget", "1"],
        final: ["simulate-error", "--release", str(released), "--households", str(households),
                "--epsilon", "0.10", "--k", "20", "--seed", "42", "--out", str(final)],
        buckets: ["summarize", "--in", str(final), "--households", str(households),
                  "--thresholds", "0,500,2000", "--out", str(buckets)],
    }
    for argv in commands.values():
        assert run(argv) == 0
    for out, argv in commands.items():
        first_manifest = cli._manifest_path(out).read_bytes()
        manifest = json.loads(first_manifest)
        # every parsed argument is recorded under its flag, except the journal's
        unrecorded = {"journal", "budget"} if argv[0] == "release" else set()
        assert set(manifest["parameters"]) == _flag_keys(argv[0]) - unrecorded
        written = {path: Path(path).read_bytes() for path in manifest["outputs"]}
        assert len(written) == (2 if argv[0] in ("synth", "release") else 1)
        # rerun from the manifest alone
        assert run(_replay(manifest)) == 0
        assert {path: Path(path).read_bytes() for path in manifest["outputs"]} == written
        assert cli._manifest_path(out).read_bytes() == first_manifest


def test_input_order_does_not_change_zone_rows(tmp_path):
    counts, households = make_inputs(tmp_path, zones=30)
    lines = counts.read_text(encoding="utf-8").splitlines(keepends=True)
    reversed_counts = tmp_path / "reversed.csv"
    reversed_counts.write_text(lines[0] + "".join(reversed(lines[1:])), encoding="utf-8")
    base = ["--households", str(households), "--seed", "42"]
    tables = {}
    for name, source in (("forward", counts), ("backward", reversed_counts)):
        released, final = tmp_path / f"{name}.csv", tmp_path / f"{name}.final.csv"
        assert run(["release", "--counts", str(source), *base, "--out", str(released)]) == 0
        assert run(["simulate-error", "--release", str(released), *base, "--k", "20", "--out", str(final)]) == 0
        tables[name] = final.read_text(encoding="utf-8").splitlines()
    assert any(line.split(",")[3] for line in tables["forward"][1:])  # error columns were filled
    assert tables["backward"][0] == tables["forward"][0]
    assert tables["backward"][1:] == list(reversed(tables["forward"][1:]))


def test_threads_flag_is_gone(tmp_path, capsys):
    counts, households = make_inputs(tmp_path, zones=2)
    assert run(["release", "--counts", str(counts), "--households", str(households), "--seed", "1",
                "--threads", "2", "--out", str(tmp_path / "out.csv")]) == 2


def test_release_k_flag_is_gone(tmp_path, capsys):
    # error columns are filled only by simulate-error
    counts, households = make_inputs(tmp_path, zones=2)
    assert run(["release", "--counts", str(counts), "--households", str(households), "--seed", "1",
                "--k", "5", "--out", str(tmp_path / "out.csv")]) == 2
    assert not (tmp_path / "out.csv").exists()


def test_manifest_records_noise_format(tmp_path):
    counts, households = make_inputs(tmp_path, zones=3)
    released = tmp_path / "released.csv"
    final = tmp_path / "final.csv"
    buckets = tmp_path / "buckets.csv"
    assert run(["release", "--counts", str(counts), "--households", str(households),
                "--seed", "42", "--out", str(released)]) == 0
    assert run(["simulate-error", "--release", str(released), "--households", str(households),
                "--k", "10", "--seed", "42", "--out", str(final)]) == 0
    assert run(["summarize", "--in", str(final), "--households", str(households), "--out", str(buckets)]) == 0
    manifests = [tmp_path / f"{name}.manifest.json" for name in ("counts.csv", "released.csv", "final.csv", "buckets.csv")]
    for path in manifests:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["noise_format"] == 2
        assert "threads" not in manifest["parameters"]


def test_simulate_error_refuses_epsilon_other_than_the_release(tmp_path, capsys):
    counts, households = make_inputs(tmp_path, zones=5)
    released = tmp_path / "released.csv"
    final = tmp_path / "final.csv"
    assert run(["release", "--counts", str(counts), "--households", str(households),
                "--epsilon", "0.1", "--seed", "42", "--out", str(released)]) == 0
    base = ["simulate-error", "--release", str(released), "--households", str(households),
            "--k", "10", "--seed", "42", "--out", str(final)]
    capsys.readouterr()
    assert run([*base, "--epsilon", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "0.2" in captured.err
    assert not final.exists()
    assert run([*base, "--epsilon", "0.10"]) == 0  # the same decimal, written differently


def test_empty_counts_file_releases_header_only(tmp_path):
    counts = tmp_path / "counts.csv"
    households = tmp_path / "households.csv"
    io.write_counts_csv(counts, [])
    io.write_households_csv(households, [])
    out = tmp_path / "released.csv"
    assert run(["release", "--counts", str(counts), "--households", str(households),
                "--seed", "1", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "zip,broadband_usage,broadband_usage_raw,error_mae,error_msd,error_p95,epsilon\n"


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    assert run(["release", "--nonsense"]) == 2


def test_missing_subcommand_is_usage_error():
    assert run([]) == 2


SIMULATE = ["simulate-error", "--release", "r.csv", "--households", "h.csv", "--seed", "1", "--out", "o.csv"]
SYNTH = ["synth", "--seed", "1", "--out-counts", "c.csv", "--out-households", "h.csv"]
SUMMARIZE = ["summarize", "--in", "r.csv", "--households", "h.csv", "--out", "b.csv"]


@pytest.mark.parametrize("argv, message", [
    ([*SIMULATE, "--k", "0"], "argument --k: expected a positive integer, got 0"),
    ([*SIMULATE, "--k", "x"], "argument --k: expected a positive integer, got x"),
    ([*SYNTH, "--zones", "-1"], "argument --zones: expected a nonnegative integer, got -1"),
    ([*SYNTH[:1], "--seed", "x", *SYNTH[3:], "--zones", "1"], "argument --seed: expected an unsigned 64-bit integer, got x"),
    ([*SIMULATE[:5], "--seed", "18446744073709551616", *SIMULATE[7:]],
     "argument --seed: expected an unsigned 64-bit integer, got 18446744073709551616"),
    ([*SUMMARIZE, "--thresholds", "a,b"], "argument --thresholds: expected comma-separated integers, got 'a,b'"),
])
def test_integer_flags_name_their_bound(capsys, argv, message):
    assert run(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(message)


def test_missing_file_is_runtime_error(tmp_path, capsys):
    households = tmp_path / "households.csv"
    io.write_households_csv(households, [])
    capsys.readouterr()
    rc = run(["release", "--counts", str(tmp_path / "nope.csv"), "--households", str(households),
              "--seed", "1", "--out", str(tmp_path / "out.csv")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.strip().startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1  # one-line diagnostic


def test_malformed_row_aborts_with_line_number(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text(
        "zip,low_speed_devices,high_speed_devices,services_devices,non_services_devices\n"
        "00001,1,2,3,4\n"
        "00002,one,2,3,4\n",
        encoding="utf-8",
    )
    households = tmp_path / "households.csv"
    io.write_households_csv(households, [])
    capsys.readouterr()
    rc = run(["release", "--counts", str(counts), "--households", str(households),
              "--seed", "1", "--out", str(tmp_path / "out.csv")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "line 3" in captured.err


def test_seed_is_required(tmp_path, capsys):
    counts, households = make_inputs(tmp_path, zones=2)
    assert run(["release", "--counts", str(counts), "--households", str(households),
                "--out", str(tmp_path / "out.csv")]) == 2


def test_budget_journal_flow(tmp_path, capsys):
    counts, households = make_inputs(tmp_path, zones=3)
    journal = tmp_path / "journal.txt"
    base = ["release", "--counts", str(counts), "--households", str(households),
            "--seed", "42", "--journal", str(journal), "--budget", "0.5"]

    assert run([*base, "--out", str(tmp_path / "r1.csv")]) == 0
    assert run([*base, "--out", str(tmp_path / "r2.csv")]) == 0
    capsys.readouterr()
    assert run(["budget", "--journal", str(journal), "--budget", "0.5"]) == 0
    captured = capsys.readouterr()
    assert "spent=0.4" in captured.out
    assert "remaining=0.1" in captured.out

    # third release would need 0.2 but only 0.1 remains
    journal_before = journal.read_bytes()
    capsys.readouterr()
    rc = run([*base, "--out", str(tmp_path / "r3.csv")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "exceeds remaining budget" in captured.err
    assert journal.read_bytes() == journal_before  # rejected charge leaves no trace
    assert not (tmp_path / "r3.csv").exists()  # and no release happened


def test_budget_without_journal_is_usage_error(tmp_path, capsys):
    counts, households = make_inputs(tmp_path, zones=2)
    assert run(["release", "--counts", str(counts), "--households", str(households),
                "--seed", "1", "--out", str(tmp_path / "o.csv"), "--journal", str(tmp_path / "j.txt")]) == 2


def test_budget_query_with_missing_journal(tmp_path, capsys):
    capsys.readouterr()
    assert run(["budget", "--journal", str(tmp_path / "absent.txt"), "--budget", "1.0"]) == 0
    captured = capsys.readouterr()
    assert "remaining=1.0" in captured.out


def test_round_counts_flag(tmp_path):
    counts, households = make_inputs(tmp_path, zones=5)
    out = tmp_path / "released.csv"
    assert run(["release", "--counts", str(counts), "--households", str(households),
                "--seed", "42", "--round-counts", "--out", str(out)]) == 0
    for priv in io.read_private_counts_csv(io.private_counts_path(out)):
        for value in (priv.low_speed_dp, priv.high_speed_dp, priv.services_dp, priv.non_services_dp):
            assert value == int(value)


def test_simulate_error_missing_sidecar(tmp_path, capsys):
    counts, households = make_inputs(tmp_path, zones=3)
    released = tmp_path / "released.csv"
    assert run(["release", "--counts", str(counts), "--households", str(households),
                "--seed", "42", "--out", str(released)]) == 0
    io.private_counts_path(released).unlink()
    capsys.readouterr()
    rc = run(["simulate-error", "--release", str(released), "--households", str(households),
              "--k", "10", "--seed", "42", "--out", str(tmp_path / "final.csv")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")


def test_simulate_error_with_explicit_sidecar(tmp_path):
    counts, households = make_inputs(tmp_path, zones=3)
    released = tmp_path / "released.csv"
    assert run(["release", "--counts", str(counts), "--households", str(households),
                "--seed", "42", "--out", str(released)]) == 0
    sidecar = tmp_path / "elsewhere.csv"
    io.private_counts_path(released).rename(sidecar)
    assert run(["simulate-error", "--release", str(released), "--households", str(households),
                "--private-counts", str(sidecar), "--k", "10", "--seed", "42",
                "--out", str(tmp_path / "final.csv")]) == 0


def test_undefined_zones_have_empty_error_fields(tmp_path):
    # a zone missing from the household file stays in the output with
    # empty coverage and error fields
    counts = tmp_path / "counts.csv"
    households = tmp_path / "households.csv"
    counts.write_text(
        "zip,low_speed_devices,high_speed_devices,services_devices,non_services_devices\n"
        "00001,10,20,40,10\n"
        "00002,10,20,40,10\n",
        encoding="utf-8",
    )
    households.write_text("zip,households\n00001,500\n", encoding="utf-8")
    released = tmp_path / "released.csv"
    final = tmp_path / "final.csv"
    assert run(["release", "--counts", str(counts), "--households", str(households),
                "--seed", "42", "--out", str(released)]) == 0
    assert run(["simulate-error", "--release", str(released), "--households", str(households),
                "--k", "10", "--seed", "42", "--out", str(final)]) == 0
    rows = io.read_release_csv(final)
    assert len(rows) == 2
    assert rows[1].coverage is None
    assert rows[1].mae is None


def test_version_flag():
    assert run(["--version"]) == 0


def test_synth_range_flag_parsing(tmp_path, capsys):
    rc = run(["synth", "--zones", "3", "--households", "bad", "--seed", "1",
              "--out-counts", str(tmp_path / "c.csv"), "--out-households", str(tmp_path / "h.csv")])
    assert rc == 2


def test_failed_manifest_write_leaves_the_old_manifest(tmp_path):
    out = tmp_path / "released.csv"
    path = cli.write_manifest(argparse.Namespace(subcommand="release", seed=1), [], [str(out)])
    before = path.read_bytes()
    with pytest.raises(TypeError):
        cli.write_manifest(argparse.Namespace(subcommand="release", seed=1, bad=object()), [], [str(out)])
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind


def test_concurrent_releases_cannot_both_spend_the_last_budget(tmp_path, monkeypatch, capsys):
    counts, households = make_inputs(tmp_path, zones=3)
    journal = tmp_path / "journal.txt"
    journal.touch()
    base = ["release", "--counts", str(counts), "--households", str(households),
            "--seed", "42", "--journal", str(journal), "--budget", "0.2"]
    load_ledger = cli.load_ledger
    second: list[int] = []
    threads: list[threading.Thread] = []

    def load_then_race(path, budget):
        # the first release reads the journal, then a second release starts
        # on the same journal before the first one has charged it
        ledger = load_ledger(path, budget)
        if not threads:
            out = str(tmp_path / "b.csv")
            threads.append(threading.Thread(target=lambda: second.append(run([*base, "--out", out]))))
            threads[0].start()
            threads[0].join(timeout=0.5)
        return ledger

    monkeypatch.setattr(cli, "load_ledger", load_then_race)
    first = run([*base, "--out", str(tmp_path / "a.csv")])
    threads[0].join(timeout=30)
    assert not threads[0].is_alive()
    assert sorted([first, *second]) == [0, 1]
    assert sum(entry.epsilon for entry in load_journal(journal)) <= Decimal("0.2")


def test_simulate_error_refuses_another_releases_sidecar(tmp_path, capsys):
    counts, households = make_inputs(tmp_path, zones=5)
    common = ["--counts", str(counts), "--households", str(households), "--seed", "42"]
    assert run(["release", *common, "--epsilon", "0.1", "--out", str(tmp_path / "r01.csv")]) == 0
    assert run(["release", *common, "--epsilon", "0.2", "--out", str(tmp_path / "r02.csv")]) == 0
    final = tmp_path / "final.csv"
    capsys.readouterr()
    rc = run(["simulate-error", "--release", str(tmp_path / "r01.csv"), "--households", str(households),
              "--private-counts", str(io.private_counts_path(tmp_path / "r02.csv")), "--epsilon", "0.2",
              "--k", "10", "--seed", "42", "--out", str(final)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and "r01.csv records epsilon 0.2" in captured.err
    assert not final.exists()


def test_simulate_error_names_the_first_zone_whose_epsilon_is_refused(tmp_path, capsys):
    # zone 00002 records the same wrong total in both files, zone 00003 two different totals
    counts, households = make_inputs(tmp_path, zones=5)
    released = tmp_path / "r.csv"
    sidecar = io.private_counts_path(released)
    assert run(["release", "--counts", str(counts), "--households", str(households), "--epsilon", "0.1",
                "--seed", "42", "--out", str(released)]) == 0
    for path, totals in ((released, {"00002": "0.4"}), (sidecar, {"00002": "0.4", "00003": "0.4"})):
        lines = path.read_text(encoding="utf-8").splitlines()
        edited = [line.rsplit(",", 1)[0] + "," + totals[line[:5]] if line[:5] in totals else line for line in lines]
        path.write_text("\n".join(edited) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["simulate-error", "--release", str(released), "--households", str(households), "--epsilon", "0.1",
                "--k", "5", "--seed", "1", "--out", str(tmp_path / "f.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: --epsilon 0.1 implies a release total of 0.2, but {sidecar} records 0.4 for zone 00002\n"
    )


@pytest.mark.parametrize("row", [
    "00001,1.500,1.5,,,,0.2",  # coverage above 1
    "00001,1.000,inf,,,,0.2",  # raw coverage not finite
    "00001,0.500,,,,,0.2",  # coverage without raw coverage
    "00001,0.500,0.5,nan,0.0,0.1,0.2",  # statistic not finite
    "00001,0.500,0.5,-0.1,0.0,0.1,0.2",  # negative mae
    "00001,0.500,0.5,0.1,0.0,-1.0,0.2",  # negative p95
    "00001,0.500,0.5,0.1,,0.2,0.2",  # only some statistics
    "00001,,,0.1,0.0,0.2,0.2",  # statistics on an UNDEFINED zone
])
def test_impossible_release_rows_are_refused(tmp_path, capsys, row):
    released = tmp_path / "final.csv"
    released.write_text(",".join(io.RELEASE_HEADER) + "\n" + row + "\n", encoding="utf-8")
    households = tmp_path / "households.csv"
    households.write_text("zip,households\n00001,500\n", encoding="utf-8")
    with pytest.raises(io.CsvFormatError, match=f"^{re.escape(str(released))}: line 2: "):
        io.read_release_csv(released)
    capsys.readouterr()
    assert run(["summarize", "--in", str(released), "--households", str(households),
                "--out", str(tmp_path / "buckets.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "buckets.csv").exists()


def test_oversized_csv_field_is_a_one_line_error(tmp_path, capsys):
    counts, _ = make_inputs(tmp_path, zones=2)
    households = tmp_path / "households.csv"
    households.write_text('zip,households\n00001,"' + "9" * 200_000 + '"\n', encoding="utf-8")
    capsys.readouterr()
    rc = run(["release", "--counts", str(counts), "--households", str(households), "--seed", "1",
              "--out", str(tmp_path / "out.csv")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith(f"error: {households}: line 2: field larger than field limit")
    assert len(captured.err.strip().splitlines()) == 1


def test_simulate_error_refuses_households_the_release_lacked(tmp_path, capsys):
    # a zone released UNDEFINED for want of a household figure cannot get
    # error ranges from a households file that has one
    counts, households = make_inputs(tmp_path, zones=5)
    lines = households.read_text(encoding="utf-8").splitlines(keepends=True)
    partial = tmp_path / "partial.csv"
    partial.write_text("".join(lines[:-1]), encoding="utf-8")
    released = tmp_path / "released.csv"
    final = tmp_path / "final.csv"
    assert run(["release", "--counts", str(counts), "--households", str(partial),
                "--seed", "42", "--out", str(released)]) == 0
    capsys.readouterr()
    rc = run(["simulate-error", "--release", str(released), "--households", str(households),
              "--k", "10", "--seed", "42", "--out", str(final)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and f"{released} published UNDEFINED" in captured.err
    assert not final.exists()


def _three_zone_release(tmp_path):
    """Release three zones, all defined; returns the households file and the release."""
    counts = tmp_path / "counts.csv"
    counts.write_text(
        ",".join(io.COUNTS_HEADER) + "\n00001,1000,3000,3500,1230\n00002,10,20,40,10\n00003,5,50,60,20\n",
        encoding="utf-8",
    )
    households = tmp_path / "households.csv"
    households.write_text("zip,households\n00001,4730\n00002,500\n00003,90\n", encoding="utf-8")
    released = tmp_path / "released.csv"
    assert run(["release", "--counts", str(counts), "--households", str(households),
                "--seed", "42", "--out", str(released)]) == 0
    return households, released


def test_simulate_error_refuses_households_that_change_the_coverage(tmp_path, capsys):
    # the error ranges must belong to the published coverage: a households
    # file other than the release's gives another coverage for zone 00001
    households, released = _three_zone_release(tmp_path)
    other = tmp_path / "other.csv"
    other.write_text("zip,households\n00001,5000000\n00002,500\n00003,90\n", encoding="utf-8")
    final = tmp_path / "final.csv"
    base = ["simulate-error", "--release", str(released), "--k", "10", "--seed", "42", "--out", str(final)]
    capsys.readouterr()
    assert run([*base, "--households", str(other)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "zone 00001" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert not final.exists()
    assert run([*base, "--households", str(households)]) == 0


def _edit_zone_field(path, zone, column, text):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    for index, line in enumerate(lines):
        fields = line.split(",")
        if fields[0] == zone:
            old, fields[column] = fields[column], text
            lines[index] = ",".join(fields)
    path.write_text("".join(lines), encoding="utf-8")
    return old


def test_simulate_error_accepts_an_equal_value_written_another_way(tmp_path, capsys):
    # the published table is compared as it parses, rendered again as release writes it
    households, released = _three_zone_release(tmp_path)
    published = released.read_text(encoding="utf-8").splitlines()[1].split(",")[1]
    assert published == "0.852"
    _edit_zone_field(released, "00001", 1, "0.8520")
    final = tmp_path / "final.csv"
    assert run(["simulate-error", "--release", str(released), "--households", str(households),
                "--k", "10", "--seed", "42", "--out", str(final)]) == 0
    assert final.read_text(encoding="utf-8").splitlines()[1].startswith("00001,0.852,")


def test_simulate_error_compares_epsilons_as_values(tmp_path, capsys):
    # the table writes its epsilon 0.20, the sidecar 0.2: the same value
    households, released = _three_zone_release(tmp_path)
    released.write_text(released.read_text(encoding="utf-8").replace(",0.2\n", ",0.20\n"), encoding="utf-8")
    final = tmp_path / "final.csv"
    assert run(["simulate-error", "--release", str(released), "--households", str(households),
                "--k", "10", "--seed", "42", "--out", str(final)]) == 0
    rows = final.read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith(",0.20") for row in rows)


def _stderr_of_a_simulation_whose_worker_raises(tmp_path, monkeypatch, capfd, error):
    """simulate-error's stderr when _trials raises error in a forked worker; checks it failed cleanly."""
    households, released = _three_zone_release(tmp_path)
    parent, trials = os.getpid(), errorsim._trials

    def failing(*args):
        if os.getpid() != parent:
            raise error
        return trials(*args)

    monkeypatch.setattr(errorsim, "_workers", lambda blocks: 2)
    monkeypatch.setattr(errorsim, "_trials", failing)
    final = tmp_path / "final.csv"
    capfd.readouterr()
    assert run(["simulate-error", "--release", str(released), "--households", str(households),
                "--k", "10", "--seed", "42", "--out", str(final)]) == 1
    assert not final.exists() and not cli._manifest_path(final).exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return capfd.readouterr().err


def test_a_failed_error_simulation_worker_is_a_one_line_error(tmp_path, monkeypatch, capfd):
    # capfd, not capsys: only a capture of file descriptor 2 sees what a forked child writes
    err = _stderr_of_a_simulation_whose_worker_raises(tmp_path, monkeypatch, capfd,
                                                      RuntimeError("trials failed in a worker"))
    assert re.fullmatch(r"error: error simulation worker \d+ failed with exit status 1\n", err), err


def test_a_worker_out_of_memory_is_the_out_of_memory_line(tmp_path, monkeypatch, capfd):
    err = _stderr_of_a_simulation_whose_worker_raises(tmp_path, monkeypatch, capfd,
                                                      MemoryError("Unable to allocate 72.8 TiB for an array"))
    assert re.fullmatch(r"error: out of memory: in error simulation worker \d+\n", err), err


@pytest.mark.parametrize("edit", [
    "published coverage", "published coverage within its rounding", "households lack the zone",
    "sidecar services zero",
])
def test_simulate_error_refuses_a_table_the_inputs_do_not_give_back(tmp_path, capsys, edit):
    # every published coverage column must be what the noisy counts and the
    # households file give, in both directions: a defined zone cannot turn
    # UNDEFINED, and the rounded broadband_usage must match too
    households, released = _three_zone_release(tmp_path)
    final = tmp_path / "final.csv"
    published = io.read_release_csv(released)[0]
    assert published.zone == "00001" and published.coverage is not None
    if edit == "published coverage":
        edited = "0.000" if f"{published.coverage:.3f}" != "0.000" else "1.000"
        old = _edit_zone_field(released, "00001", 1, edited)
        expected = f"a coverage of {old}, but {released} published {edited}"
    elif edit == "published coverage within its rounding":
        # 0.852 written 0.8524 renders as 0.852 again, but is another value
        edited = f"{published.coverage:.3f}4"
        old = _edit_zone_field(released, "00001", 1, edited)
        expected = f"a coverage of {old}, but {released} published {edited}"
    elif edit == "households lack the zone":
        households.write_text("zip,households\n00002,500\n00003,90\n", encoding="utf-8")
        expected = f"a raw coverage of UNDEFINED, but {released} published {published.raw_coverage!r}"
    else:
        _edit_zone_field(io.private_counts_path(released), "00001", 3, "0.0")
        expected = f"a raw coverage of UNDEFINED, but {released} published {published.raw_coverage!r}"
    capsys.readouterr()
    rc = run(["simulate-error", "--release", str(released), "--households", str(households),
              "--k", "10", "--seed", "42", "--out", str(final)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1
    assert "zone 00001 " + expected in captured.err
    assert not final.exists() and not cli._manifest_path(final).exists()


def test_release_refuses_a_zone_with_a_trailing_newline(tmp_path, capsys):
    counts, households = tmp_path / "counts.csv", tmp_path / "households.csv"
    counts.write_text(",".join(io.COUNTS_HEADER) + '\n"00001\n",1,2,3,4\n', encoding="utf-8")
    households.write_text('zip,households\n"00001\n",50\n', encoding="utf-8")
    out = tmp_path / "released.csv"
    capsys.readouterr()
    assert run(["release", "--counts", str(counts), "--households", str(households),
                "--seed", "1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {counts}: line 3: zone must be a 5-digit zip string")
    assert len(captured.err.strip().splitlines()) == 1
    assert not out.exists() and not io.private_counts_path(out).exists()


@pytest.mark.parametrize("command,target", [
    ("release", "counts"),
    ("simulate-error", "release"),
    ("summarize", "in"),
])
def test_an_output_that_is_an_input_is_refused(tmp_path, capsys, command, target):
    counts, households = make_inputs(tmp_path, zones=5)
    released = tmp_path / "released.csv"
    assert run(["release", "--counts", str(counts), "--households", str(households),
                "--seed", "42", "--out", str(released)]) == 0
    inputs = {"counts": counts, "release": released, "in": released}
    argv = {
        "release": ["release", "--counts", str(counts), "--households", str(households), "--seed", "1"],
        "simulate-error": ["simulate-error", "--release", str(released), "--households", str(households),
                           "--k", "10", "--seed", "1"],
        "summarize": ["summarize", "--in", str(released), "--households", str(households)],
    }[command]
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    # the same file under another spelling of its path
    assert run([*argv, "--out", str(tmp_path / "." / inputs[target].name)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before  # nothing written


def test_cli_path_builds_no_record_per_zone(tmp_path, monkeypatch):
    # records are for the API edge: the commands move columns, so the number
    # of records they build must not grow with the number of zones
    from dpcoverage.errorsim import BucketSummary, ErrorReport
    from dpcoverage.release import HouseholdRecord, PrivateZipRecord, RawZipRecord, ReleaseRow

    def built(zones):
        directory = tmp_path / str(zones)
        directory.mkdir()
        counts, households = make_inputs(directory, zones=zones)
        released, final = directory / "released.csv", directory / "final.csv"
        constructed = []
        with monkeypatch.context() as patch:
            for record in (RawZipRecord, HouseholdRecord, PrivateZipRecord, ReleaseRow, ErrorReport, BucketSummary):
                def counted(self, *args, __init__=record.__init__, **kwargs):
                    constructed.append(type(self).__name__)
                    __init__(self, *args, **kwargs)
                patch.setattr(record, "__init__", counted)
            assert run(["release", "--counts", str(counts), "--households", str(households),
                        "--seed", "42", "--out", str(released)]) == 0
            assert run(["simulate-error", "--release", str(released), "--households", str(households),
                        "--k", "5", "--seed", "42", "--out", str(final)]) == 0
            assert run(["summarize", "--in", str(final), "--households", str(households),
                        "--out", str(directory / "buckets.csv")]) == 0
        return sorted(constructed)

    assert built(40) == built(80)


def _tree(directory):
    return {path: path.read_bytes() for path in directory.rglob("*")}


def test_epsilon_arithmetic_that_would_round_is_refused(tmp_path, capsys):
    counts, households = make_inputs(tmp_path, zones=3)
    journal = tmp_path / "journal.tsv"
    base = ["release", "--counts", str(counts), "--households", str(households), "--seed", "42"]
    assert run([*base, "--out", str(tmp_path / "r1.csv"), "--journal", str(journal), "--budget", "0.2"]) == 0
    for extra in (["--epsilon", "5E-31", "--journal", str(journal), "--budget", "0.2"],  # 0.2 + 1.0E-30
                  ["--epsilon", "0.6666666666666666666666666666"]):  # twice it needs 29 digits
        before = _tree(tmp_path)
        capsys.readouterr()
        assert run([*base, *extra, "--out", str(tmp_path / "r2.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "exactly" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert _tree(tmp_path) == before  # no charge, no output
    assert run(["budget", "--journal", str(journal), "--budget", "0.2"]) == 0
    assert capsys.readouterr().out == "budget=0.2\nspent=0.2\nremaining=0.0\n"


@pytest.mark.parametrize("case", [
    "no output directory", "epsilon the noise kernel refuses", "epsilon whose noise scale overflows",
])
def test_release_refuses_before_charging(tmp_path, capsys, case):
    counts, households = make_inputs(tmp_path, zones=3)
    journal = tmp_path / "journal.tsv"
    base = ["release", "--counts", str(counts), "--households", str(households), "--seed", "42",
            "--journal", str(journal), "--budget", "1"]
    assert run([*base, "--out", str(tmp_path / "r1.csv")]) == 0
    argv = {
        "no output directory": [*base, "--out", str(tmp_path / "nodir" / "r.csv")],
        "epsilon the noise kernel refuses": [*base, "--epsilon", "1e-400", "--out", str(tmp_path / "r.csv")],
        "epsilon whose noise scale overflows": [*base, "--epsilon", "1e-320", "--out", str(tmp_path / "r.csv")],
    }[case]
    before = _tree(tmp_path)
    capsys.readouterr()
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1
    assert ".tmp" not in captured.err
    if case == "no output directory":
        assert f"no directory {tmp_path / 'nodir'}" in captured.err
    if case == "epsilon whose noise scale overflows":
        assert captured.err == "error: --epsilon 1e-320: noise scale 1.0 / 1e-320 is not finite\n"
    assert _tree(tmp_path) == before  # the journal's bytes included


def test_an_epsilon_whose_noise_can_overflow_a_count_is_refused_before_anything_is_charged(tmp_path, capsys):
    # at epsilon 1e-308 the noise scale 1e308 is finite, but a draw reaches
    # about 36 times the scale, which overflows a noisy count
    counts, households = make_inputs(tmp_path, zones=3)
    journal, out = tmp_path / "journal.tsv", tmp_path / "r.csv"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["release", "--counts", str(counts), "--households", str(households), "--epsilon", "1e-308",
                    "--seed", "42", "--journal", str(journal), "--budget", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --epsilon 1e-308: noise scale 1e+308 can overflow a noisy count\n"
    assert not journal.exists() and not out.exists()


def test_a_release_whose_coverage_overflows_is_undefined_there_and_every_reader_takes_it(tmp_path, capsys):
    # at epsilon 1e-160 the noise has scale 1e160, and high_speed * (services
    # + non_services) overflows wherever both are positive: those zones are
    # UNDEFINED, not inf, and no numpy warning reaches the user
    counts, households = make_inputs(tmp_path)
    released, final, buckets = (tmp_path / name for name in ("released.csv", "final.csv", "buckets.csv"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["release", "--counts", str(counts), "--households", str(households), "--epsilon", "1e-160",
                    "--seed", "42", "--out", str(released)]) == 0
        assert run(["simulate-error", "--release", str(released), "--households", str(households),
                    "--epsilon", "1e-160", "--k", "50", "--seed", "42", "--out", str(final)]) == 0
        assert run(["summarize", "--in", str(final), "--households", str(households), "--out", str(buckets)]) == 0
    assert not [warning for warning in caught if issubclass(warning.category, RuntimeWarning)]
    assert "RuntimeWarning" not in capsys.readouterr().err
    privs = io.read_private_counts_csv(io.private_counts_path(released))
    high, services, non_services = (privs.column(f"{label}_dp") for label in COUNT_LABELS[1:])
    with np.errstate(over="ignore"):
        overflowed = np.isinf(high * (services + non_services))
    assert overflowed.any()
    for table in (released, final):
        raw = io.read_release_csv(table).column("raw_coverage")
        assert np.isnan(raw[overflowed]).all()
        assert (np.isfinite(raw) == (~overflowed & (services > 0))).all()  # every zone has a household figure


@pytest.mark.parametrize("command", ["simulate-error", "summarize"])
def test_an_output_without_a_directory_is_refused(tmp_path, capsys, command):
    counts, households = make_inputs(tmp_path, zones=3)
    released = tmp_path / "released.csv"
    assert run(["release", "--counts", str(counts), "--households", str(households),
                "--seed", "42", "--out", str(released)]) == 0
    argv = {
        "simulate-error": ["simulate-error", "--release", str(released), "--k", "5", "--seed", "1"],
        "summarize": ["summarize", "--in", str(released)],
    }[command]
    before = _tree(tmp_path)
    capsys.readouterr()
    out = tmp_path / "nodir" / "out.csv"
    assert run([*argv, "--households", str(households), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: no directory {out.parent}\n"
    assert _tree(tmp_path) == before


def test_an_overspent_journal_is_not_reported_as_a_charge(tmp_path, capsys):
    counts, households = make_inputs(tmp_path, zones=3)
    journal = tmp_path / "journal.tsv"
    base = ["release", "--counts", str(counts), "--households", str(households), "--seed", "42"]
    assert run([*base, "--out", str(tmp_path / "r1.csv"), "--journal", str(journal), "--budget", "1"]) == 0
    expected = f"error: {journal}: the journal already spends 0.2, more than the budget 0.1\n"
    capsys.readouterr()
    assert run(["budget", "--journal", str(journal), "--budget", "0.1"]) == 1
    assert capsys.readouterr().err == expected
    before = _tree(tmp_path)
    assert run([*base, "--out", str(tmp_path / "r2.csv"), "--journal", str(journal), "--budget", "0.1"]) == 1
    assert capsys.readouterr().err == expected
    assert _tree(tmp_path) == before


def test_a_refused_first_charge_creates_no_journal(tmp_path, capsys):
    counts, households = make_inputs(tmp_path)
    before = _tree(tmp_path)
    capsys.readouterr()
    assert run(["release", "--counts", str(counts), "--households", str(households), "--seed", "42",
                "--out", str(tmp_path / "r.csv"), "--journal", str(tmp_path / "journal.tsv"), "--budget", "0.1"]) == 1
    assert capsys.readouterr().err == "error: charge of 0.2 exceeds remaining budget 0.1\n"
    assert _tree(tmp_path) == before  # no journal file and no output


def test_a_journal_without_a_directory_is_refused_before_the_charge(tmp_path, capsys):
    counts, households = make_inputs(tmp_path, zones=3)
    before = _tree(tmp_path)
    capsys.readouterr()
    assert run(["release", "--counts", str(counts), "--households", str(households), "--seed", "42",
                "--out", str(tmp_path / "r.csv"), "--journal", str(tmp_path / "nodir" / "j.tsv"), "--budget", "1"]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{tmp_path / 'nodir'}'\n"
    assert _tree(tmp_path) == before  # no journal, no directory and no output


def test_a_journal_without_a_directory_is_refused_before_the_inputs_are_read(tmp_path, capsys):
    counts, households = make_inputs(tmp_path, zones=3)
    counts.write_text("zone,bad\n", encoding="utf-8")  # a header the counts reader refuses
    capsys.readouterr()
    assert run(["release", "--counts", str(counts), "--households", str(households), "--seed", "42",
                "--out", str(tmp_path / "r.csv"), "--journal", str(tmp_path / "nodir" / "j.tsv"), "--budget", "1"]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{tmp_path / 'nodir'}'\n"


def test_a_journal_without_a_final_newline_is_refused_before_the_charge(tmp_path, capsys):
    # a charge appended to it would run on from its last line and corrupt it
    counts, households = make_inputs(tmp_path, zones=3)
    journal = tmp_path / "j.tsv"
    journal.write_bytes(b"2026-01-01T00:00:00+00:00\trelease old.csv\t0.2")
    before = _tree(tmp_path)
    capsys.readouterr()
    expected = f"error: {journal}: line 1: no newline at the end of the journal\n"
    assert run(["release", "--counts", str(counts), "--households", str(households), "--seed", "42",
                "--out", str(tmp_path / "r.csv"), "--journal", str(journal), "--budget", "1"]) == 1
    assert capsys.readouterr().err == expected
    assert _tree(tmp_path) == before  # the journal keeps its bytes, and no output exists
    assert run(["budget", "--journal", str(journal), "--budget", "1"]) == 1
    assert capsys.readouterr().err == expected


CHARGE_BESIDE_OUTPUTS = """
from dpcoverage import cli
from dpcoverage.accountant import load_journal

assert cli.run(["synth", "--zones", "3", "--seed", "1", "--out-counts", "c.csv", "--out-households", "h.csv"]) == 0
assert cli.run(["release", "--counts", "c.csv", "--households", "h.csv", "--seed", "1",
                "--out", "r.csv", "--journal", "journal.tsv", "--budget", "1"]) == 0
assert [entry.description for entry in load_journal("journal.tsv")] == ["release r.csv"]
"""


def test_a_release_charging_a_journal_in_its_output_directory_finishes(tmp_path):
    # every lock here is on one directory, and a second flock on it waits even
    # in the same process: a command that locked it twice, or held the
    # journal's lock and the outputs' at once, would wait for itself, so the
    # commands run in a fresh interpreter under a timeout
    fresh_python(tmp_path, CHARGE_BESIDE_OUTPUTS)


def test_two_releases_to_one_out_leave_the_files_of_one_run(tmp_path, monkeypatch):
    # a forked child parks inside its publication window, after its table and
    # before its sidecar, while a second release to the same --out runs here;
    # the table, the sidecar and the manifest must then all be one run's
    counts, households = make_inputs(tmp_path, zones=30)
    names = ["r.csv", "r.csv.private-counts.csv", "r.csv.manifest.json"]

    def argv(seed, epsilon):
        return ["release", "--counts", str(counts), "--households", str(households), "--seed", seed,
                "--epsilon", epsilon, "--out", "r.csv"]

    first, second = argv("5", "0.1"), argv("6", "0.3")
    alone = []
    for name, args in (("first", first), ("second", second)):  # each run's files, written with no other run
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert run(args) == 0
        alone.append([Path(file).read_bytes() for file in names])
    (tmp_path / "race").mkdir()
    monkeypatch.chdir(tmp_path / "race")

    parked_read, parked_write = os.pipe()
    go_read, go_write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: the first release, parked until the parent writes to the go pipe
        status = 1
        try:
            os.close(parked_read)
            os.close(go_write)
            write = io.write_private_counts_csv

            def park(*args):
                os.write(parked_write, b"p")
                os.read(go_read, 1)  # the parent's byte, or end of file if the parent is gone
                write(*args)

            io.write_private_counts_csv = park
            status = run(first)
        finally:
            os._exit(status)
    os.close(parked_write)
    os.close(go_read)
    waiting = threading.Event()  # set when the second release asks for a lock, or ends without one
    done: list[int] = []
    flock = fcntl.flock

    def wait_then_lock(descriptor, operation):
        waiting.set()
        flock(descriptor, operation)

    def second_release():
        try:
            done.append(run(second))
        finally:
            waiting.set()

    exited = 0  # the child's pid once it is reaped
    try:
        assert select.select([parked_read], [], [], 60)[0] and os.read(parked_read, 1) == b"p", "the child never parked"
        monkeypatch.setattr(fcntl, "flock", wait_then_lock)
        racer = threading.Thread(target=second_release, daemon=True)
        racer.start()
        assert waiting.wait(60)
        os.write(go_write, b"g")
        deadline = time.monotonic() + 60
        while exited == 0 and time.monotonic() < deadline:
            exited, status = os.waitpid(pid, os.WNOHANG)
            time.sleep(0.01)
        assert exited == pid and os.waitstatus_to_exitcode(status) == 0
        racer.join(60)
        assert not racer.is_alive() and done == [0]
    finally:
        os.close(go_write)
        os.close(parked_read)
        if exited == 0:  # only if an assertion above failed
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    published = [Path(file).read_bytes() for file in names]
    assert published in alone, "the table, sidecar and manifest are not one run's"


@pytest.mark.parametrize("command", ["synth", "release", "simulate-error", "summarize"])
def test_a_run_that_fails_before_its_manifest_leaves_no_manifest_of_the_run_before(
    tmp_path, monkeypatch, capsys, command
):
    counts, households = make_inputs(tmp_path)
    released = tmp_path / "released.csv"
    assert run(["release", "--counts", str(counts), "--households", str(households), "--seed", "1",
                "--out", str(released)]) == 0

    def argv(seed, epsilon):  # two runs to one output that differ in their seed or, for summarize, thresholds
        return {
            "synth": ["synth", "--zones", "20", "--seed", seed, "--out-counts", str(tmp_path / "c.csv"),
                      "--out-households", str(tmp_path / "h.csv")],
            "release": ["release", "--counts", str(counts), "--households", str(households), "--seed", seed,
                        "--epsilon", epsilon, "--out", str(tmp_path / "r.csv"),
                        "--journal", str(tmp_path / "journal.tsv"), "--budget", "1"],
            "simulate-error": ["simulate-error", "--release", str(released), "--households", str(households),
                               "--k", "5", "--seed", seed, "--out", str(tmp_path / "f.csv")],
            "summarize": ["summarize", "--in", str(released), "--households", str(households),
                          "--thresholds", f"0,{seed}000", "--out", str(tmp_path / "b.csv")],
        }[command]

    first = argv("5", "0.1")
    manifest = cli._manifest_path(first[first.index("--out-counts" if command == "synth" else "--out") + 1])
    assert run(first) == 0 and manifest.exists()

    def fail(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(cli, "write_manifest", fail)
    capsys.readouterr()
    assert run(argv("6", "0.3")) == 1
    assert capsys.readouterr().err == "error: no space left on device\n"
    assert not manifest.exists()  # the outputs are the second run's, and no manifest says they are the first's


@pytest.mark.parametrize("command, writer, missing", [
    ("synth", "write_households_csv", "h.csv"),
    ("release", "write_private_counts_csv", "r.csv.private-counts.csv"),
])
def test_a_run_that_fails_after_its_first_output_leaves_no_later_output_of_the_run_before(
    tmp_path, monkeypatch, capsys, command, writer, missing
):
    counts, households = make_inputs(tmp_path)
    c, h, r = (tmp_path / name for name in ("c.csv", "h.csv", "r.csv"))
    synth = ["synth", "--households", "100:5000", "--out-counts", str(c), "--out-households", str(h)]
    release = ["release", "--counts", str(counts), "--households", str(households), "--out", str(r)]
    first, second, reader = {  # the reader would take the second run's first output with the first run's second
        "synth": ([*synth, "--zones", "20", "--seed", "7"], [*synth, "--zones", "30", "--seed", "4"],
                  ["release", "--counts", str(c), "--households", str(h), "--seed", "5", "--out", str(r)]),
        "release": ([*release, "--seed", "5", "--epsilon", "0.1"], [*release, "--seed", "6", "--epsilon", "0.3"],
                    ["simulate-error", "--release", str(r), "--households", str(households), "--epsilon", "0.3",
                     "--k", "5", "--seed", "1", "--out", str(tmp_path / "f.csv")]),
    }[command]
    assert run(first) == 0 and (tmp_path / missing).exists()

    def fail(*args, **kwargs):
        raise OSError("no space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(io, writer, fail)
        assert run(second) == 1
    assert not (tmp_path / missing).exists()
    capsys.readouterr()
    assert run(reader) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{tmp_path / missing}'\n"


@pytest.mark.parametrize("case", [
    "release into a directory",
    "simulate-error into a directory",
    "summarize into a directory",
    "synth households without a directory",
    "synth one file twice",
    "synth households onto the manifest",
])
def test_every_writing_command_refuses_an_unwritable_output_first(tmp_path, capsys, case):
    counts, households = make_inputs(tmp_path, zones=3)
    release = ["release", "--counts", str(counts), "--households", str(households), "--seed", "42",
               "--journal", str(tmp_path / "journal.tsv"), "--budget", "1"]
    released = tmp_path / "released.csv"
    assert run([*release, "--out", str(released)]) == 0
    directory = tmp_path / "outdir"
    directory.mkdir()
    synth = ["synth", "--zones", "3", "--seed", "1", "--out-counts", str(tmp_path / "c.csv"), "--out-households"]
    argv, refused = {
        "release into a directory": ([*release, "--out", str(directory)], directory),
        "simulate-error into a directory": (["simulate-error", "--release", str(released), "--households",
                                             str(households), "--k", "5", "--seed", "1", "--out", str(directory)],
                                            directory),
        "summarize into a directory": (["summarize", "--in", str(released), "--households", str(households),
                                        "--out", str(directory)], directory),
        "synth households without a directory": ([*synth, str(tmp_path / "nodir" / "h.csv")],
                                                 tmp_path / "nodir" / "h.csv"),
        "synth one file twice": ([*synth, str(tmp_path / "c.csv")], tmp_path / "c.csv"),
        "synth households onto the manifest": ([*synth, str(tmp_path / "c.csv.manifest.json")],
                                               tmp_path / "c.csv.manifest.json"),
    }[case]

    def state():
        return {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")}

    before = state()
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert str(refused) in err and ".tmp" not in err
    assert state() == before  # nothing written, the journal's bytes included


def test_an_output_whose_temporary_file_cannot_be_created_is_refused_before_the_charge(tmp_path, capsys):
    counts, households = make_inputs(tmp_path, zones=50)
    journal = tmp_path / "journal.tsv"
    base = ["release", "--counts", str(counts), "--households", str(households), "--seed", "42",
            "--journal", str(journal), "--budget", "1"]
    assert run([*base, "--out", str(tmp_path / "r1.csv")]) == 0
    # the sidecar's name fits in 255 bytes, but not with ".<pid>.tmp" after it
    out = tmp_path / ("r" * 230 + ".csv")
    before = _tree(tmp_path)
    capsys.readouterr()
    assert run([*base, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {io.private_counts_path(out)}: ")
    assert len(err.strip().splitlines()) == 1 and ".tmp" not in err
    assert _tree(tmp_path) == before  # no charge, no output


@pytest.mark.parametrize("budget", ["garbage", "0", "-1", "nan"])
def test_a_malformed_budget_is_refused_before_the_journal_is_created(tmp_path, capsys, budget):
    counts, households = make_inputs(tmp_path, zones=3)
    journal = tmp_path / "journal.tsv"
    before = _tree(tmp_path)
    capsys.readouterr()
    assert run(["release", "--counts", str(counts), "--households", str(households), "--seed", "42",
                "--out", str(tmp_path / "r.csv"), "--journal", str(journal), "--budget", budget]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert _tree(tmp_path) == before  # no journal file and no output


def test_release_names_a_malformed_budget_as_the_budget(tmp_path, capsys):
    counts, households = make_inputs(tmp_path, zones=3)
    before = _tree(tmp_path)
    capsys.readouterr()
    assert run(["release", "--counts", str(counts), "--households", str(households), "--seed", "42",
                "--out", str(tmp_path / "r.csv"), "--journal", str(tmp_path / "j.tsv"), "--budget", "abc"]) == 1
    assert capsys.readouterr().err == "error: --budget must be a positive finite decimal, got 'abc'\n"
    assert _tree(tmp_path) == before


def test_budget_names_a_malformed_budget_before_reading_the_journal(tmp_path, capsys):
    journal = tmp_path / "j.tsv"
    journal.write_text("not a journal line\n")
    assert run(["budget", "--journal", str(journal), "--budget", "-1"]) == 1
    assert capsys.readouterr().err == "error: --budget must be a positive finite decimal, got '-1'\n"


def test_release_names_a_malformed_epsilon_as_the_epsilon(tmp_path, capsys):
    counts, households = make_inputs(tmp_path, zones=3)
    before = _tree(tmp_path)
    capsys.readouterr()
    assert run(["release", "--counts", str(counts), "--households", str(households), "--seed", "42",
                "--epsilon", "abc", "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err == "error: --epsilon must be a positive finite decimal, got 'abc'\n"
    assert _tree(tmp_path) == before


def test_simulate_error_names_a_malformed_epsilon_as_the_epsilon(tmp_path, capsys):
    households, released = _three_zone_release(tmp_path)
    final = tmp_path / "final.csv"
    capsys.readouterr()
    assert run(["simulate-error", "--release", str(released), "--households", str(households),
                "--epsilon", "-1", "--k", "10", "--seed", "42", "--out", str(final)]) == 1
    assert capsys.readouterr().err == "error: --epsilon must be a positive finite decimal, got '-1'\n"
    assert not final.exists()


@pytest.mark.parametrize("epsilon,message", [
    ("abc", "--epsilon must be a positive finite decimal, got 'abc'"),
    ("1e-320", "--epsilon 1e-320: noise scale 1.0 / 1e-320 is not finite"),  # 1 / 1e-320 is inf
    ("1e-308", "--epsilon 1e-308: noise scale 1e+308 can overflow a noisy count"),
], ids=["malformed", "noise scale overflows", "noise overflows"])
def test_simulate_error_parses_the_epsilon_before_it_reads_anything(tmp_path, capsys, epsilon, message):
    # no input exists: a malformed epsilon is refused before the first read
    missing = tmp_path / "missing.csv"
    final = tmp_path / "final.csv"
    assert run(["simulate-error", "--release", str(missing), "--households", str(tmp_path / "households.csv"),
                "--epsilon", epsilon, "--k", "10", "--seed", "42", "--out", str(final)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("link", ["symlink", "hard link"])
def test_an_output_that_is_a_link_to_an_input_is_refused(tmp_path, capsys, link):
    counts, households = make_inputs(tmp_path, zones=5)
    out = tmp_path / "released.csv"
    if link == "symlink":
        out.symlink_to(counts)
    else:
        out.hardlink_to(counts)
    before = _tree(tmp_path)
    capsys.readouterr()
    assert run(["release", "--counts", str(counts), "--households", str(households), "--seed", "1",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: output {out} would overwrite the input {counts}\n"
    assert _tree(tmp_path) == before  # nothing written through the link


def _release_with_partial_households(tmp_path):
    """A 12-zone release, and a households file that lacks its last three zones."""
    counts, households = make_inputs(tmp_path, zones=12)
    released = tmp_path / "released.csv"
    assert run(["release", "--counts", str(counts), "--households", str(households), "--seed", "42",
                "--out", str(released)]) == 0
    lines = households.read_text(encoding="utf-8").splitlines(keepends=True)
    partial = tmp_path / "partial.csv"
    partial.write_text("".join(lines[:-3]), encoding="utf-8")
    return released, partial


def test_summarize_leaves_zones_without_a_household_figure_out_of_every_bucket(tmp_path, capsys):
    released, partial = _release_with_partial_households(tmp_path)
    buckets = tmp_path / "buckets.csv"
    capsys.readouterr()
    assert run(["summarize", "--in", str(released), "--households", str(partial), "--out", str(buckets)]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert warnings == ["warning: 3 zone(s) have no household figure and were not bucketed: 00010, 00011, 00012"]
    zones = [int(row.split(",")[2]) for row in buckets.read_text(encoding="utf-8").splitlines()[1:]]
    assert sum(zones) == 9


def test_a_refused_summarize_prints_one_line_even_with_zones_missing(tmp_path, capsys):
    released, partial = _release_with_partial_households(tmp_path)
    buckets = tmp_path / "buckets.csv"
    capsys.readouterr()
    assert run(["summarize", "--in", str(released), "--households", str(partial), "--thresholds", "100,10",
                "--out", str(buckets)]) == 1
    assert capsys.readouterr().err == "error: thresholds must be strictly ascending, got [100, 10]\n"
    assert not buckets.exists()


def test_running_out_of_memory_is_a_one_line_error(tmp_path, monkeypatch, capsys):
    households, released = _three_zone_release(tmp_path)

    def exhausted(*args):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    monkeypatch.setattr(cli, "error_reports_for_release", exhausted)
    final = tmp_path / "final.csv"
    capsys.readouterr()
    assert run(["simulate-error", "--release", str(released), "--households", str(households),
                "--k", "10", "--seed", "42", "--out", str(final)]) == 1
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 72.8 TiB for an array\n"
    assert not final.exists()


def test_budget_names_a_journal_that_is_not_utf8(tmp_path, capsys):
    journal = tmp_path / "journal.tsv"
    journal.write_bytes(b"2024-01-01T00:00:00+00:00\trelease\t0.2\n\xff\xfe\n")
    capsys.readouterr()
    assert run(["budget", "--journal", str(journal), "--budget", "1"]) == 1
    assert capsys.readouterr().err == f"error: {journal}: not UTF-8 text\n"


def test_release_warns_once_for_zones_without_a_household_figure(tmp_path, capsys):
    counts, households = make_inputs(tmp_path, zones=1010)
    header, *rows = households.read_text(encoding="utf-8").splitlines(keepends=True)
    partial = tmp_path / "partial.csv"
    partial.write_text(header + "".join(rows[1000:]), encoding="utf-8")  # zones 00001-01000 lack a figure
    capsys.readouterr()
    assert run(["release", "--counts", str(counts), "--households", str(partial), "--seed", "42",
                "--out", str(tmp_path / "released.csv")]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert len(warnings) == 1
    (warning,) = warnings
    assert "1000 zone(s)" in warning and "00006" not in warning and warning.endswith(", ...")
    assert warning == ("warning: 1000 zone(s) have no household figure and are released with UNDEFINED coverage: "
                       "00001, 00002, 00003, 00004, 00005, ...")


def test_release_publishes_zones_without_a_household_figure_undefined_with_their_noisy_counts(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text(",".join(io.COUNTS_HEADER) + "\n00001,10,20,30,5\n00002,10,20,30,5\n", encoding="utf-8")
    households = tmp_path / "households.csv"
    households.write_text("zip,households\n00001,100\n", encoding="utf-8")
    released = tmp_path / "released.csv"
    capsys.readouterr()
    assert run(["release", "--counts", str(counts), "--households", str(households), "--seed", "7",
                "--out", str(released)]) == 0
    assert "warning: 1 zone(s) have no household figure and are released with UNDEFINED coverage: 00002\n" in (
        capsys.readouterr().err
    )
    rows = list(io.read_release_csv(released))
    assert [row.zone for row in rows] == ["00001", "00002"]  # the zone is reported, not dropped
    assert rows[0].defined and not rows[1].defined
    privs = list(io.read_private_counts_csv(io.private_counts_path(released)))
    assert [priv.zone for priv in privs] == ["00001", "00002"]  # its noisy counts are still published
    assert privs[1].services_dp >= 0.0


def test_simulate_error_refuses_a_sidecar_in_another_zone_order(tmp_path, capsys):
    households, released = _three_zone_release(tmp_path)
    sidecar = io.private_counts_path(released)
    header, first, second, third = sidecar.read_text(encoding="utf-8").splitlines(keepends=True)
    sidecar.write_text(header + first + third + second, encoding="utf-8")
    final = tmp_path / "final.csv"
    capsys.readouterr()
    assert run(["simulate-error", "--release", str(released), "--households", str(households),
                "--k", "10", "--seed", "42", "--out", str(final)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {sidecar} does not list the zones of {released} in its order: they differ on line 3\n"
    assert not final.exists() and not cli._manifest_path(final).exists()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_release_files_do_not_give_back_the_raw_counts(tmp_path):
    # the attacker holds only what the release wrote: its table, sidecar and manifest
    counts, households = make_inputs(tmp_path, zones=200)
    out = tmp_path / "released.csv"
    assert run(["release", "--counts", str(counts), "--households", str(households),
                "--seed", "2", "--out", str(out)]) == 0
    parameters = json.loads(cli._manifest_path(out).read_text())["parameters"]
    privs = io.read_private_counts_csv(io.private_counts_path(out))
    params = LaplaceParams(1.0, float(parameters["epsilon"]))
    raw = io.read_counts_csv(counts)
    unclamped = recovered = 0
    for label in COUNT_LABELS:
        noisy = privs.column(f"{label}_dp")
        eta = laplace_stream(params, parameters["seed"], privs.column("zone"), label)[:, 0]
        unclamped += int((noisy > 0).sum())
        recovered += int(((noisy > 0) & (np.rint(noisy - eta) == raw.column(label))).sum())
    assert recovered < 0.01 * unclamped


def fresh_python(cwd, script, *argv):
    """Run script in a new interpreter that imports this checkout's dpcoverage; fails the test if it fails."""
    path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *argv], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


LIGHT_PATHS = """
import sys

def numpy_free(after):
    assert "numpy" not in sys.modules, f"{after} imported numpy"

import dpcoverage
numpy_free("import dpcoverage")
assert not [name for name in sys.modules if name.startswith("dpcoverage.")], "import dpcoverage loaded a module"
from dpcoverage import cli
from dpcoverage.cli import *  # probes cli.__all__
numpy_free("import dpcoverage.cli")
assert cli.run(["budget", "--journal", "journal.tsv", "--budget", "1"]) == 0
numpy_free("budget")
assert cli.run(["--version"]) == 0
numpy_free("--version")
assert cli.run(["release", "--counts", "c.csv", "--households", "h.csv", "--seed", "-1", "--out", "r.csv"]) == 2
numpy_free("a refused --seed")
"""


def test_budget_version_and_usage_errors_import_no_numpy(tmp_path, capsys):
    # budget reads a text file with decimal arithmetic: it must not pay for numpy's import
    append_journal(tmp_path / "journal.tsv", LedgerEntry("2026-01-01T00:00:00+00:00", "release r.csv", Decimal("0.2")))
    fresh_python(tmp_path, LIGHT_PATHS)


def test_io_does_not_import_errorsim(tmp_path):
    # io holds only the formats: it names errorsim's BucketSummary in an annotation, never imports it
    fresh_python(tmp_path, "import sys, dpcoverage.io; assert 'dpcoverage.errorsim' not in sys.modules")


# the names bench/invoke.py reads from the cli module and wraps, before any command runs
TRACED = ("release_dataset", "error_reports_for_release", "bucket_by_households",
          "load_ledger", "append_journal", "write_manifest")

DIRECT_CALLS = """
import argparse, sys
from dpcoverage import cli

def manifest():
    path = cli.write_manifest(argparse.Namespace(subcommand="release", seed=1), [], ["released.csv"])
    assert path.name == "released.csv.manifest.json"

def names():
    assert all(callable(getattr(cli, name)) for name in sys.argv[1].split(","))

for step in sys.argv[2:]:
    {"manifest": manifest, "names": names}[step]()
"""


@pytest.mark.parametrize("order", [["manifest", "names"], ["names", "manifest"]])
def test_direct_calls_work_in_a_fresh_interpreter(tmp_path, order):
    # no command has run: write_manifest and the traced names must not depend on one having run first
    fresh_python(tmp_path, DIRECT_CALLS, ",".join(TRACED), *order)
    assert json.loads((tmp_path / "released.csv.manifest.json").read_text())["noise_format"] == 2


WRAPPED_RELEASE = """
from dpcoverage import cli, release

calls = []
cli.release_dataset = lambda *args, **kwargs: calls.append(1) or release.release_dataset(*args, **kwargs)
assert cli.run(["release", "--counts", "counts.csv", "--households", "households.csv",
                "--seed", "1", "--out", "r.csv"]) == 0
assert calls == [1]
"""


def test_a_name_wrapped_before_any_command_is_the_one_the_command_calls(tmp_path):
    # the wrapper is set without reading the name first, so the command binds
    # the numpy layers after it, and must keep it
    make_inputs(tmp_path, zones=3)
    fresh_python(tmp_path, WRAPPED_RELEASE)


# every text form of an epsilon the flag takes: repr, every digit written
# out, and exponents with few digits; the exponent is drawn over the whole
# range and, as often, over the last decades of the floats, where a noise
# scale or a draw overflows
_EPSILON_FORMS = [repr, lambda value: format(Decimal(repr(value)), "f"), "{:.2g}".format, "{:.1E}".format]
_EXPONENTS = st.one_of(st.floats(-310, 6), st.floats(-310, -300))
epsilon_texts = st.one_of(
    st.builds(lambda form, exponent: form(10.0**exponent), st.sampled_from(_EPSILON_FORMS), _EXPONENTS),
    st.decimals(min_value="0.001", max_value="10", places=3).map(str),
)


def _accepted_or_refused(argv, journal):
    """The exit status of one in-process command, which exits 0 or prints one error: line and leaves the journal."""
    before = journal.read_bytes() if journal.exists() else None  # a refused first charge leaves no journal
    stderr = StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(StringIO()):
        status = run([str(arg) for arg in argv])
    if status != 0:
        assert status == 1 and stderr.getvalue().startswith("error: ") and stderr.getvalue().count("\n") == 1
        assert (journal.read_bytes() if journal.exists() else None) == before
    return status


@settings(max_examples=30, deadline=None)
@example(zones=[("00001", (1, 2, 3, 4), 5)], round_counts=False, seed=1, budget="1", epsilons=["1e-308"],
         outs=["r{}.csv"] * 3)
@example(zones=[("00001", (1, 2, 3, 4), 5)], round_counts=False, seed=1, budget="1", epsilons=["0.1"],
         outs=["r{}\t.csv"] * 3)
@given(
    zones=st.lists(st.tuples(st.integers(0, 99999).map("{:05d}".format), st.tuples(*[st.integers(0, 2**63 - 1)] * 4),
                             st.one_of(st.none(), st.integers(1, 2**63 - 1))),
                   min_size=1, max_size=5, unique_by=lambda zone: zone[0]),
    round_counts=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
    budget=epsilon_texts,
    epsilons=st.lists(epsilon_texts, min_size=1, max_size=3),
    outs=st.lists(st.sampled_from(["r{}.csv", "r{}\t.csv", "r\n{}.csv"]), min_size=3, max_size=3),
)
def test_every_release_a_command_accepts_writes_what_the_next_command_reads(
    zones, round_counts, seed, budget, epsilons, outs
):
    # each charge is refused before the journal changes, or its release is
    # read by simulate-error and summarize, and the journal spends exactly
    # the charges that exited 0; an --out name with a tab or a newline makes
    # a description the journal refuses; any warning fails the run
    with tempfile.TemporaryDirectory() as directory, warnings.catch_warnings():
        warnings.simplefilter("error")
        work = Path(directory)
        counts, households, journal = work / "counts.csv", work / "households.csv", work / "journal.tsv"
        io.write_counts_csv(counts, [RawZipRecord(zone, *figures) for zone, figures, _ in zones])
        io.write_households_csv(households, [HouseholdRecord(zone, figure) for zone, _, figure in zones
                                             if figure is not None])
        charged = []
        for index, epsilon in enumerate(epsilons):
            out, final = work / outs[index].format(index), work / f"final{index}.csv"
            release = ["release", "--counts", counts, "--households", households, "--epsilon", epsilon,
                       "--seed", seed, "--out", out, "--journal", journal, "--budget", budget]
            if _accepted_or_refused(release + ["--round-counts"] * round_counts, journal) != 0:
                continue
            charged.append(epsilon)
            assert _accepted_or_refused(["simulate-error", "--release", out, "--households", households,
                                         "--epsilon", epsilon, "--k", 3, "--seed", 1, "--out", final], journal) == 0
            assert _accepted_or_refused(["summarize", "--in", final, "--households", households,
                                         "--out", work / f"buckets{index}.csv"], journal) == 0
        spent = total_epsilon(seq(*map(release_query_plan, charged))) if charged else Decimal(0)
        entries = load_journal(journal) if journal.exists() else []
        assert sum((entry.epsilon for entry in entries), Decimal(0)) == spent
