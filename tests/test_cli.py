"""CLI: pipeline wiring, manifests, exit codes, and diagnostics."""

import json
import re
import threading
from decimal import Decimal
from pathlib import Path

import pytest

from dpcoverage import cli, io
from dpcoverage.accountant import load_journal
from dpcoverage.cli import run


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


def test_replaying_a_manifest_reproduces_outputs(tmp_path):
    counts, households = make_inputs(tmp_path, zones=10)
    out = tmp_path / "released.csv"
    argv = ["release", "--counts", str(counts), "--households", str(households),
            "--epsilon", "0.1", "--seed", "42", "--out", str(out)]
    assert run(argv) == 0
    first_out = out.read_bytes()
    first_sidecar = io.private_counts_path(out).read_bytes()
    first_manifest = (tmp_path / "released.csv.manifest.json").read_bytes()

    # rebuild the command line from the manifest alone and rerun
    manifest = json.loads(first_manifest)
    params = manifest["parameters"]
    replay = ["release",
              "--counts", params["counts"],
              "--households", params["households"],
              "--epsilon", params["epsilon"],
              "--seed", str(params["seed"]),
              "--out", params["out"]]
    if params["round_counts"]:
        replay.append("--round-counts")
    assert run(replay) == 0
    assert out.read_bytes() == first_out
    assert io.private_counts_path(out).read_bytes() == first_sidecar
    assert (tmp_path / "released.csv.manifest.json").read_bytes() == first_manifest


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
    path = cli.write_manifest(out, "release", {"seed": 1}, inputs=[], outputs=[str(out)])
    before = path.read_bytes()
    with pytest.raises(TypeError):
        cli.write_manifest(out, "release", {"seed": 1, "bad": object()}, inputs=[], outputs=[str(out)])
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


@pytest.mark.parametrize("edit", ["published coverage", "households lack the zone", "sidecar services zero"])
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


@pytest.mark.parametrize("case", ["no output directory", "epsilon the noise kernel refuses"])
def test_release_refuses_before_charging(tmp_path, capsys, case):
    counts, households = make_inputs(tmp_path, zones=3)
    journal = tmp_path / "journal.tsv"
    base = ["release", "--counts", str(counts), "--households", str(households), "--seed", "42",
            "--journal", str(journal), "--budget", "1"]
    assert run([*base, "--out", str(tmp_path / "r1.csv")]) == 0
    argv = {
        "no output directory": [*base, "--out", str(tmp_path / "nodir" / "r.csv")],
        "epsilon the noise kernel refuses": [*base, "--epsilon", "1e-400", "--out", str(tmp_path / "r.csv")],
    }[case]
    before = _tree(tmp_path)
    capsys.readouterr()
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and len(captured.err.strip().splitlines()) == 1
    assert ".tmp" not in captured.err
    if case == "no output directory":
        assert f"no directory {tmp_path / 'nodir'}" in captured.err
    assert _tree(tmp_path) == before  # the journal's bytes included


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
