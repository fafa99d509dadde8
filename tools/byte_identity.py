"""Run the standard pipeline on two source trees and compare every output byte for byte.

    python3 tools/byte_identity.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the dpcoverage package
(a checkout's src/). Each tree runs the same commands, every one in a
fresh Python process whose PYTHONPATH is that tree, in its own temporary
directory and with the same relative paths, so that file names in
outputs and diagnostics agree:

- synth: 32,653 zones from seed 4401; every 50th household row is then
  dropped, so those zones are released UNDEFINED;
- a release that charges a journal (--journal, --budget 0.4) and a
  --round-counts release;
- simulate-error --k 200 and summarize on each release, and simulate-error
  --k 1000 on the charged release: blocks of 65 zones, run by as many
  worker processes as the machine gives (2 on a 2-CPU host);
- a release without a journal at --epsilon 0.37 and its simulate-error
  --k 200, so that the noise kernel is compared at a scale other than 10;
- summarize on the charged release itself, which has no error columns, so
  every bucket row is ints and empty means, such as 100,1000,3,,,;
- a second charge, a third that the budget refuses, and a budget read
  after each charge;
- refusals, compared by exit status and stderr: counts files with a bad
  field on line 1001, with a short row on line 2001, with a field over
  the csv module's 131,072-character limit on line 3001, and with a
  quoted two-line field on line 101 before that bad field (so the reader
  must name line 1002); households files with a repeated zone, with a
  figure of 2**63 on line 1001 and with a 0xff byte on line 701; summarize
  on a release table with an impossible row; simulate-error with an
  edited broadband_usage, with the other release's sidecar and with
  --epsilon 0.2; and a budget read of a journal whose line 2 has the
  epsilon abc;
- releases from inputs that the readers' plain-text split pass leaves to
  the row-by-row csv.reader, each of which must publish what the plain
  file gives: a households file with CRLF line endings, a counts file
  without a final newline, and a households file whose zones are quoted;
  and a refusal by that reader: the CRLF households file with the figure
  0 on line 1001;
- refusals while the arguments are parsed, and --version: release with
  --seed -1 and with --seed 2**64, budget with --budget 0, and no
  subcommand;
- a 500-zone pipeline whose flags are not the defaults, so that their
  manifests record them: synth with --households, --bce and
  --services-share ranges, a release with --epsilon 1E-1, simulate-error
  with an explicit --private-counts and summarize with --thresholds;
  simulate-error at --k 70000, over BLOCK_TRIALS, so that every block
  is one zone (23 of the 500 zones have trials whose services clamp);
  then summarize with --thresholds 1000,2000, refused because zones of
  that pipeline hold fewer households than the first threshold.

The script prints the sha256 of every file, of each command's stdout and
stderr, and each exit status, for both trees, and exits 1 if any of them
differ. For a stdout or stderr that differs it also prints the first line
that differs, as each tree wrote it, so a deliberate change of a
diagnostic can be read from the output. Journal lines are compared
without their timestamps.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

RUN = "import sys; from dpcoverage.cli import run; sys.exit(run(sys.argv[1:]))"

ZONES = 32653
BUDGET = "0.4"


def _release(seed: int, out: str, *extra: str, counts: str = "counts.csv", households: str = "households.csv",
             epsilon: str = "0.1") -> list[str]:
    return ["release", "--counts", counts, "--households", households,
            "--epsilon", epsilon, "--seed", str(seed), "--out", out, *extra]


def _charge(seed: int, out: str) -> list[str]:
    return _release(seed, out, "--journal", "journal.tsv", "--budget", BUDGET)


def _simulate(release: str, out: str, *extra: str, epsilon: str = "0.1", households: str = "households.csv",
              k: str = "200") -> list[str]:
    return ["simulate-error", "--release", release, "--households", households,
            "--epsilon", epsilon, "--k", k, "--seed", "77", "--out", out, *extra]


def _summarize(table: str, out: str, *extra: str, households: str = "households.csv") -> list[str]:
    return ["summarize", "--in", table, "--households", households, "--out", out, *extra]


def _drop_every_50th_household(work: Path) -> None:
    header, *rows = (work / "households-all.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [row for index, row in enumerate(rows, start=1) if index % 50]
    (work / "households.csv").write_text(header + "".join(kept), encoding="utf-8")


def _edit(source: Path, target: Path, line: int, column: int, text: str) -> None:
    """target is source with one field of one line (1-based) replaced by text."""
    lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[line - 1].rstrip("\n").split(",")
    fields[column] = text
    lines[line - 1] = ",".join(fields) + "\n"
    target.write_text("".join(lines), encoding="utf-8")


def _write_bad_inputs(work: Path) -> None:
    _edit(work / "counts.csv", work / "counts-bad.csv", 1001, 2, "x")
    short = (work / "counts.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    short[2000] = short[2000].rsplit(",", 1)[0] + "\n"
    (work / "counts-short-row.csv").write_text("".join(short), encoding="utf-8")
    _edit(work / "counts.csv", work / "counts-huge-field.csv", 3001, 1, "9" * 200_000)
    _edit(work / "counts-bad.csv", work / "counts-two-line.csv", 101, 1, '"7\n"')
    households = (work / "households.csv").read_text(encoding="utf-8")
    (work / "households-repeated.csv").write_text(households + households.splitlines(keepends=True)[500], encoding="utf-8")
    _edit(work / "households.csv", work / "households-2-63.csv", 1001, 1, str(1 << 63))
    rows = households.encode("utf-8").splitlines(keepends=True)
    rows[700] = rows[700].replace(b",", b"\xff,")
    (work / "households-not-utf-8.csv").write_bytes(b"".join(rows))
    (work / "journal-bad-epsilon.tsv").write_text(
        "2026-01-01T00:00:00+00:00\trelease a.csv\t0.2\n2026-01-02T00:00:00+00:00\trelease b.csv\tabc\n",
        encoding="utf-8")
    _edit(work / "final.csv", work / "impossible.csv", 1002, 1, "1.500")
    lines = (work / "released.csv").read_text(encoding="utf-8").splitlines()
    defined = next(line for line in range(2, len(lines) + 1) if lines[line - 1].split(",")[1] not in ("", "0.000"))
    _edit(work / "released.csv", work / "edited.csv", defined, 1, "0.000")


def _write_csv_reader_inputs(work: Path) -> None:
    """Inputs that are not plain text, all good but one: the readers parse them row by row with csv.reader."""
    households = (work / "households.csv").read_bytes()
    crlf = households.replace(b"\n", b"\r\n")
    (work / "households-crlf.csv").write_bytes(crlf)
    rows = crlf.splitlines(keepends=True)
    rows[1000] = rows[1000].split(b",")[0] + b",0\r\n"
    (work / "households-crlf-zero.csv").write_bytes(b"".join(rows))
    (work / "counts-no-final-newline.csv").write_bytes((work / "counts.csv").read_bytes()[:-1])
    header, *rows = households.splitlines(keepends=True)
    quoted = (b'"%s",%s' % tuple(row.split(b",", 1)) for row in rows)
    (work / "households-quoted.csv").write_bytes(header + b"".join(quoted))


BUDGET_READ = ["budget", "--journal", "journal.tsv", "--budget", BUDGET]

# (step name, argv), or (step name, function of the work directory) for a step run in this process
STEPS = [
    ("synth", ["synth", "--zones", str(ZONES), "--seed", "4401",
               "--out-counts", "counts.csv", "--out-households", "households-all.csv"]),
    ("drop-households", _drop_every_50th_household),
    ("release", _charge(11, "released.csv")),
    ("budget-1", BUDGET_READ),
    ("release-rounded", _release(12, "rounded.csv", "--round-counts")),
    ("simulate", _simulate("released.csv", "final.csv")),
    ("simulate-rounded", _simulate("rounded.csv", "rounded-final.csv")),
    ("simulate-k1000", _simulate("released.csv", "final-k1000.csv", k="1000")),
    ("release-epsilon-0.37", _release(16, "eps037.csv", epsilon="0.37")),
    ("simulate-epsilon-0.37", _simulate("eps037.csv", "eps037-final.csv", epsilon="0.37")),
    ("summarize", _summarize("final.csv", "buckets.csv")),
    ("summarize-rounded", _summarize("rounded-final.csv", "rounded-buckets.csv")),
    ("summarize-release", _summarize("released.csv", "release-buckets.csv")),
    ("release-second", _charge(13, "second.csv")),
    ("budget-2", BUDGET_READ),
    ("release-refused", _charge(14, "third.csv")),
    ("budget-3", BUDGET_READ),
    ("write-bad-inputs", _write_bad_inputs),
    ("refused-bad-field", _release(11, "bad.csv", counts="counts-bad.csv")),
    ("refused-short-row", _release(11, "bad.csv", counts="counts-short-row.csv")),
    ("refused-huge-field", _release(11, "bad.csv", counts="counts-huge-field.csv")),
    ("refused-two-line-field", _release(11, "bad.csv", counts="counts-two-line.csv")),
    ("refused-repeated-zone", _release(11, "bad.csv", households="households-repeated.csv")),
    ("refused-households-2-63", _release(11, "bad.csv", households="households-2-63.csv")),
    ("refused-households-not-utf-8", _release(11, "bad.csv", households="households-not-utf-8.csv")),
    ("refused-journal-epsilon", ["budget", "--journal", "journal-bad-epsilon.tsv", "--budget", BUDGET]),
    ("refused-impossible-row", _summarize("impossible.csv", "bad-buckets.csv")),
    ("refused-edited-coverage", _simulate("edited.csv", "bad.csv", "--private-counts", "released.csv.private-counts.csv")),
    ("refused-other-sidecar", _simulate("released.csv", "bad.csv", "--private-counts", "rounded.csv.private-counts.csv")),
    ("refused-epsilon", _simulate("released.csv", "bad.csv", epsilon="0.2")),
    ("write-csv-reader-inputs", _write_csv_reader_inputs),
    ("release-crlf-households", _release(11, "crlf.csv", households="households-crlf.csv")),
    ("release-counts-no-final-newline", _release(11, "no-final-newline.csv", counts="counts-no-final-newline.csv")),
    ("release-quoted-zones", _release(11, "quoted.csv", households="households-quoted.csv")),
    ("refused-crlf-households-zero", _release(11, "bad.csv", households="households-crlf-zero.csv")),
    ("refused-negative-seed", _release(-1, "bad.csv")),
    ("refused-seed-over-64-bits", _release(1 << 64, "bad.csv")),
    ("refused-zero-budget", ["budget", "--journal", "journal.tsv", "--budget", "0"]),
    ("version", ["--version"]),
    ("refused-no-subcommand", []),
    ("synth-flags", ["synth", "--zones", "500", "--households", "20:3000", "--bce", "0.3:0.7",
                     "--services-share", "0.6:0.8", "--seed", "4402",
                     "--out-counts", "flags-counts.csv", "--out-households", "flags-households.csv"]),
    ("release-flags", _release(15, "flags.csv", counts="flags-counts.csv", households="flags-households.csv",
                               epsilon="1E-1")),
    ("simulate-flags", _simulate("flags.csv", "flags-final.csv", "--private-counts", "flags.csv.private-counts.csv",
                                 households="flags-households.csv")),
    ("simulate-flags-k70000", _simulate("flags.csv", "flags-k70000.csv", households="flags-households.csv",
                                        k="70000")),
    ("summarize-flags", _summarize("flags-final.csv", "flags-buckets.csv", "--thresholds", "0,500,2000",
                                   households="flags-households.csv")),
    ("refused-below-threshold", _summarize("flags-final.csv", "bad-buckets.csv", "--thresholds", "1000,2000",
                                           households="flags-households.csv")),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "journal.tsv":  # timestamp TAB description TAB epsilon
        data = b"".join(line.split(b"\t", 1)[-1] for line in data.splitlines(keepends=True))
    return _sha256(data)


def run_pipeline(src: Path, work: Path) -> tuple[dict[str, str], dict[str, bytes]]:
    """Digest of every file, stdout and stderr, and every exit status, of one tree's pipeline, and each stream."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    results, streams = {}, {}
    for name, argv in STEPS:
        if callable(argv):
            argv(work)
            continue
        done = subprocess.run([sys.executable, "-c", RUN, *argv], cwd=work, env=env, capture_output=True)
        results[f"{name}: exit status"] = str(done.returncode)
        streams[f"{name}: stdout"], streams[f"{name}: stderr"] = done.stdout, done.stderr
    results.update((key, _sha256(data)) for key, data in streams.items())
    for path in sorted(work.iterdir()):
        results[path.name] = _file_digest(path)
    return results, streams


def _first_differing_lines(a: bytes, b: bytes) -> tuple[str, str]:
    """The first line on which two streams differ, from each; "(none)" past a stream's end."""
    for x, y in zip_longest(a.splitlines(), b.splitlines()):
        if x != y:
            return tuple("(none)" if line is None else repr(line.decode("utf-8", "replace")) for line in (x, y))
    return "(none)", "(none)"  # they differ only in a final newline


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/byte_identity.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = map(Path, argv)
    with tempfile.TemporaryDirectory() as directory:
        old_work, new_work = Path(directory, "old"), Path(directory, "new")
        old_work.mkdir()
        new_work.mkdir()
        (old, old_streams), (new, new_streams) = run_pipeline(old_src, old_work), run_pipeline(new_src, new_work)
    differ = 0
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, "absent"), new.get(name, "absent")
        verdict = "identical" if a == b else "DIFFERENT"
        differ += a != b
        print(f"{verdict}  {name}  {a}" + ("" if a == b else f"  {b}"))
        if a != b and name in old_streams and name in new_streams:
            old_line, new_line = _first_differing_lines(old_streams[name], new_streams[name])
            print(f"    old: {old_line}\n    new: {new_line}")
    print(f"{len(old.keys() | new.keys()) - differ} identical, {differ} different")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
