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
- simulate-error --k 200 and summarize on each release;
- a second charge, a third that the budget refuses, and a budget read
  after each charge;
- refusals, compared by exit status and stderr: a counts file with a bad
  field on line 1001, a households file with a repeated zone, summarize
  on a release table with an impossible row, and simulate-error with an
  edited broadband_usage, with the other release's sidecar and with
  --epsilon 0.2.

The script prints the sha256 of every file, of each command's stdout and
stderr, and each exit status, for both trees, and exits 1 if any of them
differ. Journal lines are compared without their timestamps.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUN = "import sys; from dpcoverage.cli import run; sys.exit(run(sys.argv[1:]))"

ZONES = 32653
BUDGET = "0.4"


def _release(seed: int, out: str, *extra: str, counts: str = "counts.csv", households: str = "households.csv") -> list[str]:
    return ["release", "--counts", counts, "--households", households,
            "--epsilon", "0.1", "--seed", str(seed), "--out", out, *extra]


def _charge(seed: int, out: str) -> list[str]:
    return _release(seed, out, "--journal", "journal.tsv", "--budget", BUDGET)


def _simulate(release: str, out: str, *extra: str, epsilon: str = "0.1") -> list[str]:
    return ["simulate-error", "--release", release, "--households", "households.csv",
            "--epsilon", epsilon, "--k", "200", "--seed", "77", "--out", out, *extra]


def _summarize(table: str, out: str) -> list[str]:
    return ["summarize", "--in", table, "--households", "households.csv", "--out", out]


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
    households = (work / "households.csv").read_text(encoding="utf-8")
    (work / "households-repeated.csv").write_text(households + households.splitlines(keepends=True)[500], encoding="utf-8")
    _edit(work / "final.csv", work / "impossible.csv", 1002, 1, "1.500")
    lines = (work / "released.csv").read_text(encoding="utf-8").splitlines()
    defined = next(line for line in range(2, len(lines) + 1) if lines[line - 1].split(",")[1] not in ("", "0.000"))
    _edit(work / "released.csv", work / "edited.csv", defined, 1, "0.000")


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
    ("summarize", _summarize("final.csv", "buckets.csv")),
    ("summarize-rounded", _summarize("rounded-final.csv", "rounded-buckets.csv")),
    ("release-second", _charge(13, "second.csv")),
    ("budget-2", BUDGET_READ),
    ("release-refused", _charge(14, "third.csv")),
    ("budget-3", BUDGET_READ),
    ("write-bad-inputs", _write_bad_inputs),
    ("refused-bad-field", _release(11, "bad.csv", counts="counts-bad.csv")),
    ("refused-repeated-zone", _release(11, "bad.csv", households="households-repeated.csv")),
    ("refused-impossible-row", _summarize("impossible.csv", "bad-buckets.csv")),
    ("refused-edited-coverage", _simulate("edited.csv", "bad.csv", "--private-counts", "released.csv.private-counts.csv")),
    ("refused-other-sidecar", _simulate("released.csv", "bad.csv", "--private-counts", "rounded.csv.private-counts.csv")),
    ("refused-epsilon", _simulate("released.csv", "bad.csv", epsilon="0.2")),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "journal.tsv":  # timestamp TAB description TAB epsilon
        data = b"".join(line.split(b"\t", 1)[-1] for line in data.splitlines(keepends=True))
    return _sha256(data)


def run_pipeline(src: Path, work: Path) -> dict[str, str]:
    """Digest of every file, stdout and stderr, and every exit status, of one tree's pipeline."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    results = {}
    for name, argv in STEPS:
        if callable(argv):
            argv(work)
            continue
        done = subprocess.run([sys.executable, "-c", RUN, *argv], cwd=work, env=env, capture_output=True)
        results[f"{name}: exit status"] = str(done.returncode)
        results[f"{name}: stdout"] = _sha256(done.stdout)
        results[f"{name}: stderr"] = _sha256(done.stderr)
    for path in sorted(work.iterdir()):
        results[path.name] = _file_digest(path)
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/byte_identity.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = map(Path, argv)
    with tempfile.TemporaryDirectory() as directory:
        old_work, new_work = Path(directory, "old"), Path(directory, "new")
        old_work.mkdir()
        new_work.mkdir()
        old, new = run_pipeline(old_src, old_work), run_pipeline(new_src, new_work)
    differ = 0
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, "absent"), new.get(name, "absent")
        verdict = "identical" if a == b else "DIFFERENT"
        differ += a != b
        print(f"{verdict}  {name}  {a}" + ("" if a == b else f"  {b}"))
    print(f"{len(old.keys() | new.keys()) - differ} identical, {differ} different")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
