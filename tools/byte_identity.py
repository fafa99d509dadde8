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
  after each charge.

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


def _release(seed: int, out: str, *extra: str) -> list[str]:
    return ["release", "--counts", "counts.csv", "--households", "households.csv",
            "--epsilon", "0.1", "--seed", str(seed), "--out", out, *extra]


def _charge(seed: int, out: str) -> list[str]:
    return _release(seed, out, "--journal", "journal.tsv", "--budget", BUDGET)


def _simulate(release: str, out: str) -> list[str]:
    return ["simulate-error", "--release", release, "--households", "households.csv",
            "--epsilon", "0.1", "--k", "200", "--seed", "77", "--out", out]


def _summarize(table: str, out: str) -> list[str]:
    return ["summarize", "--in", table, "--households", "households.csv", "--out", out]


BUDGET_READ = ["budget", "--journal", "journal.tsv", "--budget", BUDGET]

# (step name, argv); "drop-households" is the one step run in this process
STEPS = [
    ("synth", ["synth", "--zones", str(ZONES), "--seed", "4401",
               "--out-counts", "counts.csv", "--out-households", "households-all.csv"]),
    ("drop-households", None),
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
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _drop_every_50th_household(work: Path) -> None:
    header, *rows = (work / "households-all.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [row for index, row in enumerate(rows, start=1) if index % 50]
    (work / "households.csv").write_text(header + "".join(kept), encoding="utf-8")


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
        if argv is None:
            _drop_every_50th_household(work)
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
