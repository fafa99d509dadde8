"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_smoke.py

Runs every workload at tiny size, traced and untraced, and shows that
deliberately corrupted outputs are counted as failed operations.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_is_correct_and_reports_every_metric(workload: str, trace: bool) -> None:
    result, info = run.run_workload(workload, 7, 0, trace, shapes=run.TINY_SHAPES)
    assert result["correct"], info["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == wanted
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert all(result["metrics"][name]["unit"] == units[name] for name in wanted)


def _flip_digit(path: Path) -> None:
    data = bytearray(path.read_bytes())
    pos = next(i for i in range(len(data) // 2, len(data)) if chr(data[i]).isdigit())
    data[pos] = ord("7") if data[pos] != ord("7") else ord("3")
    path.write_bytes(bytes(data))


def _wrong_epsilon(path: Path) -> None:
    path.write_text(path.read_text(encoding="utf-8").replace(",0.2\n", ",0.3\n"), encoding="utf-8")


def _shrink_noise(sidecar: Path, counts: Path, factor: float = 0.5) -> None:
    """Pull every noisy count halfway back to its true value."""
    truth = {line.split(",")[0]: line.split(",")[1:] for line in counts.read_text(encoding="utf-8").splitlines()[1:]}
    lines = sidecar.read_text(encoding="utf-8").splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        zone, *noisy, eps = line.split(",")
        shrunk = [repr(max(0.0, int(t) + factor * (float(n) - int(t)))) for t, n in zip(truth[zone], noisy)]
        out.append(",".join([zone, *shrunk, eps]))
    sidecar.write_text("\n".join(out) + "\n", encoding="utf-8")


def _on_pass(index: int, corrupt):
    return lambda pass_index, out: corrupt(out) if pass_index == index else None


CORRUPTIONS = {
    # the repeat pass's table differs by one byte from the first pass's
    "flipped_byte": ("paper_pipeline", _on_pass(1, lambda out: _flip_digit(out / "released.csv")), "repeat pass"),
    "wrong_epsilon": ("paper_pipeline", _on_pass(0, lambda out: _wrong_epsilon(out / "released.csv")),
                      "released.csv epsilon"),
    "shrunken_noise": (
        "paper_pipeline",
        _on_pass(0, lambda out: _shrink_noise(out / "released.csv.private-counts.csv", out.parent / "counts.csv")),
        "privacy guard",
    ),
    "shrunken_noise_in_slices": (
        "journal_slices",
        _on_pass(0, lambda out: [
            _shrink_noise(path, out.parent / "counts.csv") for path in (out / "slices").glob("*.private-counts.csv")
        ]),
        "privacy guard",
    ),
    "overspent_journal": (
        "journal_slices",
        _on_pass(0, lambda out: (out / "journal.tsv").write_text(
            (out / "journal.tsv").read_text(encoding="utf-8").replace("\t0.2\n", "\t0.25\n", 1), encoding="utf-8")),
        "journal spent",
    ),
    "simulate_rewrites_coverage": (
        "paper_pipeline",
        _on_pass(0, lambda out: _flip_digit(out / "final.csv")),
        "repeat pass",
    ),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_output_is_a_failed_operation(case: str) -> None:
    workload, tamper, check = CORRUPTIONS[case]
    result, info = run.run_workload(workload, 7, 0, False, shapes=run.TINY_SHAPES, tamper=tamper)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert check in info["failures"]
    assert result["metrics"]["ok_op_frac"]["value"] < 1


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "paper_pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
