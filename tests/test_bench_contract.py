"""The benchmark's tracing contract: bench/invoke.py still measures every layer.

bench/invoke.py wraps, by name and from outside the program, the functions
the CLI calls in each layer. A renamed or reshaped function would break
those spans silently, so this runs a small pipeline through the wrapper,
one fresh process per command as the benchmark does, and checks the spans.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from dpcoverage import io
from dpcoverage.synth import SynthSpec, generate

ROOT = Path(__file__).resolve().parent.parent
K = 10


def invoke(workdir: Path, name: str, *argv: str) -> list[dict]:
    """Run one dpcoverage command under bench/invoke.py and return the spans it recorded."""
    spans = workdir / f"{name}.spans.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")  # leave no bytecode under bench/
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "invoke.py"), "--spans", str(spans), "--", *argv],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(spans.read_text(encoding="utf-8"))


def named(spans: list[dict], name: str) -> list[dict]:
    chosen = [span for span in spans if span["name"] == name]
    assert chosen, f"no {name} span in {sorted({span['name'] for span in spans})}"
    return chosen


def test_invoke_records_every_layer(tmp_path):
    counts, households = generate(SynthSpec(30, (50, 5000), (0.1, 0.95), (0.5, 0.9), seed=5))
    io.write_counts_csv(tmp_path / "counts.csv", counts)
    io.write_households_csv(tmp_path / "households.csv", households[3:])  # three zones UNDEFINED

    release = invoke(tmp_path, "release", "release", "--counts", "counts.csv", "--households", "households.csv",
                     "--seed", "5", "--out", "released.csv", "--journal", "journal.tsv", "--budget", "1")
    simulate = invoke(tmp_path, "simulate", "simulate-error", "--release", "released.csv",
                      "--households", "households.csv", "--k", str(K), "--seed", "5", "--out", "final.csv")
    summary = invoke(tmp_path, "summarize", "summarize", "--in", "final.csv", "--households", "households.csv",
                     "--out", "buckets.csv")
    budget = invoke(tmp_path, "budget", "budget", "--journal", "journal.tsv", "--budget", "1")

    [dataset] = named(release, "release.release_dataset")
    assert dataset["counters"]["zones"] == 30
    assert dataset["counters"]["noise_s"] > 0 and dataset["counters"]["fold_s"] > 0
    for name in ("accountant.load_ledger", "accountant.charge", "accountant.append_journal"):
        named(release, name)

    defined = sum(row.defined for row in io.read_release_csv(tmp_path / "released.csv"))
    assert 0 < defined <= 27
    [reports] = named(simulate, "errorsim.error_reports")
    assert reports["counters"]["trials"] == defined * K
    assert reports["counters"]["noise_s"] > 0
    named(summary, "errorsim.bucket")
    [ledger] = named(budget, "accountant.load_ledger")  # budget loads no numpy layer, yet is traced
    assert ledger["counters"]["entries"] == 1

    for spans in (release, simulate, summary):
        assert all(span["counters"]["bytes"] > 0 for span in named(spans, "io.read") + named(spans, "io.write"))
        named(spans, "cli.manifest")
