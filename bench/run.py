"""End-to-end benchmark of the dpcoverage CLI on seeded paper-scale workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ./src.
Inputs are generated from --seed with dpcoverage.synth and written to
files under .bench_work/; the program only ever sees those files. Every
timed command is a fresh `dpcoverage` process started through
bench/invoke.py, as an operator would run it.

Workloads (shapes in SHAPES; bench/README.md says why each was chosen):

  paper_pipeline  the paper's pipeline at national scale: `release` of
                  32,653 zones at per-query epsilon 0.1, k = 0, charged once
                  against a budget journal; then `simulate-error --k 1000`
                  and `summarize` on that release.
  journal_slices  50 releases of disjoint 100-zone slices charging one
                  journal, a `budget` read after each, and one last release
                  that the exhausted budget must refuse.

In each workload about 2% of zones (seeded) have no household row.

A run sets up SETUP_REPEATS times, then repeats the workload's timed pass
for about --seconds (and at least MIN_PASSES times), and checks every
output. Each CLI invocation and each output check is one operation;
one that fails is counted in "failed". The last line of stdout is the
result JSON; the line before it holds the environment and the workload
shape. With --trace 1 the run makes one untraced and one traced pass,
replays the mechanism and accountant work in this process, and reports
the per-layer metrics instead; the spans go to .bench_work/trace-*.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Callable

from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

EPSILON = Decimal("0.1")  # per-query epsilon of every release
RELEASE_EPSILON = 2 * EPSILON  # SEQ(PAR(low, high), PAR(services, non_services))
NOISE_SCALE = 1 / float(EPSILON)  # Laplace scale of each count (sensitivity 1)
COUNT_LABELS = ("low_speed", "high_speed", "services", "non_services")
SIMULATED_LABELS = ("high_speed", "services", "non_services")
RELEASE_HEADER = ["zip", "broadband_usage", "broadband_usage_raw", "error_mae", "error_msd", "error_p95", "epsilon"]
SIDECAR_HEADER = ["zip", "low_speed_dp", "high_speed_dp", "services_dp", "non_services_dp", "epsilon"]

# Privacy guard: over counts at least GUARD_MIN_SCALES noise scales above
# zero (so clamping never happens), mean |noisy - true| / scale must lie
# within GUARD_SIGMAS standard errors (1 / sqrt(n)) of 1, the mean of
# |Laplace(1)|. A noise path that shrinks or inflates the noise fails.
GUARD_MIN_SCALES = 40
GUARD_SIGMAS = 6

# On a shared host the CPU's speed swings by up to 2x over seconds to
# minutes as other tenants load it. So a run repeats the timed pass for
# --seconds (about 17 s a pass on paper_pipeline, 25-30 s on
# journal_slices) and reports the median pass; the shortest pass varied
# more between runs. The set-up takes under half a second; setup_s is the
# median of five.
SETUP_REPEATS = {"paper_pipeline": 5, "journal_slices": 5}
MIN_PASSES = {"paper_pipeline": 2, "journal_slices": 1}


@dataclass(frozen=True)
class Shape:
    """Size of one workload; slices are for journal_slices only."""

    zones: int
    missing_share: float  # share of zones with no household row
    k: int = 0  # error-simulation trials per zone
    slices: int = 0  # releases that spend the budget exactly
    slice_zones: int = 0


SHAPES = {
    "paper_pipeline": Shape(32653, 0.02, k=1000),
    "journal_slices": Shape(32653, 0.02, slices=50, slice_zones=100),
}
# Same workloads at a size that runs in seconds, for the smoke test.
TINY_SHAPES = {
    "paper_pipeline": Shape(300, 0.02, k=20),
    "journal_slices": Shape(300, 0.02, slices=5, slice_zones=20),
}


class CheckFailed(Exception):
    """An output check found a wrong output."""


class Ops:
    """Operations attempted and failed; an operation is an invocation or a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
            print(f"bench: FAILED {name}: {detail}", file=sys.stderr)

    def check(self, name: str, fn: Callable[[], None]) -> None:
        # A check is a boundary that must keep running: whatever a wrong
        # or missing output makes it raise is one failed operation.
        try:
            fn()
        except Exception as exc:  # noqa: BLE001
            self.record(name, False, f"{type(exc).__name__}: {exc}")
        else:
            self.record(name, True)


@dataclass
class Invocation:
    status: int
    wall_s: float
    rss_mb: float
    stdout: str
    span: dict


class Runner:
    """Starts CLI processes one at a time and waits for each to end."""

    def __init__(self, tracer: Tracer, ops: Ops) -> None:
        self.tracer = tracer
        self.ops = ops
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def invoke(self, args: list[str], cwd: Path, *, expect: int = 0, traced: bool = False) -> Invocation:
        cmd = [sys.executable, str(BENCH / "invoke.py")]
        spans = cwd / f".spans-{len(self.tracer.spans)}.json"
        if traced:
            cmd += ["--spans", str(spans)]
        cmd += ["--", *args]
        with open(cwd / "stderr.log", "ab") as err, self.tracer.span("invocation", command=args[0]) as span:
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=subprocess.PIPE, stderr=err)
            try:
                out = proc.stdout.read()
                _, wait_status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                proc.stdout.close()
            proc.returncode = os.waitstatus_to_exitcode(wait_status)
        inv = Invocation(
            status=proc.returncode,
            wall_s=span["end"] - span["start"],
            rss_mb=usage.ru_maxrss / 1024,  # KiB on Linux
            stdout=out.decode("utf-8", "replace"),
            span=span,
        )
        self.ops.record(f"{args[0]} exits {expect}", inv.status == expect, f"exit {inv.status} in {cwd}")
        if traced and spans.exists():
            self.tracer.adopt(json.loads(spans.read_text(encoding="utf-8")), span["id"])
            spans.unlink()
        return inv


@dataclass
class Inputs:
    """Generated files plus the ground truth the checks compare against."""

    work: Path
    counts: dict[str, tuple[int, int, int, int]]  # zone -> true counts, input order
    households: dict[str, int]  # zones that kept their household row
    slices: list[list[str]]  # zone lists; the last one is refused for lack of budget

    def simulated(self, release: Path) -> list[str]:
        """Zones simulate-error draws trials for: a household row and noisy services > 0."""
        noisy = read_table(sidecar_path(release), SIDECAR_HEADER)
        return [z for z in self.counts if z in self.households and float(noisy[z][3]) > 0]

    def truth(self, zone: str) -> float:
        _, high, services, non_services = self.counts[zone]
        raw = high * (services + non_services) / (services * self.households[zone])
        return min(1.0, max(0.0, raw))


def set_up(work: Path, shape: Shape, seed: int, tracer: Tracer) -> Inputs:
    """Synthesize counts and households, drop a seeded share of household rows, cut slices."""
    import numpy as np

    from dpcoverage import io
    from dpcoverage.synth import SynthSpec, generate

    work.mkdir(parents=True, exist_ok=True)
    spec = SynthSpec(
        zone_count=shape.zones,
        household_range=(50, 200000),
        coverage_range=(0.1, 0.95),
        services_share_range=(0.5, 0.9),
        seed=seed,
    )
    with tracer.span("synth.generate"):
        counts, households = generate(spec)
    rng = np.random.default_rng([seed, 1])
    dropped = set(rng.choice(shape.zones, size=round(shape.missing_share * shape.zones), replace=False).tolist())
    kept = [h for i, h in enumerate(households) if i not in dropped]
    order = rng.permutation(shape.zones)
    size = shape.slice_zones
    cuts = [sorted(order[i * size : (i + 1) * size].tolist()) for i in range(shape.slices + 1)] if shape.slices else []
    slices = [[counts[i].zone for i in cut] for cut in cuts]
    with tracer.span("synth.write"):
        io.write_counts_csv(work / "counts.csv", counts)
        io.write_households_csv(work / "households.csv", kept)
        for n, cut in enumerate(cuts):
            io.write_counts_csv(work / f"slice_{n:02d}.csv", [counts[i] for i in cut])
    return Inputs(
        work=work,
        counts={r.zone: (r.low_speed, r.high_speed, r.services, r.non_services) for r in counts},
        households={h.zone: h.households for h in kept},
        slices=slices,
    )


def release_args(counts: str, households: str, seed: int, out: str) -> list[str]:
    return ["release", "--counts", counts, "--households", households,
            "--epsilon", str(EPSILON), "--seed", str(seed), "--out", out]


# ---------------------------------------------------------------- checks


def read_table(path: Path, header: list[str]) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or rows[0] != header:
        raise CheckFailed(f"{path.name}: header {rows[:1]}")
    table = {row[0]: row for row in rows[1:]}
    if len(table) != len(rows) - 1 or any(len(row) != len(header) for row in rows[1:]):
        raise CheckFailed(f"{path.name}: duplicate zones or short rows")
    return table


def sidecar_path(release: Path) -> Path:
    return release.with_name(release.name + ".private-counts.csv")


def check_release(ops: Ops, path: Path, zones: list[str], inputs: Inputs, *, errors: bool = False) -> None:
    """Row/zone set, coverage range and UNDEFINED causes, exact epsilon, error columns."""
    name = path.name

    def rows() -> None:
        table = read_table(path, RELEASE_HEADER)
        if len(table) != len(zones) or set(table) != set(zones):
            raise CheckFailed(f"{len(table)} rows for {len(zones)} input zones, or another zone set")

    def coverage() -> None:
        table = read_table(path, RELEASE_HEADER)
        noisy = read_table(sidecar_path(path), SIDECAR_HEADER) if not errors else None
        for zone, row in table.items():
            defined = row[1] != ""
            if defined != (row[2] != "") or (defined and not 0.0 <= float(row[1]) <= 1.0):
                raise CheckFailed(f"zone {zone}: broadband_usage {row[1]!r} raw {row[2]!r}")
            if zone not in inputs.households and defined:
                raise CheckFailed(f"zone {zone} has no household row but a coverage")
            if noisy is not None and defined != (zone in inputs.households and float(noisy[zone][3]) > 0):
                raise CheckFailed(f"zone {zone}: UNDEFINED does not match its cause")
            if errors and defined != (row[3] != ""):
                raise CheckFailed(f"zone {zone}: error columns do not match whether coverage is defined")
            if errors and row[3] != "" and not (float(row[3]) >= 0 and float(row[5]) >= 0):
                raise CheckFailed(f"zone {zone}: negative error statistic")

    def epsilon() -> None:
        cells = [row[6] for row in read_table(path, RELEASE_HEADER).values()]
        if not errors:
            cells += [row[5] for row in read_table(sidecar_path(path), SIDECAR_HEADER).values()]
        wrong = [cell for cell in cells if Decimal(cell) != RELEASE_EPSILON]
        if wrong:
            raise CheckFailed(f"{len(wrong)} epsilon cells differ from {RELEASE_EPSILON}, e.g. {wrong[0]!r}")

    ops.check(f"{name} rows", rows)
    ops.check(f"{name} coverage", coverage)
    ops.check(f"{name} epsilon", epsilon)


def check_noise(ops: Ops, releases: list[Path], inputs: Inputs) -> None:
    """Privacy guard on the private-counts sidecars of these releases."""

    def guard() -> None:
        deviations = []
        for release in releases:
            for zone, row in read_table(sidecar_path(release), SIDECAR_HEADER).items():
                for true, noisy in zip(inputs.counts[zone], row[1:5]):
                    if true >= GUARD_MIN_SCALES * NOISE_SCALE:
                        deviations.append(abs(float(noisy) - true) / NOISE_SCALE)
        if not deviations:
            raise CheckFailed("no count is far enough from zero to test")
        mean = statistics.fmean(deviations)
        tolerance = GUARD_SIGMAS / math.sqrt(len(deviations))
        if abs(mean - 1.0) > tolerance:
            raise CheckFailed(f"mean |noise| is {mean:.4f} scales over {len(deviations)} counts, want 1 +- {tolerance:.4f}")

    ops.check("privacy guard", guard)


def check_same_bytes(ops: Ops, name: str, pairs: list[tuple[Path, Path]]) -> None:
    def same() -> None:
        for first, second in pairs:
            if first.read_bytes() != second.read_bytes():
                raise CheckFailed(f"{second} differs from {first}")

    ops.check(name, same)


def journal_spent(path: Path) -> tuple[int, Decimal]:
    lines = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines() if line]
    if any(len(fields) != 3 for fields in lines):
        raise CheckFailed(f"{path.name}: malformed line")
    return len(lines), sum((Decimal(fields[2]) for fields in lines), Decimal(0))


def check_journal(ops: Ops, path: Path, releases: int) -> None:
    def spent() -> None:
        entries, total = journal_spent(path)
        if entries != releases or total != releases * RELEASE_EPSILON:
            raise CheckFailed(f"{entries} entries spending {total}, want {releases} spending {releases * RELEASE_EPSILON}")

    ops.check("journal spent", spent)


def coverage_abs_err(releases: list[Path], inputs: Inputs) -> float:
    """Median |published coverage - ground truth| over defined zones.

    The median, not the mean: the mean is set by the few zones with under
    a thousand households, whose number varies with the seed, and moves
    by about 10% between seeds; the median moves by under 1%.
    """
    errors = [
        abs(float(row[1]) - inputs.truth(zone))
        for release in releases
        for zone, row in read_table(release, RELEASE_HEADER).items()
        if row[1] != ""
    ]
    return statistics.median(errors)


# ---------------------------------------------------------------- passes


@dataclass
class Pass:
    wall_s: float
    invocations: list[Invocation]  # every command of the pass
    samples: list[Invocation]  # the workload's main command, for latency percentiles
    releases: list[Path]  # release tables written by the pass, in the order written
    zones: int  # zones released or simulated by the pass
    journal: Path | None = None  # the budget journal the pass charged
    budget_reads: list[str] = field(default_factory=list)  # stdout of each `budget` read, in order
    refused_intact: bool = True  # the refused release left the journal and outputs alone


def paper_pass(runner: Runner, inputs: Inputs, seed: int, out: Path, traced: bool, k: int) -> Pass:
    """Release with one journal charge, then simulate-error and summarize on that release."""
    start = time.perf_counter()
    release = runner.invoke(
        release_args("../counts.csv", "../households.csv", seed, "released.csv")
        + ["--journal", "journal.tsv", "--budget", str(RELEASE_EPSILON)],
        out,
        traced=traced,
    )
    sim = runner.invoke(
        ["simulate-error", "--release", "released.csv", "--households", "../households.csv",
         "--epsilon", str(EPSILON), "--k", str(k), "--seed", str(seed), "--out", "final.csv"],
        out,
        traced=traced,
    )
    summary = runner.invoke(
        ["summarize", "--in", "final.csv", "--households", "../households.csv", "--out", "buckets.csv"],
        out,
        traced=traced,
    )
    return Pass(
        time.perf_counter() - start, [release, sim, summary], [release], [out / "released.csv"],
        len(inputs.counts), out / "journal.tsv",
    )


def journal_pass(runner: Runner, inputs: Inputs, seed: int, out: Path, traced: bool) -> Pass:
    """Slices charge one journal, each followed by a `budget` read; the last slice is refused."""
    slices = out / "slices"
    repeat = out / "repeat"
    slices.mkdir()
    repeat.mkdir()
    budget = str(len(inputs.slices[:-1]) * RELEASE_EPSILON)
    charge = ["--journal", "../journal.tsv", "--budget", budget]
    invocations, samples = [], []
    start = time.perf_counter()
    for n in range(len(inputs.slices) - 1):
        inv = runner.invoke(
            release_args(f"../../slice_{n:02d}.csv", "../../households.csv", seed, f"slice_{n:02d}.csv") + charge,
            slices,
            traced=traced,
        )
        read = runner.invoke(["budget", "--journal", "../journal.tsv", "--budget", budget], slices, traced=traced)
        invocations += [inv, read]
        samples.append(inv)
    before = (out / "journal.tsv").read_bytes()
    last = len(inputs.slices) - 1
    refused = runner.invoke(
        release_args(f"../../slice_{last:02d}.csv", "../../households.csv", seed, f"slice_{last:02d}.csv") + charge,
        slices,
        expect=1,
        traced=traced,
    )
    after = (out / "journal.tsv").read_bytes()
    again = runner.invoke(
        release_args("../../slice_00.csv", "../../households.csv", seed, "slice_00.csv"), repeat, traced=traced
    )
    wall = time.perf_counter() - start
    released = [slices / f"slice_{n:02d}.csv" for n in range(last)] + [repeat / "slice_00.csv"]
    zones = sum(len(zones) for zones in inputs.slices[:-1]) + len(inputs.slices[0])
    return Pass(
        wall, invocations + [refused, again], samples, released, zones, out / "journal.tsv",
        budget_reads=[inv.stdout for inv in invocations[1::2]],
        refused_intact=before == after and not (slices / f"slice_{last:02d}.csv").exists(),
    )


def check_pass(workload: str, ops: Ops, inputs: Inputs, out: Path, result: Pass) -> None:
    if workload == "paper_pipeline":
        released = out / "released.csv"
        check_release(ops, released, list(inputs.counts), inputs)
        check_noise(ops, result.releases, inputs)
        check_journal(ops, out / "journal.tsv", 1)
        final = out / "final.csv"
        check_release(ops, final, list(inputs.counts), inputs, errors=True)

        def unchanged() -> None:
            release = read_table(released, RELEASE_HEADER)
            for zone, row in read_table(final, RELEASE_HEADER).items():
                if row[:3] != release[zone][:3]:
                    raise CheckFailed(f"zone {zone}: simulate-error changed the published coverage")

        def buckets() -> None:
            with open(out / "buckets.csv", newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))[1:]
            if sum(int(row[2]) for row in rows) != len(inputs.households):
                raise CheckFailed("bucket zone counts do not add up to the zones with households")

        ops.check("simulate keeps coverage", unchanged)
        ops.check("buckets", buckets)
    else:
        for release, zones in zip(result.releases, inputs.slices[:-1] + [inputs.slices[0]]):
            check_release(ops, release, zones, inputs)
        check_noise(ops, result.releases, inputs)
        check_journal(ops, out / "journal.tsv", len(inputs.slices) - 1)
        ops.record("refused release leaves the journal", result.refused_intact, "journal changed or output written")
        for step, stdout in enumerate(result.budget_reads, start=1):
            fields = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
            want = step * RELEASE_EPSILON
            ops.record(f"budget read {step}", Decimal(fields.get("spent", "NaN")) == want, f"{fields} want spent={want}")
        first = out / "slices" / "slice_00.csv"
        again = out / "repeat" / "slice_00.csv"
        check_same_bytes(ops, "repeat release", [(first, again), (sidecar_path(first), sidecar_path(again)),
                                                 (Path(f"{first}.manifest.json"), Path(f"{again}.manifest.json"))])


def repeat_pairs(workload: str, first: Path, second: Path) -> list[tuple[Path, Path]]:
    """Outputs a repeat pass must write byte for byte as the first did; the journal holds timestamps."""
    if workload == "paper_pipeline":
        names = ["released.csv", "released.csv.private-counts.csv", "released.csv.manifest.json",
                 "final.csv", "final.csv.manifest.json", "buckets.csv", "buckets.csv.manifest.json"]
    else:
        names = sorted(str(path.relative_to(first)) for sub in ("slices", "repeat")
                       for path in (first / sub).iterdir() if path.suffix in (".csv", ".json"))
    return [(first / name, second / name) for name in names]


# ---------------------------------------------------------------- metrics


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(ops: Ops, setups: list[float], passes: list[Pass], inputs: Inputs) -> dict:
    wall = statistics.median(p.wall_s for p in passes)
    try:
        accuracy = coverage_abs_err(passes[0].releases, inputs)
    except (OSError, CheckFailed, ValueError, KeyError, statistics.StatisticsError):
        accuracy = 1.0  # worst possible; the checks have already counted the missing output
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(inv.rss_mb for p in passes for inv in p.invocations), "MB"),
        "ok_op_frac": (1 - len(ops.failures) / ops.attempted, "fraction"),
        "zones_per_s": (passes[0].zones / wall, "1/s"),
        "coverage_abs_err": (accuracy, "fraction"),
    }


def release_counts(releases: list[Path], inputs: Inputs) -> dict:
    zones = defined = no_households = services_zero = high = low = 0
    for release in releases:
        noisy = read_table(sidecar_path(release), SIDECAR_HEADER)
        for zone, row in read_table(release, RELEASE_HEADER).items():
            zones += 1
            if row[2] != "":
                defined += 1
                high += float(row[2]) > 1.0
                low += float(row[2]) < 0.0
            elif zone not in inputs.households:
                no_households += 1
            elif float(noisy[zone][3]) == 0.0:
                services_zero += 1
    return {
        "release.zones": (zones, "count"),
        "release.defined_frac": (defined / zones, "fraction"),
        "release.undefined_no_households": (no_households, "count"),
        "release.undefined_services_zero": (services_zero, "count"),
        "release.clipped_high": (high, "count"),
        "release.clipped_low": (low, "count"),
    }


def per_layer(workload: str, tracer: Tracer, untraced: Pass, traced: Pass, inputs: Inputs, seed: int, k: int) -> dict:
    """Layer metrics from the traced pass's spans plus replays in this process."""
    from dpcoverage.accountant import total_epsilon
    from dpcoverage.mechanism import LaplaceParams, laplace_stream
    from dpcoverage.release import release_query_plan

    # The exact noise addresses the traced pass drew: (zone, label, start, count),
    # first for its releases, then for its error simulation.
    if workload == "paper_pipeline":
        released_zones = list(inputs.counts)
        simulated = inputs.simulated(traced.releases[0])
    else:
        released_zones = [z for zones in inputs.slices[:-1] for z in zones] + inputs.slices[0]
        simulated = []
    addresses = [(z, label, 0, 1) for z in released_zones for label in COUNT_LABELS]
    addresses += [(z, label, 1, k) for z in simulated for label in SIMULATED_LABELS]
    draws = sum(start + count for _, _, start, count in addresses)
    params = LaplaceParams(1.0, float(EPSILON))
    with tracer.span("mechanism.replay", streams=len(addresses), draws=draws) as span:
        for zone, label, start, count in addresses:
            laplace_stream(params, seed, zone, label, start=start, count=count)
    replay_s = span["end"] - span["start"]
    with tracer.span("accountant.plan_folds", folds=len(released_zones)) as span:
        for _ in released_zones:
            total_epsilon(release_query_plan(EPSILON))
    fold_s = span["end"] - span["start"]

    # The split of the traced calls themselves, timed in the CLI process as they ran.
    release_s = tracer.total("release.release_dataset")
    release_noise_s = tracer.total("release.release_dataset", "noise_s")
    release_fold_s = tracer.total("release.release_dataset", "fold_s")
    report_s = tracer.total("errorsim.error_reports")
    report_noise_s = tracer.total("errorsim.error_reports", "noise_s")
    trials = tracer.total("errorsim.error_reports", "trials")
    read_s = tracer.total("io.read")
    overhead = 0.0
    for inv in traced.invocations:
        run = [s for s in tracer.children(inv.span["id"]) if s["name"] == "cli.run"]
        inner = tracer.children(inv.span["id"]) + [c for r in run for c in tracer.children(r["id"])]
        overhead += inv.wall_s - sum(s["end"] - s["start"] for s in inner if s["name"] != "cli.run")
    journals = journal_spent(traced.journal)[0]
    latencies = [inv.wall_s for inv in untraced.samples]

    metrics = {
        "mechanism.streams": (len(addresses), "count"),
        "mechanism.draws": (draws, "count"),
        "mechanism.replay_s": (replay_s, "s"),
        "mechanism.release_noise_s": (release_noise_s, "s"),
        "mechanism.errorsim_noise_s": (report_noise_s, "s"),
        "mechanism.stream_us": (1e6 * replay_s / len(addresses), "us"),
        "mechanism.draws_per_s": (draws / replay_s, "1/s"),
        "accountant.plan_folds": (len(released_zones), "count"),
        "accountant.plan_fold_s": (fold_s, "s"),
        "accountant.release_fold_s": (release_fold_s, "s"),
        "accountant.load_ledger_s": (tracer.total("accountant.load_ledger"), "s"),
        "accountant.charge_s": (tracer.total("accountant.charge"), "s"),
        "accountant.append_journal_s": (tracer.total("accountant.append_journal"), "s"),
        "accountant.journal_entries": (journals, "count"),
        "release.release_dataset_s": (release_s, "s"),
        "release.self_s": (release_s - release_noise_s - release_fold_s, "s"),
        **release_counts(traced.releases, inputs),
        "errorsim.error_reports_s": (report_s, "s"),
        "errorsim.self_s": (report_s - report_noise_s, "s"),
        "errorsim.trials": (trials, "count"),
        "errorsim.defined_trial_frac": (tracer.total("errorsim.error_reports", "useful") / trials if trials else 0.0, "fraction"),
        "errorsim.us_per_trial": (1e6 * report_s / trials if trials else 0.0, "us"),
        "errorsim.bucket_s": (tracer.total("errorsim.bucket"), "s"),
        "io.read_s": (read_s, "s"),
        "io.write_s": (tracer.total("io.write"), "s"),
        "io.bytes_read": (tracer.total("io.read", "bytes"), "bytes"),
        "io.bytes_written": (tracer.total("io.write", "bytes"), "bytes"),
        "io.read_rows_per_s": (tracer.total("io.read", "rows") / read_s, "rows/s"),
        "cli.import_s": (tracer.total("cli.import"), "s"),
        "cli.manifest_s": (tracer.total("cli.manifest"), "s"),
        "cli.overhead_s": (overhead, "s"),
        "cli.release_min_ms": (1000 * min(latencies), "ms"),
        "cli.release_p50_ms": (1000 * nearest_rank(latencies, 0.5), "ms"),
        "cli.release_p90_ms": (1000 * nearest_rank(latencies, 0.9), "ms"),
        "synth.generate_s": (tracer.total("synth.generate"), "s"),
        "synth.write_s": (tracer.total("synth.write"), "s"),
        "trace.overhead_frac": (traced.wall_s / untraced.wall_s - 1, "fraction"),
    }
    return metrics


# ---------------------------------------------------------------- entry point


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # the ceiling keeps git from taking the commit of a repository that merely contains the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # not a git checkout: the source digest identifies the code
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    shapes: dict[str, Shape] = SHAPES,
    tamper: Callable[[int, Path], None] | None = None,
) -> tuple[dict, dict]:
    """Run one workload; returns (result line, environment and shape line).

    tamper(pass_index, pass_dir), if given, runs after each pass and before
    its checks; the smoke test uses it to corrupt outputs on purpose.
    """
    shape = shapes[workload]
    tracer = Tracer()
    ops = Ops()
    runner = Runner(tracer, ops)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS[workload]):
            start = time.perf_counter()
            with tracer.span("setup"):
                inputs = set_up(work, shape, seed, tracer)
            setups.append(time.perf_counter() - start)

        passes: list[Pass] = []
        started = time.perf_counter()
        # Another pass starts only if at least half of it fits in --seconds,
        # which keeps a run within about --seconds plus half a pass.
        while len(passes) < (2 if trace else MIN_PASSES[workload]) or (
            not trace
            and time.perf_counter() - started + statistics.fmean(p.wall_s for p in passes) / 2 < seconds
        ):
            out = work / f"pass{len(passes)}"
            out.mkdir()
            traced = trace and len(passes) == 1
            with tracer.span("pass", traced=traced):
                if workload == "paper_pipeline":
                    result = paper_pass(runner, inputs, seed, out, traced, shape.k)
                else:
                    result = journal_pass(runner, inputs, seed, out, traced)
            if tamper is not None:
                tamper(len(passes), out)
            check_pass(workload, ops, inputs, out, result)
            if passes:
                check_same_bytes(ops, "repeat pass", repeat_pairs(workload, work / "pass0", out))
            passes.append(result)

        if trace:
            metrics = per_layer(workload, tracer, passes[0], passes[1], inputs, seed, shape.k)
            tracer.dump(WORK / f"trace-{workload}-{seed}.json")
        else:
            metrics = end_to_end(ops, setups, passes, inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info = {
        "environment": environment(seed),
        "workload": workload,
        "shape": {**shape.__dict__, "epsilon": str(EPSILON)},
        "pass_walls_s": [p.wall_s for p in passes],
        "setups": len(setups),
        "invocation_samples": sum(len(p.samples) for p in passes),
        "failures": ops.failures[:20],
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dpcoverage" / "cli.py").is_file():
        print(f"bench: no program source at {SRC}; run from the root of a dpcoverage checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    # On SIGTERM unwind normally, so the running command is killed and
    # waited for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
