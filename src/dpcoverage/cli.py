"""Command-line pipeline: synth -> release -> simulate-error -> summarize.

Every run that writes an output also writes a `<out>.manifest.json`
sidecar recording the tool version, the noise format, the resolved
parameters, sha256 digests of the input files and the output paths, so
any output can be reproduced byte for byte by rerunning with the
recorded parameters. Seeds are always explicit flags; there is
deliberately no environment-variable override, so a manifest alone is
enough to audit a run.

Exit codes: 0 on success, 2 for usage errors, 1 for anything else, with
a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from dpcoverage import __version__, io
from dpcoverage.accountant import (
    BudgetExceededError,
    append_journal,
    as_epsilon,
    load_ledger,
    total_epsilon,
)
from dpcoverage.errorsim import SimulationConfig, bucket_by_households, error_reports_for_release
from dpcoverage.mechanism import NOISE_FORMAT, LaplaceParams
from dpcoverage.release import (
    COUNT_SENSITIVITY,
    Columns,
    IngestionError,
    Pairs,
    ReleaseRow,
    coverage_rows,
    household_column,
    release_dataset,
    release_query_plan,
)
from dpcoverage.synth import SynthSpec, generate

_U64_MAX = (1 << 64) - 1


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value <= _U64_MAX:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64-1], got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def _int_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi integers, got {text!r}")


def _float_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi reals, got {text!r}")


def _thresholds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest_path(out_path: str | Path) -> Path:
    return Path(f"{out_path}.manifest.json")


def _check_outputs(inputs: list[str | Path], outputs: list[str | Path]) -> None:
    """Refuse, before anything is read or written, an output with no directory or that is one of the inputs."""
    for output in outputs:
        if not Path(output).parent.is_dir():
            raise ValueError(f"cannot write {output}: no directory {Path(output).parent}")
        for source in inputs:
            if Path(output).resolve() == Path(source).resolve() or (
                os.path.exists(output) and os.path.exists(source) and os.path.samefile(output, source)
            ):
                raise ValueError(f"output {output} would overwrite the input {source}")


def write_manifest(
    out_path: str | Path,
    subcommand: str,
    parameters: dict,
    inputs: list[str],
    outputs: list[str],
) -> Path:
    """Reproducibility sidecar written next to a subcommand's primary output."""
    manifest = {
        "tool": "dpcoverage",
        "version": __version__,
        "noise_format": NOISE_FORMAT,
        "subcommand": subcommand,
        "parameters": parameters,
        "input_digests": {str(p): f"sha256:{_sha256(p)}" for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    path = _manifest_path(out_path)
    with io.atomic_writer(path) as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        zone_count=args.zones,
        household_range=args.households,
        coverage_range=args.bce,
        services_share_range=args.services_share,
        seed=args.seed,
    )
    counts, households = generate(spec)
    io.write_counts_csv(args.out_counts, counts)
    io.write_households_csv(args.out_households, households)
    write_manifest(
        args.out_counts,
        "synth",
        {
            "zones": args.zones,
            "households": f"{args.households[0]}:{args.households[1]}",
            "bce": f"{args.bce[0]}:{args.bce[1]}",
            "services_share": f"{args.services_share[0]}:{args.services_share[1]}",
            "seed": args.seed,
            "out_counts": str(args.out_counts),
            "out_households": str(args.out_households),
        },
        inputs=[],
        outputs=[args.out_counts, args.out_households],
    )
    print(f"synthesized {len(counts)} zones -> {args.out_counts}, {args.out_households}", file=sys.stderr)
    return 0


def _cmd_release(args: argparse.Namespace) -> int:
    if (args.journal is None) != (args.budget is None):
        print("error: --journal and --budget must be given together", file=sys.stderr)
        return 2
    sidecar = io.private_counts_path(args.out)
    inputs = [args.counts, args.households] + ([args.journal] if args.journal is not None else [])
    _check_outputs(inputs, [args.out, sidecar, _manifest_path(args.out)])
    eps = as_epsilon(args.epsilon)
    # refuse, before anything is charged, an epsilon the noise kernel or exact arithmetic refuses
    LaplaceParams(COUNT_SENSITIVITY, float(eps))
    plan = release_query_plan(eps)
    spent = total_epsilon(plan)
    records = io.read_counts_csv(args.counts)
    households = io.read_households_csv(args.households)

    if args.journal is not None:
        # hold the journal's lock from the budget check to the append, so two
        # releases at once cannot both pass the check
        with open(args.journal, "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            ledger = load_ledger(args.journal, args.budget)
            # record the charge before releasing anything, so a crash mid-run
            # never leaves spent epsilon unaccounted for
            entry = ledger.charge(plan, description=f"release {args.out}")
            append_journal(args.journal, entry)

    pairs = release_dataset(
        records,
        households,
        eps,
        args.seed,
        round_counts=args.round_counts,
    )
    rows = pairs.second
    io.write_release_csv(args.out, rows)
    io.write_private_counts_csv(sidecar, pairs.first)
    write_manifest(
        args.out,
        "release",
        {
            "counts": str(args.counts),
            "households": str(args.households),
            "epsilon": str(eps),
            "seed": args.seed,
            "round_counts": args.round_counts,
            "out": str(args.out),
        },
        inputs=[args.counts, args.households],
        outputs=[args.out, str(sidecar)],
    )
    undefined = int(np.isnan(rows.column("coverage")).sum())
    print(f"total_epsilon={spent}", file=sys.stderr)
    print(f"released {len(pairs)} zones ({undefined} undefined) -> {args.out}", file=sys.stderr)
    return 0


def _cmd_simulate_error(args: argparse.Namespace) -> int:
    sidecar = args.private_counts if args.private_counts is not None else io.private_counts_path(args.release_path)
    _check_outputs([args.release_path, sidecar, args.households], [args.out, _manifest_path(args.out)])
    rows = io.read_release_csv(args.release_path)
    privs = io.read_private_counts_csv(sidecar)
    households = io.read_households_csv(args.households)

    zones = rows.column("zone")
    position = {zone: row for row, zone in enumerate(privs.column("zone"))}
    missing = [zone for zone in zones if zone not in position]
    if missing:
        raise IngestionError(
            f"{sidecar}: missing noisy counts for zone(s) {', '.join(missing[:5])}"
            + (f" and {len(missing) - 5} more" if len(missing) > 5 else "")
        )
    ordered = privs.take([position[zone] for zone in zones])

    # the error ranges belong to the published table only if the noisy
    # counts and this households file give it back, as the release wrote it
    published = io.release_text(rows)
    found = io.release_text(coverage_rows(ordered, household_column(zones, households)))

    # a sidecar written for another release would simulate this release's
    # errors around that release's counts and epsilon
    for zone, text, other in zip(zones, published["epsilon"], found["epsilon"]):
        if text != other:
            raise IngestionError(f"{args.release_path} records epsilon {text} for zone {zone}, but {sidecar} records {other}")

    # the trials must re-noise at the release's own scale: a wrong --epsilon
    # would publish error ranges for noise the release never had
    eps = as_epsilon(args.epsilon)
    implied = total_epsilon(release_query_plan(eps))
    for zone, spent in zip(zones, ordered.column("epsilon_total")):
        if spent != implied:
            raise IngestionError(
                f"--epsilon {eps} implies a release total of {implied}, but {sidecar} records {spent} for zone {zone}"
            )

    # the raw coverage bit for bit (repr round-trips) and broadband_usage
    # to its 3 decimals; an empty field is UNDEFINED on both sides
    for name, column in (("raw coverage", "broadband_usage_raw"), ("coverage", "broadband_usage")):
        for zone, text, other in zip(zones, published[column], found[column]):
            if text != other:
                raise IngestionError(
                    f"{args.households} and the noisy counts give zone {zone} a {name} of {other or 'UNDEFINED'}, "
                    f"but {args.release_path} published {text or 'UNDEFINED'}"
                )

    config = SimulationConfig(per_query_epsilon=float(eps), base_seed=args.seed, k=args.k)
    reports = error_reports_for_release(ordered, households, config)
    statistics = {name: reports.column(name) for name in ("mae", "msd", "p95")}
    io.write_release_csv(args.out, Columns(ReleaseRow, **{**rows.columns, **statistics}))
    write_manifest(
        args.out,
        "simulate-error",
        {
            "release": str(args.release_path),
            "private_counts": str(sidecar),
            "households": str(args.households),
            "epsilon": str(eps),
            "k": args.k,
            "seed": args.seed,
            "out": str(args.out),
        },
        inputs=[args.release_path, str(sidecar), args.households],
        outputs=[args.out],
    )
    print(f"simulated k={args.k} trials for {len(rows)} zones -> {args.out}", file=sys.stderr)
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    _check_outputs([args.in_path, args.households], [args.out, _manifest_path(args.out)])
    rows = io.read_release_csv(args.in_path)
    households = io.read_households_csv(args.households)

    figures = household_column(rows.column("zone"), households)
    kept = np.flatnonzero(figures > 0)
    skipped = len(rows) - len(kept)
    if skipped:
        print(f"warning: {skipped} zone(s) missing household figures were not bucketed", file=sys.stderr)

    summaries = bucket_by_households(Pairs(rows.take(kept), figures[kept]), args.thresholds)
    io.write_bucket_csv(args.out, summaries)
    write_manifest(
        args.out,
        "summarize",
        {
            "in": str(args.in_path),
            "households": str(args.households),
            "thresholds": ",".join(str(t) for t in args.thresholds),
            "out": str(args.out),
        },
        inputs=[args.in_path, args.households],
        outputs=[args.out],
    )
    print(f"summarized {len(kept)} zones into {len(summaries)} buckets -> {args.out}", file=sys.stderr)
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    ledger = load_ledger(args.journal, args.budget)
    print(f"budget={ledger.budget}")
    print(f"spent={ledger.spent}")
    print(f"remaining={ledger.remaining}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpcoverage", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"dpcoverage {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic counts + households dataset")
    p.add_argument("--zones", type=_nonnegative_int, required=True)
    p.add_argument("--households", type=_int_range, default=(50, 200000), metavar="LO:HI")
    p.add_argument("--bce", type=_float_range, default=(0.1, 0.95), metavar="LO:HI",
                   help="target true coverage range")
    p.add_argument("--services-share", type=_float_range, default=(0.5, 0.9), metavar="LO:HI")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out-counts", required=True)
    p.add_argument("--out-households", required=True)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("release", help="privatize counts and publish coverage estimates")
    p.add_argument("--counts", required=True)
    p.add_argument("--households", required=True)
    p.add_argument("--epsilon", default="0.1", help="per-query epsilon (decimal string)")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--round-counts", action="store_true", help="round noisy counts to whole devices")
    p.add_argument("--journal", help="privacy-budget journal to charge this release against")
    p.add_argument("--budget", help="total epsilon budget (decimal string); required with --journal")
    p.set_defaults(handler=_cmd_release)

    p = sub.add_parser("simulate-error", help="fill error columns of a released table")
    p.add_argument("--release", required=True, dest="release_path")
    p.add_argument("--households", required=True)
    p.add_argument("--epsilon", default="0.1",
                   help="per-query epsilon of the release (decimal string); must match the sidecar")
    p.add_argument("--k", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--private-counts", help="noisy-count sidecar (default: <release>.private-counts.csv)")
    p.set_defaults(handler=_cmd_simulate_error)

    p = sub.add_parser("summarize", help="bucket per-zone error statistics by household count")
    p.add_argument("--in", required=True, dest="in_path")
    p.add_argument("--households", required=True)
    p.add_argument("--thresholds", type=_thresholds, default=[0, 100, 1000, 10000, 100000])
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_summarize)

    p = sub.add_parser("budget", help="print spent and remaining budget from a journal")
    p.add_argument("--journal", required=True)
    p.add_argument("--budget", required=True, help="total epsilon budget (decimal string)")
    p.set_defaults(handler=_cmd_budget)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (BudgetExceededError, OSError, ValueError) as exc:
        # CsvFormatError, IngestionError, PlanError and ParameterError are all ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
