"""Command-line pipeline: synth -> release -> simulate-error -> summarize.

Every run that writes an output also writes a `<out>.manifest.json`
sidecar recording the tool version, the noise format, the parameters,
sha256 digests of the input files and the output paths, so any output
can be reproduced byte for byte by rerunning with the recorded
parameters. The parameters are the parsed arguments under their flag
names (`out_counts` is `--out-counts`), ranges as `lo:hi` and lists
comma-joined. The exceptions: `release` leaves out `--journal` and
`--budget` and records `epsilon` as the exact decimal; `simulate-error`
records the same epsilon and the noisy-count sidecar it resolved as
`private_counts`. Seeds are always explicit flags, with no
environment-variable override, so a release manifest records the
`--seed` that keeps the release's noise secret. That seed and the
noisy-count sidecar give back the raw counts: the manifest and the
sidecar are safe to publish only while it is secret. Before its first
output moves into place, a command deletes the manifest and every later
output an earlier run left (`release`'s sidecar, `synth`'s households
file). So a run that fails after that leaves none of the earlier run's
files beside its own, and the next command that needs one refuses,
naming it. From that first delete until its manifest is written, a
command holds an exclusive flock on the directory of each output, so a
second run to the same outputs waits and the files left are one run's.
`release` charges its journal under the same kind of lock on the
journal's directory, given up before it computes, so it never holds both.

A writing command checks its outputs before it reads, charges or writes
anything: no output may be an input, another output or an existing
directory, and each output's directory must exist and let this process
create the output's temporary file. Before it reads, `release` also
refuses a --journal whose directory does not exist; the journal itself
may be absent, and its first charge creates it.

An --epsilon or --budget that is not a positive finite decimal is
refused, before anything is read, by a message that names the flag; so
is an --epsilon whose noise scale 1 / epsilon is not a finite float.

Exit codes: 0 on success, 2 for usage errors, 1 for anything else, with
a one-line diagnostic on stderr; running out of memory is one of those.

`budget`, `--version`, `--help` and usage errors start without numpy:
this module imports only numpy-free modules, and `run` loads the numpy
layers for every other command.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import functools
import hashlib
import json
import os
import sys
from decimal import Decimal
from itertools import zip_longest
from pathlib import Path

from dpcoverage import __version__
from dpcoverage.accountant import (
    ParameterError, PlanError, append_journal, as_epsilon, check_seed, load_ledger, sync_directory, total_epsilon,
)


@functools.cache
def _bind_layers() -> None:
    """Bind the numpy layers' names into this module, once, on first need.

    A name already bound is kept, so a wrapper that a tracer set on this
    module before the first command is the one the commands call.
    """
    import numpy as np

    from dpcoverage import io
    from dpcoverage.errorsim import SimulationConfig, bucket_by_households, error_reports_for_release
    from dpcoverage.mechanism import NOISE_FORMAT
    from dpcoverage.release import (
        Columns,
        IngestionError,
        ReleaseRow,
        count_noise,
        coverage_rows,
        household_column,
        release_dataset,
        release_query_plan,
    )
    from dpcoverage.synth import SynthSpec, generate

    for name, value in locals().items():
        globals().setdefault(name, value)


def __getattr__(name: str) -> object:
    """A numpy layer's name read from outside this module, before any command bound it."""
    if not (name.startswith("__") and name.endswith("__")):  # the interpreter probes dunders
        _bind_layers()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _seed(text: str) -> int:
    try:
        value = int(text)
        check_seed(value)
    except ValueError:  # ParameterError is one too
        raise argparse.ArgumentTypeError(f"expected an unsigned 64-bit integer, got {text}") from None
    return value


def _at_least(minimum: int, kind: str):
    """Parser of an integer flag of at least minimum, named a kind integer in its message."""
    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= minimum:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text}")
    return parse


def _range(kind: type, noun: str):
    """Parser of a lo:hi flag whose bounds are kind, named noun in its message."""
    def parse(text: str) -> tuple:
        try:
            lo, hi = text.split(":")
            return kind(lo), kind(hi)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected lo:hi {noun}, got {text!r}")
    return parse


def _thresholds(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _decimal(flag: str, text: str) -> Decimal:
    """An --epsilon or --budget flag as an exact decimal, refused in a message that names the flag."""
    try:
        return as_epsilon(text)
    except PlanError:
        raise ValueError(f"{flag} must be a positive finite decimal, got {text!r}") from None


def _noise_epsilon(text: str) -> Decimal:
    """An --epsilon flag as an exact decimal of a finite noise scale, refused in a message that names the flag."""
    eps = _decimal("--epsilon", text)
    try:
        count_noise(eps)
    except ParameterError as exc:
        raise ValueError(f"--epsilon {text}: {exc}") from None
    return eps


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest_path(out_path: str | Path) -> Path:
    return Path(f"{out_path}.manifest.json")


def _check_outputs(inputs: list[str | Path], outputs: list[str | Path]) -> None:
    """Refuse, before anything is read, charged or written, an output that cannot be written in place.

    The first output's manifest is an output too. No output may be an input,
    another output or an existing directory, and each one's directory must
    exist and let this process create the output's temporary file.
    """
    outputs = [*outputs, _manifest_path(outputs[0])]
    for index, output in enumerate(outputs):
        if not Path(output).parent.is_dir():
            raise ValueError(f"cannot write {output}: no directory {Path(output).parent}")
        if Path(output).is_dir():
            raise ValueError(f"cannot write {output}: it is a directory")
        for kind, others in (("input", inputs), ("output", outputs[:index])):
            for other in others:
                if Path(output).resolve() == Path(other).resolve() or (
                    os.path.exists(output) and os.path.exists(other) and os.path.samefile(output, other)
                ):
                    raise ValueError(f"output {output} would overwrite the {kind} {other}")
        try:
            open(io.temporary_path(output), "w").close()
            io.temporary_path(output).unlink()
        except OSError as exc:  # its strerror, since its filename would show the pid
            raise ValueError(f"cannot write {output}: {exc.strerror}") from None


def _warn_missing(zones: list[str], households: dict[str, int], outcome: str) -> None:
    """One stderr line counting the zones absent from households (no figure), naming the first five."""
    missing = [zone for zone in zones if zone not in households]
    if missing:
        named = ", ".join(missing[:5]) + (", ..." if len(missing) > 5 else "")
        print(f"warning: {len(missing)} zone(s) have no household figure and {outcome}: {named}", file=sys.stderr)


@contextlib.contextmanager
def _locked(paths: list[str | Path]):
    """Hold an exclusive flock on the directory of each of paths until the block ends.

    A directory is opened as sync_directory opens it, so its lock adds no
    file. Each directory is locked once, by its (st_dev, st_ino), since a
    second flock on it would wait for the first even in this process, and
    the locks are taken in sorted order, so no two runs each hold a lock the
    other waits for.
    """
    with contextlib.ExitStack() as stack:
        directories = {}
        for path in paths:
            directory = os.open(Path(path).parent, os.O_RDONLY | os.O_DIRECTORY)
            stack.callback(os.close, directory)  # which drops its lock
            status = os.fstat(directory)
            directories.setdefault((status.st_dev, status.st_ino), directory)
        for key in sorted(directories):
            fcntl.flock(directories[key], fcntl.LOCK_EX)
        yield


def _recorded(value: object) -> object:
    if isinstance(value, tuple):
        return f"{value[0]}:{value[1]}"
    if isinstance(value, list):
        return ",".join(str(item) for item in value)
    return value


@contextlib.contextmanager
def _replacing(outputs: list[str | Path]):
    """Hold the outputs' directory locks while the block writes the outputs and the manifest.

    Under the locks, before the block, it deletes durably the manifest
    beside outputs[0] and every later output an earlier run left. So a run
    that fails part-way leaves none of an earlier run's files beside its
    own: the next command that reads a missing one refuses, naming it. The
    manifest is in outputs[0]'s directory, so a second run to the same files
    waits, before its first delete, until this run's manifest is written.
    """
    with _locked(outputs):
        deleted = {}
        for path in map(Path, [_manifest_path(outputs[0]), *outputs[1:]]):
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            deleted[path.parent] = path
        for path in deleted.values():  # one fsync per directory that lost a file
            sync_directory(path)
        yield


def write_manifest(args: argparse.Namespace, inputs: list, outputs: list, changes: dict | None = None) -> Path:
    """Reproducibility sidecar written next to a command's first output.

    parameters are the parsed arguments under their flag names, ranges as
    lo:hi and lists comma-joined, so each key maps back to its flag. changes
    holds the exceptions, each replacing or adding a key; a key whose value
    is None is left out. release leaves out --journal and --budget and
    records the exact epsilon; simulate-error records that epsilon and the
    private_counts it resolved.
    """
    _bind_layers()
    parameters = {key: _recorded(value) for key, value in vars(args).items() if key not in ("subcommand", "handler")}
    parameters.update(changes or {})
    manifest = {
        "tool": "dpcoverage",
        "version": __version__,
        "noise_format": NOISE_FORMAT,
        "subcommand": args.subcommand,
        "parameters": {key: value for key, value in parameters.items() if value is not None},
        "input_digests": {str(p): f"sha256:{_sha256(p)}" for p in inputs},
        "outputs": [str(p) for p in outputs],
    }
    path = _manifest_path(outputs[0])
    with io.atomic_writer(path) as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _cmd_synth(args: argparse.Namespace) -> int:
    outputs = [args.out_counts, args.out_households]
    _check_outputs([], outputs)
    spec = SynthSpec(
        zone_count=args.zones,
        household_range=args.households,
        coverage_range=args.bce,
        services_share_range=args.services_share,
        seed=args.seed,
    )
    counts, households = generate(spec)
    with _replacing(outputs):
        io.write_counts_csv(args.out_counts, counts)
        io.write_households_csv(args.out_households, households)
        write_manifest(args, [], outputs)
    print(f"synthesized {len(counts)} zones -> {args.out_counts}, {args.out_households}", file=sys.stderr)
    return 0


def _cmd_release(args: argparse.Namespace) -> int:
    if (args.journal is None) != (args.budget is None):
        print("error: --journal and --budget must be given together", file=sys.stderr)
        return 2
    sidecar = io.private_counts_path(args.out)
    inputs, outputs = [args.counts, args.households], [args.out, sidecar]
    _check_outputs(inputs + ([args.journal] if args.journal is not None else []), outputs)
    if args.journal is not None:  # refuse a journal with no directory before reading, opening it as _locked will
        os.close(os.open(Path(args.journal).parent, os.O_RDONLY | os.O_DIRECTORY))
    # refuse, before anything is read or charged, an epsilon or budget the noise kernel or exact arithmetic refuses
    eps = _noise_epsilon(args.epsilon)
    budget = None if args.budget is None else _decimal("--budget", args.budget)
    plan = release_query_plan(eps)
    spent = total_epsilon(plan)
    records = io.read_counts_csv(args.counts)
    zones = records.column("zone")
    households = io.read_households_csv(args.households)
    figures = household_column(zones, households)

    if args.journal is not None:
        # hold the journal directory's lock from the budget check to the append, so two releases
        # at once cannot both pass the check; only an accepted charge creates the journal
        with _locked([args.journal]):
            ledger = load_ledger(args.journal, budget)
            # record the charge before releasing anything, so a crash mid-run
            # never leaves spent epsilon unaccounted for
            append_journal(args.journal, ledger.charge(plan, description=f"release {args.out}"))

    privs = release_dataset(records, eps, args.seed, round_counts=args.round_counts)
    _warn_missing(zones, households, "are released with UNDEFINED coverage")
    rows = coverage_rows(privs, figures)
    with _replacing(outputs):  # never inside the journal's lock, which may be on the same directory
        io.write_release_csv(args.out, rows)
        io.write_private_counts_csv(sidecar, privs)
        write_manifest(args, inputs, outputs, {"journal": None, "budget": None, "epsilon": str(eps)})
    undefined = int(np.isnan(rows.column("coverage")).sum())
    print(f"total_epsilon={spent}", file=sys.stderr)
    print(f"released {len(rows)} zones ({undefined} undefined) -> {args.out}", file=sys.stderr)
    return 0


def _check_publication(
    args: argparse.Namespace, eps: Decimal, sidecar: str | Path,
    rows: Columns, privs: Columns, households: dict[str, int],
) -> None:
    """Refuse a publication unless the noisy counts and households give back its table at the per-query epsilon eps.

    Each value is compared with the value the release writes: the raw
    coverage as itself, since its repr round-trips, and broadband_usage as
    its 3 decimals read back, the one column rendered as text for the
    check. Only a row named in a refusal is rendered whole.
    """
    # release writes its table and its sidecar in one zone order
    zones = rows.column("zone")
    if privs.column("zone") != zones:
        line = 2 + next(row for row, (a, b) in enumerate(zip_longest(zones, privs.column("zone"))) if a != b)
        raise IngestionError(f"{sidecar} does not list the zones of {args.release} in its order: they differ on line {line}")

    # the error ranges belong to the published table only if the noisy
    # counts and this households file give it back, as the release wrote it
    found = coverage_rows(privs, household_column(zones, households))

    # a sidecar written for another release would simulate this release's
    # errors around that release's counts and epsilon, and a wrong --epsilon
    # would re-noise at a scale the release never had; an epsilon is a
    # value, whichever way the file writes it
    implied = total_epsilon(release_query_plan(eps))
    for zone, recorded, spent in zip(zones, rows.column("epsilon"), privs.column("epsilon_total")):
        if recorded != spent:
            raise IngestionError(f"{args.release} records epsilon {recorded} for zone {zone}, but {sidecar} records {spent}")
        if spent != implied:
            raise IngestionError(
                f"--epsilon {eps} implies a release total of {implied}, but {sidecar} records {spent} for zone {zone}"
            )

    # each published value must be the value of the text the release
    # writes for it, so an edit within broadband_usage's rounding is
    # refused too; an empty field is UNDEFINED on both sides
    for name, field, column, expected in (
        ("raw coverage", "raw_coverage", "broadband_usage_raw", found.column("raw_coverage")),
        ("coverage", "coverage", "broadband_usage", io.published_coverage(found.column("coverage"))),
    ):
        values = rows.column(field)
        differ = np.flatnonzero((values != expected) & ~(np.isnan(values) & np.isnan(expected)))
        if differ.size:
            row = int(differ[0])
            other = io.release_text(found[row : row + 1])[column][0]
            text = io.release_text(rows[row : row + 1])[column][0]
            if text == other:  # an edit within broadband_usage's 3 decimals
                text = repr(values[row].item())
            raise IngestionError(
                f"{args.households} and the noisy counts give zone {zones[row]} a {name} of {other or 'UNDEFINED'}, "
                f"but {args.release} published {text or 'UNDEFINED'}"
            )


def _cmd_simulate_error(args: argparse.Namespace) -> int:
    sidecar = args.private_counts if args.private_counts is not None else io.private_counts_path(args.release)
    inputs, outputs = [args.release, sidecar, args.households], [args.out]
    _check_outputs(inputs, outputs)
    eps = _noise_epsilon(args.epsilon)
    rows = io.read_release_csv(args.release)
    privs = io.read_private_counts_csv(sidecar)
    households = io.read_households_csv(args.households)
    _check_publication(args, eps, sidecar, rows, privs, households)
    config = SimulationConfig(per_query_epsilon=float(eps), base_seed=args.seed, k=args.k)
    reports = error_reports_for_release(privs, households, config)
    statistics = {name: reports.column(name) for name in ("mae", "msd", "p95")}
    with _replacing(outputs):
        io.write_release_csv(args.out, Columns(ReleaseRow, **{**rows.columns, **statistics}))
        write_manifest(args, inputs, outputs, {"private_counts": str(sidecar), "epsilon": str(eps)})
    print(f"simulated k={args.k} trials for {len(rows)} zones -> {args.out}", file=sys.stderr)
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    inputs, outputs = [getattr(args, "in"), args.households], [args.out]
    _check_outputs(inputs, outputs)
    rows = io.read_release_csv(getattr(args, "in"))
    households = io.read_households_csv(args.households)
    summaries = bucket_by_households(rows, households, args.thresholds)
    # warned only once the bucketing has not refused the run, so a refusal is one line
    _warn_missing(rows.column("zone"), households, "were not bucketed")
    with _replacing(outputs):
        io.write_bucket_csv(args.out, summaries)
        write_manifest(args, inputs, outputs)
    bucketed = sum(summary.zone_count for summary in summaries)
    print(f"summarized {bucketed} zones into {len(summaries)} buckets -> {args.out}", file=sys.stderr)
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    ledger = load_ledger(args.journal, _decimal("--budget", args.budget))
    print(f"budget={ledger.budget}")
    print(f"spent={ledger.spent}")
    print(f"remaining={ledger.remaining}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpcoverage", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"dpcoverage {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic counts + households dataset")
    p.add_argument("--zones", type=_at_least(0, "nonnegative"), required=True)
    p.add_argument("--households", type=_range(int, "integers"), default=(50, 200000), metavar="LO:HI")
    p.add_argument("--bce", type=_range(float, "reals"), default=(0.1, 0.95), metavar="LO:HI",
                   help="target true coverage range")
    p.add_argument("--services-share", type=_range(float, "reals"), default=(0.5, 0.9), metavar="LO:HI")
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
    p.add_argument("--release", required=True)
    p.add_argument("--households", required=True)
    p.add_argument("--epsilon", default="0.1",
                   help="per-query epsilon of the release (decimal string); must match the sidecar")
    p.add_argument("--k", type=_at_least(1, "positive"), default=1000)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--private-counts", help="noisy-count sidecar (default: <release>.private-counts.csv)")
    p.set_defaults(handler=_cmd_simulate_error)

    p = sub.add_parser("summarize", help="bucket per-zone error statistics by household count")
    p.add_argument("--in", required=True)
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
        if args.handler is not _cmd_budget:
            _bind_layers()
        return args.handler(args)
    except (OSError, RuntimeError, ValueError) as exc:
        # CsvFormatError, IngestionError, PlanError and ParameterError are all ValueErrors;
        # BudgetExceededError and a failed error-simulation worker are RuntimeErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's names the allocation that failed; a bare one says nothing
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
