"""Run one `dpcoverage` command, optionally recording spans per layer.

    python3 bench/invoke.py [--spans FILE] -- <dpcoverage arguments>

Without --spans this is exactly `dpcoverage <arguments>`: it calls
dpcoverage.cli.run and exits with its status. With --spans it first
wraps, from outside the program, the public functions the CLI calls in
each layer (io, release, errorsim, accountant and the manifest writer),
records every call as a span with its counters, and writes the spans to
FILE as JSON when the command ends. The noise draws and plan folds inside
a release or an error simulation are too many for a span each; their
summed time becomes counters of the enclosing span.
"""

from __future__ import annotations

import os
import sys

from tracing import Tracer, accumulate, wrap


def _size(args: tuple, _result: object) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _read(args: tuple, result: object) -> dict:
    return {"bytes": os.path.getsize(args[0]), "rows": len(result)}


def _written(args: tuple, _result: object) -> dict:
    return {"bytes": os.path.getsize(args[0]), "rows": len(args[1])}


def _trials(args: tuple, result: list) -> dict:
    privs, households, config = args[:3]
    simulated = sum(1 for p in privs if p.zone in households and p.services_dp > 0)
    useful = sum(round(r.defined_fraction * r.k) for r in result)
    return {"trials": simulated * config.k, "useful": useful}


def install(tracer: Tracer) -> None:
    import dpcoverage.accountant as accountant
    import dpcoverage.cli as cli
    import dpcoverage.errorsim as errorsim
    import dpcoverage.io as io
    import dpcoverage.release as release

    for name in ("read_counts_csv", "read_households_csv", "read_release_csv", "read_private_counts_csv"):
        wrap(tracer, io, name, "io.read", _read)
    for name in ("write_counts_csv", "write_households_csv", "write_release_csv",
                 "write_private_counts_csv", "write_bucket_csv"):
        wrap(tracer, io, name, "io.write", _written)
    wrap(tracer, cli, "release_dataset", "release.release_dataset", lambda a, r: {"zones": len(r)})
    wrap(tracer, cli, "error_reports_for_release", "errorsim.error_reports", _trials)
    wrap(tracer, cli, "bucket_by_households", "errorsim.bucket")
    wrap(tracer, cli, "load_ledger", "accountant.load_ledger", lambda a, r: {"entries": len(r.entries)})
    wrap(tracer, accountant.BudgetLedger, "charge", "accountant.charge")
    wrap(tracer, cli, "append_journal", "accountant.append_journal", _size)
    wrap(tracer, cli, "write_manifest", "cli.manifest")
    accumulate(tracer, release, "privatize_count", "noise_s")
    accumulate(tracer, release, "release_query_plan", "fold_s")
    accumulate(tracer, release, "total_epsilon", "fold_s")
    for name in ("laplace_stream", "laplace_sample"):
        accumulate(tracer, errorsim, name, "noise_s")


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if spans_path is None:
        from dpcoverage.cli import run

        return run(argv)

    tracer = Tracer()
    try:
        with tracer.span("cli.import"):
            import dpcoverage.cli
        install(tracer)
        with tracer.span("cli.run"):
            return dpcoverage.cli.run(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
