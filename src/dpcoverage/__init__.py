"""Differentially private broadband-coverage estimates.

Privatizes per-zone device counts with seeded Laplace noise, tracks the
privacy budget spent with exact decimal arithmetic, derives a coverage
estimate per zone, and attaches simulated error ranges so downstream users
know how much to trust each number.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name and the module that defines it. A name is imported on
# its first access (PEP 562), so `import dpcoverage` loads no numpy and a
# program pays only for the layers it uses.
_EXPORTS = {
    "BucketSummary": "errorsim",
    "BudgetExceededError": "accountant",
    "BudgetLedger": "accountant",
    "DegenerateCountError": "release",
    "ErrorReport": "errorsim",
    "HouseholdRecord": "release",
    "IngestionError": "release",
    "LaplaceParams": "mechanism",
    "LedgerEntry": "accountant",
    "NoiseSeed": "mechanism",
    "Parallel": "accountant",
    "ParameterError": "accountant",
    "PlanError": "accountant",
    "PrivateZipRecord": "release",
    "Query": "accountant",
    "RawZipRecord": "release",
    "ReleaseRow": "release",
    "Sequential": "accountant",
    "SimulationConfig": "errorsim",
    "SynthSpec": "synth",
    "as_epsilon": "accountant",
    "bucket_by_households": "errorsim",
    "clip_unit": "release",
    "compute_coverage": "release",
    "describe_plan": "accountant",
    "error_reports_for_release": "errorsim",
    "estimate_error_ranges": "errorsim",
    "generate": "synth",
    "laplace_sample": "mechanism",
    "laplace_stream": "mechanism",
    "nearest_rank": "errorsim",
    "parallel_compose": "accountant",
    "privatize_count": "mechanism",
    "privatize_record": "release",
    "release_dataset": "release",
    "release_query_plan": "release",
    "sequential_compose": "accountant",
    "total_epsilon": "accountant",
    "trial_deviations": "errorsim",
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:  # dunders too: probing one must load nothing
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # so later reads skip this function
    return value
