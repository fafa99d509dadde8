"""Differentially private broadband-coverage estimates.

Privatizes per-zone device counts with seeded Laplace noise, tracks the
privacy budget spent with exact decimal arithmetic, derives a coverage
estimate per zone, and attaches simulated error ranges so downstream users
know how much to trust each number.
"""

from dpcoverage.accountant import (
    BudgetExceededError,
    BudgetLedger,
    LedgerEntry,
    Parallel,
    PlanError,
    Query,
    Sequential,
    as_epsilon,
    describe_plan,
    parallel_compose,
    sequential_compose,
    total_epsilon,
)
from dpcoverage.errorsim import (
    BucketSummary,
    ErrorReport,
    SimulationConfig,
    bucket_by_households,
    error_reports_for_release,
    estimate_error_ranges,
    nearest_rank,
    trial_deviations,
)
from dpcoverage.mechanism import (
    LaplaceParams,
    NoiseSeed,
    ParameterError,
    laplace_sample,
    laplace_stream,
    privatize_count,
)
from dpcoverage.release import (
    DegenerateCountError,
    HouseholdRecord,
    IngestionError,
    PrivateZipRecord,
    RawZipRecord,
    ReleaseRow,
    clip_unit,
    compute_coverage,
    privatize_record,
    release_dataset,
    release_query_plan,
)
from dpcoverage.synth import SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "BucketSummary",
    "BudgetExceededError",
    "BudgetLedger",
    "DegenerateCountError",
    "ErrorReport",
    "HouseholdRecord",
    "IngestionError",
    "LaplaceParams",
    "LedgerEntry",
    "NoiseSeed",
    "Parallel",
    "ParameterError",
    "PlanError",
    "PrivateZipRecord",
    "Query",
    "RawZipRecord",
    "ReleaseRow",
    "Sequential",
    "SimulationConfig",
    "SynthSpec",
    "as_epsilon",
    "bucket_by_households",
    "clip_unit",
    "compute_coverage",
    "describe_plan",
    "error_reports_for_release",
    "estimate_error_ranges",
    "generate",
    "laplace_sample",
    "laplace_stream",
    "nearest_rank",
    "parallel_compose",
    "privatize_count",
    "privatize_record",
    "release_dataset",
    "release_query_plan",
    "sequential_compose",
    "total_epsilon",
    "trial_deviations",
    "__version__",
]
