"""Simulated error ranges for privatized coverage estimates.

Works purely on already-privatized counts. Fresh Laplace noise (same
scale as the release) is layered on top of the released noisy counts k
times; each trial's noisy counts are clamped at zero and pushed through
the same clipped coverage formula as the release, and the deviations

    d_i = released_coverage - trial_coverage_i

are summarized per zone as mean absolute error, mean signed deviation and
the nearest-rank 95th percentile of |d_i|. released_coverage is the
release's broadband_usage_raw clipped to [0, 1] at full precision, so the
statistics describe that value; the published broadband_usage is it
rounded to 3 decimals and can lie up to 0.0005 further off. Only the
three counts that enter the coverage formula (high_speed, services,
non_services) are re-noised. A trial is defined where the release's
formula is finite (its noisy services count did not clamp to zero); the
rest are excluded from the statistics and counted in defined_fraction.

Because the raw counts are never touched, everything here is
post-processing of the released record and spends no privacy budget.

The simulation runs over blocks of zones held as (zones x k) arrays:
one noise-kernel call per label and block, undefined trials masked, the
p95 picked at the nearest rank of the sorted rows. Each block allocates
its own arrays, and every step after the draws runs in place in them: at
most five arrays of 8 * rows * k bytes and one mask of rows * k bytes
are live at once, rows being the zones of a full block,
max(1, BLOCK_TRIALS // k). That is at most 0.5 MB an array and about
2.6 MB in all while k <= BLOCK_TRIALS, and 8 * k bytes an array beyond
(4.1 MB in all at k = 100,000). The reports come back as Columns; an
ErrorReport is built only for a row the caller reads.

The blocks are cut into contiguous shares, one per worker process: as
many workers as the process may use CPUs (os.sched_getaffinity), at most
MAX_WORKERS and at most one per block. This process runs the first share
and a child made with os.fork each other one; every worker writes its
rows' statistics into one shared anonymous mmap. Each trial's noise is a
pure function of its Philox counter address, so the reports do not depend
on the worker count. Where the platform has no fork or no CPU affinity,
all blocks run in this process; a one-block simulation, such as
estimate_error_ranges, always does.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Mapping, NoReturn, Sequence

import numpy as np

from dpcoverage.accountant import check_seed, is_int

# laplace_sample is not called here, since trials draw whole blocks through
# laplace_stream; it stays importable as errorsim.laplace_sample because
# bench/invoke.py wraps that name to time the simulation's noise draws.
from dpcoverage.mechanism import laplace_sample, laplace_stream  # noqa: F401
from dpcoverage.release import (
    COVERAGE_LABELS,
    Columns,
    PrivateZipRecord,
    as_columns,
    clip_unit,
    compute_coverage,
    count_noise,
    coverage_columns,
    coverage_rows,
    household_column,
)

# Trials per block: a block holds max(1, BLOCK_TRIALS // k) zones, which
# bounds each block's arrays (the module docstring gives their bytes). Larger
# blocks were measured to raise peak memory without saving time.
BLOCK_TRIALS = 1 << 16

P95 = 0.95

# Worker processes per simulation at most. The split was measured on a 2-CPU
# host only, where the CPU count is the binding limit.
MAX_WORKERS = 4

# A forked worker's exit status when its share ran out of memory.
_OUT_OF_MEMORY = 2


@dataclass(frozen=True)
class SimulationConfig:
    """Trial count, per-query epsilon and master seed for one simulation."""

    per_query_epsilon: float
    base_seed: int
    k: int = 1000

    def __post_init__(self) -> None:
        if not (is_int(self.k) and self.k >= 1):
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        check_seed(self.base_seed)
        count_noise(self.per_query_epsilon)  # the noise's own epsilon checks


@dataclass(frozen=True)
class ErrorReport:
    """Per-zone deviation summary.

    Statistics are None when no trial produced a defined deviation
    (defined_fraction == 0); k always records the trials attempted.
    """

    zone: str
    mae: float | None
    msd: float | None
    p95: float | None
    k: int
    defined_fraction: float


@dataclass(frozen=True)
class BucketSummary:
    """Mean error statistics over zones grouped by household count.

    high is None for the unbounded top bucket. Means are None when the
    bucket holds no zone with defined statistics.
    """

    low: int
    high: int | None
    zone_count: int
    mean_mae: float | None
    mean_msd: float | None
    mean_p95: float | None


def nearest_rank(values: Sequence[float] | np.ndarray, q: float) -> float:
    """Nearest-rank percentile: element ceil(q*n) of the ascending sort.

    Always returns a member of values; no interpolation.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q!r}")
    data = np.sort(np.asarray(values, dtype=float))
    if data.size == 0:
        raise ValueError("nearest_rank of an empty sequence is undefined")
    return float(data[math.ceil(q * data.size) - 1])


def _trials(
    zones: Sequence[str],
    counts: np.ndarray,
    households: np.ndarray,
    released: np.ndarray,
    config: SimulationConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Deviations and their defined mask, both (zones x k), for zones with a defined release.

    counts holds each zone's noisy counts of COVERAGE_LABELS, in order,
    and released their published coverage; a trial is defined
    where coverage_columns is finite. The three trial arrays come from the
    noise kernel and one scratch array is allocated here; every later step
    runs in place in them, and the deviations are written over the
    non_services trials.
    """
    params = count_noise(config.per_query_epsilon)
    # trials draw iterations 1..k of each count's substream; the release drew iteration 0
    trials = []
    for label, column in zip(COVERAGE_LABELS, counts.T):
        trial = laplace_stream(params, config.base_seed, zones, label, start=1, count=config.k)
        np.add(trial, column[:, None], out=trial)
        np.maximum(0.0, trial, out=trial)  # the scalar first, as it decides signed zeros
        trials.append(trial)
    coverage = coverage_columns(*trials, households[:, None], out=(np.empty_like(trials[2]), trials[2]))
    defined = np.isfinite(coverage)  # before the clip, which turns inf into 1
    return np.subtract(released[:, None], clip_unit(coverage, out=coverage), out=coverage), defined


def trial_deviations(priv: PrivateZipRecord, households: int, config: SimulationConfig) -> np.ndarray:
    """Defined deviations for trials 1..k of one zone.

    Undefined trials are dropped, so the result can be shorter than k.
    """
    counts = [getattr(priv, f"{label}_dp") for label in COVERAGE_LABELS]
    # raises when the release itself has no coverage or households is not a positive integer
    released = clip_unit(compute_coverage(*counts, households))
    d, defined = _trials([priv.zone], np.array([counts]), np.array([households]), np.array([released]), config)
    return d[0][defined[0]]


def _statistics(d: np.ndarray, defined: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (mae, msd, p95, defined trial count) over the defined trials.

    Rows without a defined trial get nan statistics. d and defined are overwritten.
    """
    n = defined.sum(axis=1)
    undefined = np.logical_not(defined, out=defined)
    np.copyto(d, 0.0, where=undefined)  # an undefined trial adds 0 to both sums
    with np.errstate(divide="ignore", invalid="ignore"):
        msd = d.sum(axis=1) / n
        absolute = np.abs(d, out=d)
        mae = absolute.sum(axis=1) / n
    # nearest rank among the defined trials: undefined ones sort last
    np.copyto(absolute, np.inf, where=undefined)
    rank = np.maximum(np.ceil(P95 * n).astype(np.int64) - 1, 0)
    absolute.sort(axis=1)  # not partition(np.unique(rank)): at many distinct ranks that costs more
    p95 = np.where(n > 0, absolute[np.arange(len(n)), rank], np.nan)
    return mae, msd, p95, n


def estimate_error_ranges(
    priv: PrivateZipRecord,
    households: int | None,
    config: SimulationConfig,
) -> ErrorReport:
    """Deviation statistics over k seeded trials for one zone.

    households is the zone's figure, an int, or None. Zones whose released
    coverage is UNDEFINED (not finite: services_dp == 0, no household
    figure or an overflow) get defined_fraction 0 and absent statistics.
    """
    return error_reports_for_release([priv], {} if households is None else {priv.zone: households}, config)[0]


def _workers(blocks: int) -> int:
    """Processes to run this many blocks in: one per usable CPU, at most MAX_WORKERS and blocks.

    One where the platform has no fork or no CPU affinity to count.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(MAX_WORKERS, len(os.sched_getaffinity(0)), blocks))


def _worker(simulate: Callable[[np.ndarray], None], share: list[np.ndarray], parent: int) -> NoReturn:
    """A forked child's life: simulate its share, then os._exit with the share's status.

    The status is 0 when the share is done, _OUT_OF_MEMORY when it raised
    MemoryError and 1 otherwise. It never returns into the caller's frames,
    which belong to the parent. It stops early if the parent dies without
    reaping it. It writes nothing: the parent reports a failed share by its
    exit status.
    """
    status = 1
    try:
        for rows in share:
            if os.getppid() != parent:
                break
            simulate(rows)
        else:
            status = 0
    except MemoryError:
        status = _OUT_OF_MEMORY
    finally:
        os._exit(status)


def _run_blocks(simulate: Callable[[np.ndarray], None], blocks: list[np.ndarray]) -> None:
    """simulate(rows) for every block, in _workers(len(blocks)) processes.

    The blocks are cut into contiguous shares. This process runs the first
    share and a forked child each other one, then reaps every child.
    simulate must write its results into memory shared with the children.
    A child that fails makes this raise, MemoryError if it ran out of
    memory and RuntimeError otherwise; if this process raises, it kills and
    reaps its children first.
    """
    import signal  # here, not at the top, so that a command that simulates nothing never loads it

    workers = _workers(len(blocks))
    bounds = [len(blocks) * worker // workers for worker in range(workers + 1)]
    parent = os.getpid()
    children: list[int] = []
    try:
        # the one other thread numpy starts, OpenBLAS's pool, is shut down
        # by OpenBLAS around fork, and no worker calls BLAS
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            pid = os.fork()
            if pid == 0:
                _worker(simulate, blocks[lo:hi], parent)
            children.append(pid)
        for rows in blocks[: bounds[1]]:
            simulate(rows)
        while children:
            status = os.waitstatus_to_exitcode(os.waitpid(children[0], 0)[1])
            pid = children.pop(0)
            if status == _OUT_OF_MEMORY:
                raise MemoryError(f"in error simulation worker {pid}")
            if status != 0:
                raise RuntimeError(f"error simulation worker {pid} failed with exit status {status}")
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def error_reports_for_release(
    privs: Sequence[PrivateZipRecord],
    households: Mapping[str, int],
    config: SimulationConfig,
) -> Columns[ErrorReport]:
    """Reports for a whole release, in input order.

    privs are Columns of PrivateZipRecord or a list of them, households a
    zone -> int mapping; the reports come back as Columns of ErrorReport.
    Each zone's report is a pure function of its record, its household
    figure and the config, whatever the order or company of the others and
    however many processes share the work.
    """
    import mmap  # here, not at the top, so that a command that simulates nothing never loads it

    table = as_columns(privs, PrivateZipRecord)
    zones = table.column("zone")
    counts = np.column_stack([table.column(f"{label}_dp") for label in COVERAGE_LABELS]).astype(np.float64)
    figures = household_column(zones, households)
    released = coverage_rows(table, figures).column("coverage")
    # mae, msd and p95, then the defined trial counts, in one buffer that
    # forked workers write in place; mmap refuses a length of 0
    n = len(zones)
    shared = mmap.mmap(-1, max(1, 32 * n))
    mae, msd, p95 = statistics = np.frombuffer(shared, np.float64, 3 * n).reshape(3, n)
    statistics[:] = np.nan
    trials = np.frombuffer(shared, np.int64, n, offset=24 * n)
    active = np.flatnonzero(~np.isnan(released))
    per_block = max(1, BLOCK_TRIALS // config.k)

    def simulate(rows: np.ndarray) -> None:
        selected = [zones[i] for i in rows.tolist()]
        d, defined = _trials(selected, counts[rows], figures[rows], released[rows], config)
        mae[rows], msd[rows], p95[rows], trials[rows] = _statistics(d, defined)

    _run_blocks(simulate, [active[lo : lo + per_block] for lo in range(0, len(active), per_block)])
    return Columns(
        ErrorReport,
        zone=zones,
        mae=mae,
        msd=msd,
        p95=p95,
        k=np.full(len(zones), config.k, dtype=np.int64),
        defined_fraction=trials / config.k,
    )


def bucket_by_households(
    reports: Sequence[ErrorReport] | Columns,
    households: Mapping[str, int],
    thresholds: Sequence[int],
) -> list[BucketSummary]:
    """Group zones into half-open household buckets and average their stats.

    reports are Columns of ErrorReport or ReleaseRow, or a list of
    ErrorReports; only each report's zone, mae, msd and p95 are read, so
    the rows of a published release table serve as well as fresh
    ErrorReports. households is a zone -> int mapping, as for
    error_reports_for_release: a figure that household_column refuses
    raises IngestionError naming its zone, and a zone with no figure is
    left out of every bucket. thresholds must be strictly ascending; they
    induce buckets [t0, t1), ..., [t_{n-2}, t_{n-1}), plus an unbounded
    [t_{n-1}, inf), so every zone with a figure at or above the first
    threshold lands in exactly one bucket. A figure below the first
    threshold is an error. Zones with absent statistics count toward
    zone_count but not toward the means.
    """
    thresholds = list(thresholds)
    if not thresholds:
        raise ValueError("at least one threshold is required")
    if not all(map(is_int, thresholds)):
        raise ValueError(f"thresholds must be integers, got {thresholds!r}")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError(f"thresholds must be strictly ascending, got {thresholds!r}")

    table = as_columns(reports, ErrorReport)
    zones = table.column("zone")
    figures = household_column(zones, households)
    present = figures > 0
    bucket = np.searchsorted(np.asarray(thresholds, dtype=np.int64), figures, side="right") - 1
    below = np.flatnonzero(present & (bucket < 0))
    if below.size:
        row = int(below[0])
        raise ValueError(
            f"zone {zones[row]} has households={int(figures[row])}, below the first threshold {thresholds[0]}"
        )

    highs: list[int | None] = [*thresholds[1:], None]
    mae, msd, p95 = (table.column(name) for name in ("mae", "msd", "p95"))
    defined = ~np.isnan(mae)
    summaries = []
    for index, (low, high) in enumerate(zip(thresholds, highs)):
        members = present & (bucket == index)
        chosen = members & defined
        if chosen.any():
            # np.mean over the member zones' values in zone order, as a list of them would give
            means = [float(np.mean(column[chosen])) for column in (mae, msd, p95)]
        else:
            means = [None, None, None]
        summaries.append(BucketSummary(low, high, int(members.sum()), *means))
    return summaries
