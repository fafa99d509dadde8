"""Scalar reference implementations that the column code is checked against.

One zone and one trial at a time, in plain Python: the coverage formula,
the clip and the statistics are spelled out here, and only the Laplace
draws come from the package (laplace_sample), so a fault in the column
passes of dpcoverage.release or dpcoverage.errorsim cannot hide in the
reference.

read_table is the same for the CSV readers: one row at a time with the
csv module, each field converted with its documented message, then the
record's public row rule, then the repeated zone.

laplace_from_words keeps the noise kernel's transform from words to
draws as it was first written, in eleven array steps, so that any
rewrite of mechanism._laplace_from_words is held to it bit for bit.
"""

import csv
import math

import numpy as np

from dpcoverage.accountant import as_epsilon
from dpcoverage.io import COUNTS_HEADER, HOUSEHOLDS_HEADER, PRIVATE_COUNTS_HEADER, RELEASE_HEADER, CsvFormatError
from dpcoverage.mechanism import LaplaceParams, laplace_sample
from dpcoverage.release import (
    PrivateZipRecord,
    ReleaseRow,
    household_problem,
    private_zip_problem,
    raw_zip_problem,
    release_row_problem,
)

SIMULATED_LABELS = ("high_speed", "services", "non_services")


def _coverage(high: float, services: float, non_services: float, households: int) -> float:
    return high * (services + non_services) / (services * households)


def _clip(value: float) -> float:
    return min(1.0, max(0.0, value))


def estimate_coverage(priv: PrivateZipRecord, households: int | None) -> ReleaseRow:
    """Release row from noisy counts, error columns empty; UNDEFINED when coverage has no value."""
    if households is None or priv.services_dp == 0:
        return ReleaseRow(priv.zone, None, None, None, None, None, priv.epsilon_total)
    raw = _coverage(priv.high_speed_dp, priv.services_dp, priv.non_services_dp, households)
    return ReleaseRow(priv.zone, _clip(raw), raw, None, None, None, priv.epsilon_total)


def deviation_from_noise(
    priv: PrivateZipRecord,
    households: int,
    eta_high: float,
    eta_services: float,
    eta_non_services: float,
) -> float | None:
    """Deviation of one re-noised trial from the released coverage.

    Pure in the noise: the three Laplace draws are passed explicitly.
    Returns None when the trial (or the release itself) has no defined
    coverage.
    """
    if priv.services_dp == 0:
        return None
    released = _clip(_coverage(priv.high_speed_dp, priv.services_dp, priv.non_services_dp, households))
    high = max(0.0, priv.high_speed_dp + eta_high)
    services = max(0.0, priv.services_dp + eta_services)
    non_services = max(0.0, priv.non_services_dp + eta_non_services)
    if services == 0:
        return None
    return released - _clip(_coverage(high, services, non_services, households))


def simulate_once(
    priv: PrivateZipRecord, households: int, per_query_epsilon: float, base_seed: int, iteration: int
) -> float | None:
    """One re-noised trial at position iteration.

    The three draws come from substreams (priv.zone, "high_speed"/"services"/"non_services") at
    that position, under base_seed.
    """
    params = LaplaceParams(1.0, float(per_query_epsilon))
    etas = [laplace_sample(params, base_seed, priv.zone, label, iteration) for label in SIMULATED_LABELS]
    return deviation_from_noise(priv, households, *etas)


def laplace_from_words(words: np.ndarray, scale: float) -> np.ndarray:
    """Laplace(0, scale) variates of 64-bit words: u = (2m + 1) / 2**53 - 1/2, x = -scale sgn(u) ln(1 - 2|u|)."""
    words = words >> np.uint64(11)
    words |= np.uint64(1)  # 2m + 1, m the top 52 bits
    u = words.astype(np.float64)
    u *= 2.0**-53
    u -= 0.5
    x = np.abs(u)
    x *= -2.0
    x += 1.0  # 1 - 2|u|, exact
    np.log(x, out=x)
    x *= -scale
    return np.copysign(x, u, out=x)


def summarize_deviations(deviations: list[float]) -> tuple[float, float, float]:
    """(mae, msd, nearest-rank p95 of |d|) of a list of defined deviations."""
    if not deviations:
        raise ValueError("cannot summarize zero deviations")
    absolute = sorted(abs(d) for d in deviations)
    n = len(deviations)
    return math.fsum(absolute) / n, math.fsum(deviations) / n, absolute[math.ceil(0.95 * n) - 1]


def _integer(name: str):
    def convert(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {text!r}") from None

    return convert


def _optional_real(name: str):
    def convert(text: str) -> float | None:
        try:
            return None if text == "" else float(text)
        except ValueError:
            raise ValueError(f"{name} must be a real number, got {text!r}") from None

    return convert


# per format: header, one convert per field after the zone, row rule
FORMATS = {
    "counts": (COUNTS_HEADER, [_integer(name) for name in COUNTS_HEADER[1:]], raw_zip_problem),
    "households": (HOUSEHOLDS_HEADER, [_integer("households")], household_problem),
    "release": (RELEASE_HEADER, [*map(_optional_real, RELEASE_HEADER[1:6]), as_epsilon], release_row_problem),
    "private-counts": (PRIVATE_COUNTS_HEADER, [float] * 4 + [as_epsilon], private_zip_problem),
}


def read_table(path, form: str) -> list[list]:
    """One list of values per column of a file in the given format, zones first, read row by row."""
    header, converts, rule = FORMATS[form]
    columns = [[] for _ in header]
    seen = set()
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)

        def refuse(problem: str) -> CsvFormatError:
            return CsvFormatError(f"{path}: line {reader.line_num}: {problem}")

        try:
            first = next(reader, None)
        except csv.Error as exc:
            raise refuse(str(exc))
        if first is None:
            raise CsvFormatError(f"{path}: empty file, expected header {','.join(header)}")
        if first != header:
            raise CsvFormatError(f"{path}: bad header {','.join(first)!r}, expected {','.join(header)!r}")
        while True:
            try:
                row = next(reader, None)
            except csv.Error as exc:
                raise refuse(str(exc))
            if row is None:
                return columns
            if len(row) != len(header):
                raise refuse(f"expected {len(header)} fields, got {len(row)}")
            values = [row[0]]
            for convert, text in zip(converts, row[1:]):
                try:
                    values.append(convert(text))
                except ValueError as exc:
                    raise refuse(str(exc))
            problem = rule(*values)
            if problem is not None:
                raise refuse(problem)
            if row[0] in seen:
                raise refuse(f"duplicate zone {row[0]}")
            seen.add(row[0])
            for column, value in zip(columns, values):
                column.append(value)
