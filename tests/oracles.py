"""Scalar reference implementations that the column code is checked against.

One zone and one trial at a time, in plain Python: the coverage formula,
the clip and the statistics are spelled out here, and only the Laplace
draws come from the package (laplace_sample), so a fault in the column
passes of dpcoverage.release or dpcoverage.errorsim cannot hide in the
reference.
"""

import math

from dpcoverage.mechanism import LaplaceParams, NoiseSeed, laplace_sample
from dpcoverage.release import PrivateZipRecord, ReleaseRow

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


def simulate_once(priv: PrivateZipRecord, households: int, per_query_epsilon: float, seed: NoiseSeed) -> float | None:
    """One re-noised trial at the seed's iteration index.

    The three draws come from substreams (priv.zone, "high_speed"/"services"/"non_services") at
    seed.iteration; only base_seed and iteration are read from the seed.
    """
    params = LaplaceParams(1.0, float(per_query_epsilon))
    etas = [
        laplace_sample(params, NoiseSeed(seed.base_seed, priv.zone, label, seed.iteration))
        for label in SIMULATED_LABELS
    ]
    return deviation_from_noise(priv, households, *etas)


def summarize_deviations(deviations: list[float]) -> tuple[float, float, float]:
    """(mae, msd, nearest-rank p95 of |d|) of a list of defined deviations."""
    if not deviations:
        raise ValueError("cannot summarize zero deviations")
    absolute = sorted(abs(d) for d in deviations)
    n = len(deviations)
    return math.fsum(absolute) / n, math.fsum(deviations) / n, absolute[math.ceil(0.95 * n) - 1]
