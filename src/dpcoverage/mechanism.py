"""Seeded Laplace noise for privatizing count queries.

Every noise draw is addressed by a (base_seed, zone, label, iteration)
tuple, and a draw is a pure function of its address: zones can be
privatized in any order, or in any grouping, without changing a single
output bit.

Noise format 2 (recorded as "noise_format": 2 in every manifest) reads
the draws from the counter-based generator Philox4x64-10 (Salmon et al.,
"Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011), as implemented
by numpy's np.random.Philox:

    key     = (base_seed, NOISE_DOMAIN)
    counter = (iteration // 4, 0, h0, h1)
    lane    = iteration % 4

where h0, h1 are the two little-endian 64-bit halves of the 16-byte
BLAKE2b digest of ``zone + "\\x1f" + label`` (UTF-8). The draw is 64-bit
word ``lane`` of the block a freshly built
``np.random.Philox(key=key, counter=counter)`` emits first, so reaching
any position of any substream costs O(1). One generator per thread is
re-addressed by setting its state; no per-stream generator is built.

Sampling uses the inverse CDF of the Laplace distribution,

    x = -scale * sgn(u) * ln(1 - 2|u|),   u uniform on (-1/2, 1/2),

so one 64-bit word maps to exactly one Laplace variate. The uniform is
the odd 52-bit lattice u = (2m + 1) / 2**53 - 1/2, with m the top 52 bits
of the word: it is symmetric about 0, never 0 or +-1/2, and 1 - 2|u| is
exact, so ln(0) is unreachable by construction rather than by rejection.

This is the textbook real-valued sampler. It does not defend against
floating-point attacks that exploit the bit patterns of naively sampled
Laplace noise (Mironov, CCS 2012); use a discrete mechanism if that is
part of your threat model.

Functions that take a zone also take a sequence of zones: the result then
gains a leading axis with one row per zone, which is how the release and
the error simulation draw a whole column of zones in one call.
"""

from __future__ import annotations

import hashlib
import math
import struct
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_U64_MAX = (1 << 64) - 1

NOISE_FORMAT = 2
# Second key word of every format-2 draw: the ASCII bytes "dpcovf02".
NOISE_DOMAIN = int.from_bytes(b"dpcovf02", "little")
_LANES = 4  # 64-bit words per Philox4x64 block
_HALVES = struct.Struct("<QQ")

_local = threading.local()


class ParameterError(ValueError):
    """A noise parameter is outside its domain."""


@dataclass(frozen=True)
class LaplaceParams:
    """Parameters of one Laplace count-noise draw.

    The noise scale is always sensitivity / epsilon. It is exposed as a
    derived property rather than a stored field so the relationship cannot
    drift; count queries use sensitivity 1 (one user changes any count by
    at most 1).
    """

    sensitivity: float
    epsilon: float

    def __post_init__(self) -> None:
        if not (isinstance(self.sensitivity, (int, float)) and math.isfinite(self.sensitivity) and self.sensitivity > 0):
            raise ParameterError(f"sensitivity must be a positive finite real, got {self.sensitivity!r}")
        if not (isinstance(self.epsilon, (int, float)) and math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ParameterError(f"epsilon must be a positive finite real, got {self.epsilon!r}")

    @property
    def scale(self) -> float:
        return self.sensitivity / self.epsilon


@dataclass(frozen=True)
class NoiseSeed:
    """Address of a single noise draw, or of one draw per zone.

    base_seed is the 64-bit unsigned master seed of the whole run. zone
    and label name the substream (for example a zip code and the count
    being privatized); iteration is the position within the substream.
    Identical addresses reproduce the same draw bit for bit; distinct
    addresses give statistically independent draws. A tuple of zones
    addresses the same label and iteration in each of them.
    """

    base_seed: int
    zone: str | tuple[str, ...]
    label: str
    iteration: int = 0

    def __post_init__(self) -> None:
        _check_seed(self.base_seed)
        if not (isinstance(self.iteration, int) and self.iteration >= 0):
            raise ParameterError(f"iteration must be a nonnegative integer, got {self.iteration!r}")


def _check_seed(base_seed: int) -> None:
    if not (isinstance(base_seed, int) and 0 <= base_seed <= _U64_MAX):
        raise ParameterError(f"base_seed must be an unsigned 64-bit integer, got {base_seed!r}")


def _bit_generator() -> np.random.Philox:
    """This thread's Philox generator; callers re-address it before every read."""
    bitgen = getattr(_local, "philox", None)
    if bitgen is None:
        bitgen = _local.philox = np.random.Philox(key=0)
    return bitgen


def _raw_words(base_seed: int, zones: Sequence[str], label: str, start: int, count: int) -> np.ndarray:
    """uint64 words at positions start..start+count-1 of each zone's substream."""
    bitgen = _bit_generator()
    lane = start % _LANES
    counter = [start // _LANES, 0, 0, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": [base_seed, NOISE_DOMAIN]},
        "buffer": [0] * _LANES,
        "buffer_pos": _LANES,  # buffer empty: the next read computes the block after `counter`
        "has_uint32": 0,
        "uinteger": 0,
    }
    suffix = b"\x1f" + label.encode("utf-8")
    words = np.empty((len(zones), count), dtype=np.uint64)
    for row, zone in enumerate(zones):
        digest = hashlib.blake2b(zone.encode("utf-8") + suffix, digest_size=16).digest()
        counter[2], counter[3] = _HALVES.unpack(digest)
        bitgen.state = state
        words[row] = bitgen.random_raw(lane + count)[lane:]
    return words


def _laplace_from_words(words: np.ndarray, scale: float) -> np.ndarray:
    """Laplace(0, scale) variates, one per 64-bit word, elementwise."""
    u = ((words >> np.uint64(11)) | np.uint64(1)).astype(np.float64)  # 2m + 1
    u *= 2.0**-53
    u -= 0.5
    x = np.abs(u)
    x *= -2.0
    x += 1.0  # 1 - 2|u|, exact, in (0, 1)
    np.log(x, out=x)
    x *= -scale
    return np.copysign(x, u, out=x)


def laplace_stream(
    params: LaplaceParams,
    base_seed: int,
    zone: str | Sequence[str],
    label: str,
    *,
    start: int = 0,
    count: int = 1,
) -> np.ndarray:
    """Laplace draws at positions start..start+count-1 of one substream.

    Cost is O(count) wherever the positions lie. Given a sequence of
    zones, returns a (len(zones), count) array whose row i is zones[i]'s
    stream; every row is bit-identical to the single-zone call.
    """
    _check_seed(base_seed)
    if start < 0 or count < 0:
        raise ParameterError(f"start and count must be nonnegative, got start={start} count={count}")
    zones = [zone] if isinstance(zone, str) else zone
    draws = _laplace_from_words(_raw_words(base_seed, zones, label, start, count), params.scale)
    return draws[0] if isinstance(zone, str) else draws


def laplace_sample(params: LaplaceParams, seed: NoiseSeed) -> float | np.ndarray:
    """One draw from Laplace(0, params.scale) per zone of the seed, a pure function of it."""
    draws = laplace_stream(params, seed.base_seed, seed.zone, seed.label, start=seed.iteration, count=1)
    return float(draws[0]) if isinstance(seed.zone, str) else draws[:, 0]


def privatize_count(count: int | float | np.ndarray, params: LaplaceParams, seed: NoiseSeed) -> float | np.ndarray:
    """Noisy nonnegative count: max(0, count + Laplace noise).

    The result is real-valued; rounding to integers is left to callers
    that need it. Clamping negatives to zero is post-processing of the
    noisy value and costs no additional privacy. With a tuple of zones in
    the seed, count is an array with one count per zone.
    """
    if isinstance(seed.zone, str):
        if not (isinstance(count, (int, float)) and math.isfinite(count) and count >= 0):
            raise ParameterError(f"count must be a nonnegative finite number, got {count!r}")
        return max(0.0, float(count) + laplace_sample(params, seed))
    counts = np.asarray(count, dtype=np.float64)
    if counts.shape != (len(seed.zone),) or not np.all(np.isfinite(counts) & (counts >= 0)):
        raise ParameterError(f"counts must be {len(seed.zone)} nonnegative finite numbers")
    return np.maximum(0.0, counts + laplace_sample(params, seed))
