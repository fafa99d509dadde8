"""Seeded Laplace noise for privatizing count queries.

Every noise draw is addressed by four values, (base_seed, zone, label,
iteration), which laplace_stream, laplace_sample and privatize_count take
in that order (laplace_stream names the iteration start). A draw is a
pure function of its address: zones can be privatized in any order, or in
any grouping, without changing a single output bit. laplace_stream alone
checks an address, so every entry point refuses a bad one with the same
message: base_seed is an unsigned 64-bit integer, and the iteration an
integer position below 2**66.

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
any position of any substream costs O(1). A call reads its words one of
two ways, by one rule. Streams of one word each (a release's draws) are
computed as numpy uint64 arithmetic, Philox4x64-10 written out over the
whole column at once. Longer streams (the error simulation's 1,000
words) build one numpy generator per call, re-address it for each
stream by setting its state, and read the stream with random_raw; no
generator outlives the call, so the module holds no state and calls in
several threads at once do not share one. The two give the same bits.
Word 1 of the counter is always 0, so a substream has 2**66 positions;
a read past the last one is refused.

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

Each of the three takes a zone or a sequence of zones: given a sequence,
the result gains a leading axis with one row per zone, which is how the
release and the error simulation draw a whole column of zones in one call.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from dpcoverage.accountant import ParameterError, check_seed, is_int

NOISE_FORMAT = 2
# Second key word of every format-2 draw: the ASCII bytes "dpcovf02".
NOISE_DOMAIN = int.from_bytes(b"dpcovf02", "little")
_LANES = 4  # 64-bit words per Philox4x64 block
_POSITIONS = 2**64 * _LANES  # counter word 0 is iteration // 4, and word 1 is always 0
# Philox4x64-10's constants (Salmon et al.): the round multipliers and the key schedule's increments
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_KEY_STEPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


@dataclass(frozen=True)
class LaplaceParams:
    """Parameters of one Laplace count-noise draw.

    The noise scale is always sensitivity / epsilon. It is exposed as a
    derived property rather than a stored field so the relationship cannot
    drift; count queries use sensitivity 1 (one user changes any count by
    at most 1). An epsilon so small that the scale overflows is refused,
    and so is one whose draws can overflow what the pipeline adds them to:
    a count below 2**63 plus its release draw plus a simulation trial's.
    """

    sensitivity: float
    epsilon: float

    def __post_init__(self) -> None:
        if not (is_real(self.sensitivity) and self.sensitivity > 0):
            raise ParameterError(f"sensitivity must be a positive finite real, got {self.sensitivity!r}")
        if not (is_real(self.epsilon) and self.epsilon > 0):
            raise ParameterError(f"epsilon must be a positive finite real, got {self.epsilon!r}")
        if not math.isfinite(self.scale):
            raise ParameterError(f"noise scale {self.sensitivity!r} / {self.epsilon!r} is not finite")
        if not math.isfinite(2.0**63 + 2 * self.scale * MAX_DRAW_SCALES):
            raise ParameterError(f"noise scale {self.scale!r} can overflow a noisy count")

    @property
    def scale(self) -> float:
        return self.sensitivity / self.epsilon


def is_real(value: object) -> bool:
    """A finite float, or an int in float range that is not a bool: True is no epsilon or count either."""
    if isinstance(value, float):
        return math.isfinite(value)
    return is_int(value) and abs(value) <= sys.float_info.max


def _digests(zones: Sequence[str], label: str) -> np.ndarray:
    """(len(zones), 2) uint64: the halves h0, h1 of each zone's BLAKE2b digest, read at once."""
    suffix = b"\x1f" + label.encode("utf-8")
    data = b"".join([hashlib.blake2b(zone.encode("utf-8") + suffix, digest_size=16).digest() for zone in zones])
    return np.frombuffer(data, dtype="<u8").reshape(len(zones), 2)


def _mulhilo(a: np.ndarray, multiplier: int) -> tuple[np.ndarray, np.ndarray]:
    """Low and high words of the 128-bit products multiplier * a, elementwise, from 32-bit halves."""
    m_lo, m_hi = np.uint64(multiplier & 0xFFFFFFFF), np.uint64(multiplier >> 32)
    a_lo, a_hi = a & _LOW32, a >> _32
    lh, hl = a_lo * m_hi, a_hi * m_lo
    carries = ((a_lo * m_lo) >> _32) + (lh & _LOW32) + (hl & _LOW32)  # under 2**34: no overflow
    return a * np.uint64(multiplier), a_hi * m_hi + (lh >> _32) + (hl >> _32) + (carries >> _32)


def _philox_words(base_seed: int, halves: np.ndarray, start: int) -> np.ndarray:
    """Word start of each zone's substream, elementwise: Philox4x64-10 in numpy uint64 arithmetic.

    Bit for bit what _raw_words' random_raw path reads: that generator
    increments its counter before it computes a block, so the block is the
    one at counter word 0 = start // 4 + 1, carrying into word 1. Every
    operand is a uint64 array or np.uint64 scalar, so numpy 1.x's
    value-based casting never widens one.
    """
    block = start // _LANES + 1
    x0 = np.full(len(halves), block % 2**64, dtype=np.uint64)
    x1 = np.full(len(halves), block >> 64, dtype=np.uint64)
    x2, x3 = halves[:, 0], halves[:, 1]
    k0, k1 = base_seed, NOISE_DOMAIN
    for _ in range(_ROUNDS):
        lo0, hi0 = _mulhilo(x0, _MULTIPLIERS[0])
        lo1, hi1 = _mulhilo(x2, _MULTIPLIERS[1])
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ np.uint64(k1), lo0
        k0, k1 = (k0 + _KEY_STEPS[0]) % 2**64, (k1 + _KEY_STEPS[1]) % 2**64
    return (x0, x1, x2, x3)[start % _LANES]


def _raw_words(base_seed: int, zones: Sequence[str], label: str, start: int, count: int) -> np.ndarray:
    """uint64 words at positions start..start+count-1 of each zone's substream."""
    halves = _digests(zones, label)
    words = np.empty((len(zones), count), dtype=np.uint64)
    if count == 1:
        words[:, 0] = _philox_words(base_seed, halves, start)
        return words
    bitgen = np.random.Philox(key=0)  # this call's own, re-addressed for every stream
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
    for row, (h0, h1) in enumerate(halves.tolist()):
        counter[2], counter[3] = h0, h1
        bitgen.state = state
        words[row] = bitgen.random_raw(lane + count)[lane:]
    return words


# A draw of _laplace_from_words is at most scale * MAX_DRAW_SCALES in size: 1 - 2|u| is
# at least 2**-52, so |x| <= scale * 52 ln 2, and one ln 2 more covers the rounding.
MAX_DRAW_SCALES = 53 * math.log(2)


def _laplace_from_words(words: np.ndarray, scale: float) -> np.ndarray:
    """Laplace(0, scale) variates, one per 64-bit word, elementwise; words is overwritten."""
    t, x = np.empty(words.shape), np.empty(words.shape)
    np.right_shift(words, np.uint64(11), out=words)
    np.bitwise_or(words, np.uint64(1), out=words)  # 2m + 1, below 2**53, so exact as a float
    np.subtract(words, 2.0**52, out=t)  # 2**53 u, exact, never 0
    np.abs(t, out=x)
    np.subtract(2.0**52, x, out=x)
    x *= 2.0**-52  # 1 - 2|u|, exact, in (0, 1)
    np.log(x, out=x)
    x *= -scale
    return np.copysign(x, t, out=x)


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
    check_seed(base_seed)
    if not (is_int(start) and is_int(count)):
        raise ParameterError(f"start and count must be integers, got start={start!r} count={count!r}")
    if start < 0 or count < 0:
        raise ParameterError(f"start and count must be nonnegative, got start={start} count={count}")
    if start >= _POSITIONS or start + count > _POSITIONS:  # start names a position even for count 0
        raise ParameterError(f"a substream has 2**66 positions; start={start} count={count} reads past them")
    zones = [zone] if isinstance(zone, str) else zone
    draws = _laplace_from_words(_raw_words(base_seed, zones, label, start, count), params.scale)
    return draws[0] if isinstance(zone, str) else draws


def laplace_sample(
    params: LaplaceParams, base_seed: int, zone: str | Sequence[str], label: str, iteration: int = 0
) -> float | np.ndarray:
    """One draw from Laplace(0, params.scale) per zone, at position iteration: laplace_stream's, count 1."""
    draws = laplace_stream(params, base_seed, zone, label, start=iteration, count=1)
    return float(draws[0]) if isinstance(zone, str) else draws[:, 0]


def privatize_count(
    count: int | float | np.ndarray, params: LaplaceParams, base_seed: int, zone: str | Sequence[str], label: str,
    iteration: int = 0,
) -> float | np.ndarray:
    """Noisy nonnegative count: max(0, count + laplace_sample at the address), the count checked first.

    The result is real-valued; rounding to integers is left to callers
    that need it. Clamping negatives to zero is post-processing of the
    noisy value and costs no additional privacy. Given a sequence of
    zones, count holds one count per zone: an integer or float array, or
    a sequence of ints and floats, never a bool.
    """
    if isinstance(zone, str):
        if not (is_real(count) and count >= 0):
            raise ParameterError(f"count must be a nonnegative finite number, got {count!r}")
        return max(0.0, float(count) + laplace_sample(params, base_seed, zone, label, iteration))
    numbers = (count.dtype.kind in "iuf" if isinstance(count, np.ndarray)  # no bool, string or object column
               else isinstance(count, Sequence) and all(map(is_real, count)))  # np.asarray([True, 2.0]) is float64
    counts = np.asarray(count, dtype=np.float64) if numbers else None
    if counts is None or counts.shape != (len(zone),) or not np.all(np.isfinite(counts) & (counts >= 0)):
        raise ParameterError(f"counts must be {len(zone)} nonnegative finite numbers")
    return np.maximum(0.0, counts + laplace_sample(params, base_seed, zone, label, iteration))
