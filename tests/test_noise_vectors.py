"""Noise format 2 against its committed known-answer vectors.

tests/data/noise_format_2.json was written by tools/noise_vectors.py from
the format's definition (a freshly built np.random.Philox per address and
the inverse CDF in Python floats), and is regenerated only by a change
that bumps NOISE_FORMAT. So a change of hash, key, counter layout, lane,
lattice or sign, here or in numpy's Philox, fails these tests, however
the package's own paths agree with each other.

Words must match exactly. Draws must match within 2 ulp: np.log rounds
differently by SIMD level, and the file's draws come from math.log.
"""

import hashlib
import json
from collections import defaultdict
from pathlib import Path

import numpy as np

from dpcoverage import mechanism
from dpcoverage.mechanism import LaplaceParams, laplace_stream

VECTORS = json.loads((Path(__file__).parent / "data" / "noise_format_2.json").read_text(encoding="utf-8"))
SCALE10 = LaplaceParams(1.0, 0.1)
LAST = 2**66 - 1  # the last position of a substream: no two-word read starts there

# (seed, label, start) -> the zones there, with the word and the draw the file records for each
GROUPS = defaultdict(list)
for _seed, _zone, _label, _start, _word, _draw in VECTORS["vectors"]:
    GROUPS[_seed, _label, _start].append((_zone, int(_word, 16), float.fromhex(_draw)))


def _zones_words_draws(group):
    zones, words, draws = zip(*group)
    return list(zones), list(words), np.array(draws)


def _ulps_apart(a: np.ndarray, b: np.ndarray) -> int:
    """Largest distance in units in the last place between float64 arrays of the same signs."""
    assert np.array_equal(np.signbit(a), np.signbit(b))
    return int(np.max(np.abs(a.view(np.int64) - b.view(np.int64)), initial=0))


def test_the_vectors_pin_the_format_the_package_writes():
    assert mechanism.NOISE_FORMAT == VECTORS["noise_format"] == 2
    assert SCALE10.scale == VECTORS["scale"]
    assert len(VECTORS["vectors"]) == len(GROUPS) * 5 == 540  # 3 seeds, 9 starts, 4 labels, 5 zones


def test_the_array_philox_reads_every_pinned_word():
    for (seed, label, start), group in GROUPS.items():
        zones, words, _ = _zones_words_draws(group)
        assert mechanism._raw_words(seed, zones, label, start, 1)[:, 0].tolist() == words, (seed, label, start)


def test_numpys_generator_reads_every_pinned_word_that_starts_a_two_word_read():
    for (seed, label, start), group in GROUPS.items():
        if start == LAST:
            continue
        zones, words, _ = _zones_words_draws(group)
        assert mechanism._raw_words(seed, zones, label, start, 2)[:, 0].tolist() == words, (seed, label, start)


def test_every_pinned_draw_within_2_ulp_on_both_word_paths():
    for (seed, label, start), group in GROUPS.items():
        zones, _, draws = _zones_words_draws(group)
        for count in (1, 2) if start != LAST else (1,):
            found = laplace_stream(SCALE10, seed, zones, label, start=start, count=count)[:, 0]
            assert _ulps_apart(found, draws) <= 2, (seed, label, start, count)


def test_the_pinned_1000_word_streams():
    assert len(VECTORS["streams"]) == 3
    for seed, zone, label, start, count, digest in VECTORS["streams"]:
        words = mechanism._raw_words(seed, [zone], label, start, count)[0]
        assert hashlib.sha256(words.astype("<u8").tobytes()).hexdigest() == digest, (seed, zone, label)
