"""Write the known-answer vectors of noise format 2.

    python3 tools/noise_vectors.py [OUT]

OUT defaults to tests/data/noise_format_2.json, which
tests/test_noise_vectors.py checks the package against. Rerun this only
in a change that bumps dpcoverage.mechanism.NOISE_FORMAT, and then
rewrite it for the new format first: the file pins the format, so
regenerating it for any other change would hide the very change it is
there to catch. The script refuses to run when NOISE_FORMAT is not 2.

Every value comes from the format's definition, not from the package's
code paths. A word is read from an np.random.Philox built at the draw's
address, key (seed, "dpcovf02") and counter (start // 4, 0, h0, h1),
with h0, h1 the little-endian halves of BLAKE2b-128(zone "\\x1f" label);
it is word start % 4 of the first block that generator emits. A draw is
computed from its word in Python floats with math.log, at scale 10:

    u = (2 (word >> 12) + 1) / 2**53 - 1/2,   x = -10 sgn(u) ln(1 - 2|u|)

The file holds:

- "vectors", one [seed, zone, label, start, word, draw] per address, the
  word as 16 hex digits and the draw as float.hex: every seed of SEEDS,
  start of STARTS, zone of ZONES and count label;
- "streams", one [seed, zone, label, start, count, sha256] per stream of
  STREAMS, the sha256 of its count words, 8 little-endian bytes each.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from dpcoverage.mechanism import NOISE_FORMAT
from dpcoverage.release import COUNT_LABELS

FORMAT = 2
DOMAIN = int.from_bytes(b"dpcovf02", "little")
SCALE = 10.0
SEEDS = (0, 1, 2**64 - 1)
# lanes 0-3 of the first block; 2**62; the last block, whose counter word 0 wraps and carries into word 1
STARTS = (0, 1, 2, 3, 2**62, 2**66 - 4, 2**66 - 3, 2**66 - 2, 2**66 - 1)
# UTF-8 of 2, 3 and 4 bytes a character in the last three
ZONES = ("00000", "99999", "0123é", "東京", "\U0001f600")
STREAMS = (
    (0, "00000", "high_speed", 1, 1000),
    (1, "0123é", "services", 1, 1000),
    (2**64 - 1, "99999", "non_services", 1, 1000),
)
OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / f"noise_format_{FORMAT}.json"


def words(seed: int, zone: str, label: str, start: int, count: int) -> np.ndarray:
    """Words start..start+count-1 of a substream, from one Philox built at its address."""
    digest = hashlib.blake2b(f"{zone}\x1f{label}".encode("utf-8"), digest_size=16).digest()
    h0, h1 = int.from_bytes(digest[:8], "little"), int.from_bytes(digest[8:], "little")
    philox = np.random.Philox(
        key=np.array([seed, DOMAIN], dtype=np.uint64),
        counter=np.array([start // 4, 0, h0, h1], dtype=np.uint64),
    )
    return philox.random_raw(start % 4 + count)[start % 4:]


def draw(word: int) -> float:
    u = (2 * (word >> 12) + 1) / 2**53 - 0.5
    return -SCALE * math.copysign(1.0, u) * math.log(1.0 - 2.0 * abs(u))


def main(argv: list[str]) -> int:
    if NOISE_FORMAT != FORMAT:
        print(f"error: the package writes noise format {NOISE_FORMAT}; this script transcribes format {FORMAT}",
              file=sys.stderr)
        return 1
    out = Path(argv[0]) if argv else OUT
    vectors = []
    for seed in SEEDS:
        for start in STARTS:
            for zone in ZONES:
                for label in COUNT_LABELS:
                    word = int(words(seed, zone, label, start, 1)[0])
                    vectors.append([seed, zone, label, start, f"{word:016x}", draw(word).hex()])
    streams = [[*address, hashlib.sha256(words(*address).astype("<u8").tobytes()).hexdigest()]
               for address in STREAMS]
    def rows(items: list) -> str:  # one JSON row a line, so a regenerated file diffs line by line
        return ",\n".join(map(json.dumps, items))

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(f'{{"noise_format": {FORMAT}, "scale": {SCALE!r},\n"vectors": [\n{rows(vectors)}\n],\n'
                   f'"streams": [\n{rows(streams)}\n]}}\n', encoding="utf-8")
    print(f"{len(vectors)} vectors and {len(streams)} streams -> {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
