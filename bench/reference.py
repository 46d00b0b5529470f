"""A fixed job that runs no comblevy code: the benchmark's yardstick of host speed.

    python3 reference.py

It imports numpy and scipy.special, as every comblevy CLI process does, then
runs a fixed pure-Python loop of big-integer bit operations, dict updates and
a JSON round trip, the kinds of work the structure, jump-chain and CSV code
does.  The benchmark runs it in a fresh interpreter before each pass and
reports the run's times at the host speed where this job takes
``run.REFERENCE_NOMINAL_S``.  Any change here changes every reported time.
"""

from __future__ import annotations

import json

import numpy  # noqa: F401
import scipy.special  # noqa: F401

ROUNDS = 150_000
WIDTH = 4096  # bits per mask, as a graph on 64 vertices


def main() -> int:
    state = 0x9E3779B97F4A7C15
    mask = 0
    counts: dict[int, int] = {}
    for _ in range(ROUNDS):
        state = (state * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
        mask ^= 1 << (state % WIDTH)
        key = state >> 54
        counts[key] = counts.get(key, 0) + mask.bit_count()
    text = json.dumps({str(k): v for k, v in counts.items()})
    return 0 if sum(json.loads(text).values()) == sum(counts.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
