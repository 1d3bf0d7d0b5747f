"""How fast the machine runs right now, from short fixed probe kernels.

On a shared host the same work can take up to 1.8x as long for minutes
at a time, because other tenants compete for the core and its caches.
The benchmark therefore runs ``factor()`` before and after every timed
request and divides the request's latency by the mean of the two. It
reports the result in seconds at reference speed. The three kernels
resemble the program's hot paths and use no pstiefel code: a dense
Cauchy product of small residues (the series layer), the same product
over 200-bit integers (big coefficients), and building and rendering a
nested list as JSON (the CLI's reports). The normalisation is the same
for the program and for any change to it.

REFERENCE_S holds each kernel's time, rounded, on the reference
machine, a 2-vCPU Intel Xeon VM under Python 3.11; there ``factor()``
reads about 1.0 to 1.1. On another machine the ratio of two commits
still holds, but the absolute seconds are not that machine's wall time.
"""

from __future__ import annotations

import json
import math
import random
from time import perf_counter

_rng = random.Random(20151008)
_SMALL = tuple(_rng.randrange(1, 97) for _ in range(40))
_BIG = tuple(_rng.getrandbits(200) for _ in range(64))


def _residue_product() -> list[int]:
    out = [0] * len(_SMALL)
    for i, a in enumerate(_SMALL):
        for j, b in enumerate(_SMALL[:len(_SMALL) - i]):
            if b:
                out[i + j] += a * b
    return [c % 97 for c in out]


def _bigint_product() -> list[int]:
    out = [0] * len(_BIG)
    for i, a in enumerate(_BIG):
        for j in range(len(_BIG) - i):
            out[i + j] += a * _BIG[j]
    return out


def _render() -> str:
    rows = [[str(r * c % 97) for c in range(40)] for r in range(60)]
    return json.dumps({"rows": rows, "sizes": list(range(300))})


KERNELS = (_residue_product, _bigint_product, _render)
REFERENCE_S = (1.00e-4, 4.00e-4, 4.80e-4)
REPEATS = 2


def factor() -> float:
    """Current slowdown against the reference machine (1.0 = as fast).

    The geometric mean over the kernels of each kernel's time, the mean
    of REPEATS calls, divided by its reference time.
    """
    logs = 0.0
    for kernel, reference in zip(KERNELS, REFERENCE_S):
        start = perf_counter()
        for _ in range(REPEATS):
            kernel()
        logs += math.log((perf_counter() - start) / REPEATS / reference)
    return math.exp(logs / len(KERNELS))
