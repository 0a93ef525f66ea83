"""A fixed pure-Python workload that gauges how fast this host runs Python now.

The benchmark runs it in its own process, not in a child, between jobs and
divides the jobs' CPU time by its CPU time (see README.md, "Noise and how
the times are measured").  It mixes the kinds of interpreter work the CLI
does: dense elimination mod p over lists, products of sparse polynomials
held as dicts of exponent tuples with ``Fraction`` coefficients, and a float
stencil over a flat list.  It never imports ``bishift``, so no change to the
program can change what it costs.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Typical CPU seconds of one `cpu_seconds()` call on the host the bounds were
# set on (Intel Xeon, 2 vCPUs, Python 3.11).  It only scales the reported
# times back to seconds; the ratio is what is measured.
NOMINAL_S = 0.15
REPEATS = 6


def _eliminate(rng: random.Random, n: int = 48, p: int = 7) -> int:
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        top = [v * inv % p for v in rows[rank]]
        rows[rank] = top
        for i in range(n):
            f = rows[i][col]
            if i != rank and f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def _poly_products(rng: random.Random, terms: int = 14, rounds: int = 6) -> int:
    def draw():
        return {
            (rng.randint(-3, 3), rng.randint(-3, 3)):
                Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            for _ in range(terms)
        }

    size = 0
    for _ in range(rounds):
        a, b = draw(), draw()
        out: dict = {}
        for (a1, a2), x in a.items():
            for (b1, b2), y in b.items():
                key = (a1 + b1, a2 + b2)
                out[key] = out.get(key, 0) + x * y
        size += sum(1 for v in out.values() if v)
    return size


def _stencil(rng: random.Random, width: int = 64, height: int = 48) -> float:
    pixels = [rng.random() for _ in range(width * height)]
    weights = [(0, 0, 0.4), (1, 0, 0.15), (-1, 0, 0.15), (0, 1, 0.15), (0, -1, 0.15)]
    out = [0.0] * len(pixels)
    for y in range(1, height - 1):
        for x in range(1, width - 1):
            out[y * width + x] = sum(
                w * pixels[(y + dy) * width + x + dx] for dx, dy, w in weights
            )
    return sum(out)


def cpu_seconds() -> float:
    """CPU time this process spends on one fixed round of the workload."""
    rng = random.Random(20240811)
    start = time.process_time()
    for _ in range(REPEATS):
        _eliminate(rng)
        _poly_products(rng)
        _stencil(rng)
    return time.process_time() - start
