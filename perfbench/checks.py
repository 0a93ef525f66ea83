"""Output checks that do not use the package's solver, shift or readers.

Each check returns ``None`` when the output is right and a one-line reason
when it is not.  They run outside the timed region.

Kernel reports get three checks that together prove the reported dimension
exact.  The basis is in reduced echelon form, so its rows are independent;
every row satisfies ``R o W = 0``, so the true kernel has at least that many
dimensions.  Over Q, a rank taken modulo a prime can only drop, so
``l*|D| - rank_P(M)`` is at least the true dimension; over GF(p) it is the
true dimension.  A report that meets both bounds is exact.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np

# Rank modulus for rational systems: the prime 2^31 - 1, so every product
# of two residues fits in int64.
RATIONAL_RANK_PRIME = 2**31 - 1


# ------------------------------------------------------------------ PGM


def expected_grays(grays: np.ndarray, kernel: dict, maxval: int = 255) -> np.ndarray:
    """(d o W)_b = sum_a d_a W_(a+b) on the window, W zero outside it.

    Pixel (x, y) is the sample at index (x, y), stored at ``grays[y, x]``.
    """
    height, width = grays.shape
    padded = np.zeros((height + 2, width + 2))
    padded[1:-1, 1:-1] = grays / maxval
    out = np.zeros((height, width))
    for (ax, ay), c in kernel.items():
        out += c * padded[1 + ay : 1 + ay + height, 1 + ax : 1 + ax + width]
    return np.floor(np.clip(out, 0.0, 1.0) * maxval + 0.5)


def check_pgm(path: Path, grays: np.ndarray, kernel: dict) -> str | None:
    data = path.read_bytes() if path.exists() else b""
    height, width = grays.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + width * height:
        return f"{path.name}: not a {width}x{height} 8-bit P5 image"
    got = np.frombuffer(data[len(header) :], dtype=np.uint8).reshape(height, width)
    diff = np.abs(got.astype(float) - expected_grays(grays, kernel)).max()
    if diff > 1:
        return f"{path.name}: off by {diff:g} gray levels from the numpy stencil"
    return None


# --------------------------------------------------------- kernel reports


def domain(periods):
    """Fundamental-domain indices in row-major order, axis 1 slowest."""
    return list(itertools.product(*(range(n) for n in periods)))


def flat_index(alpha, periods) -> int:
    flat = 0
    for x, n in zip(alpha, periods):
        flat = flat * n + x % n
    return flat


def constraint_matrix(entries, periods):
    """Rows (i, beta), columns (j, gamma): sum of R_ij[a] with a + beta = gamma mod N."""
    dom = domain(periods)
    size = len(dom)
    k, l = len(entries), len(entries[0])
    rows = [[0] * (l * size) for _ in range(k * size)]
    for i, row in enumerate(entries):
        for b, beta in enumerate(dom):
            out = rows[i * size + b]
            for j, poly in enumerate(row):
                for alpha, c in poly.items():
                    g = flat_index(tuple(a + x for a, x in zip(alpha, beta)), periods)
                    out[j * size + g] += c
    return rows


def rank_mod_p(rows, p: int) -> int:
    """Rank modulo a prime p < 2^31 by int64 Gaussian elimination."""
    m = np.array([[v % p for v in row] for row in rows], dtype=np.int64)
    height, width = m.shape
    rank = 0
    for col in range(width):
        if rank == height:
            break
        nz = np.flatnonzero(m[rank:, col])
        if not nz.size:
            continue
        pivot = rank + nz[0]
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), -1, p) % p
        below = rank + 1 + np.flatnonzero(m[rank + 1 :, col])
        if below.size:
            m[below] = (m[below] - m[below, col][:, None] * m[rank]) % p
        rank += 1
    return rank


def clear_denominators(rows):
    out = []
    for row in rows:
        scale = math.lcm(*(Fraction(v).denominator for v in row))
        out.append([int(Fraction(v) * scale) for v in row])
    return out


def parse_value(token: str, p):
    if p:
        v = int(token)
        return v if 0 <= v < p else None
    return Fraction(token)


def echelon_problem(basis) -> str | None:
    last = -1
    leads = []
    for r, row in enumerate(basis):
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is None or lead <= last:
            return f"basis row {r} does not start right of row {r - 1}"
        if row[lead] != 1:
            return f"basis row {r} has leading entry {row[lead]}, not 1"
        leads.append(lead)
        last = lead
    for c in leads:
        if sum(1 for row in basis if row[c]) != 1:
            return f"pivot column {c} is not zero outside its row"
    return None


def residual_problem(basis, entries, periods, p) -> str | None:
    """Evaluate (R o W)_i(beta) for every basis vector W, exactly."""
    dom = domain(periods)
    size = len(dom)
    shifted = {}
    for i, row in enumerate(entries):
        for b, beta in enumerate(dom):
            shifted[i, b] = [
                (j * size + flat_index(tuple(a + x for a, x in zip(alpha, beta)), periods), c)
                for j, poly in enumerate(row)
                for alpha, c in poly.items()
            ]
    for r, w in enumerate(basis):
        for (i, b), terms in shifted.items():
            total = sum(c * w[col] for col, c in terms)
            if (total % p if p else total) != 0:
                return f"basis row {r}: (R o W)_{i} at {dom[b]} is {total}, not 0"
    return None


def check_kernel_report(path: Path, expect: dict) -> str | None:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return f"{path.name}: unreadable report ({e})"
    spec, periods, entries = expect["field"], tuple(expect["periods"]), expect["entries"]
    p = int(spec[3:]) if spec.startswith("gf:") else None
    size = math.prod(periods)
    width = len(entries[0]) * size
    if (doc.get("rank"), doc.get("field"), tuple(doc.get("periods", ()))) != (
        expect["rank"], spec, periods
    ):
        return f"{path.name}: header does not match the system"
    rows = doc.get("basis", [])
    if doc.get("dimension") != len(rows) or any(len(row) != width for row in rows):
        return f"{path.name}: dimension {doc.get('dimension')} but {len(rows)} rows"
    try:
        basis = [[parse_value(t, p) for t in row] for row in rows]
    except (TypeError, ValueError, ZeroDivisionError):
        return f"{path.name}: basis entry is not a {spec} scalar"
    if any(v is None for row in basis for v in row):
        return f"{path.name}: basis entry outside [0, {p})"
    problem = echelon_problem(basis) or residual_problem(basis, entries, periods, p)
    if problem:
        return f"{path.name}: {problem}"
    matrix = constraint_matrix(entries, periods)
    prime = p or RATIONAL_RANK_PRIME
    rank = rank_mod_p(matrix if p else clear_denominators(matrix), prime)
    if len(basis) != width - rank:
        return f"{path.name}: dimension {len(basis)} but l*|D| - rank_{prime}(M) = {width - rank}"
    return None


# ---------------------------------------------------------------- selftest

_SUITE_LINE = re.compile(r"(\S+)\s+trials=(\d+)\s+failures=(\d+)\s+pass\Z")


def check_selftest(stdout: str, expect: dict, suites: int) -> str | None:
    lines = stdout.splitlines()
    matches = [_SUITE_LINE.fullmatch(line) for line in lines[:-1]]
    if len(lines) != suites + 1 or not all(matches):
        return f"expected {suites} passing suite lines and a summary"
    if any(int(m.group(2)) != expect["trials"] or int(m.group(3)) for m in matches):
        return "a suite ran another trial count or reported failures"
    if lines[-1] != f"all suites passed (seed {expect['seed']})":
        return f"unexpected summary {lines[-1]!r}"
    return None
