"""Seeded inputs for the benchmark jobs.

Every job is drawn from ``random.Random(f"{seed}:{workload}:{index}")``, so
the same seed gives the same files, and a job's inputs do not depend on how
many jobs ran before it.  A workload cycles through a fixed list of job
shapes; a shape fixes the sizes (image size, periods, kernel support, trial
count) and the seed draws the contents (pixels, coefficients, selftest seeds).
Keeping sizes per shape fixed is what keeps ``job_cpu_s`` steady between seeds.

Nothing here imports ``bishift``: the files are written in the documented
text formats directly, and the systems are kept as plain coefficient maps so
that the output checks can evaluate them without the package.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np


@dataclass
class Job:
    """One CLI invocation: its arguments, its inputs and what the check needs."""

    index: int
    kind: str  # "filter", "kernel" or "selftest"
    argv: list
    work: int  # output pixels, lattice unknowns l*|D|, or trials * suites
    sizes: dict
    expect: dict = field(default_factory=dict)
    source: Path | None = None
    output: Path | None = None


# ---------------------------------------------------------------- images


def write_pgm(path: Path, grays: np.ndarray, maxval: int = 255) -> None:
    height, width = grays.shape
    header = f"P5\n{width} {height}\n{maxval}\n".encode("ascii")
    path.write_bytes(header + grays.astype(np.uint8).tobytes())


def smooth_noisy_image(rng: random.Random, width: int, height: int) -> np.ndarray:
    """Sum of a few random plane waves plus Gaussian noise, gray in 1..255."""
    gen = np.random.default_rng(rng.getrandbits(64))
    y, x = np.mgrid[0:height, 0:width].astype(float)
    img = np.zeros((height, width))
    for _ in range(3):
        fx, fy = gen.uniform(-3, 3, 2) * 2 * math.pi
        img += np.cos(fx * x / width + fy * y / height + gen.uniform(0, 2 * math.pi))
    img = 0.5 + 0.12 * img + gen.normal(0.0, 0.03, img.shape)
    return np.clip(np.rint(img * 255), 1, 255).astype(np.uint8)


def stencil_offsets(terms: int):
    """Support of the 5-term cross or the 9-term 3x3 box in X1^+-1, X2^+-1."""
    if terms == 5:
        return [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)]
    if terms == 9:
        return [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    raise ValueError(f"no stencil with {terms} terms")


def mono_text(alpha, rank: int) -> str:
    factors = []
    for i, e in enumerate(alpha, start=1):
        if e:
            name = "X" if rank == 1 else f"X{i}"
            factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


def image_job(index, rng, work_dir: Path, shape) -> Job:
    width, height, terms, field_spec = shape
    grays = smooth_noisy_image(rng, width, height)
    src = work_dir / f"in{index}.pgm"
    write_pgm(src, grays)
    # positive weights with sum below 1 keep most outputs inside [0, 1]
    raw = [rng.uniform(0.2, 1.0) for _ in range(terms)]
    scale = rng.uniform(0.85, 0.98) / sum(raw)
    kernel = {off: round(w * scale, 4) for off, w in zip(stencil_offsets(terms), raw)}
    text = " + ".join(
        f"{c:.4f}*{mono_text(a, 2)}" if any(a) else f"{c:.4f}" for a, c in kernel.items()
    )
    out = work_dir / f"out{index}.pgm"
    argv = ["filter", "--pgm", "--kernel", text, "--field", field_spec,
            "--input", str(src), "--output", str(out)]
    return Job(
        index, "filter", argv, work=width * height,
        sizes={"pixels": width * height, "kernel_terms": terms, "field": field_spec},
        expect={"grays": grays, "kernel": kernel}, source=src, output=out,
    )


# --------------------------------------------------------------- systems


def poly_text(poly: dict, rank: int) -> str:
    if not poly:
        return "0"
    pieces = []
    for alpha in sorted(poly):
        c = poly[alpha]
        mono = mono_text(alpha, rank)
        body = str(abs(c)) + (f"*{mono}" if mono else "")  # a Fraction prints as p/q
        if not pieces:
            pieces.append(("-" if c < 0 else "") + body)
        else:
            pieces.append(("- " if c < 0 else "+ ") + body)
    return " ".join(pieces)


def field_modulus(spec: str):
    return int(spec[3:]) if spec.startswith("gf:") else None


def random_coeff(rng: random.Random, spec: str):
    p = field_modulus(spec)
    if p:
        return rng.randint(1, p - 1)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))


def rank1_entry(rng, spec, d, shift):
    """u * X^shift * (X^d - 1): a multiple of a divisor of X^N - 1 when d | N."""
    p = field_modulus(spec)
    u = random_coeff(rng, spec)
    return {(shift + d,): u % p if p else u, (shift,): -u % p if p else -u}


def kernel_rank1_job(index, rng, work_dir: Path, shape) -> Job:
    # The shift is part of the shape, not drawn: it permutes the columns of
    # the constraint matrix, and the dense solver's cost swings 30x with it.
    spec, n, size, d, shift = shape
    if size == 1:
        entries = [[rank1_entry(rng, spec, d, shift)]]
    else:
        # upper triangular, so the diagonal factors set the kernel
        entries = [
            [rank1_entry(rng, spec, d, shift), {(1,): random_coeff(rng, spec)}],
            [{}, rank1_entry(rng, spec, d, shift)],
        ]
    return system_job(index, work_dir, spec, 1, entries, (n,))


def rank2_poly(rng, spec, support):
    p = field_modulus(spec)
    return {a: (random_coeff(rng, spec) % p if p else random_coeff(rng, spec)) for a in support}


def kernel_rank2_job(index, rng, work_dir: Path, shape) -> Job:
    spec, periods = shape
    r1 = rank2_poly(rng, spec, [(0, 0), (1, 0), (0, -1)])
    r2 = rank2_poly(rng, spec, [(-1, 1), (0, 0)])
    return system_job(index, work_dir, spec, 2, [[r1, r2]], periods)


def system_job(index, work_dir, spec, rank, entries, periods) -> Job:
    k, l = len(entries), len(entries[0])
    doc = {
        "rank": rank, "field": spec, "k": k, "l": l,
        "entries": [[poly_text(e, rank) for e in row] for row in entries],
    }
    src = work_dir / f"system{index}.json"
    src.write_text(json.dumps(doc))
    out = work_dir / f"report{index}.json"
    size = math.prod(periods)
    argv = ["kernel", "--system", str(src), "--period", ",".join(map(str, periods)),
            "--report", str(out)]
    return Job(
        index, "kernel", argv, work=l * size,
        sizes={"N": list(periods), "D": size, "components": l, "k": k, "field": spec},
        expect={"entries": entries, "periods": periods, "field": spec, "rank": rank},
        source=src, output=out,
    )


# -------------------------------------------------------------- selftest

SUITES = 21  # 3 ranks x (2 signal kinds x 2 suites + 3 suites)


def selftest_job(index, rng, work_dir: Path, shape) -> Job:
    spec, trials = shape
    seed = rng.randint(0, 2**31 - 1)
    argv = ["selftest", "--seed", str(seed), "--trials", str(trials), "--field", spec]
    return Job(
        index, "selftest", argv, work=trials * SUITES,
        sizes={"trials": trials, "field": spec, "selftest_seed": seed},
        expect={"trials": trials, "seed": seed},
    )


# ------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    make: object
    shapes: tuple  # one job per shape per round
    tiny: tuple  # the same shapes at a size the self-check can run quickly


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "image_filter", image_job,
            shapes=((256, 256, 5, "float"), (256, 256, 9, "float")),
            tiny=((12, 10, 5, "float"), (12, 10, 9, "float")),
        ),
        Workload(
            "kernel_rank1", kernel_rank1_job,
            shapes=(("gf:7", 196, 1, 2, -1), ("gf:2", 180, 1, 3, -1),
                    ("gf:7", 98, 2, 2, -1), ("gf:2", 114, 2, 3, -1)),
            tiny=(("gf:7", 14, 1, 2, -1), ("gf:2", 12, 1, 3, -1),
                  ("gf:7", 14, 2, 2, -1), ("gf:2", 12, 2, 3, -1)),
        ),
        Workload(
            "kernel_rank2", kernel_rank2_job,
            shapes=(("rational", (6, 6)), ("gf:7", (8, 8))),
            tiny=(("rational", (2, 3)), ("gf:7", (3, 2))),
        ),
        Workload(
            "selftest_laws", selftest_job,
            shapes=(("rational", 150), ("gf:7", 320)),
            tiny=(("rational", 2), ("gf:7", 2)),
        ),
    )
}


def make_job(workload: Workload, seed: int, index: int, work_dir: Path, tiny=False) -> Job:
    shapes = workload.tiny if tiny else workload.shapes
    rng = random.Random(f"{seed}:{workload.name}:{index}")
    return workload.make(index, rng, work_dir, shapes[index % len(shapes)])
