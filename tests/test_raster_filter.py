"""``filter --pgm`` on one padded raster, byte for byte against the finite shift.

Each case runs the CLI and compares its output with two references that
read no raster slice: ``write_pgm(shift(kernel, read_pgm(src)))``
and the same shift of the image decoded by formula, quantized by the
writer's rules (a deleted or non-positive sample is gray 0, one at or above
1 is maxval, the rest round half up).
"""

import random

import pytest

from bishift import pgm
from bishift.cli import main
from bishift.errors import BishiftError, ImageWriteError, RankMismatchError
from bishift.fields import parse_field_spec
from bishift.operators import shift
from bishift.parsing import parse_poly
from bishift.sequences import FiniteSeq

SPECS = ("float", "float:1e-3", "float:0.05")


def pgm_bytes(width, height, maxval, grays):
    raster = bytes(grays) if maxval < 256 else b"".join(g.to_bytes(2, "big") for g in grays)
    return f"P5\n{width} {height}\n{maxval}\n".encode() + raster


def decoded(width, grays, maxval, field):
    """The image as a signal: gray / maxval at (x, y), unless the field calls it zero."""
    samples = {(i % width, i // width): g / maxval for i, g in enumerate(grays)}
    return {k: v for k, v in samples.items() if v > field.tolerance}


def quantized(seq, width, height, maxval):
    grays = []
    for y in range(height):
        for x in range(width):
            v = seq._terms.get((x, y), 0.0)
            grays.append(0 if v <= 0.0 else maxval if v >= 1.0 else int(v * maxval + 0.5))
    return pgm_bytes(width, height, maxval, grays)


def kernel_text(terms):
    """Polynomial text of (exponent, coefficient) pairs, repeats kept as written."""
    parts = [
        (c < 0, repr(abs(c)) + "".join(f"*X{i}^{e}" for i, e in ((1, a), (2, b)) if e))
        for (a, b), c in terms
    ]
    if not parts:
        return "0"
    text = ("-" if parts[0][0] else "") + parts[0][1]
    return text + "".join(f" {'-' if neg else '+'} {body}" for neg, body in parts[1:])


def run_filter(tmp_path, data, kernel, spec):
    src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
    src.write_bytes(data)
    out.unlink(missing_ok=True)
    argv = ["filter", "--pgm", "--field", spec, "--kernel", kernel,
            "--input", str(src), "--output", str(out)]
    return main(argv), out


def check(tmp_path, width, height, maxval, grays, kernel, spec):
    """Assert that the CLI output equals both references, and return it."""
    field = parse_field_spec(spec)
    code, out = run_filter(tmp_path, pgm_bytes(width, height, maxval, grays), kernel, spec)
    assert code == 0
    d = parse_poly(kernel, 2, field)
    seq, w, h, m = pgm.read_pgm(tmp_path / "in.pgm", field)
    assert (w, h, m) == (width, height, maxval)
    assert seq._terms == decoded(width, grays, maxval, field)
    shifted = shift(d, seq)
    ref = tmp_path / "ref.pgm"
    pgm.write_pgm(ref, shifted, w, h, m)
    got = out.read_bytes()
    assert got == ref.read_bytes() == quantized(shifted, w, h, m)
    return got


def random_case(rng):
    width = rng.choice([1, 1, 2, 5, 9, 16])
    height = rng.choice([1, 1, 3, 7, 12])
    maxval = rng.choice([255, 100, 7, 256, 1000, 65535])
    # some grays above maxval, which read as samples above 1
    top = min(maxval + maxval // 3 + 1, 255 if maxval < 256 else 65535)
    grays = [rng.choice([0, 1, rng.randint(0, top)]) for _ in range(width * height)]
    # exponents around the origin, off to one side of it, or beyond the image
    base = rng.choice([(0, 0), (2, 1), (-3, 2), (width, 0), (0, -height)])
    terms = [
        ((base[0] + rng.randint(-2, 2), base[1] + rng.randint(-2, 2)),
         round(rng.uniform(-0.4, 1.1), rng.choice([1, 4])))
        for _ in range(rng.randint(1, 6))
    ]
    if rng.random() < 0.3:
        terms.append(terms[0])  # a repeated term
    return width, height, maxval, grays, kernel_text(terms), rng.choice(SPECS)


@pytest.mark.parametrize("seed", range(40))
def test_seeded_images_and_kernels(tmp_path, seed):
    check(tmp_path, *random_case(random.Random(1600 + seed)))


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize(
    "kernel",
    [
        "0",
        "0.5*X1 + 0.25*X1^2*X2 + 0.25*X2^3",  # support excludes the origin, all one side
        "0.7*X1^-2*X2^-1 - 0.2*X1^-1",
        "0.25*X1 + 0.5 + 0.25*X1 - 0.125*X2^-1 + 0.125*X2^-1",  # repeated terms
        "0.5*X1^100000000 + 0.375 + 0.25*X2^-7 + 0.125*X1^-3*X2",  # terms beyond the image
    ],
)
@pytest.mark.parametrize("width, height", [(1, 6), (6, 1), (4, 3)])
def test_edge_kernels_and_shapes(tmp_path, kernel, spec, width, height):
    grays = [random.Random(width * 7 + height).randint(0, 255) for _ in range(width * height)]
    got = check(tmp_path, width, height, 255, grays, kernel, spec)
    if kernel == "0":
        assert got == pgm_bytes(width, height, 255, [0] * (width * height))


@pytest.mark.parametrize("maxval", [256, 1000, 65535])
def test_sixteen_bit_grays_above_maxval(tmp_path, maxval):
    rng = random.Random(maxval)
    grays = [rng.choice([0, 1, maxval, min(maxval + 1, 65535), 65535, rng.randint(0, 65535)])
             for _ in range(35)]
    for kernel in ("0.5 + 0.25*X1 + 0.125*X2^-1 + 0.125*X1^-1*X2", "0.9*X1^2*X2 - 0.3*X2^-2"):
        check(tmp_path, 7, 5, maxval, grays, kernel, "float")


def test_dropped_samples_change_the_gray(tmp_path):
    # grays up to 60 of 65535 are at most 9.2e-4, zero in float:1e-3 but not in float
    rng = random.Random(1603)
    grays = [rng.randint(1, 60) for _ in range(24)]
    kernel = "400*X1 + 300*X2^-1"
    plain = check(tmp_path, 6, 4, 65535, grays, kernel, "float")
    coarse = check(tmp_path, 6, 4, 65535, grays, kernel, "float:1e-3")
    assert coarse == pgm_bytes(6, 4, 65535, [0] * 24) != plain


def test_terms_add_in_kernel_order(tmp_path):
    # 0.75 + 2^53 rounds to 2^53, so the interior pixels cancel to 0 in this
    # order; adding the two large terms first would leave 0.75 (gray 191)
    kernel = "0.75 + 9007199254740992*X1 - 9007199254740992*X1^-1"
    got = check(tmp_path, 5, 2, 255, [255] * 10, kernel, "float")
    interior = [got[-10 + y * 5 + x] for y in range(2) for x in (1, 2, 3)]
    assert interior == [0] * 6


def test_padding_stays_within_the_image(tmp_path):
    path = tmp_path / "in.pgm"
    path.write_bytes(pgm_bytes(4, 3, 255, range(12)))
    field = parse_field_spec("float")
    d = parse_poly("0.5*X1^100000000 + 0.25*X1^-3 + 0.25*X2^-3 + X1^3*X2^2", 2, field)
    raster, terms, row, width, height, maxval = pgm._read_raster(path, field, d._terms)
    # X1^1e8 and X2^-3 read no pixel; X1^-3 and X1^3*X2^2 widen the rows both ways
    assert [c for _, c in terms] == [0.25, 1.0]
    assert (row, len(raster)) == (4 + 3 + 3, 10 * (3 + 2))


def test_nan_in_the_window_is_a_typed_error(tmp_path, capsys):
    # 1e308 * 2.55 overflows, so two terms over the same bright pixels give inf - inf
    grays = [255, 255, 255, 0]
    kernel = f"1{'0' * 308}*X1 - 1{'0' * 308}"
    code, out = run_filter(tmp_path, pgm_bytes(2, 2, 100, grays), kernel, "float")
    assert code == 2 and not out.exists()
    assert "NaN" in capsys.readouterr().err
    field = parse_field_spec("float")
    seq = FiniteSeq._wrap(2, field, decoded(2, grays, 100, field))
    shifted = shift(parse_poly(kernel, 2, field), seq)
    with pytest.raises(ImageWriteError, match="NaN") as caught:
        pgm.write_pgm(out, shifted, 2, 2, 100)
    assert isinstance(caught.value, BishiftError) and isinstance(caught.value, ValueError)


@pytest.mark.parametrize("sign", ["", "-"], ids=["inf", "-inf"])
def test_infinity_in_the_window_is_a_typed_error(tmp_path, capsys, sign):
    # on a white 2x1 image, pixel (1, 0) sums B twice and overflows to an infinity
    big = f"1{'0' * 308}"
    kernel = f"{sign}{big} {'-' if sign else '+'} {big}*X1^-1"
    code, out = run_filter(tmp_path, pgm_bytes(2, 1, 255, [255, 255]), kernel, "float")
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == "error: cannot quantize an infinite sample\n"
    # the same overflow through a CSV signal is refused by the CSV writer
    src, csv_out = tmp_path / "in.csv", tmp_path / "out.csv"
    src.write_text("0,0,1\n1,0,1\n")
    argv = ["filter", "--rank", "2", "--field", "float", "--kernel", kernel,
            "--input", str(src), "--output", str(csv_out)]
    assert main(argv) == 2 and not csv_out.exists()
    assert f"non-finite value {sign}inf" in capsys.readouterr().err


def test_filter_pgm_needs_a_rank_two_kernel(tmp_path):
    src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
    src.write_bytes(pgm_bytes(3, 2, 255, range(6)))
    field = parse_field_spec("float")
    for rank in (1, 3):
        with pytest.raises(RankMismatchError):
            pgm.filter_pgm(src, out, parse_poly("0.5 + 0.5*X1", rank, field))
        assert not out.exists()
    pgm.filter_pgm(src, out, parse_poly("0.5 + 0.5*X1", 2, field))
    assert out.read_bytes() == pgm_bytes(3, 2, 255, [1, 2, 1, 4, 5, 3])
