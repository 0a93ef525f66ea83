#!/usr/bin/env python3
# Rank-2 filtering: images as finitely supported signals on Z^2.
#
# A grayscale image is a signal with support inside its pixel window;
# everything outside is zero.  A non-causal kernel like the 4-neighbour
# average needs pixels on every side of the centre, which the Z^2
# indexing provides directly.

import tempfile
from pathlib import Path

from bishift import FloatField, parse_poly, shift
from bishift import pgm

F = FloatField()
workdir = Path(tempfile.mkdtemp(prefix="images-"))

# build a small test card: dark background, bright 4x4 square
pixels = bytes(240 if 4 <= x < 8 and 4 <= y < 8 else 0 for y in range(12) for x in range(12))
src = workdir / "card.pgm"
src.write_bytes(b"P5\n12 12\n255\n" + pixels)

image, width, height, maxval = pgm.read_pgm(src)
print(f"loaded {width}x{height} image, maxval {maxval}, "
      f"{len(image.support())} nonzero pixels")

# the blur kernel reaches one pixel in each direction along both axes
blur = parse_poly("0.25*X1^-1 + 0.25*X1 + 0.25*X2^-1 + 0.25*X2", 2, F)
blurred = shift(blur, image)

dst = workdir / "blurred.pgm"
pgm.write_pgm(dst, blurred, width, height, maxval)
print(f"blurred image written to {dst}")

# show a horizontal slice through the square before and after
row = 5
before = [round(image.coeff((x, row)).payload * maxval) for x in range(width)]
after = [round(blurred.coeff((x, row)).payload * maxval) for x in range(width)]
print("\nrow", row, "before:", before)
print("row", row, "after: ", after)

# edges of the square pick up half the brightness, corners a quarter;
# the finite-support model supplies zeros outside the window, so the
# image border needs no special casing
edge = blurred.coeff((3, 5)).payload * maxval
inside = blurred.coeff((5, 5)).payload * maxval
print(f"\njust outside the square: {edge:.0f}, deep inside: {inside:.0f}")
