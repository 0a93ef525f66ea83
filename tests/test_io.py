import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from bishift import io as formats
from bishift import pgm
from bishift.errors import (
    BadMagicError,
    BadValueTokenError,
    BishiftError,
    DigitLimitError,
    DuplicateIndexError,
    FloatFieldUnsupportedError,
    ImageWriteError,
    RankMismatchError,
    SchemaError,
    TruncatedPixelDataError,
)
from bishift._sparse import MAX_RANK
from bishift.fields import FloatField, PrimeField, RationalField
from bishift.io import format_system, parse_system
from bishift.laurent import PolyMatrix
from bishift.operators import shift
from bishift.parsing import format_poly, parse_poly
from bishift.selftest import random_finite_seq, random_poly
from bishift.sequences import FiniteSeq, PeriodicSeq, SeqVector
from bishift.systems import KernelBasis, System, periodic_kernel_basis

Q = RationalField()
GF2 = PrimeField(2)
GF7 = PrimeField(7)
F = FloatField()


class TestSeqCsv:
    def test_reads_table_input(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("-1,1\n0,2\n1,3\n")
        seq = formats.read_seq_csv(path, 1, Q)
        assert seq == FiniteSeq(1, Q, {(-1,): 1, (0,): 2, (1,): 3})

    def test_empty_file_is_zero(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert formats.read_seq_csv(path, 1, Q).is_zero()

    def test_round_trip_random(self, tmp_path):
        rng = random.Random(2301)
        path = tmp_path / "seq.csv"
        for _ in range(200):
            rank = rng.choice((1, 2, 3))
            seq = random_finite_seq(rng, rank, Q)
            formats.write_seq_csv(path, seq)
            assert formats.read_seq_csv(path, rank, Q) == seq

    def test_rows_sorted_and_deterministic(self, tmp_path):
        seq = FiniteSeq(1, Q, {(3,): 1, (-5,): 2, (0,): 3})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        formats.write_seq_csv(a, seq)
        formats.write_seq_csv(b, seq)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines() == ["-5,2", "0,3", "3,1"]

    def test_duplicate_index_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("1,2\n1,3\n")
        with pytest.raises(DuplicateIndexError):
            formats.read_seq_csv(path, 1, Q)

    def test_bad_tokens_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,zzz\n")
        with pytest.raises(BadValueTokenError):
            formats.read_seq_csv(path, 1, Q)
        path.write_text("x,1\n")
        with pytest.raises(BadValueTokenError):
            formats.read_seq_csv(path, 1, Q)

    # cells are stripped of surrounding whitespace, so " 4" reads as 4
    @pytest.mark.parametrize("index", ["1_0", "+4", "\u0664", "1.0", "True"])
    def test_index_is_ascii_decimal(self, tmp_path, index):
        path = tmp_path / "bad.csv"
        path.write_text(f"{index},1\n")
        with pytest.raises(BadValueTokenError):
            formats.read_seq_csv(path, 1, Q)

    def test_bool_index_refused_and_int_indices_round_trip(self, tmp_path):
        # True == 1, but a bool key would be written as "True" and not read back
        for key in ((True,), (False,)):
            with pytest.raises(TypeError):
                FiniteSeq(1, GF7, {key: 3})
        path = tmp_path / "w.csv"
        seq = FiniteSeq(2, GF7, {(1, 0): 3, (0, 1): 2, (-1, 1): 6})
        formats.write_seq_csv(path, seq)
        assert path.read_text() == "-1,1,6\n0,1,2\n1,0,3\n"
        assert formats.read_seq_csv(path, 2, GF7) == seq

    @pytest.mark.parametrize(
        "data, offset", [(b"\xff", 0), (b"0,1\n1,\xc3(\n", 6), (b"0,\x80", 2)]
    )
    def test_undecodable_bytes_name_path_and_offset(self, tmp_path, data, offset):
        path = tmp_path / "bytes.csv"
        path.write_bytes(data)
        with pytest.raises(BadValueTokenError) as e:
            formats.read_seq_csv(path, 1, Q)
        assert str(e.value) == f"{path}: not UTF-8 text: at byte {offset}"
        assert e.value.position == offset

    def test_crlf_and_utf8_text_read_as_before(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"0,1\r\n\r\n 2 , 1/2 \r3,-4\n")
        assert formats.read_seq_csv(path, 1, Q) == FiniteSeq(
            1, Q, {(0,): 1, (2,): Fraction(1, 2), (3,): -4}
        )
        path.write_bytes("0,\u00e9\n".encode())
        with pytest.raises(BadValueTokenError, match="'\u00e9'"):
            formats.read_seq_csv(path, 1, Q)

    def test_one_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf0,1\r\n2,1/2\n")
        assert formats.read_seq_csv(path, 1, Q) == FiniteSeq(1, Q, {(0,): 1, (2,): Fraction(1, 2)})
        path.write_bytes(b"\xef\xbb\xbf")
        assert formats.read_seq_csv(path, 1, Q).is_zero()
        # a mark anywhere else, a second one included, is text no cell accepts
        bom = b"\xef\xbb\xbf"
        for data in (bom + bom + b"0,1\n", b"0,1\n" + bom + b"2,1\n", b"0," + bom + b"1\n"):
            path.write_bytes(data)
            with pytest.raises(BishiftError):
                formats.read_seq_csv(path, 1, Q)
        # the offset of an undecodable byte counts the mark
        path.write_bytes(b"\xef\xbb\xbf0,\x80\n")
        with pytest.raises(BadValueTokenError, match="at byte 5$"):
            formats.read_seq_csv(path, 1, Q)

    def test_wrong_arity_rejected(self, tmp_path):
        path = tmp_path / "arity.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(RankMismatchError):
            formats.read_seq_csv(path, 1, Q)

    def test_float_values_round_trip(self, tmp_path):
        path = tmp_path / "float.csv"
        seq = FiniteSeq(1, F, {(0,): 0.5, (1,): 1.5, (2,): -0.25})
        formats.write_seq_csv(path, seq)
        again = formats.read_seq_csv(path, 1, F)
        for k in seq.support():
            assert again.coeff(k).payload == seq.coeff(k).payload


def _write_pgm_bytes(tmp_path, width, height, maxval, pixels):
    header = f"P5\n{width} {height}\n{maxval}\n".encode()
    path = tmp_path / "img.pgm"
    path.write_bytes(header + bytes(pixels))
    return path


class TestPgm:
    def test_single_white_pixel(self, tmp_path):
        path = _write_pgm_bytes(tmp_path, 1, 1, 255, [255])
        seq, width, height, maxval = pgm.read_pgm(path)
        assert (width, height, maxval) == (1, 1, 255)
        assert seq.coeff((0, 0)).payload == 1.0

    def test_round_trip_byte_identical(self, tmp_path):
        rng = random.Random(2302)
        pixels = [rng.randint(0, 255) for _ in range(12)]
        path = _write_pgm_bytes(tmp_path, 4, 3, 255, pixels)
        seq, w, h, maxval = pgm.read_pgm(path)
        out = tmp_path / "out.pgm"
        pgm.write_pgm(out, seq, w, h, maxval)
        assert out.read_bytes() == path.read_bytes()

    def test_sixteen_bit_round_trip(self, tmp_path):
        rng = random.Random(2303)
        raw = []
        for _ in range(6):
            g = rng.randint(0, 65535)
            raw += [g >> 8, g & 0xFF]
        path = _write_pgm_bytes(tmp_path, 3, 2, 65535, raw)
        seq, w, h, maxval = pgm.read_pgm(path)
        out = tmp_path / "out.pgm"
        pgm.write_pgm(out, seq, w, h, maxval)
        assert out.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("bad", [b"1_0", b"+4", "\u0664".encode(), b"4.0", b"0x4"])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_header_numbers_are_ascii_decimal(self, tmp_path, bad, slot):
        fields = [b"4", b"1", b"255"]
        fields[slot] = bad
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n" + b" ".join(fields) + b"\n" + bytes(40))
        with pytest.raises(BadMagicError):
            pgm.read_pgm(path)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n\x00\xff")
        seq, w, h, maxval = pgm.read_pgm(path)
        assert (w, h) == (2, 1)
        assert seq.coeff((1, 0)).payload == 1.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(BadMagicError):
            pgm.read_pgm(path)

    def test_truncated_raster(self, tmp_path):
        path = _write_pgm_bytes(tmp_path, 2, 2, 255, [1, 2, 3])
        with pytest.raises(TruncatedPixelDataError):
            pgm.read_pgm(path)

    def test_trailing_garbage(self, tmp_path):
        path = _write_pgm_bytes(tmp_path, 1, 1, 255, [1, 99])
        with pytest.raises(TruncatedPixelDataError):
            pgm.read_pgm(path)

    def test_maxval_out_of_range(self, tmp_path):
        path = tmp_path / "big.pgm"
        path.write_bytes(b"P5\n1 1\n70000\n\x00\x00")
        with pytest.raises(BadMagicError):
            pgm.read_pgm(path)

    def test_four_neighbour_average(self, tmp_path):
        # 3x3 image, centre filter; oracle is a literal per-pixel loop
        rng = random.Random(2304)
        pixels = [rng.randint(0, 255) for _ in range(9)]
        path = _write_pgm_bytes(tmp_path, 3, 3, 255, pixels)
        seq, w, h, maxval = pgm.read_pgm(path)
        kernel = parse_poly(
            "0.25*X1^-1 + 0.25*X1 + 0.25*X2^-1 + 0.25*X2", 2, F
        )
        out = shift(kernel, seq)

        def pixel(x, y):
            if 0 <= x < 3 and 0 <= y < 3:
                return pixels[y * 3 + x] / 255
            return 0.0

        for y in range(3):
            for x in range(3):
                expected = 0.25 * (
                    pixel(x - 1, y) + pixel(x + 1, y) + pixel(x, y - 1) + pixel(x, y + 1)
                )
                assert abs(out.coeff((x, y)).payload - expected) < 1e-12

    def test_samples_within_tolerance_not_stored(self, tmp_path):
        # gray 1 of 65535 is about 1.5e-5, below float:1e-3's tolerance
        path = _write_pgm_bytes(tmp_path, 2, 1, 65535, [0, 1, 0xFF, 0xFF])
        seq, w, h, maxval = pgm.read_pgm(path, FloatField(1e-3))
        assert seq.field == FloatField(1e-3)
        assert seq.support() == {(1, 0)}
        assert seq.coeff((1, 0)).payload == 1.0
        again, _, _, _ = pgm.read_pgm(path)
        assert again.support() == {(0, 0), (1, 0)}
        assert again.coeff((0, 0)).payload == 1 / 65535

    def test_exact_field_rejected(self, tmp_path):
        path = _write_pgm_bytes(tmp_path, 1, 1, 255, [9])
        with pytest.raises(FloatFieldUnsupportedError):
            pgm.read_pgm(path, Q)

    def test_write_skips_samples_outside_the_window(self, tmp_path):
        seq = FiniteSeq(2, F, {(-1, 0): 0.5, (1, 1): 0.25, (2, 0): 1.0, (0, 2): 1.0})
        out = tmp_path / "w.pgm"
        pgm.write_pgm(out, seq, 2, 2, 255)
        assert out.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 0, 0, 64])

    def test_write_needs_a_rank_two_signal(self, tmp_path):
        out = tmp_path / "r1.pgm"
        with pytest.raises(RankMismatchError, match="image output needs a rank-2 signal"):
            pgm.write_pgm(out, FiniteSeq(1, F, {(0,): 0.5}), 1, 1)
        assert not out.exists()

    def test_write_clamps_and_quantizes(self, tmp_path):
        seq = FiniteSeq(2, F, {(0, 0): 1.7, (1, 0): -0.4, (2, 0): 0.5019})
        out = tmp_path / "q.pgm"
        pgm.write_pgm(out, seq, 3, 1, 255)
        again, _, _, _ = pgm.read_pgm(out)
        assert again.coeff((0, 0)).payload == 1.0
        assert again.coeff((1, 0)).payload == 0.0
        assert round(again.coeff((2, 0)).payload * 255) == 128


def _big_endian(grays):
    return [b for g in grays for b in (g >> 8, g & 0xFF)]


class TestPgmEdgeCases:
    """Expected values were produced by the earlier numpy reader and writer."""

    # 0x0102 reads as 258 (513 in the wrong byte order); 0xFFFF is above maxval 256 and 1000
    SIXTEEN_BIT = {
        256: (
            [1.0078125, 18.203125, 1.0, 0.00390625, 255.99609375],
            b"\x01\x00\x00\x00\x01\x00\x01\x00\x00\x01\x01\x00",
        ),
        1000: (
            [0.258, 4.66, 1.0, 0.001, 65.535],
            b"\x01\x02\x00\x00\x03\xe8\x03\xe8\x00\x01\x03\xe8",
        ),
        65535: (
            [0.003936827649347677, 0.07110704203860532, 1.0, 1.5259021896696422e-05, 1.0],
            b"\x01\x02\x00\x00\x12\x34\xff\xff\x00\x01\xff\xff",
        ),
    }

    @pytest.mark.parametrize("maxval", [256, 1000, 65535])
    def test_sixteen_bit_read_and_write(self, tmp_path, maxval):
        values, written = self.SIXTEEN_BIT[maxval]
        grays = [0x0102, 0, 0x1234, maxval, 1, 0xFFFF]
        path = _write_pgm_bytes(tmp_path, 3, 2, maxval, _big_endian(grays))
        seq, w, h, m = pgm.read_pgm(path)
        # keys in row-major order; the zero pixel is not stored
        assert list(seq.terms) == [(0, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
        assert [v.payload for v in seq.terms.values()] == values
        out = tmp_path / "out.pgm"
        pgm.write_pgm(out, seq, w, h, m)
        assert out.read_bytes() == f"P5\n3 2\n{maxval}\n".encode() + written

    @pytest.mark.parametrize(
        "width, height, shifted, written",
        [
            (1, 5, {(-1, 0): 0.0029411764705882353, (-1, 2): 0.25,
                    (-1, 3): 0.12549019607843137, (-1, 4): 0.006862745098039216,
                    (0, 0): 0.0058823529411764705, (0, 1): 0.0029411764705882353,
                    (0, 2): 0.5, (0, 3): 0.5009803921568627, (0, 4): 0.1392156862745098,
                    (0, 5): 0.006862745098039216},
             b"\x02\x01\x80\x80\x24"),
            (5, 1, {(-1, 0): 0.0029411764705882353, (0, 0): 0.0058823529411764705,
                    (0, 1): 0.0029411764705882353, (1, 0): 0.25, (2, 0): 0.6254901960784314,
                    (2, 1): 0.25, (3, 0): 0.25784313725490193, (3, 1): 0.12549019607843137,
                    (4, 0): 0.013725490196078431, (4, 1): 0.006862745098039216},
             b"\x02\x40\xa0\x42\x04"),
        ],
    )
    def test_single_row_and_column(self, tmp_path, width, height, shifted, written):
        path = _write_pgm_bytes(tmp_path, width, height, 255, [3, 0, 255, 128, 7])
        seq, w, h, maxval = pgm.read_pgm(path)
        along = [(0, 0), (0, 2), (0, 3), (0, 4)]
        assert list(seq.terms) == (along if width == 1 else [(y, x) for x, y in along])
        out = tmp_path / "out.pgm"
        pgm.write_pgm(out, seq, w, h, maxval)
        assert out.read_bytes() == path.read_bytes()
        kernel = parse_poly("0.5 + 0.25*X1 + 0.25*X2^-1", 2, F)
        filtered = shift(kernel, seq)
        assert {k: v.payload for k, v in filtered.terms.items()} == shifted
        pgm.write_pgm(out, filtered, w, h, maxval)
        assert out.read_bytes() == f"P5\n{width} {height}\n255\n".encode() + written

    def test_gray_above_maxval_reads_above_one_and_clamps(self, tmp_path):
        path = _write_pgm_bytes(tmp_path, 2, 2, 100, [200, 100, 0, 255])
        seq, w, h, maxval = pgm.read_pgm(path)
        assert {k: v.payload for k, v in seq.terms.items()} == {
            (0, 0): 2.0, (1, 0): 1.0, (1, 1): 2.55
        }
        out = tmp_path / "out.pgm"
        pgm.write_pgm(out, seq, w, h, maxval)
        assert out.read_bytes() == b"P5\n2 2\n100\ndd\x00d"
        path = _write_pgm_bytes(tmp_path, 2, 1, 1000, _big_endian([65535, 1001]))
        seq, w, h, maxval = pgm.read_pgm(path)
        assert {k: v.payload for k, v in seq.terms.items()} == {(0, 0): 65.535, (1, 0): 1.001}
        pgm.write_pgm(out, seq, w, h, maxval)
        assert out.read_bytes() == b"P5\n2 1\n1000\n\x03\xe8\x03\xe8"

    @pytest.mark.parametrize(
        "maxval, raster",
        [
            (255, b"\x00\x00\x01\x00\x00\xfe\x80\x00\x00"),
            (1000, b"\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x03\xe6"
                   b"\x01\xf4\x00\x00\x00\x00"),
        ],
    )
    def test_write_outside_window_and_negative_samples(self, tmp_path, maxval, raster):
        seq = FiniteSeq(2, F, {
            (-1, 0): 0.5, (0, -1): 0.9, (3, 0): 1.0, (0, 3): 1.0, (9, 1): -2.0,  # outside
            (0, 0): -0.3, (2, 2): -5.0, (1, 1): 1e-300, (2, 0): 0.5 / 255,
            (2, 1): 0.998, (0, 2): 0.5,
        })
        out = tmp_path / "out.pgm"
        pgm.write_pgm(out, seq, 3, 3, maxval)
        assert out.read_bytes() == f"P5\n3 3\n{maxval}\n".encode() + raster

    def test_write_non_finite_samples(self, tmp_path):
        # an infinity or a NaN in the window is refused and nothing is written;
        # outside the window none is quantized
        odd = FiniteSeq._wrap(2, F, {
            (2, 0): math.inf, (0, 2): -math.inf, (-1, 0): math.nan, (1, 1): -0.0, (0, 0): 0.5
        })
        out = tmp_path / "out.pgm"
        pgm.write_pgm(out, odd, 2, 2, 255)
        assert out.read_bytes() == b"P5\n2 2\n255\n\x80\x00\x00\x00"
        out.unlink()
        for bad in (math.inf, -math.inf):
            seq = FiniteSeq._wrap(2, F, {(0, 0): 0.5, (1, 0): bad})
            with pytest.raises(ImageWriteError, match="cannot quantize an infinite sample"):
                pgm.write_pgm(out, seq, 2, 1, 255)
            assert not out.exists()
        with pytest.raises(ValueError, match="NaN"):
            pgm.write_pgm(out, FiniteSeq._wrap(2, F, {(0, 0): math.nan}), 1, 1, 255)
        assert not out.exists()

    @pytest.mark.parametrize("maxval", [255, 1000])
    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    def test_writer_grays_match_the_int_formula(self, tmp_path, maxval, tol):
        rng = random.Random(f"quantize:{maxval}:{tol}")
        edges = [tol, 0.0, -0.0, 1.0, math.nextafter(1.0, 0.0)]
        edges += [(g + h) / maxval for g in range(maxval + 1) for h in (-0.5, 0.5)]
        samples = [rng.uniform(-0.1, 1.1) for _ in range(2000)]
        for x in edges:
            samples += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
        out = tmp_path / "out.pgm"
        pgm._write_raster(out, samples, len(samples), len(samples), 1, maxval, tol)
        expected = [0 if v <= tol else maxval if v >= 1.0 else int(v * maxval + 0.5)
                    for v in samples]
        raster = out.read_bytes()[len(f"P5\n{len(samples)} 1\n{maxval}\n"):]
        if maxval < 256:
            assert list(raster) == expected
        else:
            assert raster == b"".join(g.to_bytes(2, "big") for g in expected)

    @pytest.mark.parametrize(
        "width, height, maxval, match",
        [
            (2, 1, 0, "maxval 0 outside"),
            (2, 1, 65536, "maxval 65536 outside"),
            (2, 1, True, "maxval True outside"),
            (2, 1, 255, "NaN"),
            # sizes the reader refuses, refused before a sample list is built
            (0, 3, 255, "bad image size 0x3"),
            (3, 0, 255, "bad image size 3x0"),
            (-1, 2, 255, "bad image size -1x2"),
            (True, 1, 255, "bad image size Truex1"),
            (2.0, 1, 255, r"bad image size 2\.0x1"),
        ],
        ids=["0-outside", "65536-outside", "True-outside", "255-NaN",
             "0x3", "3x0", "-1x2", "Truex1", "2.0x1"],
    )
    def test_write_errors_are_typed(self, tmp_path, width, height, maxval, match):
        out = tmp_path / "out.pgm"
        seq = FiniteSeq._wrap(2, F, {(1, 0): math.nan, (0, 0): 0.5})
        with pytest.raises(ImageWriteError, match=match) as caught:
            pgm.write_pgm(out, seq, width, height, maxval)
        assert isinstance(caught.value, BishiftError) and isinstance(caught.value, ValueError)
        assert not out.exists()
        with pytest.raises(ImageWriteError, match=match):
            pgm._write_raster(out, [0.5, math.nan, 0.5], 3, width, height, maxval, 1e-9)
        assert not out.exists()


def difference_system(field=GF2):
    return System(PolyMatrix([[parse_poly("X - X^-1", 1, field)]]))


DATA = Path(__file__).resolve().parent / "data"


class TestSystemDocument:
    @pytest.mark.parametrize("field", [GF2, GF7, Q, F], ids=lambda f: f.spec())
    def test_text_matches_json_dumps(self, field):
        rng = random.Random(2701)
        for _ in range(30):
            rank, k, l = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            grid = [[random_poly(rng, rank, field, max_terms=4) for _ in range(l)] for _ in range(k)]
            doc = {
                "rank": rank,
                "field": field.spec(),
                "k": k,
                "l": l,
                "entries": [[format_poly(d) for d in row] for row in grid],
            }
            assert format_system(System(PolyMatrix(grid))) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("name, periods", [("gf7", (3, 2)), ("rational", (2, 3))])
    def test_goldens(self, tmp_path, name, periods):
        # the goldens were written by the json.dumps writer that _document replaced;
        # CI also writes the reports with `kernel --report` and compares them with cmp
        text = (DATA / f"system-{name}.json").read_text()
        system = parse_system(text)
        assert format_system(system) == text
        path = tmp_path / "report.json"
        formats.write_kernel_report(periodic_kernel_basis(system, periods), path)
        assert path.read_bytes() == (DATA / f"kernel-{name}.json").read_bytes()

    def test_every_document_refuses_a_rank_above_the_bound(self, tmp_path):
        path = tmp_path / "doc.json"
        for rank, reads in ((MAX_RANK, True), (MAX_RANK + 1, False)):
            header = {"rank": rank, "field": "gf:7", "periods": [1] * rank}
            documents = [
                ({"rank": rank, "field": "gf:7", "k": 1, "l": 1, "entries": [["1"]]},
                 formats.read_system),
                (dict(header, values=["3"]), formats.read_periodic_json),
                (dict(header, dimension=1, basis=[["3"]]), formats.read_kernel_report),
            ]
            for doc, read in documents:
                path.write_text(json.dumps(doc))
                if reads:
                    assert read(path).rank == MAX_RANK
                else:
                    with pytest.raises(SchemaError, match=f"'rank' {rank} is above"):
                        read(path)

    def test_every_writer_reads_back_at_the_bound(self, tmp_path):
        # containers refuse a rank above MAX_RANK, so no writer emits a document its reader refuses
        field, periods = PrimeField(7), (1,) * MAX_RANK
        poly = parse_poly(f"3*X{MAX_RANK} + X1^-1", MAX_RANK, field)
        assert parse_poly(format_poly(poly), MAX_RANK, field) == poly
        system = System(PolyMatrix([[poly, poly * 2]]))
        assert parse_system(format_system(system)).matrix == system.matrix
        signal = PeriodicSeq(MAX_RANK, field, periods, [3])
        path = tmp_path / "signal.json"
        formats.write_periodic_json(path, signal)
        assert formats.read_periodic_json(path) == SeqVector([signal])
        kernel = KernelBasis(MAX_RANK, field, periods, (SeqVector([signal, signal * 2]),))
        path = tmp_path / "report.json"
        formats.write_kernel_report(kernel, path)
        assert formats.read_kernel_report(path) == kernel
        # the P5 writer refuses every size its reader refuses: 1x1 at both maxval bounds reads back
        path = tmp_path / "pixel.pgm"
        for maxval, raster in ((1, b"\x01"), (65535, b"\xff\xff")):
            pgm.write_pgm(path, FiniteSeq(2, F, {(0, 0): 1.0}), 1, 1, maxval)
            assert path.read_bytes() == f"P5\n1 1\n{maxval}\n".encode() + raster
            seq, width, height, m = pgm.read_pgm(path)
            assert seq.coeff((0, 0)).payload == 1.0 and (width, height, m) == (1, 1, maxval)


class TestKernelReport:
    def test_difference_report_golden(self, tmp_path):
        basis = periodic_kernel_basis(difference_system(), (2,))
        path = tmp_path / "report.json"
        formats.write_kernel_report(basis, path)
        doc = json.loads(path.read_text())
        assert doc["rank"] == 1
        assert doc["field"] == "gf:2"
        assert doc["periods"] == [2]
        assert doc["dimension"] == 2
        assert sorted(doc["basis"]) == [["0", "1"], ["1", "0"]]

    def test_empty_kernel_report(self, tmp_path):
        system = System(PolyMatrix([[parse_poly("1", 1, GF2)]]))
        basis = periodic_kernel_basis(system, (3,))
        path = tmp_path / "report.json"
        formats.write_kernel_report(basis, path)
        doc = json.loads(path.read_text())
        assert doc["dimension"] == 0
        assert doc["basis"] == []

    def test_report_replay_verifies(self, tmp_path):
        system = parse_system(
            json.dumps(
                {
                    "rank": 1,
                    "field": "gf:3",
                    "k": 2,
                    "l": 2,
                    "entries": [["X + X^-1", "1"], ["0", "X^-1 - 1"]],
                }
            )
        )
        basis = periodic_kernel_basis(system, (4,))
        path = tmp_path / "report.json"
        formats.write_kernel_report(basis, path)
        again = formats.read_kernel_report(path)
        assert again.dimension == basis.dimension
        assert again.periods == basis.periods
        for vec in again.basis:
            assert system.contains(vec)

    @pytest.mark.parametrize("field", [GF2, PrimeField(7), PrimeField(2**31 - 1), Q, F])
    def test_report_text_matches_json_dumps(self, tmp_path, field):
        # both lattice documents: the report, and the periodic document of one
        # component (odd trials) or of several (even trials)
        rng = random.Random(2311)
        path = tmp_path / "doc.json"
        for trial in range(20):
            rank = rng.randint(1, 3)
            periods = tuple(rng.randint(1, 3) for _ in range(rank))
            size, components = math.prod(periods), 1 if trial % 2 else rng.randint(2, 3)

            def value():
                if field == Q:
                    return Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                if field == F:
                    return rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-20, 20)
                return rng.randrange(field.p)

            def vector():
                return SeqVector([
                    PeriodicSeq(rank, field, periods, [value() for _ in range(size)])
                    for _ in range(components)
                ])

            def tokens(vec):
                return [field._format(v) for c in vec for v in c._values]

            header = {"rank": rank, "field": field.spec(), "periods": list(periods)}
            basis = tuple(vector() for _ in range(rng.randint(1, 4) if trial else 0))
            formats.write_kernel_report(KernelBasis(rank, field, periods, basis), path)
            doc = dict(header, dimension=len(basis), basis=[tokens(vec) for vec in basis])
            assert path.read_text() == json.dumps(doc, indent=2) + "\n"
            vec = vector()
            formats.write_periodic_json(path, vec.components[0] if components == 1 else vec)
            doc = dict(header, values=tokens(vec))
            assert path.read_text() == json.dumps(doc, indent=2) + "\n"

    def test_report_determinism(self, tmp_path):
        basis = periodic_kernel_basis(difference_system(), (4,))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        formats.write_kernel_report(basis, a)
        formats.write_kernel_report(basis, b)
        assert a.read_bytes() == b.read_bytes()

    def test_report_schema_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rank": 1}')
        with pytest.raises(SchemaError):
            formats.read_kernel_report(path)

    @pytest.mark.parametrize("basis", [[5], [[1, 0]], "01", [["0", None]]])
    def test_malformed_basis_rejected(self, tmp_path, basis):
        doc = {"rank": 1, "field": "gf:2", "periods": [2], "dimension": 1, "basis": basis}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="'basis'"):
            formats.read_kernel_report(path)

    def test_boolean_dimension_rejected(self, tmp_path):
        doc = {"rank": 1, "field": "gf:2", "periods": [2], "dimension": 1, "basis": [["1", "1"]]}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        assert formats.read_kernel_report(path).dimension == 1
        path.write_text(json.dumps({**doc, "dimension": True}))
        with pytest.raises(SchemaError, match="'dimension'"):
            formats.read_kernel_report(path)

    def test_ragged_basis_rows_rejected(self, tmp_path):
        # rows of 2 and 4 values on periods [2] would read as 1 and 2 components
        doc = {"rank": 1, "field": "gf:2", "periods": [2], "dimension": 2,
               "basis": [["1", "1"], ["1", "0", "0", "1"]]}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="basis rows differ in their number of components"):
            formats.read_kernel_report(path)

    @pytest.mark.parametrize(
        "rank, periods",
        [(1, [0]), (1, [-2]), (1, ["a"]), (1, [2.0]), (1, [True]), (1, 2), (2, [2]), (0, [])],
    )
    def test_bad_lattice_rejected(self, tmp_path, rank, periods):
        doc = {"rank": rank, "field": "gf:2", "periods": periods}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**doc, "values": [], "dimension": 0, "basis": []}))
        with pytest.raises(SchemaError):
            formats.read_kernel_report(path)
        with pytest.raises(SchemaError):
            formats.read_periodic_json(path)

    @pytest.mark.parametrize(
        "doc",
        [
            [1, 2],
            {"rank": 1, "field": 7, "periods": [2], "values": [], "dimension": 0, "basis": []},
        ],
    )
    def test_malformed_document_rejected(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            formats.read_kernel_report(path)
        with pytest.raises(SchemaError):
            formats.read_periodic_json(path)


class TestPeriodicDocument:
    def test_round_trip_single(self, tmp_path):
        w = PeriodicSeq(1, GF2, (2,), [1, 0])
        path = tmp_path / "p.json"
        formats.write_periodic_json(path, w)
        vec = formats.read_periodic_json(path, components=1)
        assert vec[0] == w

    def test_round_trip_vector(self, tmp_path):
        vec = SeqVector(
            [PeriodicSeq(1, Q, (3,), [1, 2, 3]), PeriodicSeq(1, Q, (3,), [0, 0, 5])]
        )
        path = tmp_path / "v.json"
        formats.write_periodic_json(path, vec)
        again = formats.read_periodic_json(path, components=2)
        assert again == vec

    def test_period_one_round_trips(self, tmp_path):
        # True == 1, but a bool period or rank is refused before it can be written
        with pytest.raises(ValueError):
            PeriodicSeq(1, GF2, (True,), [1])
        with pytest.raises(ValueError):
            PeriodicSeq(True, GF2, (1,), [1])
        path = tmp_path / "p.json"
        for w in (PeriodicSeq(1, GF2, (1,), [1]), PeriodicSeq(3, GF2, (1, 2, 1), [1, 0])):
            formats.write_periodic_json(path, w)
            assert type(json.loads(path.read_text())["rank"]) is int
            assert formats.read_periodic_json(path)[0] == w

    def test_finite_signal_refused(self, tmp_path):
        path = tmp_path / "p.json"
        finite = FiniteSeq(1, Q, {(0,): 1})
        for signal in (finite, SeqVector([finite])):
            with pytest.raises(TypeError, match="expected a periodic signal or signal vector"):
                formats.write_periodic_json(path, signal)
        assert not path.exists()

    @pytest.mark.parametrize("field, values, tokens", [
        (FloatField(), [0.0, -0.0, 1.5, 0.0], ["0.0", "-0.0", "1.5", "0.0"]),
        (Q, [0, Fraction(-1, 2), 0, 3], ["0", "-1/2", "0", "3"]),
        (PrimeField(7), [0, 6, 0, 1], ["0", "6", "0", "1"]),
    ])
    def test_zero_tokens(self, tmp_path, field, values, tokens):
        # every zero gets the field's zero token; a float -0.0 keeps its sign
        path = tmp_path / "p.json"
        formats.write_periodic_json(path, PeriodicSeq(1, field, (4,), values))
        assert json.loads(path.read_text())["values"] == tokens

    def test_component_count_checked(self, tmp_path):
        path = tmp_path / "p.json"
        formats.write_periodic_json(path, PeriodicSeq(1, Q, (2,), [1, 0]))
        with pytest.raises(SchemaError):
            formats.read_periodic_json(path, components=2)

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rank": 1, "periods": [2]}')
        with pytest.raises(SchemaError):
            formats.read_periodic_json(path)

    def test_values_must_be_a_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rank": 1, "field": "gf:2", "periods": [2], "values": 5}')
        with pytest.raises(SchemaError):
            formats.read_periodic_json(path)


class TestIntDigitLimit:
    """Integer text beyond int()'s digit limit ends in each reader's typed error.

    So does the other ValueError a JSON reader meets, undecodable bytes.
    """

    def test_csv_index_and_value(self, tmp_path, int_digit_limit):
        long = "1" * (int_digit_limit + 1)
        path = tmp_path / "w.csv"
        for row in (f"{long},1\n", f"1,{long}\n"):
            path.write_text(row)
            with pytest.raises(BadValueTokenError):
                formats.read_seq_csv(path, 1, Q)

    def test_pgm_header(self, tmp_path, int_digit_limit):
        path = tmp_path / "big.pgm"
        path.write_bytes(b"P5\n" + b"1" * (int_digit_limit + 1) + b" 1 255\n" + bytes(4))
        with pytest.raises(BadMagicError):
            pgm.read_pgm(path)

    def test_lattice_documents(self, tmp_path, int_digit_limit):
        long = "1" * (int_digit_limit + 1)
        path = tmp_path / "p.json"
        path.write_text('{"rank": 1, "field": "gf:2", "periods": [' + long + '], "values": [1]}')
        with pytest.raises(SchemaError):
            formats.read_periodic_json(path)
        with pytest.raises(SchemaError):
            formats.read_kernel_report(path)
        path.write_text(json.dumps({"rank": 1, "field": "rational", "periods": [1], "values": [long]}))
        with pytest.raises(BadValueTokenError):
            formats.read_periodic_json(path)

    def test_values_over_the_limit_are_not_written(self, tmp_path, int_digit_limit):
        # the writers refuse what the readers would refuse, and write nothing
        big = Fraction(10**int_digit_limit, 3)
        vec = SeqVector([PeriodicSeq(1, Q, (2,), [1, big])])
        writes = [
            lambda path: formats.write_kernel_report(KernelBasis(1, Q, (2,), (vec,)), path),
            lambda path: formats.write_periodic_json(path, vec),
            lambda path: formats.write_seq_csv(path, FiniteSeq(1, Q, {(0,): big})),
        ]
        for i, write in enumerate(writes):
            path = tmp_path / f"out{i}"
            with pytest.raises(DigitLimitError, match=f"of {int_digit_limit + 1} digits"):
                write(path)
            assert not path.exists()

    def test_lattice_document_not_utf8(self, tmp_path):
        # the decode error is a ValueError too, so it reads as a bad document
        path = tmp_path / "p.json"
        path.write_bytes(b'{"rank": 1, "field": "gf:2\xff"}')
        with pytest.raises(SchemaError):
            formats.read_periodic_json(path)
