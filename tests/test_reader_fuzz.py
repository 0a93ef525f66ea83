"""Seeded fuzz of the file readers: malformed input ends in a BishiftError.

Each reader gets a few hundred inputs drawn from a fixed seed: documents
whose keys hold random JSON values, CSV files of junk rows, and P5 images
with mutated headers and rasters.  A reader may accept an input or raise
a BishiftError; any other exception fails the test.  Counts and periods
are drawn small, so a document the readers accept stays cheap to build;
ranks also reach past the readers' bound, which must refuse them cheaply.
"""

import json
import random

import pytest

from bishift import io as formats
from bishift import pgm
from bishift.errors import BishiftError
from bishift._sparse import MAX_RANK
from bishift.fields import FloatField, PrimeField, RationalField

SEED = 8
CASES = 800

_TOKENS = [
    "0", "1", "-2", "7", "1/2", "3/0", "-1/7", "0.5", "1.", ".5", "1e3", "nan", "inf",
    "", " ", "x", "X", "X^", "X1*X2", "X - X^-1", "1/0", "9" * 40, "9" * 400 + ".0",
    "rational", "gf:7", "gf:4", "gf:", "float", "float:0", "float:1e-3", "é",
]


def _json_value(rng, depth=0):
    kind = rng.randrange(9 if depth < 2 else 6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.choice([True, False])
    if kind == 2:
        return rng.randint(-2, 6)
    if kind == 3:
        return rng.choice([0.0, 1.5, -1.0, 2.0, 1e300])
    if kind in (4, 5):
        return rng.choice(_TOKENS)
    if kind in (6, 7):
        return [_json_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {rng.choice(["rank", "a", "values"]): _json_value(rng, depth + 1)}


def _mutated_doc(rng, valid):
    """A valid document with random JSON values at some keys, or worse."""
    choice = rng.random()
    if choice < 0.05:
        return json.dumps(_json_value(rng))
    doc = json.loads(json.dumps(valid))
    for _ in range(rng.randint(1, 3)):
        key = rng.choice(sorted(doc) + ["extra"])
        action = rng.random()
        if action < 0.15:
            doc.pop(key, None)
        elif action < 0.25 and key == "rank":
            doc[key] = rng.choice([rng.randint(MAX_RANK - 1, MAX_RANK + 2), 10**9, 2**63])
        elif action < 0.5 and isinstance(doc.get(key), list) and doc[key]:
            items = doc[key]
            items[rng.randrange(len(items))] = _json_value(rng)
        else:
            doc[key] = _json_value(rng)
    text = json.dumps(doc)
    if choice > 0.95:
        text = text[: rng.randrange(len(text))]
    return text


def _run(reader, path):
    try:
        reader(path)
    except BishiftError:
        pass


PERIODIC = {"rank": 2, "field": "gf:7", "periods": [1, 2], "values": ["1", "0", "3", "6"]}
REPORT = {"rank": 1, "field": "rational", "periods": [2], "dimension": 1, "basis": [["1", "-1/2"]]}
SYSTEM = {"rank": 1, "field": "gf:3", "k": 1, "l": 2, "entries": [["X + 1", "X^-1"]]}


@pytest.mark.parametrize(
    "name, valid, reader",
    [
        ("periodic", PERIODIC, lambda p: formats.read_periodic_json(p, components=2)),
        ("report", REPORT, formats.read_kernel_report),
        ("system", SYSTEM, formats.read_system),
    ],
)
def test_json_readers_fail_typed(tmp_path, name, valid, reader):
    rng = random.Random(f"{SEED}:{name}")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(valid))
    reader(path)  # the unmutated document reads
    for _ in range(CASES):
        path.write_text(_mutated_doc(rng, valid))
        _run(reader, path)


# bytes that are not UTF-8 text, or that read as text no cell accepts
_RAW_BYTES = [bytes([b]) for b in range(0x80, 0x100)] + [b"\x00", b"\xef\xbb\xbf"]


def test_seq_csv_reader_fails_typed(tmp_path):
    rng = random.Random(f"{SEED}:csv")
    raw = random.Random(f"{SEED}:csv-bytes")  # its own stream, so the text cases stay as drawn
    path = tmp_path / "seq.csv"
    fields = [RationalField(), PrimeField(7), FloatField(), FloatField(1e-3)]
    for _ in range(CASES):
        rank = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(0, 5)):
            cells = [rng.choice(_TOKENS + ["3", "-1"]) for _ in range(rng.randint(0, rank + 2))]
            rows.append(rng.choice([",", ", ", ";"]).join(cells))
        data = "\n".join(rows).encode()
        for _ in range(raw.choice([0, 0, 1, 2])):
            at = raw.randint(0, len(data))
            data = data[:at] + raw.choice(_RAW_BYTES) + data[at:]
        path.write_bytes(data)
        field = rng.choice(fields)
        _run(lambda p: formats.read_seq_csv(p, rank, field), path)


def _mutated_pgm(rng):
    width, height = rng.randint(1, 4), rng.randint(1, 4)
    maxval = rng.choice([1, 255, 256, 65535])
    header = ["P5", str(width), str(height), str(maxval)]
    raster = bytearray(rng.getrandbits(8) for _ in range(width * height * (1 if maxval < 256 else 2)))
    for _ in range(rng.randint(1, 3)):
        action = rng.randrange(6)
        if action == 0 and header:
            header[rng.randrange(len(header))] = rng.choice(
                ["P2", "P6", "0", "-1", "65536", "x", "", "1e2", "3.0", str(2**40)]
            )
        elif action == 1:
            header.insert(rng.randrange(len(header) + 1), "# note\n")
        elif action == 2 and raster:
            del raster[rng.randrange(len(raster)) :]
        elif action == 3:
            raster += bytes(rng.getrandbits(8) for _ in range(rng.randint(1, 3)))
        elif action == 4 and raster:
            raster[rng.randrange(len(raster))] ^= 0xFF
        else:
            header = header[: rng.randrange(4)]
    sep = rng.choice([" ", "\n", "\t"])
    return (sep.join(header) + "\n").encode("utf-8") + bytes(raster)


def test_pgm_reader_fails_typed(tmp_path):
    rng = random.Random(f"{SEED}:pgm")
    path = tmp_path / "image.pgm"
    fields = [FloatField(), FloatField(0.5), RationalField()]
    for _ in range(CASES):
        path.write_bytes(_mutated_pgm(rng))
        field = rng.choice(fields)
        _run(lambda p: pgm.read_pgm(p, field), path)
