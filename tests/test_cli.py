import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bishift import io as formats
from bishift import operators, pgm, systems
from bishift._univariate import PolyRing
from bishift.cli import build_parser, main
from bishift.errors import DigitLimitError
from bishift.fields import FloatField, PrimeField, RationalField
from bishift.sequences import FiniteSeq, PeriodicSeq

Q = RationalField()
GF2 = PrimeField(2)
F = FloatField()

DIFFERENCE_DOC = {
    "rank": 1,
    "field": "gf:2",
    "k": 1,
    "l": 1,
    "entries": [["X - X^-1"]],
}


@pytest.fixture
def difference_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(DIFFERENCE_DOC))
    return path


class TestPair:
    def test_weighted_golden(self, tmp_path, capsys):
        seq = tmp_path / "w.csv"
        seq.write_text("-1,3\n2,4\n")
        code = main(["pair", "--poly", "X^-1 + 2*X^2", "--seq", str(seq)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "11"

    def test_symmetric_golden(self, tmp_path, capsys):
        seq = tmp_path / "w.csv"
        seq.write_text("-1,1\n1,2\n")
        code = main(["pair", "--poly", "X^-1 + X", "--seq", str(seq)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_zero_poly(self, tmp_path, capsys):
        seq = tmp_path / "w.csv"
        seq.write_text("0,5\n")
        code = main(["pair", "--poly", "0", "--seq", str(seq)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_huge_rank_rejected_fast(self, tmp_path, capsys):
        seq = tmp_path / "w.csv"
        seq.write_text("0,5\n")
        start = time.perf_counter()
        assert main(["pair", "--rank", "100000000", "--poly", "1", "--seq", str(seq)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith("error: ")

    def test_parse_error_exits_2(self, tmp_path, capsys):
        seq = tmp_path / "w.csv"
        seq.write_text("0,5\n")
        code = main(["pair", "--poly", "X^", "--seq", str(seq)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err


    def test_float_overflow_exits_2(self, tmp_path, capsys):
        # the grammar has no exponent, so 10**300 is written out; the product overflows
        seq = tmp_path / "w.csv"
        seq.write_text(f"0,{10**300}\n")
        assert main(["pair", "--field", "float", "--poly", str(10**300), "--seq", str(seq)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot format non-finite value inf\n"


class TestFilter:
    def test_smoothing_case_study(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        inp.write_text("-1,1\n0,2\n1,3\n")
        out = tmp_path / "out.csv"
        code = main(
            [
                "filter",
                "--kernel",
                "0.5*X^-1 + 0.5*X",
                "--input",
                str(inp),
                "--output",
                str(out),
                "--field",
                "float",
            ]
        )
        assert code == 0
        # interior samples smooth to (1, 2, 1), as in the published table;
        # the defining sum also produces the edge samples 0.5 and 1.5,
        # which the table reads as 0 because the stencil leaves its window
        assert out.read_text().splitlines() == [
            "-2,0.5",
            "-1,1.0",
            "0,2.0",
            "1,1.0",
            "2,1.5",
        ]

    def test_identity_kernel(self, tmp_path):
        inp = tmp_path / "in.csv"
        inp.write_text("-4,7\n9,1/3\n")
        out = tmp_path / "out.csv"
        assert main(["filter", "--kernel", "1", "--input", str(inp), "--output", str(out)]) == 0
        assert formats.read_seq_csv(out, 1, Q) == formats.read_seq_csv(inp, 1, Q)

    def test_monomial_kernel_moves_delta(self, tmp_path):
        inp = tmp_path / "in.csv"
        inp.write_text("0,1\n")
        out = tmp_path / "out.csv"
        assert main(["filter", "--kernel", "X", "--input", str(inp), "--output", str(out)]) == 0
        assert formats.read_seq_csv(out, 1, Q) == FiniteSeq.delta(1, Q, (-1,))

    def test_shift_alias(self, tmp_path):
        inp = tmp_path / "in.csv"
        inp.write_text("0,1\n")
        out = tmp_path / "out.csv"
        assert main(["shift", "--kernel", "X", "--input", str(inp), "--output", str(out)]) == 0
        assert formats.read_seq_csv(out, 1, Q) == FiniteSeq.delta(1, Q, (-1,))

    def test_pgm_requires_float_field(self, tmp_path, capsys):
        img = tmp_path / "img.pgm"
        img.write_bytes(b"P5\n1 1\n255\n\x7f")
        out = tmp_path / "out.pgm"
        code = main(
            ["filter", "--kernel", "1", "--input", str(img), "--output", str(out), "--pgm"]
        )
        assert code == 2

    def test_pgm_filtering(self, tmp_path):
        img = tmp_path / "img.pgm"
        img.write_bytes(b"P5\n3 1\n255\n" + bytes([0, 200, 0]))
        out = tmp_path / "out.pgm"
        code = main(
            [
                "filter",
                "--kernel",
                "0.5*X1^-1 + 0.5*X1",
                "--input",
                str(img),
                "--output",
                str(out),
                "--pgm",
                "--field",
                "float",
            ]
        )
        assert code == 0
        seq, w, h, maxval = pgm.read_pgm(out)
        assert (w, h, maxval) == (3, 1, 255)
        assert round(seq.coeff((0, 0)).payload * 255) == 100
        assert seq.coeff((1, 0)).payload == 0.0
        assert round(seq.coeff((2, 0)).payload * 255) == 100

    def test_pgm_filtering_with_tolerance(self, tmp_path):
        img = tmp_path / "img.pgm"
        pixels = [0, 7, 200, 255, 13, 0, 90, 4, 1, 0, 66, 250]
        img.write_bytes(b"P5\n4 3\n255\n" + bytes(pixels))
        outputs = []
        for spec in ("float", "float:1e-6"):
            out = tmp_path / f"out-{spec}.pgm"
            argv = ["filter", "--pgm", "--field", spec, "--input", str(img), "--output",
                    str(out), "--kernel", "0.3*X1^-1 + 0.4 + 0.2*X2 - 0.1*X1*X2^-1"]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "spec, golden",
        [("float", "dense16-filtered.csv"), ("float:1e-3", "dense16-filtered-1e-3.csv")],
    )
    def test_dense_float_csv_golden(self, tmp_path, spec, golden):
        # dense16.csv holds all 16x16 samples, drawn with random.Random(1816) to six
        # decimals: one in eight of magnitude 1e-4 to 1.5e-3, the rest in (-1, 1).
        # The goldens were written by a dense float branch of the shift that no
        # longer exists, so they pin that the one finite shift keeps its bytes.
        out = tmp_path / "out.csv"
        argv = ["filter", "--rank", "2", "--field", spec, "--kernel", DENSE_KERNEL,
                "--input", str(DATA / "dense16.csv"), "--output", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == (DATA / golden).read_bytes()


    def test_float_overflow_exits_2_and_writes_nothing(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        inp.write_text(f"0,{10**300}\n")
        out = tmp_path / "out.csv"
        argv = ["filter", "--field", "float", "--kernel", str(10**300), "--input", str(inp),
                "--output", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: cannot format non-finite value inf\n"
        assert not out.exists()


class TestKernel:
    def test_difference_dimension(self, difference_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            ["kernel", "--system", str(difference_file), "--period", "2",
             "--report", str(report)]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "dimension: 2"
        doc = json.loads(report.read_text())
        assert doc["dimension"] == 2

    def test_unwritable_report_prints_nothing(self, difference_file, tmp_path, capsys):
        report = tmp_path / "missing" / "report.json"
        code = main(
            ["kernel", "--system", str(difference_file), "--period", "4",
             "--report", str(report)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_identity_system(self, tmp_path, capsys):
        path = tmp_path / "sys.json"
        path.write_text(
            json.dumps({"rank": 1, "field": "gf:2", "k": 1, "l": 1, "entries": [["1"]]})
        )
        assert main(["kernel", "--system", str(path), "--period", "4"]) == 0
        assert capsys.readouterr().out.strip() == "dimension: 0"

    def test_two_variable_dimension(self, tmp_path, capsys):
        path = tmp_path / "sys.json"
        path.write_text(
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
        assert main(["kernel", "--system", str(path), "--period", "4"]) == 0
        assert capsys.readouterr().out.strip() == "dimension: 3"

    def test_float_system_rejected(self, tmp_path, capsys):
        path = tmp_path / "sys.json"
        path.write_text(
            json.dumps(
                {"rank": 1, "field": "float", "k": 1, "l": 1, "entries": [["0.5*X"]]}
            )
        )
        assert main(["kernel", "--system", str(path), "--period", "2"]) == 2

    def test_oversized_lattice_rejected_fast(self, difference_file, tmp_path, capsys):
        # 2 x 3000000 basis cells: the basis budget refuses the report
        report = tmp_path / "report.json"
        argv = ["kernel", "--system", str(difference_file), "--period", "3000000"]
        start = time.perf_counter()
        assert main([*argv, "--report", str(report)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not report.exists()

    @pytest.mark.parametrize("field", ["gf:7", "rational"])
    def test_huge_rank2_basis_refused_fast(self, field, tmp_path, capsys, monkeypatch):
        # a 1 x 20 zero system at (30,30): a 900 x 18000 matrix of no
        # entries, within MAX_FILL, but a basis of 18000 x 18000 cells
        path = tmp_path / "zeros.json"
        path.write_text(json.dumps({"rank": 2, "field": field, "k": 1, "l": 20,
                                    "entries": [["0"] * 20]}))

        def no_basis(*args):
            raise AssertionError("basis built past the budget")

        monkeypatch.setattr(systems, "_nullspace", no_basis)
        monkeypatch.setattr(systems, "_reconstruct", no_basis)
        report = tmp_path / "report.json"
        argv = ["kernel", "--system", str(path), "--period", "30,30"]
        start = time.process_time()
        assert main([*argv, "--report", str(report)]) == 2
        assert time.process_time() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "324000000 basis cells" in captured.err
        assert not report.exists()
        if field == "gf:7":
            assert main(argv) == 0
            assert capsys.readouterr().out == "dimension: 18000\n"

    def test_sparse_lattice_answered(self, tmp_path, capsys):
        # a 20000 x 40000 matrix with 40000 entries
        path = tmp_path / "stencil.json"
        doc = {"rank": 2, "field": "gf:7", "k": 1, "l": 2, "entries": [["X1 - X1^-1", "X2 - 1"]]}
        path.write_text(json.dumps(doc))
        start = time.process_time()
        assert main(["kernel", "--system", str(path), "--period", "1,20000"]) == 0
        assert time.process_time() - start < 5.0
        assert capsys.readouterr().out == "dimension: 20001\n"

    def test_dimension_without_report_builds_no_basis(self, difference_file, capsys, monkeypatch):
        def no_basis(*args):
            raise AssertionError("basis built for the dimension alone")

        monkeypatch.setattr(PolyRing, "kernel_hermite", no_basis)
        monkeypatch.setattr(PolyRing, "rref_rows", no_basis)
        for period in ("100000", "1000000"):
            start = time.perf_counter()
            assert main(["kernel", "--system", str(difference_file), "--period", period]) == 0
            assert time.perf_counter() - start < 1.0
            assert capsys.readouterr().out == "dimension: 2\n"

    def test_rank2_dimension_without_report_reads_no_nullspace(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "system.json"
        doc = {"rank": 2, "field": "gf:7", "k": 1, "l": 2, "entries": [["X1 - X1^-1", "X2 - 1"]]}
        path.write_text(json.dumps(doc))
        argv = ["kernel", "--system", str(path), "--period", "4,4"]
        assert main([*argv, "--report", str(tmp_path / "report.json")]) == 0
        with_report = capsys.readouterr().out

        def no_nullspace(*args):
            raise AssertionError("nullspace built for the dimension alone")

        monkeypatch.setattr(systems, "_nullspace", no_nullspace)
        assert main(argv) == 0
        assert capsys.readouterr().out == with_report == "dimension: 18\n"

    def test_rank2_dimension_without_report_skips_the_clearing_pass(
        self, tmp_path, capsys, monkeypatch
    ):
        # over GF(p) the dimension is read off the forward pass; only the
        # report's basis clears the pivot rows
        path = tmp_path / "system.json"
        doc = {"rank": 2, "field": "gf:7", "k": 1, "l": 2, "entries": [["X1 - X1^-1", "X2 - 1"]]}
        path.write_text(json.dumps(doc))
        argv = ["kernel", "--system", str(path), "--period", "6,4"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "dimension: 26\n"

        def no_clearing(*args):
            raise AssertionError("pivot rows cleared for the dimension alone")

        monkeypatch.setattr(systems, "_clear", no_clearing)
        assert main(argv) == 0
        assert capsys.readouterr().out == "dimension: 26\n"
        with pytest.raises(AssertionError, match="cleared for the dimension alone"):
            main([*argv, "--report", str(tmp_path / "report.json")])

    def test_dimension_over_the_int_digit_limit(self, tmp_path, capsys, int_digit_limit):
        # 20 free components on a period of 4300 nines: a dimension of 4302 digits
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"rank": 1, "field": "gf:7", "k": 1, "l": 20, "entries": [["0"] * 20]}))
        argv = ["kernel", "--system", str(path), "--period", "9" * int_digit_limit]
        args = build_parser().parse_args(argv)
        with pytest.raises(DigitLimitError, match=f"a dimension of {int_digit_limit + 2} digits"):
            args.handler(args)
        assert capsys.readouterr().out == ""
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write a dimension of {int_digit_limit + 2} digits")

    def test_huge_rank_rejected_fast(self, tmp_path, capsys):
        path = tmp_path / "system.json"
        doc = {"rank": 10**9, "field": "gf:7", "k": 1, "l": 2, "entries": [["1", "2"]]}
        path.write_text(json.dumps(doc))
        assert len(path.read_bytes()) <= 100
        start = time.perf_counter()
        assert main(["kernel", "--system", str(path), "--period", "2"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_bad_period_rejected(self, difference_file):
        assert main(["kernel", "--system", str(difference_file), "--period", "0"]) == 2
        assert main(["kernel", "--system", str(difference_file), "--period", "x"]) == 2

    @pytest.mark.parametrize("period", ["1_0", "+4", " 4", "4 ", "\u0664", "4.0", "2,,2"])
    def test_period_is_ascii_decimal(self, difference_file, capsys, period):
        assert main(["kernel", "--system", str(difference_file), "--period", period]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "bad period list" in captured.err

    def test_period_65536_rank_one(self, tmp_path, capsys):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(dict(DIFFERENCE_DOC, field="gf:7")))
        report = tmp_path / "report.json"
        argv = ["kernel", "--system", str(path), "--period", "65536", "--report", str(report)]
        assert main(argv) == 0
        assert capsys.readouterr().out == "dimension: 2\n"
        kernel = formats.read_kernel_report(report)
        system = formats.read_system(path)
        assert kernel.dimension == len(kernel.basis) == 2
        for vec in kernel.basis:
            assert system.contains(vec)


ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
# runs the CLI in a fresh interpreter and lists on stderr the modules that
# importing and running it newly loaded
IMPORT_PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "from bishift.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('loaded:', *sorted(set(sys.modules) - before), file=sys.stderr)\n"
    "sys.exit(code)\n"
)
# runs the CLI in a fresh interpreter where any import of numpy fails
NUMPY_BLOCKED = (
    "import sys\n"
    "sys.modules['numpy'] = None\n"
    "from bishift.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)
TINY_KERNEL = "0.5 + 0.25*X1 + 0.125*X2^-1 + 0.125*X1^-1*X2"
# every term of the 3x3 stencil, so the raster sum has an odd term count
NINE_TERM_KERNEL = (
    "0.0625*X1^-1*X2^-1 + 0.125*X2^-1 + 0.0625*X1*X2^-1 + 0.125*X1^-1 + 0.3"
    " + 0.125*X1 + 0.0625*X1^-1*X2 + 0.1*X2 - 0.0375*X1*X2"
)
DENSE_KERNEL = (
    "0.25 + 0.125*X1 - 0.125*X1^-1 + 0.0625*X2 + 0.0625*X2^-1"
    " + 0.03125*X1*X2 - 0.5*X1^-1*X2^-1 + 0.1*X1^2 + 0.3*X2^-2"
)


def run_probe(argv, cwd, probe=IMPORT_PROBE):
    """The set of modules the command newly loaded, empty if the probe lists none."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, cwd=cwd,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    listed = [line for line in result.stderr.splitlines() if line.startswith("loaded:")]
    return set(listed[-1].split()[1:]) if listed else set()


# start-up cost: no command needs these (dataclasses pulls in inspect)
NEVER_LOADED = {"numpy", "dataclasses", "inspect"}
# modules that only kernel and selftest run
SOLVER_AND_LAWS = {"bishift.systems", "bishift._univariate", "bishift.selftest"}


class TestNumpyImport:
    """No command imports numpy, which is not a runtime dependency, nor the
    modules it does not run."""

    def test_exact_commands_do_not_import_numpy(self, tmp_path, capsys):
        rank2 = {"rank": 2, "k": 1, "l": 2, "entries": [["X1 - X2^-1", "2"]]}
        for spec in ("gf:7", "rational"):
            for doc, period, dimension in ((DIFFERENCE_DOC, "12", 2), (rank2, "3,2", 6)):
                path = tmp_path / f"{spec[:2]}-{doc['rank']}.json"
                path.write_text(json.dumps(dict(doc, field=spec)))
                report = tmp_path / f"{spec[:2]}-{doc['rank']}-report.json"
                argv = ["kernel", "--system", str(path), "--period", period]
                # with and without a report
                for args in ([*argv, "--report", str(report)], argv):
                    loaded = run_probe(args, tmp_path)
                    unused = NEVER_LOADED | {"bishift.selftest", "bishift.operators", "bishift.pgm"}
                    assert not loaded & unused
                    assert "bishift.systems" in loaded
                    # only the rank-1 branch imports the polynomial solver
                    assert ("bishift._univariate" in loaded) == (doc["rank"] == 1)
                    assert main(args) == 0
                    assert capsys.readouterr().out == f"dimension: {dimension}\n"
                assert json.loads(report.read_text())["dimension"] == dimension
            loaded = run_probe(["selftest", "--trials", "2", "--field", spec], tmp_path)
            assert not loaded & NEVER_LOADED and "bishift.selftest" in loaded
        assert not run_probe(["--help"], tmp_path) & NEVER_LOADED

    def test_selftest_and_help_load_no_file_formats(self, tmp_path):
        # neither reads nor writes a file
        file_formats = {"bishift.io", "bishift.parsing", "json", "array"}
        for argv in (["selftest", "--trials", "2", "--field", "gf:7"], ["--help"]):
            assert not run_probe(argv, tmp_path) & file_formats

    def test_array_commands_still_run(self, tmp_path):
        # filter --pgm builds no signal and reads no CSV or JSON document
        out = tmp_path / "out.pgm"
        argv = ["filter", "--pgm", "--field", "float", "--kernel", TINY_KERNEL,
                "--input", str(DATA / "tiny.pgm"), "--output", str(out)]
        loaded = run_probe(argv, tmp_path)
        unused = {"bishift.io", "bishift.operators", "bishift.sequences", "json"}
        assert not loaded & (NEVER_LOADED | SOLVER_AND_LAWS | unused)
        assert "bishift.pgm" in loaded
        assert out.read_bytes() == (DATA / "tiny-filtered.pgm").read_bytes()

    def test_nine_term_golden(self, tmp_path):
        # written by the one-column-per-pass sum; nine terms make the first a pass of its own
        out = tmp_path / "out.pgm"
        argv = ["filter", "--pgm", "--field", "float", "--kernel", NINE_TERM_KERNEL,
                "--input", str(DATA / "tiny.pgm"), "--output", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == (DATA / "tiny-filtered-9.pgm").read_bytes()

    def test_sixteen_bit_golden(self, tmp_path):
        # maxval 1000, with grays 0, 1, 1001 and 1500; written by the per-pixel map writer
        out = tmp_path / "out.pgm"
        argv = ["filter", "--pgm", "--field", "float", "--kernel", TINY_KERNEL,
                "--input", str(DATA / "tiny16.pgm"), "--output", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == (DATA / "tiny16-filtered.pgm").read_bytes()

    @pytest.mark.parametrize("name", ["binary", "column", "pixel256"])
    def test_codec_edge_goldens(self, tmp_path, name):
        # maxval 1 (5x4), a 1x7 column at maxval 255, and 1x1 at maxval 256, the first
        # two-byte maxval; written by the codec that read 8-bit grays through array('B')
        out = tmp_path / "out.pgm"
        argv = ["filter", "--pgm", "--field", "float", "--kernel", TINY_KERNEL,
                "--input", str(DATA / f"{name}.pgm"), "--output", str(out)]
        assert main(argv) == 0
        assert out.read_bytes() == (DATA / f"{name}-filtered.pgm").read_bytes()

    def test_signal_commands_load_no_solver(self, difference_file, tmp_path):
        seq = tmp_path / "w.csv"
        seq.write_text("0,1\n")
        # nor the image format
        unused = NEVER_LOADED | SOLVER_AND_LAWS | {"bishift.pgm"}
        assert not run_probe(["pair", "--poly", "X^-1 + 2", "--seq", str(seq)], tmp_path) & unused
        doc = tmp_path / "w.json"
        formats.write_periodic_json(doc, PeriodicSeq(1, GF2, (2,), [1, 1]))
        argv = ["member", "--system", str(difference_file), "--periodic", str(doc)]
        assert not run_probe(argv, tmp_path) & unused

    def test_commands_run_with_numpy_blocked(self, tmp_path):
        out = tmp_path / "out.pgm"
        csv_in, csv_out = tmp_path / "w.csv", tmp_path / "y.csv"
        csv_in.write_text("-1,0.5\n2,1.25\n")
        system = tmp_path / "system.json"
        system.write_text(json.dumps(dict(DIFFERENCE_DOC, field="gf:7")))
        doc = tmp_path / "w.json"
        formats.write_periodic_json(doc, PeriodicSeq(1, PrimeField(7), (2,), [1, 1]))
        for argv in (
            ["filter", "--pgm", "--field", "float", "--kernel", TINY_KERNEL,
             "--input", str(DATA / "tiny.pgm"), "--output", str(out)],
            ["filter", "--field", "float", "--kernel", "0.5*X + X^-1",
             "--input", str(csv_in), "--output", str(csv_out)],
            ["kernel", "--system", str(system), "--period", "12", "--report", str(tmp_path / "r.json")],
            ["member", "--system", str(system), "--periodic", str(doc)],
            ["selftest", "--trials", "2", "--field", "rational"],
            ["--help"],
        ):
            run_probe(argv, tmp_path, NUMPY_BLOCKED)
        assert out.read_bytes() == (DATA / "tiny-filtered.pgm").read_bytes()
        assert csv_out.read_text() == "-2,0.25\n0,0.5\n1,0.625\n3,1.25\n"


class TestMember:
    def test_periodic_member(self, difference_file, tmp_path, capsys):
        doc = tmp_path / "w.json"
        formats.write_periodic_json(doc, PeriodicSeq(1, GF2, (2,), [1, 0]))
        code = main(["member", "--system", str(difference_file), "--periodic", str(doc)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_golden_periodic_member(self, capsys):
        # the first basis row of kernel-gf7.json, which CI also checks without numpy
        doc = DATA / "periodic-gf7.json"
        report = formats.read_kernel_report(DATA / "kernel-gf7.json")
        assert formats.read_periodic_json(doc, components=2) == report.basis[0]
        code = main(["member", "--system", str(DATA / "system-gf7.json"), "--periodic", str(doc)])
        assert code == 0
        assert capsys.readouterr().out == "yes\n"

    def test_periodic_document_above_the_rank_bound_exits_2(self, difference_file, tmp_path, capsys):
        doc = tmp_path / "w.json"
        doc.write_text(json.dumps({"rank": 65, "field": "gf:2", "periods": [1] * 65, "values": [1]}))
        code = main(["member", "--system", str(difference_file), "--periodic", str(doc)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {doc}: 'rank' 65 is above the largest supported rank 64\n"

    def test_delta_not_member(self, difference_file, tmp_path, capsys):
        seq = tmp_path / "w.csv"
        seq.write_text("0,1\n")
        code = main(["member", "--system", str(difference_file), "--seq", str(seq)])
        assert code == 1
        assert capsys.readouterr().out.strip() == "no"

    def test_zero_signal_member(self, difference_file, tmp_path, capsys):
        seq = tmp_path / "zero.csv"
        seq.write_text("")
        code = main(["member", "--system", str(difference_file), "--seq", str(seq)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "yes"

    def test_vector_membership_needs_all_components(self, tmp_path, capsys):
        path = tmp_path / "sys.json"
        path.write_text(
            json.dumps(
                {
                    "rank": 1,
                    "field": "rational",
                    "k": 2,
                    "l": 2,
                    "entries": [["X + X^-1", "1"], ["0", "X^-1 - 1"]],
                }
            )
        )
        seq = tmp_path / "w.csv"
        seq.write_text("")
        assert main(["member", "--system", str(path), "--seq", str(seq)]) == 2
        code = main(
            ["member", "--system", str(path), "--seq", str(seq), "--seq", str(seq)]
        )
        assert code == 0


class TestSelftest:
    def test_small_run_passes(self, capsys):
        code = main(["selftest", "--trials", "25", "--seed", "7", "--field", "gf:7"])
        assert code == 0
        out = capsys.readouterr().out
        assert "adjoint[gf:7,r=1,finite]" in out
        assert "all suites passed (seed 7)" in out

    def test_zero_trials_vacuous_pass(self, capsys):
        code = main(["selftest", "--trials", "0", "--field", "gf:2"])
        assert code == 0
        captured = capsys.readouterr()
        assert "vacuous" in captured.err

    def test_float_field_rejected(self, capsys):
        assert main(["selftest", "--trials", "5", "--field", "float"]) == 2

    def test_negative_trials_rejected(self):
        assert main(["selftest", "--trials", "-1", "--field", "gf:2"]) == 2

    def test_broken_law_fails_with_its_first_instance(self, capsys, monkeypatch):
        # a shift that drops every sample breaks the identity 1 o W = W
        def vanishing(d, w):
            return w * 0

        monkeypatch.setattr(operators, "shift", vanishing)
        code = main(["selftest", "--trials", "3", "--seed", "5", "--field", "gf:7"])
        assert code == 1
        captured = capsys.readouterr()
        lines = {line.split()[0]: line.split()[1:] for line in captured.out.splitlines()}
        assert len(lines) == 21 and "all" not in lines
        trials, failures, status = lines["module-action[gf:7,r=1,finite]"]
        assert (trials, status) == ("trials=3", "FAIL") and failures != "failures=0"
        assert "  first failure: seed=5, trial=" in captured.err

    def test_same_seed_same_output(self, capsys):
        main(["selftest", "--trials", "10", "--seed", "3", "--field", "gf:2"])
        first = capsys.readouterr().out
        main(["selftest", "--trials", "10", "--seed", "3", "--field", "gf:2"])
        second = capsys.readouterr().out
        assert first == second


class TestNumberText:
    @pytest.mark.parametrize("flag", ["--trials", "--seed"])
    @pytest.mark.parametrize("text", ["1_0", "+4", " 4", "\u0664"])
    def test_integer_flags_are_ascii_decimal(self, capsys, flag, text):
        assert main(["selftest", "--trials", "1", "--field", "gf:7", flag, text]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("spec", ["gf:1_1", "gf:+7", "gf: 7", "gf:\u0667"])
    def test_prime_is_ascii_decimal(self, capsys, spec):
        assert main(["selftest", "--trials", "1", "--field", spec]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("spec", ["float:inf", "float:1e400"])
    def test_infinite_tolerance_refused(self, tmp_path, capsys, spec):
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        inp.write_text("0,1\n1,2\n")
        argv = ["filter", "--kernel", "X", "--input", str(inp), "--output", str(out)]
        assert main([*argv, "--field", spec]) == 2
        assert not out.exists()
        assert "tolerance" in capsys.readouterr().err


    def test_integer_text_over_the_int_digit_limit(self, tmp_path, capsys, int_digit_limit):
        long = "1" * (int_digit_limit + 1)
        seq = tmp_path / "w.csv"
        seq.write_text(f"0,{long}\n")
        for poly, path in ((f"X^{long}", tmp_path / "nope.csv"), ("X", seq)):
            assert main(["pair", "--poly", poly, "--seq", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: cannot read")

    def test_result_over_the_int_digit_limit(self, tmp_path, capsys, int_digit_limit):
        # the pairing of two 3000-digit integers has 6000 digits
        nines = "9" * 3000
        seq = tmp_path / "w.csv"
        seq.write_text(f"0,{nines}\n")
        assert main(["pair", "--poly", nines, "--seq", str(seq)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot write a rational of 6000 digits")
        assert "Traceback" not in err

    def test_shifted_index_over_the_int_digit_limit(self, tmp_path, capsys, int_digit_limit):
        # a 4300-digit index shifted by a 4300-digit exponent has 4301 digits
        nines = "9" * int_digit_limit
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        inp.write_text(f"{nines},1\n")
        argv = ["filter", "--kernel", f"X^-{nines}", "--input", str(inp), "--output", str(out)]
        assert main(argv) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"error: cannot write an integer of {int_digit_limit + 1} digits")
        assert not out.exists()


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["pair", "--poly", "X"]) == 2

    def test_missing_file(self, tmp_path, capsys):
        assert main(["pair", "--poly", "X", "--seq", str(tmp_path / "nope.csv")]) == 2
