"""Batch command-line front end.

Commands: pair, shift, filter (alias of shift), kernel, member,
selftest.  Results go to stdout, diagnostics to stderr.  Exit codes:
0 success (member: in the behaviour), 1 failed check (member: not in
the behaviour; selftest: a law violated), 2 usage, parse or I/O errors.
"""

from __future__ import annotations

import argparse
import sys

from .errors import BishiftError
from .fields import decimal_int, decimal_text, parse_field_spec

# handlers import the modules they run, so a command loads only those
PARSE_ERROR = 2


def _parse_periods(text: str):
    # their count and lower bound are checked by the solver
    try:
        return tuple(map(decimal_int, text.split(",")))
    except ValueError:
        raise ValueError(f"bad period list {text!r}") from None


def _cmd_pair(args) -> int:
    from . import io as formats
    from .operators import scalar_product
    from .parsing import parse_poly

    field = parse_field_spec(args.field)
    poly = parse_poly(args.poly, args.rank, field)
    seq = formats.read_seq_csv(args.seq, args.rank, field)
    print(field.format_value(scalar_product(poly, seq)))
    return 0


def _cmd_filter(args) -> int:
    from .parsing import parse_poly

    field = parse_field_spec(args.field)
    if args.pgm:
        from .pgm import filter_pgm

        filter_pgm(args.input, args.output, parse_poly(args.kernel, 2, field))
        return 0
    from . import io as formats
    from .operators import shift

    kernel = parse_poly(args.kernel, args.rank, field)
    seq = formats.read_seq_csv(args.input, args.rank, field)
    formats.write_seq_csv(args.output, shift(kernel, seq))
    return 0


def _cmd_kernel(args) -> int:
    from . import io as formats
    from .systems import kernel_dimension, periodic_kernel_basis

    system = formats.read_system(args.system)
    periods = _parse_periods(args.period)
    if args.report:
        basis = periodic_kernel_basis(system, periods)
        # write first, so a report that cannot be written leaves stdout empty
        formats.write_kernel_report(basis, args.report)
        dimension = basis.dimension
    else:
        dimension = kernel_dimension(system, periods)
    print(f"dimension: {decimal_text(dimension, 'a dimension')}")
    return 0


def _cmd_member(args) -> int:
    from . import io as formats
    from .sequences import SeqVector

    system = formats.read_system(args.system)
    if args.periodic:
        vec = formats.read_periodic_json(args.periodic, components=system.l)
    else:
        if len(args.seq) != system.l:
            raise ValueError(
                f"system has {system.l} components but {len(args.seq)} signal files were given"
            )
        vec = SeqVector([formats.read_seq_csv(p, system.rank, system.field) for p in args.seq])
    member = system.contains(vec)
    print("yes" if member else "no")
    return 0 if member else 1


def _cmd_selftest(args) -> int:
    from .selftest import DEFAULT_SEED, run_all

    field = parse_field_spec(args.field)
    if args.trials < 0:
        raise ValueError("trial count must not be negative")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    results = run_all(field, args.trials, seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  trials={r.trials}  failures={r.failures}  {status}")
        if r.example:
            print(f"  first failure: {r.example}", file=sys.stderr)
    if args.trials == 0:
        print("warning: 0 trials requested, pass is vacuous", file=sys.stderr)
    if all(r.passed for r in results):
        print(f"all suites passed (seed {seed})")
        return 0
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bishift",
        description="Two-sided Laurent operators on discrete signals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pair = sub.add_parser("pair", help="pairing of a polynomial with a signal")
    pair.add_argument("--poly", required=True, help="polynomial expression")
    pair.add_argument("--seq", required=True, help="sparse CSV signal file")
    pair.add_argument("--rank", type=decimal_int, default=1)
    pair.add_argument("--field", default="rational")
    pair.set_defaults(handler=_cmd_pair)

    filt = sub.add_parser(
        "filter", aliases=["shift"], help="apply a shift kernel to a signal"
    )
    filt.add_argument("--kernel", required=True, help="kernel expression")
    filt.add_argument("--input", required=True)
    filt.add_argument("--output", required=True)
    filt.add_argument("--rank", type=decimal_int, default=1)
    filt.add_argument("--field", default="rational")
    filt.add_argument(
        "--pgm", action="store_true", help="treat input/output as binary P5 images"
    )
    filt.set_defaults(handler=_cmd_filter)

    kern = sub.add_parser("kernel", help="solve a behaviour on a period lattice")
    kern.add_argument("--system", required=True, help="system document file")
    kern.add_argument("--period", required=True, help="comma-separated periods")
    kern.add_argument("--report", help="write the kernel basis document here")
    kern.set_defaults(handler=_cmd_kernel)

    member = sub.add_parser("member", help="test whether a signal is in a behaviour")
    member.add_argument("--system", required=True)
    group = member.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--seq", action="append", help="sparse CSV file, one per component"
    )
    group.add_argument("--periodic", help="stacked periodic document")
    member.set_defaults(handler=_cmd_member)

    check = sub.add_parser("selftest", help="run the randomized law suites")
    check.add_argument("--trials", type=decimal_int, default=1000)
    check.add_argument("--seed", type=decimal_int)
    check.add_argument("--field", default="rational")
    check.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 on --help
        return 0 if e.code in (0, None) else PARSE_ERROR
    try:
        return args.handler(args)
    except (BishiftError, OSError, ValueError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
