"""Command-line interface.

Subcommands: count, enumerate, check, classify, decompose, render, oracle,
verify.  Data goes to stdout, diagnostics to stderr; identical invocations
produce identical bytes.  Exit status 0 means no error and no failed check.
There are no configuration files or environment variables.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from itertools import islice

from . import counting, formats, oracle, verify
from .enumeration import FAMILIES, FamilySpec, generate
from .errors import CapacityError, ConsistencyError, DecompositionError, ParseError
from .formats import (
    emit_classification,
    emit_properties,
    emit_total_order,
    emit_weak_order,
    load_table,
    parse_listing,
    parse_profile,
)
from .magmas import is_order_preserving
from .orders import TotalOrder
from .render import FORMATS, render_contour, render_profile
from .structure import TableProperties, classify, decompose, exists_monotonizing_order

# `enumerate` writes its listing this many lines at a time, never whole
ENUMERATE_CHUNK_LINES = 2048

ORACLE_CHECKS = (
    "qt-associative-count",
    "neutral-implies-quasitrivial",
    "commutative-implies-associative",
    "monotonizable-count",
)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _open_output(path: str | None):
    """The file at `path` for writing, or stdout (left open) if None."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _write_output(text: str, path: str | None) -> None:
    with _open_output(path) as out:
        out.write(text)


def _order_flag(flag: str, value: str | None, n: int) -> TotalOrder:
    """The ordering given as the value of `flag`, elements smallest first, or
    the natural ordering of 1..n if the flag was not given; a diagnostic
    names the flag and points into its value."""
    if value is None:
        return TotalOrder.natural(n)
    try:
        return parse_listing(value, n)
    except ParseError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _cmd_count(args) -> int:
    name, n = args.name, args.n
    if args.method != "all":
        method, fn = counting.route(name, n, args.method)
        print(f"{name} {n} {fn(n)} {method}")
        return 0
    first = None
    for method, value in counting.route_values(name, n):
        if first is None:
            first = value
        print(f"{name} {n} {value} {method}")
        if value != first:
            print(f"{name} {n} MISMATCH", file=sys.stderr)
            return 1
    print(f"{name} {n} MATCH")
    return 0


def _cmd_enumerate(args) -> int:
    spec = FamilySpec(args.family, args.n, frozenset(args.filter))
    # errors in the spec or the shard raise here, before --output is opened;
    # a family with a line stream is written from it, filtered or not
    _, _, emit, lines = FAMILIES[args.family]
    if lines is not None:
        stream = getattr(formats, lines)(spec.n, args.shard, args.shards, spec.filters)
    else:
        stream = map(getattr(formats, emit), generate(spec, args.shard, args.shards))
    with _open_output(args.output) as out:
        while chunk := list(islice(stream, ENUMERATE_CHUNK_LINES)):
            out.write("\n".join(chunk) + "\n")
    return 0


def _cmd_check(args) -> int:
    f = load_table(_read_input(args.input))
    reference = _order_flag("--reference", args.reference, f.n)
    out = emit_properties(TableProperties.of(f), is_order_preserving(f, reference))
    if args.find_order:
        # a decomposable table lists its orderings from its factorization, at any n
        found = exists_monotonizing_order(f)
        if found is None:
            total = math.factorial(f.n)
            out += f"no order-preserving total ordering exists ({total}/{total} rejected)\n"
        else:
            out += "found: " + emit_total_order(found) + "\n"
    sys.stdout.write(out)
    return 0


def _cmd_classify(args) -> int:
    f = load_table(_read_input(args.input))
    report = classify(f, _order_flag("--reference", args.reference, f.n))
    sys.stdout.write(emit_classification(report))
    return 0


def _cmd_decompose(args) -> int:
    f = load_table(_read_input(args.input))
    try:
        d = decompose(f)
    except DecompositionError as exc:
        print(f"cannot decompose: {exc.reason}", file=sys.stderr)
        return 1
    print(emit_weak_order(d.order))
    for rank, side in d.choices:
        print(f"choice {rank} : {side}")
    return 0


def _cmd_render_contour(args) -> int:
    f = load_table(_read_input(args.input))
    out = render_contour(f, _order_flag("--axis", args.axis, f.n), args.format)
    _write_output(out, args.output)
    return 0


def _cmd_render_profile(args) -> int:
    weak, total = parse_profile(_read_input(args.input))
    if not weak.n:
        raise ValueError("a profile needs a weak ordering of n >= 1 elements")
    # the file's totalorder line is the default reference; the flag overrides it
    if total is None or args.reference is not None:
        total = _order_flag("--reference", args.reference, weak.n)
    _write_output(render_profile(total, weak, args.format), args.output)
    return 0


def _cmd_oracle(args) -> int:
    name, n = args.check, args.n
    if name == "qt-associative-count":
        print(oracle.brute_count_quasitrivial_associative(n, args.shard, args.shards))
        return 0
    # the other checks run whole; a shard of them would repeat the full answer
    if (args.shards, args.shard) != (1, 0):
        raise ValueError(f"{name} is not sharded; it accepts only --shards 1 --shard 0")
    if name == "monotonizable-count":
        print(oracle.brute_count_monotonizable(n))
        return 0
    if name == "neutral-implies-quasitrivial":
        ok, witness = oracle.check_neutral_monotone_implies_quasitrivial(n)
    else:
        ok, witness = oracle.check_commutative_monotone_implies_associative(n)
    if ok:
        print("PASS")
        return 0
    print("FAIL")
    print(witness)
    return 1


def _cmd_verify(args) -> int:
    results = verify.run_checks(args.level)
    failed = [r for r in results if not r.ok]
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, shared by every `main` call: parsing
    leaves it unchanged, and callers must not change it either."""
    parser = argparse.ArgumentParser(
        prog="quasitrivial",
        description="Construct, classify, enumerate, and count quasitrivial semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="evaluate a named integer sequence")
    p.add_argument("name")
    p.add_argument("n", type=int)
    p.add_argument("--method", default=None,
                   help="closed|recurrence|gf|egf|appendix|enumerate|bruteforce|all")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("enumerate", help="stream every member of a family")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--filter", action="append", default=[])
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--shard", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("check", help="basic property report for a Cayley table")
    p.add_argument("input", help="path to a cayley file, or - for stdin")
    p.add_argument("--reference", default=None,
                   help="reference ordering as elements smallest-first, e.g. '2 1 3'")
    p.add_argument("--find-order", action="store_true")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("classify", help="full classification report")
    p.add_argument("input")
    p.add_argument("--reference", default=None)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("decompose", help="factor an associative quasitrivial table")
    p.add_argument("input")
    p.set_defaults(handler=_cmd_decompose)

    kinds = sub.add_parser("render", help="draw a contour or profile plot").add_subparsers(
        dest="kind", required=True)
    # each kind takes its own ordering flag and no other
    for kind, flag, flag_help, handler in (
        ("contour", "--axis", "drawing axis", _cmd_render_contour),
        ("profile", "--reference", "reference ordering", _cmd_render_profile),
    ):
        p = kinds.add_parser(kind)
        p.add_argument("input")
        p.add_argument("--format", choices=FORMATS, default="ascii")
        p.add_argument(flag, default=None, help=flag_help)
        p.add_argument("--output", default=None)
        p.set_defaults(handler=handler)

    p = sub.add_parser("oracle", help="raw brute-force searches")
    p.add_argument("check", choices=ORACLE_CHECKS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--shard", type=int, default=0)
    p.set_defaults(handler=_cmd_oracle)

    p = sub.add_parser("verify", help="run the self-check suite")
    p.add_argument("level", nargs="?", choices=("quick", "full"), default="quick")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # counts are exact integers of any size; Python >= 3.11 caps int-to-str
    # conversion at 4300 digits unless told otherwise
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        # two routes that must agree did not: a failed check, not bad input
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
