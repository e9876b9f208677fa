"""Command-line front end.

Subcommands expose the main checks with both human-readable text and a
machine-readable JSON envelope (--json). Completed analyses exit 0 even
when the mathematical answer is a refutation; exit 1 marks a failed
reproduction or integrity check, exit 2 marks usage errors, unknown
names and malformed input files, exit 3 marks capacity overruns (the
message names the bound that was hit, which may be Python's limit on
the digits of a printed integer).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog, lietype, paper
from .chartab import character_table
from .errors import (
    CapacityError,
    DomainError,
    MalformedInputError,
    NotFoundError,
    QsikitError,
    UnsupportedCaseError,
)
from .perm import ELEMENT_ENUMERATION_BOUND, SUBGROUP_ENUMERATION_BOUND
from .qsi import (
    SearchBounds,
    decide_qsi_character,
    decide_qsi_group,
    group_is_qsi,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _emit(command, result, text_lines, as_json):
    if as_json:
        print(json.dumps({"command": command, "result": result}, indent=2))
    else:
        for line in text_lines:
            print(line)


def _search_bounds(args):
    return SearchBounds(args.max_group_order, not args.no_prefilters)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_table(args):
    group = catalog.resolve(args.group)
    group.conjugacy_classes(bound=args.max_elements)
    table = character_table(group)
    data = table.to_json()
    lines = [f"group {args.group}: order {group.order}, "
             f"{len(table.classes)} classes"]
    lines.append("degrees: " + ", ".join(str(d) for d in table.degrees))
    header = ["class"] + [rep.cycle_string()
                          for rep in table.classes.representatives]
    lines.append(" | ".join(header))
    lines.append(" | ".join(["size"] + [str(s) for s in table.classes.sizes]))
    for chi in table.irreducibles:
        lines.append(" | ".join([f"X{chi.degree}"]
                                + [str(v) for v in chi.values]))
    _emit("table", data, lines, args.json)
    return EXIT_OK


def _select_character(table, selector):
    by_index = selector.startswith("@")
    try:
        number = int(selector[1:] if by_index else selector)
    except ValueError:
        raise DomainError(f"--char takes a degree or @index, not "
                          f"{selector!r}") from None
    if by_index:
        if not 0 <= number < len(table.irreducibles):
            raise DomainError(f"character index {number} out of range")
        return [table.irreducibles[number]]
    matches = table.by_degree(number)
    if not matches:
        raise DomainError(
            f"no irreducible of degree {number}; degrees are "
            f"{sorted(set(table.degrees))} (use @index to pick by position)")
    return matches


def _cmd_qsi(args):
    group = catalog.resolve(args.group)
    group.conjugacy_classes(bound=args.max_elements)
    table = character_table(group)
    bounds = _search_bounds(args)
    mode = "monomial" if args.monomial else "QSI"
    if args.char is not None:
        targets = _select_character(table, args.char)
        verdicts = [decide_qsi_character(group, chi, bounds,
                                         monomial=args.monomial)
                    for chi in targets]
        group_verdict = None
    else:
        verdicts = decide_qsi_group(group, bounds, monomial=args.monomial)
        group_verdict = group_is_qsi(verdicts)
    lines = [f"group {args.group}: order {group.order}, mode {mode}"]
    for v in verdicts:
        lines.append(f"  degree {v.character.degree}: {v.status}")
        if v.witness:
            w = v.witness
            lines.append(f"    witness: |U| = {w.subgroup.order}, "
                         f"phi degree {w.phi.degree}, k = {w.multiplier}, "
                         f"|U/ker(phi)| = {w.solvable_quotient_order}")
        for record in v.pruning_log:
            lines.append(f"    pruned {record.subgroup_label}: "
                         f"{record.reason}")
    if group_verdict is not None:
        answer = "yes" if group_verdict else "no"
        lines.append(f"group is {mode}: {answer}")
    result = {
        "group": args.group,
        "group_order": group.order,
        "mode": mode,
        "verdicts": [v.to_json() for v in verdicts],
        "group_positive": group_verdict,
    }
    _emit("qsi", result, lines, args.json)
    return EXIT_OK


def _cmd_order(args):
    n, q = lietype.parse_params(args.family, args.params)
    orders = lietype.group_order(args.family, n, q)
    lines = [f"{lietype.point_label(args.family, n, q)}: simple order "
             f"{orders.simple}",
             f"  simply connected {orders.simply_connected}, "
             f"center {orders.center}"]
    if orders.non_simple:
        lines.append("  note: this evaluation point is not a simple group")
    _emit("order", orders.to_json(), lines, args.json)
    return EXIT_OK


def _cmd_zsigmondy(args):
    prime = lietype.zsigmondy(args.d, args.n)
    if prime is None:
        lines = [f"zsigmondy({args.d}, {args.n}): none (exception)"]
    else:
        lines = [f"zsigmondy({args.d}, {args.n}): {prime}"]
    result = {"d": args.d, "n": args.n, "prime": prime,
              "exception": prime is None}
    _emit("zsigmondy", result, lines, args.json)
    return EXIT_OK


def _cmd_eliminate(args):
    n, q = lietype.parse_params(args.family, args.params)
    report = lietype.eliminate(args.family, n, q)
    _emit("eliminate", report.to_json(), report.text_table().splitlines(),
          args.json)
    return EXIT_OK


def _cmd_verify_paper(args):
    if args.case not in paper.CASES:
        print(f"unknown case {args.case!r}; known cases: "
              f"{', '.join(sorted(paper.CASES))}", file=sys.stderr)
        return EXIT_USAGE
    if args.samples < 1:
        raise DomainError(
            f"the sweep needs at least 1 sample, not {args.samples}")
    ok, result, lines = paper.CASES[args.case](
        bounds=_search_bounds(args), samples=args.samples)
    lines.append(f"case {args.case}: {'PASS' if ok else 'FAIL'}")
    result = {"case": args.case, "ok": ok, "details": result}
    _emit("verify-paper", result, lines, args.json)
    return EXIT_OK if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


def _non_negative(text):
    """The argparse type of the bound flags: an int of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsikit",
        description="Monomial and QSI character checks for finite "
                    "permutation groups, with Lie-type order arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, group_flags=False, element_flag=False):
        p.add_argument("--json", action="store_true",
                       help="emit a JSON envelope instead of text")
        if element_flag:
            p.add_argument("--max-elements", type=_non_negative,
                           default=ELEMENT_ENUMERATION_BOUND,
                           help="element enumeration bound")
        if group_flags:
            p.add_argument("--max-group-order", type=_non_negative,
                           default=SUBGROUP_ENUMERATION_BOUND,
                           help="subgroup enumeration bound")
            p.add_argument("--no-prefilters", action="store_true",
                           help="disable search prefilters (slower, "
                            "identical verdicts)")

    p = sub.add_parser("table", help="exact character table")
    p.add_argument("group")
    add_common(p, element_flag=True)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("qsi", help="QSI / monomial decision")
    p.add_argument("group")
    p.add_argument("--char", default=None,
                   help="degree, or @index, of one irreducible")
    p.add_argument("--monomial", action="store_true",
                   help="restrict to k = 1 and linear phi")
    add_common(p, group_flags=True, element_flag=True)
    p.set_defaults(fn=_cmd_qsi)

    p = sub.add_parser("order", help="Lie-type order formulas")
    p.add_argument("family")
    p.add_argument("params", type=int, nargs="+", metavar="n/q")
    add_common(p)
    p.set_defaults(fn=_cmd_order)

    p = sub.add_parser("zsigmondy", help="smallest primitive prime divisor")
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    add_common(p)
    p.set_defaults(fn=_cmd_zsigmondy)

    p = sub.add_parser("eliminate", help="overgroup prime-divisor report")
    p.add_argument("family")
    p.add_argument("params", type=int, nargs="+", metavar="n/q")
    add_common(p)
    p.set_defaults(fn=_cmd_eliminate)

    p = sub.add_parser("verify-paper", help="run a named reproduction")
    p.add_argument("case")
    p.add_argument("--samples", type=int, default=paper.SWEEP_SAMPLES,
                   help="sample count for sweep-based cases")
    add_common(p, group_flags=True)
    p.set_defaults(fn=_cmd_verify_paper)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (NotFoundError, DomainError, MalformedInputError,
            UnsupportedCaseError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except QsikitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # Python 3.10.7 and later refuse to turn an int of more than this
        # many digits into a string, as a large Lie-type order can have
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit or "integer string conversion" not in str(exc):
            raise
        print(f"capacity error: an integer has more than {limit} digits, "
              f"Python's limit for integer string conversion",
              file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
