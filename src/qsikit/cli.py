"""Command-line front end.

Subcommands expose the main checks with both human-readable text and a
machine-readable JSON envelope (--json). Completed analyses exit 0 even
when the mathematical answer is a refutation; exit 2 marks usage errors
and unknown names, exit 3 marks capacity overruns (the message names
the bound that was hit).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from . import catalog
from .chartab import (
    Character,
    character_table,
    induce,
    kernel,
    permutation_character,
    restrict,
    trivial_character,
)
from .errors import (
    CapacityError,
    DomainError,
    NotFoundError,
    QsikitError,
    UnsupportedCaseError,
)
from .lietype import FAMILIES, eliminate, group_order, zsigmondy
from .perm import (ELEMENT_ENUMERATION_BOUND, SUBGROUP_ENUMERATION_BOUND,
                   PermGroup, Permutation)
from .qsi import (
    SearchBounds,
    decide_qsi_character,
    decide_qsi_group,
    group_is_qsi,
    random_subgroup_sweep,
    verify_qsi_witness,
    QsiWitness,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3

VERIFICATION_CASES = {}


@dataclass
class RunConfig:
    max_subgroup_order: int = SUBGROUP_ENUMERATION_BOUND
    element_bound: int = ELEMENT_ENUMERATION_BOUND
    prefilters: bool = True
    json_output: bool = False
    fixtures: str | None = None

    def bounds(self):
        return SearchBounds(self.max_subgroup_order, self.prefilters)


def _config_from_args(args):
    return RunConfig(
        max_subgroup_order=getattr(args, "max_group_order",
                                   SUBGROUP_ENUMERATION_BOUND),
        element_bound=getattr(args, "max_elements",
                              ELEMENT_ENUMERATION_BOUND),
        prefilters=not getattr(args, "no_prefilters", False),
        json_output=args.json,
        fixtures=getattr(args, "fixtures", None),
    )


def _emit(command, result, text_lines, config):
    if config.json_output:
        print(json.dumps({"command": command, "result": result}, indent=2))
    else:
        for line in text_lines:
            print(line)


def _resolve_group(name, config):
    return catalog.resolve(name, config.fixtures)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_table(args):
    config = _config_from_args(args)
    group = _resolve_group(args.group, config)
    group.conjugacy_classes(bound=config.element_bound)
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
    _emit("table", data, lines, config)
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
    config = _config_from_args(args)
    group = _resolve_group(args.group, config)
    group.conjugacy_classes(bound=config.element_bound)
    table = character_table(group)
    bounds = config.bounds()
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
    _emit("qsi", result, lines, config)
    return EXIT_OK


def _parse_family_params(family, params):
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}; known: "
                          f"{', '.join(sorted(FAMILIES))}")
    if FAMILIES[family].parametric:
        if len(params) != 2:
            raise DomainError(f"{family} takes parameters n and q")
        return params[0], params[1]
    if len(params) != 1:
        raise DomainError(f"{family} takes a single parameter q")
    return 0, params[0]


def _cmd_order(args):
    config = _config_from_args(args)
    n, q = _parse_family_params(args.family, args.params)
    orders = group_order(args.family, n, q)
    label = f"{args.family}({n},{q})" if n else f"{args.family}({q})"
    lines = [f"{label}: simple order {orders.simple}",
             f"  simply connected {orders.simply_connected}, "
             f"center {orders.center}"]
    if orders.non_simple:
        lines.append("  note: this evaluation point is not a simple group")
    _emit("order", orders.to_json(), lines, config)
    return EXIT_OK


def _cmd_zsigmondy(args):
    config = _config_from_args(args)
    prime = zsigmondy(args.d, args.n)
    if prime is None:
        lines = [f"zsigmondy({args.d}, {args.n}): none (exception)"]
    else:
        lines = [f"zsigmondy({args.d}, {args.n}): {prime}"]
    result = {"d": args.d, "n": args.n, "prime": prime,
              "exception": prime is None}
    _emit("zsigmondy", result, lines, config)
    return EXIT_OK


def _cmd_eliminate(args):
    config = _config_from_args(args)
    n, q = _parse_family_params(args.family, args.params)
    report = eliminate(args.family, n, q)
    _emit("eliminate", report.to_json(), report.text_table().splitlines(),
          config)
    return EXIT_OK


def _cmd_verify_paper(args):
    config = _config_from_args(args)
    if args.case not in VERIFICATION_CASES:
        print(f"unknown case {args.case!r}; known cases: "
              f"{', '.join(sorted(VERIFICATION_CASES))}", file=sys.stderr)
        return EXIT_USAGE
    ok, result, lines = VERIFICATION_CASES[args.case](config, args)
    lines.append(f"case {args.case}: {'PASS' if ok else 'FAIL'}")
    result = {"case": args.case, "ok": ok, "details": result}
    _emit("verify-paper", result, lines, config)
    return EXIT_OK if ok else 1


# ---------------------------------------------------------------------------
# named reproduction cases


def _verification_case(name):
    def register(fn):
        VERIFICATION_CASES[name] = fn
        return fn

    return register


@_verification_case("a5-not-qsi")
def _case_a5(config, args):
    group = catalog.load("A5", config.fixtures)
    verdicts = decide_qsi_group(group, config.bounds())
    deg4 = next(v for v in verdicts if v.character.degree == 4)
    classes_seen = len(deg4.pruning_log)
    ok = (deg4.status == "refuted-exhaustive" and classes_seen == 9
          and not group_is_qsi(verdicts))
    lines = [f"degree-4 character: {deg4.status} "
             f"({classes_seen} subgroup classes pruned)",
             "A5 is QSI: no"]
    return ok, {"verdicts": [v.to_json() for v in verdicts]}, lines


@_verification_case("psl27-steinberg-monomial")
def _case_psl27(config, args):
    group = catalog.load("PSL27", config.fixtures)
    table = character_table(group)
    bounds = config.bounds()
    results = {}
    lines = []
    ok = True
    for degree in (7, 8):
        chi = table.unique_by_degree(degree)
        verdict = decide_qsi_character(group, chi, bounds, monomial=True)
        results[f"degree_{degree}"] = verdict.to_json()
        witness_order = verdict.witness.subgroup.order if verdict.witness \
            else None
        lines.append(f"degree {degree}: {verdict.status} "
                     f"(witness subgroup order {witness_order})")
        ok = ok and verdict.status == "monomial-with-witness"
    chi6 = table.unique_by_degree(6)
    verdict6 = decide_qsi_character(group, chi6, bounds)
    results["degree_6"] = verdict6.to_json()
    lines.append(f"degree 6: {verdict6.status}")
    ok = ok and verdict6.status == "refuted-exhaustive"
    return ok, results, lines


@_verification_case("psp43-2st-witness")
def _case_psp43(config, args):
    group, subgroup, entry = catalog.load_subgroup("PSU42_U160",
                                                   config.fixtures)
    table = character_table(group)
    steinberg = table.unique_by_degree(81)
    sub_table = character_table(subgroup)
    phi = sub_table.irreducibles[entry["witness_linear_char_index"]]
    lines = [f"|G| = {group.order}, |U| = {subgroup.order}, "
             f"index {group.order // subgroup.order}"]
    ok = phi.degree == 1
    induced = induce(phi, group)
    matches = induced == 2 * steinberg
    lines.append(f"phi^G == 2*St (classwise): {matches}")
    ok = ok and matches
    phi_kernel = kernel(phi)
    coprime = phi_kernel.order % 3 != 0
    lines.append(f"|ker(phi)| = {phi_kernel.order}, 3 divides: "
                 f"{not coprime}")
    ok = ok and coprime
    witness = QsiWitness(subgroup,
                         entry["witness_linear_char_index"], phi, 2,
                         subgroup.order // phi_kernel.order)
    verify_qsi_witness(group, steinberg, witness)
    lines.append("independent pointwise re-verification: True")
    samples = args.samples if getattr(args, "samples", None) else 10000
    report = random_subgroup_sweep(group, steinberg, samples=samples,
                                   seed=11, monomial=True, steinberg_prime=3)
    lines.append(f"sweep: {samples} samples, "
                 f"{report.distinct_classes} distinct subgroup classes, "
                 f"{report.whole_group_hits} generated the whole group")
    lines.append(f"sweep verdict for monomiality of St: "
                 f"{report.verdict.status}")
    for record in report.verdict.pruning_log:
        lines.append(f"  {record.subgroup_label}: {record.reason}")
    ok = ok and report.verdict.status == "refuted-by-prefilter"
    details = {
        "witness": witness.to_json(),
        "kernel_order": phi_kernel.order,
        "sweep": report.verdict.to_json(),
        "sweep_samples": samples,
    }
    return ok, details, lines


@_verification_case("m11-generation-sample")
def _case_m11(config, args):
    group = catalog.load("M11", config.fixtures)
    rng = random.Random(8)
    classes = group.conjugacy_classes()
    order8 = [t for i, t in enumerate(classes.class_elements)
              if classes.rep_orders[i] == 8]
    order11 = [t for i, t in enumerate(classes.class_elements)
               if classes.rep_orders[i] == 11]
    pool8 = [e for cls in order8 for e in cls]
    pool11 = [e for cls in order11 for e in cls]
    trials = 200
    successes = 0
    for _ in range(trials):
        x = rng.choice(pool8)
        y = rng.choice(pool11)
        generated = PermGroup(group.degree, [x, y])
        if generated.order == 7920:
            successes += 1
    ok = successes == trials
    lines = [f"pairs (order 8, order 11) generating M11: "
             f"{successes}/{trials}"]
    return ok, {"trials": trials, "successes": successes}, lines


@_verification_case("an-restriction-identity")
def _case_restriction(config, args):
    lines = []
    ok = True
    details = {}
    for n in (7, 8, 9):
        holds = check_restriction_identity(n, config.fixtures)
        lines.append(f"A{n} -> A{n - 2}: restriction identity holds: "
                     f"{holds}")
        details[f"A{n}"] = holds
        ok = ok and holds
    return ok, details, lines


def check_restriction_identity(n, fixtures=None):
    """Restrict pi_n - 1 from A_n to the two-point stabilizer A_(n-2) and
    compare with (pi_(n-2) - 1) + 2 * 1, the smaller character transported
    along the embedding."""
    big = catalog.load(f"A{n}", fixtures)
    small = catalog.load(f"A{n - 2}", fixtures)
    embedded = PermGroup(n, [Permutation(g.images + (n - 2, n - 1))
                             for g in small.generators])
    chi_big = permutation_character(big) - trivial_character(big)
    chi_small_own = permutation_character(small) - trivial_character(small)
    e_classes = embedded.conjugacy_classes()
    s_classes = small.conjugacy_classes()
    values = [None] * len(e_classes)
    for i, rep in enumerate(s_classes.representatives):
        extended = rep.images + (n - 2, n - 1)
        values[e_classes.element_to_class[extended]] = \
            chi_small_own.values[i]
    chi_small = Character(embedded, values)
    expected = chi_small + 2 * trivial_character(embedded)
    return restrict(chi_big, embedded) == expected


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsikit",
        description="Monomial and QSI character checks for finite "
                    "permutation groups, with Lie-type order arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, group_flags=False, element_flag=False):
        p.add_argument("--json", action="store_true",
                       help="emit a JSON envelope instead of text")
        p.add_argument("--fixtures", default=None,
                       help="alternate fixtures directory")
        if element_flag:
            p.add_argument("--max-elements", type=int,
                           default=ELEMENT_ENUMERATION_BOUND,
                           help="element enumeration bound")
        if group_flags:
            p.add_argument("--max-group-order", type=int,
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
    p.add_argument("--samples", type=int, default=None,
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
    except (NotFoundError, DomainError, UnsupportedCaseError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except QsikitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
