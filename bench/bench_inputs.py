"""Seeded inputs, operations and output checks of the qsikit benchmark.

Every input is a catalog group whose points are relabelled by a
permutation drawn from the workload seed and whose generators are
shuffled, so the program never sees the fixture labelling. Every check
compares a value that such a relabelling cannot change: group orders,
(degree, status) multisets of verdicts, subgroup-lattice class counts,
table degrees and class counts, and the re-verified PSU(4,2) witness.

The module imports qsikit only inside the functions that need it, so the
benchmark can refuse to run before the package is on the path.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

WORKLOADS = ("lattice", "sweep", "tables", "cli-cold")

LATTICE_GROUPS = ("PSL27", "A6", "PSL211")
TABLE_GROUPS = ("A8", "M11", "PSU42", "A9")
SWEEP_PRIME = 3

# (degree, status) multisets of decide_qsi_group and lattice class counts
EXPECTED_VERDICTS = {
    "A5": {(1, "monomial-with-witness"): 1, (3, "refuted-exhaustive"): 2,
           (4, "refuted-exhaustive"): 1, (5, "monomial-with-witness"): 1},
    "S4": {(1, "monomial-with-witness"): 2, (2, "QSI-with-witness"): 1,
           (3, "QSI-with-witness"): 2},
    "SL23": {(1, "monomial-with-witness"): 3, (2, "QSI-with-witness"): 3,
             (3, "QSI-with-witness"): 1},
    "PSL27": {(1, "monomial-with-witness"): 1, (3, "refuted-exhaustive"): 2,
              (6, "refuted-exhaustive"): 1, (7, "monomial-with-witness"): 1,
              (8, "monomial-with-witness"): 1},
    "A6": {(1, "monomial-with-witness"): 1, (5, "refuted-exhaustive"): 2,
           (8, "refuted-exhaustive"): 2, (9, "refuted-exhaustive"): 1,
           (10, "monomial-with-witness"): 1},
    "PSL211": {(1, "monomial-with-witness"): 1, (5, "refuted-exhaustive"): 2,
               (10, "refuted-exhaustive"): 2, (11, "refuted-exhaustive"): 1,
               (12, "monomial-with-witness"): 2},
}
EXPECTED_LATTICE_CLASSES = {"A5": 9, "PSL27": 15, "A6": 22, "PSL211": 16}

EXPECTED_ORDERS = {"A5": 60, "S4": 24, "SL23": 24, "PSL27": 168, "A6": 360,
                   "PSL211": 660, "A8": 20160, "M11": 7920, "PSU42": 25920,
                   "A9": 181440}

EXPECTED_DEGREES = {
    "A5": (1, 3, 3, 4, 5),
    "M11": (1, 10, 10, 10, 11, 16, 16, 44, 45, 55),
    "A8": (1, 7, 14, 20, 21, 21, 21, 28, 35, 45, 45, 56, 64, 70),
    "PSU42": (1, 5, 5, 6, 10, 10, 15, 15, 20, 24, 30, 30, 30, 40, 40, 45,
              45, 60, 64, 81),
    "A9": (1, 8, 21, 21, 27, 28, 35, 35, 42, 48, 56, 84, 105, 120, 162,
           168, 189, 216),
}

# simple orders of the groups of Lie type named by the short commands
EXPECTED_SIMPLE_ORDERS = {
    ("PSL", 2, 7): 168, ("PSU", 4, 2): 25920,
    ("PSL", 4, 2): 20160, ("2B2", 0, 8): 29120, ("G2", 0, 3): 4245696,
    ("3D4", 0, 2): 211341312,
}

# the short commands of the cli-cold workload; "@X" names a relabelled
# generator file of catalog group X
CLI_COMMANDS = (
    ("zsigmondy", "2", "6"),
    ("zsigmondy", "2", "10"),
    ("zsigmondy", "5", "6"),
    ("order", "PSL", "2", "7"),
    ("order", "2B2", "8"),
    ("order", "G2", "3"),
    ("eliminate", "PSL", "4", "2"),
    ("eliminate", "PSU", "4", "2"),
    ("eliminate", "3D4", "2"),
    ("table", "@A5"),
    ("table", "@M11"),
    ("qsi", "@S4"),
    ("qsi", "@SL23"),
    ("qsi", "@A5"),
    ("verify-paper", "a5-not-qsi"),
)


# ---------------------------------------------------------------------------
# inputs


def fixture_generators(root, name):
    """(degree, generator image tuples) of a catalog fixture file."""
    from qsikit.perm import parse_generator_file

    fixtures = Path(root) / "src" / "qsikit" / "fixtures"
    manifest = json.loads((fixtures / "manifest.json").read_text())
    entry = manifest["groups"].get(name) or manifest["subgroups"][name]
    degree, perms = parse_generator_file((fixtures / entry["file"]).read_text())
    return degree, [p.images for p in perms]


def random_relabelling(degree, rng):
    sigma = list(range(degree))
    rng.shuffle(sigma)
    return sigma


def relabel(gens, sigma, rng):
    """Conjugate every generator by sigma (point i becomes sigma[i]) and
    shuffle the generator order."""
    inverse = [0] * len(sigma)
    for i, s in enumerate(sigma):
        inverse[s] = i
    out = [[sigma[g[inverse[j]]] for j in range(len(sigma))] for g in gens]
    rng.shuffle(out)
    return out


def relabelled(root, name, rng):
    degree, gens = fixture_generators(root, name)
    return degree, relabel(gens, random_relabelling(degree, rng), rng)


def generator_file_text(degree, gens):
    from qsikit.perm import Permutation

    lines = [f"degree {degree}"]
    lines += [Permutation(tuple(g)).cycle_string() for g in gens]
    return "\n".join(lines) + "\n"


def workload_ops(workload, seed, root, workdir):
    """The operations of one pass of a workload, made from the seed.

    cli-cold writes its relabelled generator files into workdir.
    """
    rng = random.Random(seed)
    if workload == "lattice":
        ops = []
        for name in LATTICE_GROUPS:
            degree, gens = relabelled(root, name, rng)
            ops.append({"kind": "decide", "name": name, "degree": degree,
                        "gens": gens})
        return ops
    if workload == "tables":
        ops = []
        for name in TABLE_GROUPS:
            degree, gens = relabelled(root, name, rng)
            ops.append({"kind": "table", "name": name, "degree": degree,
                        "gens": gens})
        return ops
    if workload == "sweep":
        degree, group_gens = fixture_generators(root, "PSU42")
        _, sub_gens = fixture_generators(root, "PSU42_U160")
        sigma = random_relabelling(degree, rng)
        return [{"kind": "sweep", "name": "PSU42", "degree": degree,
                 "gens": relabel(group_gens, sigma, rng),
                 "sub_gens": relabel(sub_gens, sigma, rng), "seed": seed}]
    if workload == "cli-cold":
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        files = {}
        for name in sorted({a[1:] for cmd in CLI_COMMANDS for a in cmd
                            if a.startswith("@")}):
            path = workdir / f"{name}.gens"
            path.write_text(generator_file_text(*relabelled(root, name, rng)))
            files[name] = str(path.resolve())
        ops = []
        for cmd in CLI_COMMANDS:
            args = [files[a[1:]] if a.startswith("@") else a for a in cmd]
            group = next((a[1:] for a in cmd if a.startswith("@")), None)
            ops.append({"kind": "cli", "argv": args + ["--json"],
                        "name": group})
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# operations, run inside a worker process


def verdict_multiset(verdicts):
    return Counter((v.character.degree, v.status) for v in verdicts)


def run_op(op, clock):
    """Run one operation; returns (summary, timings).

    The summary holds only relabelling-invariant values, which
    check_summary compares with the expected ones.
    """
    timings = {}
    start = clock()
    summary = _OPERATIONS[op["kind"]](op, clock, timings)
    timings["op_s"] = clock() - start
    return summary, timings


def _decide(op, clock, timings):
    from qsikit.perm import PermGroup
    from qsikit.qsi import decide_qsi_group

    group = PermGroup(op["degree"], op["gens"])
    verdicts = decide_qsi_group(group)
    classes = len(group.subgroups_up_to_conjugacy())  # cached by decide
    return {"order": group.order,
            "verdicts": sorted(verdict_multiset(verdicts).items()),
            "lattice_classes": classes, "items": classes}


def _table(op, clock, timings):
    from qsikit.chartab import character_table
    from qsikit.perm import PermGroup

    group = PermGroup(op["degree"], op["gens"])
    table = character_table(group)
    return {"order": group.order, "classes": len(table.classes),
            "degrees": sorted(table.degrees), "items": len(table.irreducibles)}


def _sweep(op, clock, timings):
    from qsikit.chartab import character_table, induce, kernel
    from qsikit.perm import PermGroup
    from qsikit.qsi import QsiWitness, random_subgroup_sweep, \
        verify_qsi_witness

    group = PermGroup(op["degree"], op["gens"])
    sub = PermGroup(op["degree"], op["sub_gens"])
    steinberg = character_table(group).unique_by_degree(81)
    target = 2 * steinberg
    found = None
    for j, phi in enumerate(character_table(sub).irreducibles):
        if phi.degree == 1 and induce(phi, group) == target:
            found = (j, phi)
            break
    summary = {"order": group.order, "sub_order": sub.order,
               "sub_contained": sub.is_subgroup_of(group),
               "witness_found": found is not None}
    if found is not None:
        j, phi = found
        phi_kernel = kernel(phi)
        witness = QsiWitness(sub, j, phi, 2, sub.order // phi_kernel.order)
        summary["kernel_coprime"] = phi_kernel.order % SWEEP_PRIME != 0
        summary["witness_verified"] = verify_qsi_witness(group, steinberg,
                                                          witness)
    sweep_start = clock()
    report = random_subgroup_sweep(group, steinberg, seed=op["seed"],
                                   monomial=True,
                                   steinberg_prime=SWEEP_PRIME)
    timings["sweep_s"] = clock() - sweep_start
    summary.update({"sweep_status": report.verdict.status,
                    "sweep_unrejected": len(report.unrejected),
                    "items": report.samples})
    return summary


_OPERATIONS = {"decide": _decide, "table": _table, "sweep": _sweep}


# ---------------------------------------------------------------------------
# checks


def check_summary(op, summary):
    """Errors of one API operation; an empty list means it passed."""
    name = op["name"]
    errors = []

    def expect(key, value):
        if summary.get(key) != value:
            errors.append(f"{name}: {key} is {summary.get(key)!r}, "
                          f"expected {value!r}")

    expect("order", EXPECTED_ORDERS[name])
    if op["kind"] == "decide":
        expect("verdicts", sorted(EXPECTED_VERDICTS[name].items()))
        expect("lattice_classes", EXPECTED_LATTICE_CLASSES[name])
    elif op["kind"] == "table":
        expect("degrees", list(EXPECTED_DEGREES[name]))
        expect("classes", len(EXPECTED_DEGREES[name]))
    elif op["kind"] == "sweep":
        expect("sub_order", 160)
        expect("sub_contained", True)
        expect("witness_found", True)
        expect("kernel_coprime", True)
        expect("witness_verified", True)
        expect("sweep_status", "refuted-by-prefilter")
        expect("sweep_unrejected", 0)
    return errors


def check_cli(op, returncode, stdout):
    """Errors of one qsikit command, from its exit code and JSON output."""
    argv = op["argv"]
    label = " ".join(["qsikit", argv[0]] + [Path(a).name for a in argv[1:]])
    if returncode != 0:
        return [f"{label}: exit code {returncode}"]
    try:
        envelope = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"{label}: output is not JSON"]
    result = envelope.get("result", {})
    command = argv[0]
    if envelope.get("command") != command:
        return [f"{label}: envelope names command {envelope.get('command')!r}"]
    got = expected = None
    if command == "zsigmondy":
        d, n = int(argv[1]), int(argv[2])
        got, expected = result.get("prime"), smallest_ppd(d, n)
    elif command in ("order", "eliminate"):
        family = argv[1]
        params = [int(a) for a in argv[2:-1]]
        n, q = params if len(params) == 2 else (0, params[0])
        key = "simple" if command == "order" else "simple_order"
        got = result.get(key)
        expected = EXPECTED_SIMPLE_ORDERS[(family, n, q)]
    elif command == "table":
        got = (len(result.get("classes", [])),
               sorted(row["degree"] for row in result.get("irreducibles", [])))
        expected = (len(EXPECTED_DEGREES[op["name"]]),
                    sorted(EXPECTED_DEGREES[op["name"]]))
    elif command == "qsi":
        got = sorted(Counter((v["character_degree"], v["status"])
                             for v in result.get("verdicts", [])).items())
        got = [[list(k), c] for k, c in got]
        expected = [[list(k), c]
                    for k, c in sorted(EXPECTED_VERDICTS[op["name"]].items())]
        if result.get("group_order") != EXPECTED_ORDERS[op["name"]]:
            return [f"{label}: group order {result.get('group_order')}"]
    elif command == "verify-paper":
        got, expected = result.get("ok"), True
    if got != expected:
        return [f"{label}: got {got!r}, expected {expected!r}"]
    return []


def smallest_ppd(d, n):
    """Smallest prime dividing d^n - 1 but no d^k - 1 with k < n, by
    trial division; None for the Zsigmondy exceptions."""
    value = d ** n - 1
    p = 2
    while p * p <= value:
        if value % p == 0:
            if all((d ** k - 1) % p for k in range(1, n)):
                return p
            while value % p == 0:
                value //= p
        else:
            p += 1
    if value > 1 and all((d ** k - 1) % value for k in range(1, n)):
        return value
    return None
