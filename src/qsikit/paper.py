"""The paper's named reproductions, shared by ``qsikit verify-paper`` and
the acceptance suite.

``CASES`` maps each case name to its function. Every case takes the
keyword arguments ``bounds`` (a ``SearchBounds``) and ``samples`` (the
sweep size), uses those it needs, and returns ``(ok, details, lines)``:
whether the paper's claim reproduced, a JSON-ready dict, and the text
report. The functions the cases build on return the groups, characters,
witnesses and verdicts themselves, for callers that check them directly.
"""

from __future__ import annotations

import random

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
from .perm import PermGroup, Permutation
from .qsi import (
    STATUS_MONOMIAL,
    STATUS_REFUTED,
    STATUS_REFUTED_PREFILTER,
    QsiWitness,
    decide_qsi_character,
    decide_qsi_group,
    group_is_qsi,
    random_subgroup_sweep,
    verify_qsi_witness,
)

SWEEP_SAMPLES = 10000


def a5_not_qsi(*, bounds=None, samples=SWEEP_SAMPLES):
    """The degree-4 character of A5 is refuted over all 9 subgroup
    classes, so A5 is not QSI."""
    verdicts = decide_qsi_group(catalog.load("A5"), bounds)
    deg4 = next(v for v in verdicts if v.character.degree == 4)
    classes_seen = len(deg4.pruning_log)
    ok = (deg4.status == STATUS_REFUTED and classes_seen == 9
          and not group_is_qsi(verdicts))
    lines = [f"degree-4 character: {deg4.status} "
             f"({classes_seen} subgroup classes pruned)",
             "A5 is QSI: no"]
    return ok, {"verdicts": [v.to_json() for v in verdicts]}, lines


def psl27_verdicts(bounds=None):
    """PSL(2,7) and its verdicts keyed by character degree: monomial for
    the Steinberg characters of degree 7 and 8, and the QSI search for
    degree 6, which refutes it over every subgroup class."""
    group = catalog.load("PSL27")
    table = character_table(group)
    verdicts = {degree: decide_qsi_character(
        group, table.unique_by_degree(degree), bounds, monomial=True)
        for degree in (7, 8)}
    verdicts[6] = decide_qsi_character(group, table.unique_by_degree(6),
                                       bounds)
    return group, verdicts


def psl27_steinberg_monomial(*, bounds=None, samples=SWEEP_SAMPLES):
    """The PSL(2,7) characters of degree 7 and 8 are monomial; the one of
    degree 6 is not even QSI."""
    _, verdicts = psl27_verdicts(bounds)
    lines = []
    for degree in (7, 8):
        verdict = verdicts[degree]
        witness_order = verdict.witness.subgroup.order if verdict.witness \
            else None
        lines.append(f"degree {degree}: {verdict.status} "
                     f"(witness subgroup order {witness_order})")
    lines.append(f"degree 6: {verdicts[6].status}")
    ok = (verdicts[7].status == verdicts[8].status == STATUS_MONOMIAL
          and verdicts[6].status == STATUS_REFUTED)
    details = {f"degree_{d}": verdicts[d].to_json() for d in (7, 8, 6)}
    return ok, details, lines


def psp43_witness():
    """PSp4(3) = PSU(4,2) on 27 points, its Steinberg character St of
    degree 81, and the witness (U, phi, 2) with |U| = 160 and
    phi^G = 2 St, re-verified by ``verify_qsi_witness`` (which raises
    ``IntegrityError`` when it fails)."""
    group, subgroup, entry = catalog.load_subgroup("PSU42_U160")
    steinberg = character_table(group).unique_by_degree(81)
    index = entry["witness_linear_char_index"]
    phi = character_table(subgroup).irreducibles[index]
    witness = QsiWitness(subgroup, index, phi, 2,
                         subgroup.order // kernel(phi).order)
    verify_qsi_witness(group, steinberg, witness)
    return group, steinberg, witness


def steinberg_sweep(group, steinberg, samples=SWEEP_SAMPLES):
    """The seeded sweep of psp43-2st-witness: ``samples`` random
    two-generator subgroups, each class of which the prefilters must
    reject as a source of a monomial St (defining characteristic 3)."""
    return random_subgroup_sweep(group, steinberg, samples=samples, seed=11,
                                 monomial=True, steinberg_prime=3)


def psp43_2st_witness(*, bounds=None, samples=SWEEP_SAMPLES):
    """Twice the Steinberg character of PSp4(3) is induced from a linear
    character, while the sweep finds no subgroup that St itself could be
    induced from."""
    group, steinberg, witness = psp43_witness()
    subgroup, phi = witness.subgroup, witness.phi
    matches = induce(phi, group) == 2 * steinberg
    kernel_order = subgroup.order // witness.solvable_quotient_order
    coprime = kernel_order % 3 != 0
    report = steinberg_sweep(group, steinberg, samples)
    lines = [f"|G| = {group.order}, |U| = {subgroup.order}, "
             f"index {group.order // subgroup.order}",
             f"phi^G == 2*St (classwise): {matches}",
             f"|ker(phi)| = {kernel_order}, 3 divides: {not coprime}",
             "independent pointwise re-verification: True",
             f"sweep: {samples} samples, "
             f"{report.distinct_classes} distinct subgroup classes, "
             f"{report.whole_group_hits} generated the whole group",
             f"sweep verdict for monomiality of St: "
             f"{report.verdict.status}"]
    for record in report.verdict.pruning_log:
        lines.append(f"  {record.subgroup_label}: {record.reason}")
    ok = (phi.degree == 1 and matches and coprime
          and report.verdict.status == STATUS_REFUTED_PREFILTER)
    details = {
        "witness": witness.to_json(),
        "kernel_order": kernel_order,
        "sweep": report.verdict.to_json(),
        "sweep_samples": samples,
    }
    return ok, details, lines


def m11_pairs():
    """M11 and 200 pairs (x, y) with x of order 8 and y of order 11,
    drawn uniformly from those elements with a fixed seed."""
    group = catalog.load("M11")
    classes = group.conjugacy_classes()
    pools = {n: [e for members, order in zip(classes.class_elements,
                                             classes.rep_orders)
                 if order == n for e in members]
             for n in (8, 11)}
    rng = random.Random(8)
    images = classes.form.images
    pairs = [(images(rng.choice(pools[8])), images(rng.choice(pools[11])))
             for _ in range(200)]
    return group, pairs


def m11_generation_sample(*, bounds=None, samples=SWEEP_SAMPLES):
    """Every sampled pair of elements of orders 8 and 11 generates M11."""
    group, pairs = m11_pairs()
    # a subgroup of order above |G|/2 is all of G
    successes = sum(PermGroup.from_generators_bounded(
        [x, y], group.degree, group.order // 2) is None for x, y in pairs)
    lines = [f"pairs (order 8, order 11) generating M11: "
             f"{successes}/{len(pairs)}"]
    return (successes == len(pairs),
            {"trials": len(pairs), "successes": successes}, lines)


def restriction_identity(n):
    """Restrict pi_n - 1 from A_n to the two-point stabilizer A_(n-2) and
    compare with (pi_(n-2) - 1) + 2 * 1, the smaller character transported
    along the embedding."""
    big = catalog.load(f"A{n}")
    small = catalog.load(f"A{n - 2}")
    embedded = PermGroup(n, [Permutation(g.images + (n - 2, n - 1))
                             for g in small.generators])
    chi_big = permutation_character(big) - trivial_character(big)
    chi_small_own = permutation_character(small) - trivial_character(small)
    e_classes = embedded.conjugacy_classes()
    s_classes = small.conjugacy_classes()
    values = [None] * len(e_classes)
    for i, rep in enumerate(s_classes.representatives):
        extended = rep.images + (n - 2, n - 1)
        values[e_classes.class_of(extended)] = chi_small_own.values[i]
    chi_small = Character(embedded, values)
    expected = chi_small + 2 * trivial_character(embedded)
    return restrict(chi_big, embedded) == expected


def an_restriction_identity(*, bounds=None, samples=SWEEP_SAMPLES):
    """The restriction identity holds for A_n -> A_(n-2), n = 7, 8, 9."""
    details = {f"A{n}": restriction_identity(n) for n in (7, 8, 9)}
    lines = [f"A{n} -> A{n - 2}: restriction identity holds: "
             f"{details[f'A{n}']}" for n in (7, 8, 9)]
    return all(details.values()), details, lines


CASES = {
    "a5-not-qsi": a5_not_qsi,
    "psl27-steinberg-monomial": psl27_steinberg_monomial,
    "psp43-2st-witness": psp43_2st_witness,
    "m11-generation-sample": m11_generation_sample,
    "an-restriction-identity": an_restriction_identity,
}
