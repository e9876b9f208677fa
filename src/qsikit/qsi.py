"""Deciding monomiality and the QSI property for irreducible characters.

A character chi of G is QSI (quasi solvably induced) from U <= G and
phi in Irr(U) if k*chi = phi^G for some positive integer k and U/ker(phi)
is solvable. Monomial is the special case k = 1 with phi linear.

The decision procedure searches subgroup conjugacy class representatives
only (conjugate subgroups induce the same characters), largest subgroups
first, so the trivial witness U = G of a solvable group is found without
ever enumerating the subgroup lattice. Two necessary conditions act as
prefilters ahead of any character computation for a subgroup:

- class fractions: U must meet every class C with chi(C) != 0 in at
  least the fraction |chi(g)| / chi(1) of C;
- a non-abelian simple U can only induce multiples of the trivial
  character.

The multiplier k is never searched: degrees force k = [G:U] phi(1) / chi(1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .chartab import (
    Character,
    _induced_values,
    character_table,
    induce_pointwise,
    inner_product,
    kernel,
)
from .cyclotomic import Cyclotomic, ONE
from .errors import DomainError, IntegrityError
from .perm import SUBGROUP_ENUMERATION_BOUND, DistinctSubgroups, PermGroup
from .primes import prime_factors

STATUS_QSI = "QSI-with-witness"
STATUS_MONOMIAL = "monomial-with-witness"
STATUS_REFUTED = "refuted-exhaustive"
STATUS_REFUTED_PREFILTER = "refuted-by-prefilter"
STATUS_UNDECIDED = "undecided-capacity"

WITNESS_STATUSES = (STATUS_QSI, STATUS_MONOMIAL)


@dataclass(frozen=True)
class SearchBounds:
    subgroup_order: int = SUBGROUP_ENUMERATION_BOUND
    prefilters: bool = True


@dataclass(frozen=True)
class QsiWitness:
    subgroup: PermGroup
    char_index: int
    phi: Character
    multiplier: int
    solvable_quotient_order: int

    def to_json(self):
        return {
            "subgroup_order": self.subgroup.order,
            "subgroup_generators": [g.cycle_string()
                                    for g in self.subgroup.generators],
            "char_index": self.char_index,
            "phi_degree": self.phi.degree,
            "phi_values": [v.to_json() for v in self.phi.values],
            "multiplier": self.multiplier,
            "solvable_quotient_order": self.solvable_quotient_order,
        }


@dataclass(frozen=True)
class PruneRecord:
    subgroup_order: int
    subgroup_label: str
    reason: str

    def to_json(self):
        return {
            "subgroup_order": self.subgroup_order,
            "subgroup": self.subgroup_label,
            "reason": self.reason,
        }


@dataclass
class QsiVerdict:
    character: Character
    status: str
    witness: QsiWitness | None = None
    pruning_log: list = field(default_factory=list)

    @property
    def has_witness(self):
        return self.status in WITNESS_STATUSES

    def to_json(self):
        return {
            "character_degree": self.character.degree,
            "character_values": [v.to_json() for v in self.character.values],
            "status": self.status,
            "witness": self.witness.to_json() if self.witness else None,
            "pruning_log": [r.to_json() for r in self.pruning_log],
        }


# ---------------------------------------------------------------------------
# prefilters


def class_fraction_prefilter(chi, subgroup):
    """True iff the subgroup meets every class where chi is nonzero in a
    fraction of at least |chi(g)| / chi(1).

    Compared exactly: (|C meet U| chi(1) / |C|)^2 against chi(g) times
    its conjugate. The subgroup keeps its class-intersection profile and
    chi its norms, so each is worked out once however many tests read it.
    """
    group = chi.group
    classes = group.conjugacy_classes()
    profile = group.class_intersection_profile(subgroup)
    norms = chi.norms
    degree = chi.degree
    for i, value in enumerate(chi.values):
        if value.is_zero():
            continue
        bound = Fraction(profile[i] * degree, classes.sizes[i]) ** 2
        if not (norms[i] <= Cyclotomic.from_rational(bound)):
            return False
    return True


def simple_subgroup_prefilter(chi, subgroup):
    """A non-abelian simple subgroup only induces multiples of the trivial
    character, so reject it for every other chi."""
    if subgroup.order == 1 or subgroup.is_abelian():
        return True
    # Burnside's p^a q^b theorem: such a group is solvable, so not
    # non-abelian simple
    if len(prime_factors(subgroup.order)) < 3:
        return True
    if not subgroup.is_simple():
        return True
    return all(v == ONE for v in chi.values)


# ---------------------------------------------------------------------------
# witnesses


def verify_qsi_witness(group, chi, witness):
    """Re-verify a witness through an independent code path.

    Induction is recomputed by the pointwise sum over a transversal of
    U's cosets (`induce_pointwise`) rather than the fused classwise
    formula, the multiplier is rechecked against the degree equation,
    and solvability of U/ker(phi) is recomputed from the explicit
    coset-action quotient. A chi of another group than G, or a phi of
    another group than U, raises DomainError.
    """
    subgroup = witness.subgroup
    phi = witness.phi
    if chi.group is not group or phi.group is not subgroup:
        raise DomainError("the character belongs to another group")
    k = witness.multiplier
    if k * chi.degree != (group.order // subgroup.order) * phi.degree:
        raise IntegrityError("witness multiplier fails the degree equation")
    if induce_pointwise(phi, group) != k * chi:
        raise IntegrityError("witness failed pointwise re-induction")
    phi_kernel = kernel(phi)
    quotient = subgroup.quotient(phi_kernel)
    if not quotient.is_solvable():
        raise IntegrityError("witness quotient U/ker(phi) is not solvable")
    if quotient.order != witness.solvable_quotient_order:
        raise IntegrityError("witness quotient order mismatch")
    return True


def _subgroup_label(subgroup, index):
    return f"class {index}: order {subgroup.order}"


def _search_one_subgroup(chi, subgroup, label, *, monomial, prefilters, log):
    """Search Irr(U) for a witness; append one log record for U.

    U/ker(phi) is solvable iff ker(phi) holds the last term of U's derived
    series; the verifier rechecks it on the coset-action quotient."""
    if prefilters:
        if not simple_subgroup_prefilter(chi, subgroup):
            log.append(PruneRecord(subgroup.order, label, "nonabelian-simple"))
            return None
        if not class_fraction_prefilter(chi, subgroup):
            log.append(PruneRecord(subgroup.order, label, "class-fraction"))
            return None
    index = chi.group.order // subgroup.order
    table = character_table(subgroup)
    ordered = sorted(range(len(table.irreducibles)),
                     key=lambda j: -table.irreducibles[j].degree)
    multiples = {}  # k -> the values of k * chi
    for j in ordered:
        phi = table.irreducibles[j]
        k, remainder = divmod(index * phi.degree, chi.degree)
        if remainder or k < 1:
            continue
        if monomial and (k != 1 or phi.degree != 1):
            continue
        if k not in multiples:
            multiples[k] = (k * chi).values
        if all(a == b for a, b in zip(_induced_values(phi, chi.group),
                                      multiples[k])):
            phi_kernel = kernel(phi)
            if subgroup.derived_series()[-1].is_subgroup_of(phi_kernel):
                witness = QsiWitness(
                    subgroup, j, phi, k,
                    subgroup.order // phi_kernel.order)
                verify_qsi_witness(chi.group, chi, witness)
                return witness
    log.append(PruneRecord(subgroup.order, label, "searched"))
    return None


def decide_qsi_character(group, chi, bounds=None, *, monomial=False):
    """Decide whether an irreducible character is QSI (or monomial).

    Returns a verdict carrying either a re-verified witness or a pruning
    log that accounts for every subgroup conjugacy class. If the group
    exceeds the subgroup enumeration bound and no witness arises from
    U = G, the verdict is undecided rather than a guess. A chi that is
    reducible or of another group raises DomainError.
    """
    bounds = bounds or SearchBounds()
    if chi.group is not group:
        raise DomainError("the character belongs to another group")
    if inner_product(chi, chi) != ONE:
        raise DomainError("decision procedures require an irreducible chi")
    log = []

    complete = group.order <= bounds.subgroup_order
    if complete:
        candidates = group.subgroups_up_to_conjugacy(bounds.subgroup_order)
        candidates = sorted(candidates, key=lambda u: -u.order)
    else:
        candidates = [group]

    for position, subgroup in enumerate(candidates):
        label = _subgroup_label(subgroup, position)
        witness = _search_one_subgroup(chi, subgroup, label, monomial=monomial,
                                       prefilters=bounds.prefilters, log=log)
        if witness is not None:
            status = (STATUS_MONOMIAL
                      if witness.multiplier == 1 and witness.phi.degree == 1
                      else STATUS_QSI)
            return QsiVerdict(chi, status, witness, log)

    status = STATUS_REFUTED if complete else STATUS_UNDECIDED
    return QsiVerdict(chi, status, None, log)


def decide_qsi_group(group, bounds=None, *, monomial=False):
    """One verdict per irreducible character.

    The group is QSI iff every verdict carries a witness. The outcome is
    cross-checked against solvability: a certified-QSI group must be
    solvable, and a solvable group must certify via trivial witnesses.
    """
    table = character_table(group)
    verdicts = [decide_qsi_character(group, chi, bounds, monomial=monomial)
                for chi in table.irreducibles]
    certified = all(v.has_witness for v in verdicts)
    solvable = group.is_solvable()
    if certified and not solvable:
        raise IntegrityError(
            "a non-solvable group was certified "
            + ("monomial; this contradicts Taketa's theorem" if monomial
               else "QSI; this contradicts solvability of QSI groups"))
    if solvable and not monomial and not certified:
        # solvable groups always certify: U = G, phi = chi, k = 1
        raise IntegrityError(
            "a solvable group failed to certify QSI via trivial witnesses")
    return verdicts


def group_is_qsi(verdicts):
    return all(v.has_witness for v in verdicts)


# ---------------------------------------------------------------------------
# sampling sweep for groups beyond the enumeration budget


@dataclass
class SweepReport:
    verdict: QsiVerdict
    samples: int
    distinct_classes: int
    whole_group_hits: int
    unrejected: list


def random_subgroup_sweep(group, chi, *, samples=10000, seed=0,
                          monomial=True, steinberg_prime=None):
    """Sample random two-generator subgroups and test that the prefilter
    suite rejects every sampled proper subgroup class as a witness source.

    For the monomial question (k = 1, linear phi) the degree equation
    [G:U] = chi(1) is applied first; subgroup classes surviving it must
    then fall to the class-fraction test, the simple-subgroup test, or
    the p-kernel constraint (linear characters contain U' in their
    kernel, so p dividing |U'| is conclusive for all of Irr(U) at once).

    Deduplication is by (order, class intersection profile), which is
    conjugation invariant. Each distinct sampled subgroup is built and
    profiled once: ``DistinctSubgroups`` recognises a pair generating a
    subgroup built before by sifting it, and that subgroup's key is
    already seen. Returns a SweepReport whose verdict is
    refuted-by-prefilter when every sampled class was rejected; this is
    sampling evidence, not an exhaustive refutation. Raises DomainError
    when samples < 1, since no samples refute nothing, and when chi is a
    character of another group.
    """
    if samples < 1:
        raise DomainError(f"the sweep needs at least 1 sample, not {samples}")
    if chi.group is not group:
        raise DomainError("the character belongs to another group")
    rng = random.Random(seed)
    # a subgroup of order > |G|/2 is the whole group (Lagrange), so None,
    # and only None, means the pair generates G
    subgroups = DistinctSubgroups(group.degree, group.order // 2)
    seen = set()
    log = []
    unrejected = []
    whole_hits = 0
    for _ in range(samples):
        x = group.random_element(rng)
        y = group.random_element(rng)
        subgroup = subgroups.generated([x, y])
        if subgroup is False:  # built before, so its key is in seen
            continue
        if subgroup is None:
            whole_hits += 1
            subgroup, key = group, ("whole",)
        else:
            key = (subgroup.order, group.class_intersection_profile(subgroup))
        if key in seen:
            continue
        seen.add(key)
        label = (f"order {group.order} (whole group)" if subgroup is group
                 else f"order {subgroup.order} profile#{len(seen)}")
        reasons = _sweep_reject_reasons(chi, subgroup, monomial,
                                        steinberg_prime)
        _record_sweep(log, unrejected, subgroup, label, reasons)
    status = STATUS_REFUTED_PREFILTER if not unrejected else STATUS_UNDECIDED
    verdict = QsiVerdict(chi, status, None, log)
    return SweepReport(verdict, samples, len(seen), whole_hits, unrejected)


def _sweep_reject_reasons(chi, subgroup, monomial, steinberg_prime):
    reasons = []
    if monomial and chi.group.order != subgroup.order * chi.degree:
        reasons.append("degree-incompatible")
    if not simple_subgroup_prefilter(chi, subgroup):
        reasons.append("nonabelian-simple")
    if not class_fraction_prefilter(chi, subgroup):
        reasons.append("class-fraction")
    if (steinberg_prime is not None and monomial
            and subgroup.derived_subgroup().order % steinberg_prime == 0):
        reasons.append("steinberg-kernel")
    return reasons


def _record_sweep(log, unrejected, subgroup, label, reasons):
    if reasons:
        log.append(PruneRecord(subgroup.order, label, "+".join(reasons)))
    else:
        log.append(PruneRecord(subgroup.order, label, "NOT-REJECTED"))
        unrejected.append(label)
