import hashlib
import random
from collections import Counter

import pytest

from qsikit import catalog, perm, qsi
from qsikit.chartab import (
    Character,
    character_table,
    induce,
    induce_pointwise,
    inner_product,
    kernel,
    restrict,
    trivial_character,
)
from qsikit.errors import DomainError
from qsikit.perm import PermGroup, Permutation
from qsikit.primes import prime_factors
from qsikit.qsi import (
    STATUS_REFUTED_PREFILTER,
    STATUS_UNDECIDED,
    QsiVerdict,
    SearchBounds,
    SweepReport,
    _record_sweep,
    _sweep_reject_reasons,
    class_fraction_prefilter,
    decide_qsi_character,
    decide_qsi_group,
    group_is_qsi,
    random_subgroup_sweep,
    simple_subgroup_prefilter,
    verify_qsi_witness,
)
from qsikit.smallgroups import abelian, dihedral


def cyc(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


# -- prefilters


def test_fraction_prefilter_whole_group_passes():
    group = catalog.load("A5")
    for chi in character_table(group).irreducibles:
        assert class_fraction_prefilter(chi, group)


def test_fraction_prefilter_rejects_on_a5_degree4():
    group = catalog.load("A5")
    chi4 = character_table(group).unique_by_degree(4)
    # no proper subgroup contains elements of order 3 and order 5 both
    for sub in group.subgroups_up_to_conjugacy():
        if sub.order < 60:
            assert not class_fraction_prefilter(chi4, sub)


def test_fraction_prefilter_trivial_char_support():
    # the trivial character is nonzero on every class, so a witnessing
    # subgroup must meet every class; the trivial subgroup fails that
    # in any nontrivial group (inducing from it gives the regular
    # character, never a multiple of 1), and the prefilter agrees
    group = catalog.load("A5")
    triv = trivial_character(group)
    assert not class_fraction_prefilter(triv, PermGroup(5, []))
    assert class_fraction_prefilter(triv, group)
    one = PermGroup.trivial(1)
    assert class_fraction_prefilter(trivial_character(one), one)


def test_simple_subgroup_prefilter():
    group = catalog.load("A5")
    table = character_table(group)
    chi4 = table.unique_by_degree(4)
    assert not simple_subgroup_prefilter(chi4, group)
    assert simple_subgroup_prefilter(trivial_character(group), group)
    solvable = PermGroup(5, [cyc(5, [0, 1, 2])])
    assert simple_subgroup_prefilter(chi4, solvable)


def test_burnside_gate_passes_only_non_simple_subgroups():
    # a group whose order has at most two prime factors is solvable
    # (Burnside's p^a q^b theorem), so the prefilter passes it without
    # is_simple(); is_simple() must agree on every lattice class
    from test_perm import random_small_groups

    groups = [catalog.load(name)
              for name in ("A5", "PSL27", "A6", "PSL211", "A7")]
    for group in groups + random_small_groups():
        chi = character_table(group).irreducibles[-1]
        for sub in group.subgroups_up_to_conjugacy():
            if len(prime_factors(sub.order)) < 3:
                assert sub.is_abelian() or not sub.is_simple()
                assert simple_subgroup_prefilter(chi, sub)


# -- decisions


def test_solvable_group_trivial_witness():
    group = catalog.load("S4")
    for chi in character_table(group).irreducibles:
        verdict = decide_qsi_character(group, chi)
        assert verdict.has_witness
        assert verdict.witness.subgroup.order == 24
        assert verdict.witness.multiplier == 1


def test_a5_degree4_refuted_with_full_log():
    group = catalog.load("A5")
    chi4 = character_table(group).unique_by_degree(4)
    verdict = decide_qsi_character(group, chi4)
    assert verdict.status == "refuted-exhaustive"
    assert len(verdict.pruning_log) == 9
    reasons = {r.reason for r in verdict.pruning_log}
    assert reasons == {"nonabelian-simple", "class-fraction"}


def test_a5_not_qsi_group_level():
    verdicts = decide_qsi_group(catalog.load("A5"))
    assert not group_is_qsi(verdicts)
    by_degree = {v.character.degree for v in verdicts if not v.has_witness}
    assert by_degree == {3, 4}


def test_abelian_groups_are_qsi():
    for invariants in ([2], [3], [4], [2, 2], [6], [4, 2]):
        verdicts = decide_qsi_group(abelian(invariants))
        assert group_is_qsi(verdicts)
        assert all(v.status == "monomial-with-witness" for v in verdicts)


def test_linear_characters_monomial_via_whole_group():
    group = dihedral(4)
    table = character_table(group)
    for chi in table.by_degree(1):
        verdict = decide_qsi_character(group, chi, monomial=True)
        assert verdict.status == "monomial-with-witness"
        assert verdict.witness.subgroup.order == group.order


def test_psl27_steinberg_characters_monomial():
    group = catalog.load("PSL27")
    table = character_table(group)
    v7 = decide_qsi_character(group, table.unique_by_degree(7),
                              monomial=True)
    assert v7.status == "monomial-with-witness"
    assert v7.witness.subgroup.order == 24
    v8 = decide_qsi_character(group, table.unique_by_degree(8),
                              monomial=True)
    assert v8.status == "monomial-with-witness"
    assert v8.witness.subgroup.order == 21


def test_psl27_degree6_refuted():
    group = catalog.load("PSL27")
    chi6 = character_table(group).unique_by_degree(6)
    verdict = decide_qsi_character(group, chi6)
    assert verdict.status == "refuted-exhaustive"
    # every subgroup class accounted for
    assert len(verdict.pruning_log) == \
        len(group.subgroups_up_to_conjugacy())


def test_decide_requires_irreducible():
    group = catalog.load("S4")
    table = character_table(group)
    reducible = table.irreducibles[0] + table.irreducibles[1]
    with pytest.raises(DomainError):
        decide_qsi_character(group, reducible)


def test_undecided_capacity_for_large_groups():
    group = catalog.load("M11")
    table = character_table(group)
    nontrivial = table.irreducibles[-1]
    bounds = SearchBounds(subgroup_order=1000)
    verdict = decide_qsi_character(group, nontrivial, bounds)
    assert verdict.status == "undecided-capacity"
    # the trivial character still certifies through U = G
    verdict0 = decide_qsi_character(group, trivial_character(group), bounds)
    assert verdict0.has_witness


def test_k_determinacy_never_searched():
    # whenever a witness exists, k equals [G:U] phi(1) / chi(1)
    group = catalog.load("S4")
    for chi in character_table(group).irreducibles:
        verdict = decide_qsi_character(group, chi)
        w = verdict.witness
        assert w.multiplier * chi.degree == \
            (group.order // w.subgroup.order) * w.phi.degree


def test_derived_series_decides_quotient_solvability():
    # the search tests U/ker(phi) by U's derived series, the verifier by
    # the coset-action quotient; S5 has the perfect A5 and non-solvable
    # S5 among its subgroups, each with characters on both sides
    group = PermGroup(5, [cyc(5, [0, 1, 2, 3, 4]), cyc(5, [0, 1])])
    outcomes = set()
    for sub in group.subgroups_up_to_conjugacy():
        for phi in character_table(sub).irreducibles:
            phi_kernel = kernel(phi)
            solvable = sub.quotient(phi_kernel).is_solvable()
            assert sub.derived_series()[-1].is_subgroup_of(phi_kernel) \
                == solvable
            outcomes.add((sub.is_solvable(), solvable))
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_witness_reverification_independent_path():
    group = catalog.load("PSL27")
    chi7 = character_table(group).unique_by_degree(7)
    verdict = decide_qsi_character(group, chi7, monomial=True)
    assert verify_qsi_witness(group, chi7, verdict.witness)


def test_conjugate_subgroups_induce_identical_characters():
    # the search visits one representative per subgroup conjugacy class;
    # this is justified because conjugating (U, phi) leaves phi^G fixed
    group = catalog.load("PSL27")
    table = character_table(group)
    sub = next(s for s in group.subgroups_up_to_conjugacy()
               if s.order == 21)
    elems = group.elements()
    for g_tuple in (elems[7], elems[100], elems[-3]):
        g = Permutation(g_tuple)
        conjugated = PermGroup(sub.degree, [s.conjugated_by(g)
                                            for s in sub.generators])
        for phi in character_table(sub).irreducibles:
            moved_values = {}
            c_classes = conjugated.conjugacy_classes()
            for rep_index, rep in enumerate(
                    sub.conjugacy_classes().representatives):
                moved = rep.conjugated_by(g)
                moved_values[c_classes.class_of(moved.images)] = \
                    phi.values[rep_index]
            phi_conj = Character(
                conjugated,
                [moved_values[i] for i in range(len(c_classes))])
            assert induce(phi, group) == induce(phi_conj, group)


def test_search_compares_induced_values_class_by_class(monkeypatch):
    # the search draws phi^G one class at a time and stops at the first
    # class that differs from k * chi; with the pointwise induction,
    # which reads no fusion, in its place every verdict, witness and log
    # stays the same. Prefilters off: every subgroup class is searched
    groups = [catalog.load(group_id) for group_id in ("S4", "A5", "PSL27")]
    bounds = SearchBounds(prefilters=False)
    drawn = []
    classwise = qsi._induced_values

    def counting(phi, group, fusion):
        for value in classwise(phi, group, fusion):
            drawn.append(value)
            yield value

    def pointwise(phi, group, fusion):
        values = induce_pointwise(phi, group).values
        drawn.extend(values)
        return values

    verdicts = {}
    counts = {}
    for name, induced in (("classwise", counting), ("pointwise", pointwise)):
        monkeypatch.setattr(qsi, "_induced_values", induced)
        drawn.clear()
        verdicts[name] = [[v.to_json() for v in decide_qsi_group(g, bounds)]
                          for g in groups]
        counts[name] = len(drawn)
    assert verdicts["classwise"] == verdicts["pointwise"]
    assert counts["classwise"] < counts["pointwise"]


# -- prefilter soundness (identical verdicts with and without)


@pytest.mark.parametrize("group_id", ["S4", "SL23", "A5"])
def test_prefilters_do_not_change_verdicts(group_id):
    group = catalog.load(group_id)
    with_filters = decide_qsi_group(group, SearchBounds(prefilters=True))
    without = decide_qsi_group(group, SearchBounds(prefilters=False))
    for a, b in zip(with_filters, without):
        assert a.status == b.status
        if a.witness or b.witness:
            assert a.witness.subgroup.order == b.witness.subgroup.order
            assert a.witness.multiplier == b.witness.multiplier


# -- theorem-level consistency


def test_taketa_consistency_monomial_groups_solvable():
    for group_id in ("S4", "SL23"):
        group = catalog.load(group_id)
        verdicts = decide_qsi_group(group, monomial=True)
        if group_is_qsi(verdicts):
            assert group.is_solvable()


def test_descent_to_intersection_with_normal_subgroup():
    # a G-invariant constituent chi of a QSI rho restricted to N is QSI
    # from U meet N for the witnessing U
    group = catalog.load("S4")
    a4 = PermGroup(4, [cyc(4, [0, 1, 2]), cyc(4, [0, 1], [2, 3])])
    table = character_table(group)
    chi3 = table.by_degree(3)[0]
    verdict = decide_qsi_character(group, chi3, monomial=True)
    assert verdict.has_witness
    witness_sub = verdict.witness.subgroup
    restricted = restrict(chi3, a4)
    n_table = character_table(a4)
    chi_n = next(c for c in n_table.irreducibles
                 if inner_product(restricted, c) != 0 and c.degree == 3)
    meet_gens = [Permutation(t) for t in witness_sub.elements()
                 if a4.contains_tuple(t)]
    meet = PermGroup(4, meet_gens)
    assert meet.order == 4
    found = False
    for phi in character_table(meet).irreducibles:
        k = (a4.order // meet.order) * phi.degree
        if k % chi_n.degree:
            continue
        if induce(phi, a4) == (k // chi_n.degree) * chi_n:
            quotient = meet.quotient(kernel(phi))
            if quotient.is_solvable():
                found = True
                break
    assert found


def quotient_transfer_check(group_verdicts, quotient_verdicts):
    """The closure property 'G QSI implies G/N QSI' on computed verdicts
    for G and for G/N. Vacuously true when G is not certified QSI."""
    if not group_is_qsi(group_verdicts):
        return True
    return group_is_qsi(quotient_verdicts)


def test_quotient_transfer_check():
    s4 = catalog.load("S4")
    v4 = PermGroup(4, [cyc(4, [0, 1], [2, 3]), cyc(4, [0, 2], [1, 3])])
    q = s4.quotient(v4)
    s4_verdicts = decide_qsi_group(s4)
    q_verdicts = decide_qsi_group(q)
    assert quotient_transfer_check(s4_verdicts, q_verdicts)
    # trivial quotient
    whole = s4.quotient(s4)
    assert quotient_transfer_check(s4_verdicts, decide_qsi_group(whole))
    # vacuous for a non-QSI group
    a5_verdicts = decide_qsi_group(catalog.load("A5"))
    assert quotient_transfer_check(a5_verdicts, a5_verdicts)


# -- sampling sweep


def test_sweep_on_psl27_degree6_monomial():
    group = catalog.load("PSL27")
    chi6 = character_table(group).unique_by_degree(6)
    report = random_subgroup_sweep(group, chi6, samples=400, seed=3,
                                   monomial=True)
    assert report.verdict.status == "refuted-by-prefilter"
    assert (report.samples, report.distinct_classes,
            report.whole_group_hits) == (400, 10, 280)
    assert not report.unrejected
    # order 1 is the identity pair: a subgroup with no generators
    orders = (24, 12, 21, 7, 8, 6, 4, 1, 3)
    assert [record.to_json() for record in report.verdict.pruning_log] == [
        {"subgroup_order": 168, "subgroup": "order 168 (whole group)",
         "reason": "degree-incompatible+nonabelian-simple"}] + [
        {"subgroup_order": order, "subgroup": f"order {order} profile#{i}",
         "reason": "degree-incompatible+class-fraction"}
        for i, order in enumerate(orders, start=2)]


@pytest.mark.parametrize("samples", [0, -5])
def test_sweep_without_samples_is_domain_error(samples):
    group = catalog.load("PSL27")
    chi6 = character_table(group).unique_by_degree(6)
    with pytest.raises(DomainError, match=str(samples)):
        random_subgroup_sweep(group, chi6, samples=samples, seed=3)


# The sampling stream of PSU(4,2) = PSp4(3) on 27 points, recorded before
# the permutation kernel used itemgetter and before Schreier-Sims skipped
# pairs it had already sifted. random_element reads the BSGS transversals,
# so a change to any transversal changes these values.
PSU42_FIRST_SAMPLE = (18, 24, 21, 19, 1, 10, 20, 15, 6, 14, 11, 17, 12, 7,
                      26, 13, 22, 0, 5, 3, 4, 2, 16, 25, 8, 23, 9)
PSU42_SAMPLES_SHA256 = ("ab1a9435e0a1f223e9fd15c51c25d055"
                        "e695121252a6bcf5966b8611c250f193")
# the orders of the sweep's proper subgroup classes, in order of discovery
PSU42_SWEEP_ORDERS = (576, 960, 192, 360, 324, 120, 720, 648, 24, 24, 108,
                      648, 216, 192, 288, 20, 80, 120)


def test_psu42_sampling_stream_is_pinned():
    group = catalog.load("PSU42")
    rng = random.Random(11)
    images = [group.random_element(rng).images for _ in range(50)]
    assert images[0] == PSU42_FIRST_SAMPLE
    digest = hashlib.sha256(repr(images).encode()).hexdigest()
    assert digest == PSU42_SAMPLES_SHA256
    steinberg = character_table(group).unique_by_degree(81)
    report = random_subgroup_sweep(group, steinberg, seed=11, samples=500,
                                   monomial=True, steinberg_prime=3)
    assert report.distinct_classes == 19
    assert report.whole_group_hits == 451
    labels = [record.subgroup_label for record in report.verdict.pruning_log]
    assert labels == ["order 25920 (whole group)"] + [
        f"order {order} profile#{i}"
        for i, order in enumerate(PSU42_SWEEP_ORDERS, start=2)]


def reference_random_subgroup_sweep(group, chi, *, samples, seed,
                                    monomial=True, steinberg_prime=None):
    """The sweep as it was before it recognised repeated subgroups: each
    proper sampled pair is built by ``from_generators_bounded`` and
    profiled."""
    rng = random.Random(seed)
    half = group.order // 2
    seen = {}
    log = []
    unrejected = []
    whole_hits = 0
    for _ in range(samples):
        x = group.random_element(rng)
        y = group.random_element(rng)
        candidate = PermGroup.from_generators_bounded([x, y], group.degree,
                                                      half)
        if candidate is None:
            whole_hits += 1
            key = ("whole",)
            if key in seen:
                continue
            seen[key] = True
            label = f"order {group.order} (whole group)"
            reasons = _sweep_reject_reasons(group, chi, group, monomial,
                                            steinberg_prime)
            _record_sweep(log, unrejected, group, label, reasons)
            continue
        profile = group.class_intersection_profile(candidate)
        key = (candidate.order, profile)
        if key in seen:
            continue
        seen[key] = True
        label = f"order {candidate.order} profile#{len(seen)}"
        reasons = _sweep_reject_reasons(group, chi, candidate, monomial,
                                        steinberg_prime)
        _record_sweep(log, unrejected, candidate, label, reasons)
    status = STATUS_REFUTED_PREFILTER if not unrejected else STATUS_UNDECIDED
    verdict = QsiVerdict(chi, status, None, log)
    return SweepReport(verdict, samples, len(seen), whole_hits, unrejected)


def test_sweep_matches_reference():
    # whole reports: PSU(4,2) on two seeds, PSL(2,7) with its degree-6
    # character, and each random small group with its largest irreducible,
    # both questions and the p-kernel test at its smallest prime
    from test_perm import random_small_groups

    psu42 = catalog.load("PSU42")
    steinberg = character_table(psu42).unique_by_degree(81)
    psl27 = catalog.load("PSL27")
    cases = [(psu42, steinberg, dict(seed=seed, samples=2000,
                                     steinberg_prime=3))
             for seed in (7, 2026)]
    cases.append((psl27, character_table(psl27).unique_by_degree(6),
                  dict(seed=5, samples=1000)))
    for seed, group in enumerate(random_small_groups()):
        chi = character_table(group).irreducibles[-1]
        primes = prime_factors(group.order)
        cases.append((group, chi, dict(
            seed=seed, samples=150, monomial=bool(seed % 2),
            steinberg_prime=min(primes) if primes else None)))
    for group, chi, kwargs in cases:
        report = random_subgroup_sweep(group, chi, **kwargs)
        assert report == reference_random_subgroup_sweep(group, chi,
                                                         **kwargs)


def test_sweep_builds_and_profiles_each_distinct_subgroup_once(monkeypatch):
    # PSU(4,2), St, seed 301, 10^4 samples: the sweep before the
    # recognition made 1137 profiles and 1142 capped builds. The group is
    # fresh, as the catalog's may keep its own profile from an earlier test
    from test_perm import counting_profiles

    source = catalog.load("PSU42")
    group = PermGroup(source.degree, source.generators)
    steinberg = character_table(group).unique_by_degree(81)
    half = group.order // 2
    counts = Counter()
    bounds = {}
    order_lower_bound = perm._order_lower_bound
    init = PermGroup.__init__

    def lower_bound(degree, gens, order_cap):
        bounds[tuple(gens)] = order_lower_bound(degree, gens, order_cap)
        return bounds[tuple(gens)]

    def counted_init(self, degree, gens, _chain=None, _order_cap=None):
        counts["build"] += _order_cap is not None
        init(self, degree, gens, _chain, _order_cap)

    monkeypatch.setattr(perm, "_order_lower_bound", lower_bound)
    monkeypatch.setattr(PermGroup, "__init__", counted_init)
    computed = counting_profiles(monkeypatch)
    report = random_subgroup_sweep(group, steinberg, seed=301,
                                   samples=10000, monomial=True,
                                   steinberg_prime=3)
    assert (report.distinct_classes, report.whole_group_hits) == (66, 8864)
    assert (len(computed), counts["build"]) == (592, 614)
    monkeypatch.undo()
    # the bound never exceeds the order of the group the pair generates
    for gens, bound in bounds.items():
        assert bound <= group.order
        if bound <= half:
            assert bound <= PermGroup(group.degree, gens).order


def test_decide_qsi_group_profiles_each_subgroup_once(monkeypatch):
    # fresh groups, so that no lattice or profile is cached; profiles
    # computed once per character and a trivial group registered twice
    # made 204 on A6 and 745 on M11
    from test_perm import counting_profiles

    computed = counting_profiles(monkeypatch)
    for name, expected in (("A6", 87), ("M11", 466)):
        source = catalog.load(name)
        group = PermGroup(source.degree, source.generators)
        computed.clear()
        decide_qsi_group(group)
        assert len(computed) == len(set(computed)) == expected, name
