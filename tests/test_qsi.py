import pytest

from qsikit import catalog
from qsikit.chartab import (
    Character,
    character_table,
    class_fusion,
    induce,
    inner_product,
    kernel,
    restrict,
    trivial_character,
)
from qsikit.errors import DomainError
from qsikit.perm import PermGroup, Permutation
from qsikit.qsi import (
    SearchBounds,
    class_fraction_prefilter,
    decide_monomial_character,
    decide_qsi_character,
    decide_qsi_group,
    group_is_qsi,
    quotient_transfer_check,
    random_subgroup_sweep,
    simple_subgroup_prefilter,
    steinberg_kernel_constraint,
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
    assert simple_subgroup_prefilter(table.trivial_character(), group)
    solvable = PermGroup(5, [cyc(5, [0, 1, 2])])
    assert simple_subgroup_prefilter(chi4, solvable)


def test_steinberg_kernel_constraint():
    group = catalog.load("S4")
    table = character_table(group)
    faithful = table.by_degree(3)[0]
    for p in (2, 3, 5):
        assert steinberg_kernel_constraint(group, faithful, p)
    triv = table.trivial_character()
    assert not steinberg_kernel_constraint(group, triv, 2)
    assert not steinberg_kernel_constraint(group, triv, 3)
    assert steinberg_kernel_constraint(group, triv, 5)


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
        verdict = decide_monomial_character(group, chi)
        assert verdict.status == "monomial-with-witness"
        assert verdict.witness.subgroup.order == group.order


def test_psl27_steinberg_characters_monomial():
    group = catalog.load("PSL27")
    table = character_table(group)
    v7 = decide_monomial_character(group, table.unique_by_degree(7))
    assert v7.status == "monomial-with-witness"
    assert v7.witness.subgroup.order == 24
    v8 = decide_monomial_character(group, table.unique_by_degree(8))
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
    verdict0 = decide_qsi_character(group, table.trivial_character(), bounds)
    assert verdict0.has_witness


def test_k_determinacy_never_searched():
    # whenever a witness exists, k equals [G:U] phi(1) / chi(1)
    group = catalog.load("S4")
    for chi in character_table(group).irreducibles:
        verdict = decide_qsi_character(group, chi)
        w = verdict.witness
        assert w.multiplier * chi.degree == \
            (group.order // w.subgroup.order) * w.phi.degree


def test_witness_reverification_independent_path():
    group = catalog.load("PSL27")
    chi7 = character_table(group).unique_by_degree(7)
    verdict = decide_monomial_character(group, chi7)
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
        conjugated = sub.conjugate_subgroup(g)
        for phi in character_table(sub).irreducibles:
            moved_values = {}
            c_classes = conjugated.conjugacy_classes()
            for rep_index, rep in enumerate(
                    sub.conjugacy_classes().representatives):
                moved = rep.conjugated_by(g)
                moved_values[c_classes.class_of(moved)] = \
                    phi.values[rep_index]
            phi_conj = Character(
                conjugated,
                [moved_values[i] for i in range(len(c_classes))])
            assert induce(phi, group) == induce(phi_conj, group)


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
    verdict = decide_monomial_character(group, chi3)
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
    fusion = class_fusion(meet, a4)
    found = False
    for phi in character_table(meet).irreducibles:
        k = (a4.order // meet.order) * phi.degree
        if k % chi_n.degree:
            continue
        if induce(phi, a4, fusion) == (k // chi_n.degree) * chi_n:
            quotient = meet.quotient(kernel(phi))
            if quotient.is_solvable():
                found = True
                break
    assert found


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
    assert report.distinct_classes >= 3
    assert not report.unrejected


@pytest.mark.parametrize("samples", [0, -5])
def test_sweep_without_samples_is_domain_error(samples):
    group = catalog.load("PSL27")
    chi6 = character_table(group).unique_by_degree(6)
    with pytest.raises(DomainError, match=str(samples)):
        random_subgroup_sweep(group, chi6, samples=samples, seed=3)
