import pytest

from qsikit import catalog
from qsikit.chartab import (
    Character,
    character_table,
    class_fusion,
    induce,
    induce_pointwise,
    inner_product,
    kernel,
    permutation_character,
    regular_character,
    restrict,
    trivial_character,
)
from qsikit.cyclotomic import Cyclotomic, ONE, ZERO
from qsikit.errors import DomainError, IntegrityError
from qsikit.perm import PermGroup, Permutation


def cyc(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


def c3():
    return PermGroup.from_generators([cyc(3, [0, 1, 2])])


def s4():
    return catalog.load("S4")


def a5():
    return catalog.load("A5")


def a4_in_a5():
    return PermGroup(5, [cyc(5, [0, 1, 2]), cyc(5, [0, 1], [2, 3])])


# -- table computation


def test_trivial_group_table():
    table = character_table(PermGroup.trivial(2))
    assert table.degrees == (1,)


def test_cyclic3_table_values():
    table = character_table(c3())
    assert table.degrees == (1, 1, 1)
    conductors = {v.conductor for chi in table.irreducibles
                  for v in chi.values}
    assert conductors == {1, 3}


@pytest.mark.parametrize("group_id,expected_degrees", [
    ("S4", (1, 1, 2, 3, 3)),
    ("SL23", (1, 1, 1, 2, 2, 2, 3)),
    ("A5", (1, 3, 3, 4, 5)),
    ("A6", (1, 5, 5, 8, 8, 9, 10)),
    ("PSL27", (1, 3, 3, 6, 7, 8)),
    ("PSL211", (1, 5, 5, 10, 10, 11, 12, 12)),
])
def test_catalog_degrees(group_id, expected_degrees):
    table = character_table(catalog.load(group_id))
    assert table.degrees == expected_degrees
    assert sum(d * d for d in table.degrees) == table.group.order


def test_full_orthogonality_exact():
    for group_id in ("S4", "SL23", "A5", "PSL27"):
        table = character_table(catalog.load(group_id))
        k = len(table.irreducibles)
        # rows
        for i in range(k):
            for j in range(k):
                expected = ONE if i == j else ZERO
                assert inner_product(table.irreducibles[i],
                                     table.irreducibles[j]) == expected
        # columns
        classes = table.classes
        for a in range(k):
            for b in range(k):
                total = ZERO
                for chi in table.irreducibles:
                    total = total + chi.values[a] * chi.values[b].conjugate()
                if a == b:
                    expected = Cyclotomic.from_rational(
                        table.group.order // classes.sizes[a])
                else:
                    expected = ZERO
                assert total == expected


def test_degrees_divide_group_order():
    for group_id in ("S4", "SL23", "A5", "A6", "PSL27", "PSL211"):
        table = character_table(catalog.load(group_id))
        for chi in table.irreducibles:
            assert table.group.order % chi.degree == 0


def test_table_determinism():
    t1 = character_table(PermGroup.from_generators(
        [cyc(5, [0, 1, 2]), cyc(5, [0, 1, 2, 3, 4])]))
    t2 = character_table(PermGroup.from_generators(
        [cyc(5, [0, 1, 2, 3, 4]), cyc(5, [0, 1, 2])]))
    assert [[v for v in chi.values] for chi in t1.irreducibles] == \
        [[v for v in chi.values] for chi in t2.irreducibles]


# -- inner products


def test_inner_product_orthonormality():
    table = character_table(a5())
    chi = table.irreducibles[3]
    assert inner_product(chi, chi) == ONE


def test_regular_character_inner_products():
    group = s4()
    reg = regular_character(group)
    for chi in character_table(group).irreducibles:
        assert inner_product(reg, chi).integer_value() == chi.degree


def test_permutation_character_orbit_count():
    group = a5()
    pi = permutation_character(group)
    assert inner_product(pi, trivial_character(group)) == ONE
    assert pi.values[0].integer_value() == 5


def test_inner_product_group_mismatch():
    with pytest.raises(DomainError):
        inner_product(trivial_character(s4()), trivial_character(a5()))


# -- induction and restriction


def test_induce_from_trivial_subgroup_is_regular():
    group = a5()
    sub = PermGroup(5, [])
    assert induce(trivial_character(sub), group) == regular_character(group)


def test_induced_permutation_character_transitive():
    group = a5()
    sub = a4_in_a5()
    induced = induce(trivial_character(sub), group)
    assert induced.degree == 5
    assert inner_product(induced, trivial_character(group)) == ONE


def test_induce_matches_pointwise_formula():
    group = a5()
    sub = a4_in_a5()
    for phi in character_table(sub).irreducibles:
        assert induce(phi, group) == induce_pointwise(phi, group)


def test_induction_transitive_in_chain():
    group = s4()
    d8 = PermGroup(4, [cyc(4, [0, 1, 2, 3]), cyc(4, [0, 2])])
    c4 = PermGroup(4, [cyc(4, [0, 1, 2, 3])])
    for phi in character_table(c4).irreducibles:
        assert induce(induce(phi, d8), group) == induce(phi, group)


def test_frobenius_reciprocity():
    group = a5()
    sub = a4_in_a5()
    sub_table = character_table(sub)
    big_table = character_table(group)
    fusion = class_fusion(sub, group)
    for phi in sub_table.irreducibles:
        for chi in big_table.irreducibles:
            lhs = inner_product(induce(phi, group, fusion), chi)
            rhs = inner_product(phi, restrict(chi, sub, fusion))
            assert lhs == rhs


def test_restrict_to_whole_group_is_identity():
    group = s4()
    for chi in character_table(group).irreducibles:
        assert restrict(chi, group) == chi


def test_restrict_regular_character():
    group = s4()
    d8 = PermGroup(4, [cyc(4, [0, 1, 2, 3]), cyc(4, [0, 2])])
    assert restrict(regular_character(group), d8) == \
        3 * regular_character(d8)


def test_restriction_identity_a7_to_a5():
    from qsikit.paper import restriction_identity

    assert restriction_identity(7)


def test_clifford_multiple_on_invariant_constituent():
    # for N normal in G and rho irreducible with <rho|N, chi> != 0 and chi
    # G-invariant, the restriction is a single multiple k*chi
    group = s4()
    a4 = PermGroup(4, [cyc(4, [0, 1, 2]), cyc(4, [0, 1], [2, 3])])
    v4 = PermGroup(4, [cyc(4, [0, 1], [2, 3]), cyc(4, [0, 2], [1, 3])])
    for normal in (a4, v4):
        n_table = character_table(normal)
        invariant = []
        elems = [Permutation(t) for t in group.elements()]
        for chi in n_table.irreducibles:
            stable = True
            for g in elems:
                moved = [chi.value_at(rep.conjugated_by(g))
                         for rep in normal.conjugacy_classes().representatives]
                if moved != list(chi.values):
                    stable = False
                    break
            if stable:
                invariant.append(chi)
        assert invariant
        for rho in character_table(group).irreducibles:
            restricted = restrict(rho, normal)
            for chi in invariant:
                mult = inner_product(restricted, chi)
                if not mult.is_zero():
                    k = mult.integer_value()
                    assert restricted == k * chi


# -- kernels


def test_kernel_of_trivial_and_faithful():
    group = s4()
    table = character_table(group)
    assert kernel(table.trivial_character()).order == group.order
    chi3 = table.by_degree(3)[0]
    assert kernel(chi3).order == 1


def test_kernel_of_lifted_sign_character():
    group = s4()
    table = character_table(group)
    sign = next(chi for chi in table.by_degree(1)
                if chi != table.trivial_character())
    ker = kernel(sign)
    assert ker.order == 12
    assert group.is_normal(ker)


def test_kernel_rejects_non_characters():
    group = c3()
    # value 2 on two classes whose union is not a subgroup
    values = [Cyclotomic.from_rational(2), Cyclotomic.from_rational(2),
              Cyclotomic.from_rational(-1)]
    bad = Character(group, values)
    with pytest.raises(IntegrityError):
        kernel(bad)


def test_export_json_shape():
    data = character_table(s4()).to_json()
    assert data["group_order"] == 24
    assert len(data["classes"]) == 5 == len(data["irreducibles"])
    assert all("representative" in c and "size" in c and
               "element_order" in c for c in data["classes"])
    degrees = sorted(row["degree"] for row in data["irreducibles"])
    assert degrees == [1, 1, 2, 3, 3]
