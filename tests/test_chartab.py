import hashlib
import json
from math import lcm

import pytest

from qsikit import catalog, chartab, perm
from qsikit.chartab import (
    Character,
    character_table,
    induce,
    induce_pointwise,
    inner_product,
    kernel,
    permutation_character,
    restrict,
    trivial_character,
)
from qsikit.cyclotomic import Cyclotomic, ONE, ZERO
from qsikit.errors import DomainError, IntegrityError
from qsikit.perm import PermGroup, Permutation, _compose, _invert


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


# sha256 of json.dumps(table.to_json(), sort_keys=True), recorded before
# the cyclotomic descent moved from a linear solve to the relative trace;
# any change to a value, its conductor or the class order shows up here
TABLE_DIGESTS = {
    "A5": "7c253d3154ac192a09f9fa988755ff831bede872a2084103d466f2d834dde432",
    "A6": "12e1a5f50f48ea86a9d9d8a296ae316fa2df78790fc253ec1e5d8696f50b5d45",
    "A7": "d8395ad7fc01bbc1bb1e6c3f86acb94ae1ab3c61b3d8f74a6e5b8128ca884ca4",
    "A8": "ac9fb559d1de0c4ab9aacbb8256882f80a5f125e24c02e5a76e5d0202304ada4",
    "A9": "17d2952383a84f5bcf48e37b17ab075f83d4e8e5d29591a24f522ead347afdd6",
    "M11": "1d9f78e39e8442b18b447bf51738b5ac7650918c2eae85ef69a702eae03d3e6c",
    "PSL211":
        "198abff7275c84236c0b16997755c8578928576464510e384c73f37570aed918",
    "PSL27":
        "bf14e06016944cc174a6305a99c8ca68e29f5cbceeb2a6e31468259699728564",
    "PSU42":
        "01b1a222a69a1973dbf6ef56537630af2f80750f55a70370756c0249dcdb484b",
    "S4": "64cf2d6a711ba6bd15a84af6e0f50a5df4dc35046a0445c736d4ddbb5b2a6fb9",
    "SL23": "6f3520d00a53234933c937c6d27dab37863e47616845bfdb3b97aaa0312d7ca3",
}


def test_catalog_tables_are_pinned():
    assert set(TABLE_DIGESTS) == set(catalog.manifest()["groups"])
    for group_id, digest in sorted(TABLE_DIGESTS.items()):
        table = character_table(catalog.load(group_id))
        text = json.dumps(table.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, group_id


def test_degrees_divide_group_order():
    for group_id in ("S4", "SL23", "A5", "A6", "PSL27", "PSL211"):
        table = character_table(catalog.load(group_id))
        for chi in table.irreducibles:
            assert table.group.order % chi.degree == 0


def test_table_above_256_points_matches_catalog_a5():
    # A5 on the points 295..299 of 300: bytes cannot index that many
    # points, so its classes keep image tuples as keys
    high = PermGroup(300, [cyc(300, [295, 296, 297]),
                           cyc(300, [295, 296, 297, 298, 299])])
    table = character_table(high)
    expected = character_table(a5())
    assert isinstance(table.classes.class_elements[0][0], tuple)
    assert isinstance(expected.classes.class_elements[0][0], bytes)
    assert table.degrees == expected.degrees == (1, 3, 3, 4, 5)
    assert table.classes.sizes == expected.classes.sizes
    assert table.classes.rep_orders == expected.classes.rep_orders


def test_lift_takes_each_class_power_once(monkeypatch):
    # the lift reads the class of rep^s, for every s below the order of
    # each class representative, once per table and not once per
    # irreducible (that would be 18 * 116 powers on A9, 20 * 108 on
    # PSU(4,2))
    powers = []
    power = Permutation.__pow__

    def counting(self, k):
        powers.append(k)
        return power(self, k)

    monkeypatch.setattr(Permutation, "__pow__", counting)
    for group_id, ceiling in (("A9", 116), ("PSU42", 108)):
        source = catalog.load(group_id)
        group = PermGroup(source.degree, source.generators)
        group.conjugacy_classes()
        powers.clear()
        character_table(group)
        assert len(powers) <= ceiling, group_id


def test_table_determinism():
    t1 = character_table(PermGroup.from_generators(
        [cyc(5, [0, 1, 2]), cyc(5, [0, 1, 2, 3, 4])]))
    t2 = character_table(PermGroup.from_generators(
        [cyc(5, [0, 1, 2, 3, 4]), cyc(5, [0, 1, 2])]))
    assert [[v for v in chi.values] for chi in t1.irreducibles] == \
        [[v for v in chi.values] for chi in t2.irreducibles]


# -- class matrices and the pivot-row split


def reference_class_matrix(classes, i):
    """A[j][l] = #{x in C_i : x^-1 z_l in C_j}, one product per (x, l)."""
    k = len(classes)
    matrix = [[0] * k for _ in range(k)]
    for x in map(classes.form.images, classes.class_elements[i]):
        x_inverse = _invert(x)
        for l, rep in enumerate(classes.representatives):
            j = classes.class_of(_compose(x_inverse, rep.images))
            matrix[j][l] += 1
    return matrix


def inverse_classes(classes):
    return [classes.class_of(_invert(rep.images))
            for rep in classes.representatives]


def reference_split(spaces, matrix, p):
    """Split every space by the eigenspaces of a full class matrix, with
    each image's coordinates read over the echelonized basis and checked
    to lie in the space."""
    result = []
    for basis, pivots in spaces:
        if len(basis) == 1:
            result.append((basis, pivots))
            continue
        dim = len(basis)
        restricted = [[0] * dim for _ in range(dim)]
        for col, vec in enumerate(basis):
            image = [sum(a * b for a, b in zip(row, vec)) % p
                     for row in matrix]
            for row, (bvec, pivot) in enumerate(zip(basis, pivots)):
                c = image[pivot]
                restricted[row][col] = c
                image = [(a - c * b) % p for a, b in zip(image, bvec)]
            assert not any(image), "image outside the invariant subspace"
        for lam in sorted(chartab._poly_roots(
                chartab._charpoly(restricted, p), p)):
            shifted = [[(restricted[a][b] - (lam if a == b else 0)) % p
                        for b in range(dim)] for a in range(dim)]
            vectors = [tuple(sum(c * bvec[t] for c, bvec in zip(coords, basis))
                             % p for t in range(len(basis[0])))
                       for coords in chartab._kernel(shifted, p)]
            result.append(chartab._echelonize(vectors, p))
    return result


def reference_table(group):
    """Dixon's loop with every class matrix built in full, smallest class
    first, until the common eigenspaces split."""
    classes = group.conjugacy_classes()
    k = len(classes)
    p = chartab._modulus_for(group, lcm(*classes.rep_orders), k)
    spaces = [([tuple(1 if i == j else 0 for j in range(k))
                for i in range(k)], list(range(k)))]
    for i in sorted(range(1, k), key=lambda i: (classes.sizes[i], i)):
        if all(len(basis) == 1 for basis, _ in spaces):
            break
        matrix = [[a % p for a in row]
                  for row in reference_class_matrix(classes, i)]
        spaces = reference_split(spaces, matrix, p)
    return chartab._table_from_spaces(group, spaces, p)


def test_table_matches_full_matrix_reference():
    from test_perm import random_small_groups

    groups = [catalog.load(group_id)
              for group_id in ("A5", "S4", "SL23", "PSL27", "A6", "PSL211",
                               "A7", "M11")]
    for group in groups + random_small_groups():
        assert character_table(group).to_json() == \
            reference_table(group).to_json()


@pytest.mark.parametrize("group_id", ["C3", "SL23", "PSL27", "A5", "M11"])
def test_class_coefficients_transpose_through_inverse_class(group_id):
    # a_ijl * |C_l| = a_i'lj * |C_j|, the identity that lets the split
    # read a row of matrix i as a column of matrix i'
    group = c3() if group_id == "C3" else catalog.load(group_id)
    classes = group.conjugacy_classes()
    k = len(classes)
    sizes = classes.sizes
    inverse_class = inverse_classes(classes)
    # only A5 has every class real; PSL27's 7A and 7B are not
    assert (inverse_class == list(range(k))) == (group_id == "A5")
    a = [reference_class_matrix(classes, i) for i in range(k)]
    for i in range(k):
        for l in range(k):
            assert chartab._class_column(classes, i, l) == \
                {j: a[i][j][l] for j in range(k) if a[i][j][l]}
        for j in range(k):
            for l in range(k):
                assert a[i][j][l] * sizes[l] == \
                    a[inverse_class[i]][l][j] * sizes[j]


def test_split_reads_pivot_rows_only(monkeypatch):
    lookups = []
    column_ = chartab._class_column

    def counting_column(classes, i, l):
        lookups.append(classes.sizes[i])
        return column_(classes, i, l)

    monkeypatch.setattr(chartab, "_class_column", counting_column)
    # building each matrix in full until the split took 194 866 class-
    # element lookups on A8 and 40 250 on M11; probing the pivot rows
    # before each full build took 93 334 on A8, 25 640 on M11 and 1 865
    # on PSU(4,2)
    for group_id, max_lookups in (("A8", 40214), ("M11", 11690),
                                  ("PSU42", 1055)):
        lookups.clear()
        source = catalog.load(group_id)
        character_table(PermGroup(source.degree, source.generators))
        assert sum(lookups) <= max_lookups, group_id


@pytest.mark.parametrize("group_id", ["PSL27", "M11"])
def test_perturbed_restricted_entry_is_caught(monkeypatch, group_id):
    # add |C_j| to one diagonal entry of one restricted matrix: pivot row
    # j of matrix i is read as column j of matrix i', whose entry at l = j
    # is a_i'jj = a_ijj, so adding |C_j| there adds |C_j|, not 0 mod p
    column_ = chartab._class_column
    source = catalog.load(group_id)
    reads = []
    target = None

    def perturbing_column(classes, i, l):
        column = column_(classes, i, l)
        if len(reads) == target:
            column[l] = column.get(l, 0) + classes.sizes[l]
        reads.append(l)
        return column

    monkeypatch.setattr(chartab, "_class_column", perturbing_column)
    character_table(PermGroup(source.degree, source.generators))
    escaped = []
    for target in range(len(reads)):
        reads.clear()
        try:
            character_table(PermGroup(source.degree, source.generators))
        except IntegrityError:
            continue
        escaped.append(target)
    assert escaped == []
    assert target == {"PSL27": 7, "M11": 23}[group_id]


def test_repeated_row_fails_orthogonality(monkeypatch):
    # PSL(2,7)'s two characters of degree 3 have the same degree and norm,
    # so a split that found one of them twice would pass every other check
    spaces_seen = []
    table_from_spaces = chartab._table_from_spaces

    def capture(group, spaces, p):
        spaces_seen.append((spaces, p))
        return table_from_spaces(group, spaces, p)

    monkeypatch.setattr(chartab, "_table_from_spaces", capture)
    source = catalog.load("PSL27")
    group = PermGroup(source.degree, source.generators)
    character_table(group)
    (spaces, p), = spaces_seen
    for a in range(len(spaces)):
        for b in range(len(spaces)):
            if a != b:
                repeated = spaces[:b] + [spaces[a]] + spaces[b + 1:]
                with pytest.raises(IntegrityError, match="orthogonality"):
                    table_from_spaces(group, repeated, p)


# -- inner products


def test_inner_product_orthonormality():
    table = character_table(a5())
    chi = table.irreducibles[3]
    assert inner_product(chi, chi) == ONE


def regular_character(group):
    values = [Cyclotomic.from_rational(group.order)]
    values += [ZERO] * (len(group.conjugacy_classes()) - 1)
    return Character(group, values)


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


def test_induce_matches_pointwise_formula(monkeypatch):
    # every subgroup class of A5 and PSL(2,7), U = G included, and the
    # trivial group of degree 1; the pointwise path reads no fusion
    psl27 = catalog.load("PSL27")
    trivial = PermGroup.trivial()
    cases = [(group, sub, phi)
             for group in (a5(), psl27, trivial)
             for sub in group.subgroups_up_to_conjugacy()
             for phi in character_table(sub).irreducibles]
    expected = [induce(phi, group) for group, _, phi in cases]
    monkeypatch.setattr(chartab, "class_fusion", None)
    monkeypatch.setattr(chartab, "induce", None)
    assert [induce_pointwise(phi, group) for group, _, phi in cases] == \
        expected
    assert {sub.order for group, sub, _ in cases if group is psl27} == \
        {1, 2, 3, 4, 6, 7, 8, 12, 21, 24, 168}


def test_induce_pointwise_checks_the_transversal():
    # U's element list without the identity: the least element of tU
    # then depends on which t of the coset is at hand, so the walk splits
    # cosets and the transversal is too long for |T| |U| = |G|
    sub = a4_in_a5()
    phi = character_table(sub).irreducibles[0]
    assert sub.elements()[0] == (0, 1, 2, 3, 4)
    sub._cache["elements"] = sub.elements()[1:]
    with pytest.raises(IntegrityError, match="transversal"):
        induce_pointwise(phi, a5())


def test_induce_pointwise_leaves_the_group_unsorted():
    parent, sub, _ = catalog.load_subgroup("PSU42_U160")
    group = PermGroup(parent.degree, parent.generators)
    for phi in character_table(sub).irreducibles:
        assert induce_pointwise(phi, group) == induce(phi, group)
    assert "elements" not in group._cache


def test_table_never_sorts_the_group(monkeypatch):
    source = catalog.load("A8")
    group = PermGroup(source.degree, source.generators)

    def forbidden(*args):
        raise AssertionError("the table sorted G or called _conjugate")

    monkeypatch.setattr(PermGroup, "elements", forbidden)
    monkeypatch.setattr(perm, "_conjugate", forbidden)
    assert max(character_table(group).degrees) == 70
    assert "elements" not in group._cache


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
    for phi in sub_table.irreducibles:
        for chi in big_table.irreducibles:
            lhs = inner_product(induce(phi, group), chi)
            rhs = inner_product(phi, restrict(chi, sub))
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
        n_classes = normal.conjugacy_classes()
        invariant = []
        elems = [Permutation(t) for t in group.elements()]
        for chi in n_table.irreducibles:
            stable = True
            for g in elems:
                moved = [chi.values[n_classes.class_of(
                             rep.conjugated_by(g).images)]
                         for rep in n_classes.representatives]
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
    assert kernel(trivial_character(group)).order == group.order
    chi3 = table.by_degree(3)[0]
    assert kernel(chi3).order == 1


def test_kernel_of_lifted_sign_character():
    group = s4()
    table = character_table(group)
    sign = next(chi for chi in table.by_degree(1)
                if chi != trivial_character(group))
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
