from collections import Counter

import pytest

from qsikit.chartab import character_table
from qsikit.perm import Permutation, _compose
from qsikit.smallgroups import (
    GROUP_COUNTS,
    abelian,
    all_groups,
    cyclic,
    dicyclic,
    dihedral,
    semidirect_cyclic,
    sl23,
)


@pytest.fixture(scope="module")
def groups():
    return all_groups(24)


def test_counts_match_classification(groups):
    counts = Counter(g.order for _, g in groups)
    for n in range(1, 25):
        assert counts[n] == GROUP_COUNTS[n - 1], f"order {n}"


def centre_order(group):
    gens = [g.images for g in group.generators]
    return sum(1 for e in group.elements()
               if all(_compose(e, g) == _compose(g, e) for g in gens))


def _fingerprint(group):
    classes = group.conjugacy_classes()
    order_profile = Counter()
    for size, order in zip(classes.sizes, classes.rep_orders):
        order_profile[order] += size
    derived = group.derived_subgroup()
    abelianization = group.quotient(derived)
    ab_profile = Counter(Permutation(t).order()
                         for t in abelianization.elements())
    degrees = character_table(group).degrees
    return (group.order,
            tuple(sorted(order_profile.items())),
            tuple(sorted(classes.sizes)),
            tuple(sorted(degrees)),
            derived.order,
            centre_order(group),
            tuple(sorted(ab_profile.items())))


def test_pairwise_distinguishable(groups):
    seen = {}
    for name, group in groups:
        fp = _fingerprint(group)
        assert fp not in seen, f"{name} vs {seen[fp]}"
        seen[fp] = name


def test_specific_constructions():
    assert cyclic(1).order == 1
    assert cyclic(12).order == 12
    assert abelian([4, 2]).order == 8 and abelian([4, 2]).is_abelian()
    assert dihedral(4).order == 8 and not dihedral(4).is_abelian()
    q8 = dicyclic(2)
    assert q8.order == 8
    # quaternions: a unique involution
    assert sum(1 for t in q8.elements()
               if Permutation(t).order() == 2) == 1
    q16 = dicyclic(4)
    assert q16.order == 16
    assert sum(1 for t in q16.elements()
               if Permutation(t).order() == 2) == 1


def test_semidirect_construction():
    f20 = semidirect_cyclic(5, 4, 2)
    assert f20.order == 20
    assert not f20.is_abelian()
    assert f20.is_solvable()
    frobenius21 = semidirect_cyclic(7, 3, 2)
    assert frobenius21.order == 21
    from qsikit.errors import DomainError

    with pytest.raises(DomainError):
        semidirect_cyclic(5, 2, 2)  # 2^2 = 4 is not 1 mod 5


def test_sl23_structure():
    group = sl23()
    assert group.order == 24
    assert group.is_solvable()
    # unique involution and no subgroup of index 2
    assert sum(1 for t in group.elements()
               if Permutation(t).order() == 2) == 1
    assert character_table(group).degrees == (1, 1, 1, 2, 2, 2, 3)


def test_all_orders_correct(groups):
    for name, group in groups:
        table = character_table(group)
        assert sum(d * d for d in table.degrees) == group.order, name
