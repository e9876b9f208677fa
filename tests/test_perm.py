import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from qsikit.errors import (
    CapacityError,
    DomainError,
    IntegrityError,
    MalformedInputError,
)
from qsikit.perm import (
    ELEMENT_ENUMERATION_BOUND,
    DistinctSubgroups,
    PermGroup,
    Permutation,
    _OrderCapExceeded,
    _compose,
    _conjugate,
    _invert,
    format_generator_file,
    parse_cycle_string,
    parse_generator_file,
)


def closure_order(generators, degree=None, bound=ELEMENT_ENUMERATION_BOUND):
    """Group order by plain multiplicative closure; an independent check
    against the BSGS order."""
    gens = [g.images if isinstance(g, Permutation) else tuple(g)
            for g in generators]
    if degree is None:
        if not gens:
            raise MalformedInputError("degree required for empty generators")
        degree = len(gens[0])
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = _compose(x, g)
            if y not in seen:
                if len(seen) >= bound:
                    raise CapacityError(
                        f"closure exceeded the enumeration bound {bound}",
                        bound=bound)
                seen.add(y)
                frontier.append(y)
    return len(seen)


def cyc(n, *cycles):
    return Permutation.from_cycles(n, list(cycles))


def a5():
    return PermGroup.from_generators([cyc(5, [0, 1, 2]),
                                      cyc(5, [0, 1, 2, 3, 4])])


def s4():
    return PermGroup.from_generators([cyc(4, [0, 1, 2, 3]), cyc(4, [0, 1])])


def m11():
    return PermGroup.from_generators([cyc(11, list(range(11))),
                          cyc(11, [2, 6, 10, 7], [3, 9, 4, 5])])


def a5_high():
    """A5 on the points 295..299 of 300, past what bytes can index."""
    return PermGroup(300, [cyc(300, [295, 296, 297]),
                           cyc(300, [295, 296, 297, 298, 299])])


# -- permutations


def test_composition_convention():
    p = cyc(3, [0, 1])
    q = cyc(3, [1, 2])
    assert (p * q)(0) == q(p(0)) == 2


def test_inverse_and_identity():
    p = cyc(6, [0, 3, 1], [2, 5])
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()
    assert p ** 0 == Permutation.identity(6)
    assert p ** -1 == p.inverse()


def test_associativity_spot_check():
    perms = [cyc(5, [0, 1, 2]), cyc(5, [1, 4]), cyc(5, [0, 3], [1, 2])]
    for a, b, c in itertools.product(perms, repeat=3):
        assert (a * b) * c == a * (b * c)


# the permutation kernel against the plain formulas, on image tuples


def reference_compose(p, q):
    return tuple(q[i] for i in p)


def reference_invert(p):
    return tuple(sorted(range(len(p)), key=p.__getitem__))


def reference_power(p, k):
    step = p if k >= 0 else reference_invert(p)
    result = tuple(range(len(p)))
    for _ in range(abs(k)):
        result = reference_compose(result, step)
    return result


def reference_closure(gens, n):
    elements = {tuple(range(n))}
    frontier = list(elements)
    while frontier:
        found = []
        for x in frontier:
            for g in gens:
                y = reference_compose(x, g)
                if y not in elements:
                    elements.add(y)
                    found.append(y)
        frontier = found
    return elements


def random_images(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


def test_kernel_matches_reference_formulas():
    rng = random.Random(20261018)
    for n in range(1, 31):  # degree 1 makes itemgetter return a bare item
        for _ in range(10):
            p, q, t = (random_images(rng, n) for _ in range(3))
            assert _compose(p, q) == reference_compose(p, q)
            assert _invert(p) == reference_invert(p)
            assert _conjugate(t, p) == reference_compose(
                reference_compose(reference_invert(p), t), p)
            assert (Permutation(p) * Permutation(q)).images == \
                reference_compose(p, q)
            k = rng.randrange(-30, 31)
            assert (Permutation(p) ** k).images == reference_power(p, k)
            # membership: every permutation in small degrees, else the
            # cyclic group <p> and q
            gens = [p, t] if n <= 6 else [p]
            closure = reference_closure(gens, n)
            group = PermGroup(n, gens)
            assert group.order == len(closure)
            candidates = (itertools.permutations(range(n)) if n <= 6
                          else [q, *closure])
            for x in candidates:
                assert group.contains_tuple(x) == (x in closure)


def test_order_and_cycles():
    p = cyc(7, [0, 1, 2], [3, 4])
    assert p.order() == 6
    assert p.cycle_string() == "(1,2,3)(4,5)"
    assert Permutation.identity(4).cycle_string() == "()"


def test_not_a_permutation():
    with pytest.raises(MalformedInputError):
        Permutation([0, 0, 1])
    with pytest.raises(MalformedInputError):
        Permutation([0, 2])


def test_cycle_parsing_round_trip():
    p = parse_cycle_string("(1,2,3)(4,5)", 7)
    assert p == cyc(7, [0, 1, 2], [3, 4])
    assert parse_cycle_string("()", 3).is_identity()
    assert parse_cycle_string(p.cycle_string(), 7) == p
    with pytest.raises(MalformedInputError):
        parse_cycle_string("(1,8)", 7)
    with pytest.raises(MalformedInputError):
        parse_cycle_string("(1,1,2)", 7)


def test_generator_file_format():
    text = """
# sample file
degree 5

(1,2,3)   # alternating 3-cycle
(1,2,3,4,5)
"""
    degree, gens = parse_generator_file(text)
    assert degree == 5
    assert PermGroup.from_generators(gens).order == 60
    round_trip = format_generator_file(PermGroup.from_generators(gens))
    degree2, gens2 = parse_generator_file(round_trip)
    assert degree2 == 5
    assert gens2 == list(PermGroup.from_generators(gens).generators)
    with pytest.raises(MalformedInputError):
        parse_generator_file("(1,2)\n")


# -- schreier-sims and membership


def test_a5_order_and_membership():
    group = a5()
    assert group.order == 60
    assert cyc(5, [0, 1], [2, 3]) in group
    assert cyc(5, [0, 1]) not in group  # odd permutation


def test_trivial_and_empty_generators():
    trivial = PermGroup.trivial(4)
    assert trivial.order == 1
    assert trivial.degree == 4
    assert PermGroup(4, []).order == 1
    with pytest.raises(MalformedInputError):
        PermGroup.from_generators([])


def test_inconsistent_degrees():
    with pytest.raises(MalformedInputError):
        PermGroup.from_generators([cyc(4, [0, 1]), cyc(5, [0, 1])])


def test_m11_order_vs_exhaustive_closure():
    group = m11()
    assert group.order == 7920
    assert closure_order(group.generators) == 7920


def test_closure_order_matches_for_catalog_sizes():
    for group in (s4(), a5()):
        assert closure_order(group.generators) == group.order


def test_bounded_construction():
    gens = [cyc(5, [0, 1, 2]), cyc(5, [0, 1, 2, 3, 4])]
    assert PermGroup.from_generators_bounded(gens, 5, 59) is None
    bounded = PermGroup.from_generators_bounded(gens, 5, 60)
    assert bounded is not None and bounded.order == 60


def test_bounded_construction_rejects_a_wrong_degree():
    # the degree is checked before the build, whatever the cap
    with pytest.raises(MalformedInputError):
        PermGroup.from_generators_bounded([cyc(6, [4, 5])], 5, 100)
    with pytest.raises(MalformedInputError):
        PermGroup.from_generators_bounded([cyc(6, list(range(6)))], 5, 1)
    # also where the certificate alone would already answer None
    with pytest.raises(MalformedInputError):
        PermGroup.from_generators_bounded([cyc(6, [4, 5])], 5, 0)
    with pytest.raises(MalformedInputError):
        PermGroup.from_generators_bounded([(0, 0, 1)], 3, 0)


def test_bounded_construction_matches_the_full_build():
    # None exactly when the full build's order exceeds the cap, otherwise
    # the full build's group, generator for generator; the certificate
    # never claims more than the true order, and it answers for almost
    # every pair that generates PSU(4,2). Inputs: 300 seeded PSU(4,2)
    # pairs, 50 pairs each from M11 and A7, and each of the 30 random
    # small groups with its own generators and with 5 of its pairs.
    from qsikit import catalog
    from qsikit.perm import _order_lower_bound

    rng = random.Random(20261018)
    cases = []
    for name, count in (("PSU42", 300), ("M11", 50), ("A7", 50)):
        group = catalog.load(name)
        cases += [(group, [group.random_element(rng) for _ in range(2)])
                  for _ in range(count)]
    for group in random_small_groups():
        cases.append((group, list(group.generators)))
        cases += [(group, [group.random_element(rng) for _ in range(2)])
                  for _ in range(5)]
    whole = certified = 0
    for group, gens in cases:
        full = PermGroup(group.degree, gens)
        for cap in (full.order - 1, full.order, group.order // 2):
            bounded = PermGroup.from_generators_bounded(gens, group.degree,
                                                        cap)
            if full.order > cap:
                assert bounded is None
            else:
                assert bounded is not None and bounded.order == full.order
                assert [g.images for g in bounded.generators] == \
                    [g.images for g in full.generators]
                assert [level.beta for level in bounded._levels] == \
                    [level.beta for level in full._levels]
        images = [g.images for g in full.generators]
        assert _order_lower_bound(group.degree, images,
                                  full.order) <= full.order
        if group.degree == 27 and full.order == group.order:
            whole += 1
            certified += _order_lower_bound(group.degree, images,
                                            group.order // 2) \
                > group.order // 2
    assert whole > 200 and certified >= whole - 3


def test_bounded_construction_edge_cases():
    # degree 1, no generators, identity-only generators
    cases = (([Permutation.identity(1)], 1), ([], 1),
             ([Permutation.identity(5)] * 2, 5))
    for gens, degree in cases:
        assert PermGroup.from_generators_bounded(gens, degree, 0) is None
        for cap in (1, 2):
            trivial = PermGroup.from_generators_bounded(gens, degree, cap)
            assert trivial.order == 1 and trivial.generators == ()


def test_distinct_subgroups_build_each_subgroup_once():
    # every answer is from_generators_bounded's, except that a subgroup
    # returned before is False; pairs from M11, A5 on points 295..299 of
    # 300 (points past a byte) and the 30 random small groups
    from qsikit import catalog

    rng = random.Random(20261019)
    for group in [catalog.load("M11"), a5_high()] + random_small_groups():
        cap = group.order // 2
        subgroups = DistinctSubgroups(group.degree, cap)
        built = []
        for _ in range(40):
            gens = [group.random_element(rng) for _ in range(2)]
            expected = PermGroup.from_generators_bounded(gens, group.degree,
                                                         cap)
            answer = subgroups.generated(gens)
            if expected is None:
                assert answer is None
                continue
            earlier = [b for b in built if b.order == expected.order
                       and b.is_subgroup_of(expected)]
            if answer is False:
                assert len(earlier) == 1
                continue
            assert earlier == []
            assert answer.order == expected.order
            assert [level.beta for level in answer._levels] == \
                [level.beta for level in expected._levels]
            built.append(answer)


def test_distinct_subgroups_edge_cases(monkeypatch):
    from qsikit import perm

    subgroups = DistinctSubgroups(5, 30)
    identity = Permutation.identity(5)
    assert subgroups.generated([identity, identity]).order == 1
    assert subgroups.generated([identity]) is False
    assert subgroups.generated([]) is False
    three = [cyc(5, [0, 1, 2])]
    assert subgroups.generated(three).order == 3
    assert subgroups.generated([cyc(5, [0, 2, 1]), identity]) is False
    assert subgroups.generated([cyc(5, [0, 1, 2, 3, 4])] + three) is None
    # a bound below the order: the build runs, then finds the subgroup
    monkeypatch.setattr(perm, "_order_lower_bound", lambda *args: 1)
    assert subgroups.generated(three) is False
    assert subgroups.generated([cyc(5, [0, 1], [2, 3])]).order == 2


def test_elements_and_random_elements(monkeypatch):
    import random

    group = s4()
    elems = group.elements()
    assert len(elems) == 24 == len(set(elems))
    rng = random.Random(3)
    samples = [group.random_element(rng) for _ in range(20)]
    assert all(g in group for g in samples)
    # products of the group's own transversal elements skip the check
    monkeypatch.setattr(Permutation, "__init__", None)
    rng = random.Random(3)
    unchecked = [group.random_element(rng) for _ in range(20)]
    assert all(isinstance(g, Permutation) for g in unchecked)
    assert [g.images for g in unchecked] == [g.images for g in samples]


# -- conjugacy classes


def brute_classes(group):
    elems = [Permutation(t) for t in group.elements()]
    classes = []
    seen = set()
    for x in elems:
        if x.images in seen:
            continue
        cls = {x.conjugated_by(g).images for g in elems}
        seen |= cls
        classes.append(cls)
    return sorted(len(c) for c in classes)


def test_s4_classes_against_brute_force():
    group = s4()
    classes = group.conjugacy_classes()
    assert sorted(classes.sizes) == brute_classes(group) == [1, 3, 6, 6, 8]


def test_a5_classes_against_brute_force():
    group = a5()
    classes = group.conjugacy_classes()
    assert sorted(classes.sizes) == brute_classes(group) == [1, 12, 12, 15, 20]
    assert sum(classes.sizes) == 60
    assert all(60 % size == 0 for size in classes.sizes)


def test_class_determinism_under_generator_order():
    g1 = PermGroup.from_generators([cyc(5, [0, 1, 2]),
                                    cyc(5, [0, 1, 2, 3, 4])])
    g2 = PermGroup.from_generators([cyc(5, [0, 1, 2, 3, 4]),
                                    cyc(5, [0, 1, 2])])
    c1 = g1.conjugacy_classes()
    c2 = g2.conjugacy_classes()
    assert [r.images for r in c1.representatives] == \
        [r.images for r in c2.representatives]


def reference_conjugacy_classes(group):
    """Classes by the former method: sort G, then walk it, closing each
    unassigned element's class under ``_conjugate`` by the generators;
    the first member found is then the lex-min representative. Returns
    the sorted classes, each sorted, and the element-to-class map, on
    image tuples."""
    elems = group.elements()
    gen_images = [g.images for g in group.generators]
    assigned = {}
    raw_classes = []
    for e in elems:
        if e in assigned:
            continue
        index = len(raw_classes)
        members = [e]
        assigned[e] = index
        frontier = [e]
        while frontier:
            x = frontier.pop()
            for g in gen_images:
                y = _conjugate(x, g)
                if y not in assigned:
                    assigned[y] = index
                    members.append(y)
                    frontier.append(y)
        raw_classes.append(members)

    def sort_key(members):
        rep = members[0]
        return (Permutation(rep).order(), len(members), rep)

    raw_classes.sort(key=sort_key)
    element_to_class = {}
    class_elements = []
    for index, members in enumerate(raw_classes):
        class_elements.append(tuple(sorted(members)))
        for e in members:
            element_to_class[e] = index
    return tuple(class_elements), element_to_class


def uncached(group):
    """A copy of group with nothing cached."""
    return PermGroup(group.degree, group.generators)


def test_classes_match_reference():
    from qsikit import catalog

    groups = [catalog.load(group_id)
              for group_id in ("A5", "S4", "SL23", "PSL27", "A6", "PSL211",
                               "A7", "M11", "A8", "PSU42")]
    for group in groups + [a5_high()] + random_small_groups():
        unsorted = uncached(group)
        sorted_first = uncached(group)
        sorted_first.elements()
        class_elements, element_to_class = \
            reference_conjugacy_classes(sorted_first)
        # with and without the sorted elements() cached
        for classes in (unsorted.conjugacy_classes(),
                        sorted_first.conjugacy_classes()):
            assert [r.images for r in classes.representatives] == \
                [members[0] for members in class_elements]
            assert classes.sizes == tuple(map(len, class_elements))
            # keys read as image tuples
            assert tuple(tuple(map(classes.form.images, members))
                         for members in classes.class_elements) == \
                class_elements
            assert all(classes.class_of(e) == c
                       for e, c in element_to_class.items())
        assert "elements" not in unsorted._cache


def break_walk(monkeypatch, group, edit):
    """Make edit(elements, form) the walk of group in every form, the
    keys conjugacy_classes reads among them."""
    walk = group._transversal_product
    monkeypatch.setattr(group, "_transversal_product",
                        lambda form: edit(list(walk(form)), form))


def test_classes_reject_an_enumeration_with_a_repeat(monkeypatch):
    group = uncached(m11())
    # every other element stays, so each class is still reached
    break_walk(monkeypatch, group, lambda elems, form: elems[:-1] + elems[:1])
    with pytest.raises(IntegrityError):
        group.conjugacy_classes()


def test_classes_reject_an_enumeration_that_drops_an_element(monkeypatch):
    group = uncached(m11())

    def drop(elems, form):
        # the dropped element's class is still reached from its other
        # members
        dropped = next(e for e in elems
                       if Permutation(form.images(e)).order() == 11)
        return [e for e in elems if e != dropped]

    break_walk(monkeypatch, group, drop)
    with pytest.raises(IntegrityError):
        group.conjugacy_classes()


def test_classes_reject_an_enumeration_with_a_non_element(monkeypatch):
    group = uncached(a5())
    # an odd permutation, so none of its conjugates lies in A5 either
    outsider = cyc(5, [0, 1]).images
    assert outsider not in group
    break_walk(monkeypatch, group, lambda elems, form:
               elems[:30] + [form.key(outsider)] + elems[30:])
    with pytest.raises(IntegrityError):
        group.conjugacy_classes()


def test_classes_hold_the_group_once():
    """The traced peak while the classes are found is at most 1.25 times
    what the result retains: G is held once, as the keys of the class
    map, and never also as a list or a visited set."""
    from qsikit import catalog

    for group_id in ("A8", "M11", "PSU42"):
        group = uncached(catalog.load(group_id))
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            group.conjugacy_classes()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak - before <= 1.25 * (retained - before), group_id


def test_classes_retain_one_byte_per_point():
    """On at most 256 points an element's key is bytes(images), one byte
    per point: what the classes of an uncached group retain stays under
    a ceiling that eight-byte tuple keys exceed (PSU(4,2) 7.8 MiB, A8
    2.9 MiB)."""
    from qsikit import catalog

    for group_id, ceiling_mib in (("PSU42", 4), ("A8", 2)):
        group = uncached(catalog.load(group_id))
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            group.conjugacy_classes()  # kept in the group's cache
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert retained <= ceiling_mib * 2**20, group_id


def test_identity_class_first():
    for group in (s4(), a5(), PermGroup.trivial(3)):
        classes = group.conjugacy_classes()
        assert classes.representatives[0].is_identity()
        assert classes.sizes[0] == 1


def test_element_orders():
    assert a5().element_orders_present() == {1, 2, 3, 5}
    assert PermGroup.trivial(2).element_orders_present() == {1}
    orders = m11().element_orders_present()
    assert 8 in orders and 11 in orders


def test_capacity_error_names_bound():
    group = a5()
    with pytest.raises(CapacityError) as err:
        group.conjugacy_classes(bound=10)
    assert "10" in str(err.value)


# -- solvability


def test_solvability():
    assert s4().is_solvable()
    assert not a5().is_solvable()
    assert PermGroup.trivial(1).is_solvable()
    assert not m11().is_solvable()


def brute_commutator_closure(group):
    """Derived subgroup by closing the full set of commutators."""
    elems = [Permutation(t) for t in group.elements()]
    comms = {(~a * ~b * a * b).images for a in elems for b in elems}
    return closure_order([c for c in comms], group.degree)


def test_derived_subgroup_vs_brute_force():
    for group in (s4(), a5(),
                  PermGroup.from_generators([cyc(4, [0, 1, 2, 3])]),
                  PermGroup.from_generators([cyc(6, [0, 1, 2], [3, 4, 5]),
                                             cyc(6, [0, 3], [1, 4],
                                                 [2, 5])])):
        assert group.derived_subgroup().order == \
            brute_commutator_closure(group)


def test_solvability_vs_brute_force_up_to_500():
    # derived series of the engine vs repeated brute commutator closure
    from qsikit import catalog

    def brute_solvable(group):
        current = group
        while True:
            derived_order = brute_commutator_closure(current)
            if derived_order == current.order:
                return current.order == 1
            elems = [Permutation(t) for t in current.elements()]
            sub = PermGroup(group.degree, [])
            for a in elems:
                for b in elems:
                    c = ~a * ~b * a * b
                    if not sub.contains_tuple(c.images):
                        sub = PermGroup(group.degree,
                                        sub.generators + (c,))
            current = sub

    targets = [s4(), a5(), catalog.load("PSL27"), catalog.load("A6"),
               PermGroup.from_generators([cyc(8, list(range(8))),
                                          cyc(8, [1, 7], [2, 6], [3, 5])])]
    for group in targets:
        assert group.order <= 500
        assert group.is_solvable() == brute_solvable(group)


def test_derived_series_strictly_decreasing():
    series = s4().derived_series()
    orders = [g.order for g in series]
    assert orders == [24, 12, 4, 1]


# -- quotients


def test_quotient_s4_by_v4():
    group = s4()
    v4 = PermGroup(4, [cyc(4, [0, 1], [2, 3]), cyc(4, [0, 2], [1, 3])])
    quotient = group.quotient(v4)
    assert quotient.order == 6
    assert not quotient.is_abelian()


def test_quotient_edge_cases():
    group = s4()
    assert group.quotient(group).order == 1
    assert group.quotient(PermGroup(4, [])).order == 24


def test_quotient_requires_normal():
    group = s4()
    c2 = PermGroup(4, [cyc(4, [0, 1])])
    with pytest.raises(DomainError):
        group.quotient(c2)


def test_quotient_order_always_index():
    group = a5()
    for sub in group.subgroups_up_to_conjugacy():
        if group.is_normal(sub):
            assert group.quotient(sub).order * sub.order == group.order


# -- subgroup enumeration


def brute_all_subgroups(group):
    """Every subgroup, by closing all joins of cyclic subgroups."""
    elems = [Permutation(t) for t in group.elements()]
    subgroups = {tuple(sorted(
        PermGroup.from_generators([e], group.degree).elements()))
                 for e in elems}
    subgroups.add(tuple([Permutation.identity(group.degree).images]))
    changed = True
    while changed:
        changed = False
        current = list(subgroups)
        for i, a in enumerate(current):
            for b in current[i + 1:]:
                gens = [Permutation(t) for t in a] + \
                    [Permutation(t) for t in b]
                joined = tuple(sorted(
                    PermGroup.from_generators(gens, group.degree).elements()))
                if joined not in subgroups:
                    subgroups.add(joined)
                    changed = True
    return subgroups


@pytest.mark.parametrize("builder,expected_orders", [
    (lambda: PermGroup.from_generators([cyc(3, [0, 1, 2]), cyc(3, [0, 1])]),
     [1, 2, 3, 6]),
    (lambda: PermGroup.from_generators([cyc(4, [0, 1, 2, 3])]), [1, 2, 4]),
    (a5, [1, 2, 3, 4, 5, 6, 10, 12, 60]),
])
def test_subgroup_classes(builder, expected_orders):
    group = builder()
    subs = group.subgroups_up_to_conjugacy()
    assert [s.order for s in subs] == expected_orders


def test_subgroup_class_count_vs_brute_force():
    # sum of normalizer indices over classes counts all subgroups
    small_random = [g for g in random_small_groups() if 6 <= g.order <= 24]
    for group in (s4(),
                  PermGroup.from_generators([cyc(4, [0, 1, 2, 3]),
                                             cyc(4, [1, 3])]),
                  a5(), *small_random):
        all_subs = brute_all_subgroups(group)
        classes = group.subgroups_up_to_conjugacy()
        total = sum(group.order // group.normalizer(sub).order
                    for sub in classes)
        assert total == len(all_subs)


def reference_subgroups_up_to_conjugacy(group):
    """The lattice by adjoining every element to every representative,
    with no order cap and no double-coset pruning, and a conjugacy test
    that sifts each conjugated generator."""
    def conjugate(a, b):
        if a.order != b.order:
            return False
        return any(all(b.contains_tuple(_compose(_compose(_invert(e),
                                                          g.images), e))
                       for g in a.generators)
                   for e in group.elements())

    def candidates(base):
        for e in group.elements():
            if not base.contains_tuple(e):
                yield base._with(Permutation(e))

    return cyclic_extension(group, candidates, conjugate)


def double_coset_subgroups_up_to_conjugacy(group):
    """The lattice as the library built it before it used N_G(U): one
    candidate per double coset UeU, capped at |G|/2, with UeU marked by
    closing {e} under U's generators on both sides."""
    cap = group.order // 2

    def candidates(base):
        gens = [g.images for g in base.generators]
        seen = set(base.elements())
        for e in group.elements():
            if e in seen:
                continue
            seen.add(e)
            frontier = [e]
            while frontier:
                x = frontier.pop()
                for g in gens:
                    for y in (_compose(g, x), _compose(x, g)):
                        if y not in seen:
                            seen.add(y)
                            frontier.append(y)
            try:
                yield base._with(Permutation(e), _order_cap=cap)
            except _OrderCapExceeded:
                pass

    return cyclic_extension(group, candidates, group._subgroups_conjugate)


def cyclic_extension(group, candidates, conjugate):
    """Representatives in the library's order: seed with the trivial and
    the cyclic subgroups of class representatives, then register
    candidates(U) for each representative U in turn, keeping a proper
    subgroup unless it is conjugate to one with its class profile."""
    found = []
    by_profile = {}

    def register(sub):
        if sub.order == group.order:
            return None
        profile = group.class_intersection_profile(sub)
        if any(conjugate(found[i], sub) for i in by_profile.get(profile, ())):
            return None
        by_profile.setdefault(profile, []).append(len(found))
        found.append(sub)
        return len(found) - 1

    seeds = [PermGroup(group.degree, [])] + [
        PermGroup(group.degree, [rep])
        for rep in group.conjugacy_classes().representatives]
    queue = [i for i in map(register, seeds) if i is not None]
    while queue:
        for sub in candidates(found[queue.pop(0)]):
            idx = register(sub)
            if idx is not None:
                queue.append(idx)
    result = found + [group]
    result.sort(key=lambda sub: (sub.order,
                                 group.class_intersection_profile(sub)
                                 if sub.order < group.order else (0,)))
    return result


def lattice_signature(subgroups):
    return [(sub.order, [g.images for g in sub.generators])
            for sub in subgroups]


def test_lattice_pruning_matches_reference():
    # same representatives, with the same generators, in the same order
    from qsikit import catalog

    groups = [a5(), s4(), catalog.load("PSL27"), *random_small_groups()]
    for group in groups:
        assert lattice_signature(group.subgroups_up_to_conjugacy()) == \
            lattice_signature(reference_subgroups_up_to_conjugacy(group))


def test_normalizer_orbits_match_double_coset_pruning():
    # one candidate per N_G(U)-orbit registers what one per double coset
    # did: the same representatives, generators and order
    from qsikit import catalog

    groups = [catalog.load(name) for name in ("A6", "PSL211", "A7")]
    for group in groups + random_small_groups():
        assert lattice_signature(group.subgroups_up_to_conjugacy()) == \
            lattice_signature(double_coset_subgroups_up_to_conjugacy(group))


def test_lattice_candidate_builds(monkeypatch):
    from qsikit import catalog

    bases = []
    with_ = PermGroup._with

    def counting_with(self, *perms, _order_cap=None):
        if _order_cap is not None:
            bases.append(self.order)
        return with_(self, *perms, _order_cap=_order_cap)

    monkeypatch.setattr(PermGroup, "_with", counting_with)
    # ceilings: the builds made with one candidate per N_G(U)-orbit of
    # double cosets (one per double coset made 93, 291 and 5004)
    for name, ceiling in (("A5", 28), ("PSL27", 71), ("A7", 763)):
        source = catalog.load(name)
        group = PermGroup(source.degree, source.generators)
        bases.clear()
        group.subgroups_up_to_conjugacy()
        assert len(bases) <= ceiling
        # the trivial group is never a base: its candidates <e> are all
        # conjugate to the cyclic seeds
        assert bases.count(1) == 0


def test_lattice_walks_each_right_coset_once(monkeypatch):
    from qsikit import catalog, perm

    walks = []
    neighbours_ = perm._coset_neighbours

    def counting_neighbours(y, gens, conjugators):
        moves = neighbours_(y, gens, conjugators)
        walks.append(len(moves))
        return moves

    monkeypatch.setattr(perm, "_coset_neighbours", counting_neighbours)
    source = catalog.load("A7")
    group = PermGroup(source.degree, source.generators)
    lattice = group.subgroups_up_to_conjugacy()
    bases = [sub for sub in lattice if 1 < sub.order < group.order]
    assert len(bases) == 38
    # each base walks every right coset of U but U itself, once
    assert len(walks) == sum(group.order // sub.order - 1
                             for sub in bases) == 10461
    # one step per generator of N_G(U): U's and those N has beyond them
    assert sum(walks) <= sum(
        group.order // sub.order * len(group.normalizer(sub).generators)
        for sub in bases) == 33577


def counting_profiles(monkeypatch):
    """Patch class_intersection_profile to record each (group, subgroup)
    pair whose profile it computes, rather than reads from the
    subgroup's cache."""
    computed = []
    profile = PermGroup.class_intersection_profile

    def counting_profile(self, sub):
        if ("profile", self) not in sub._cache:
            computed.append((self, sub))
        return profile(self, sub)

    monkeypatch.setattr(PermGroup, "class_intersection_profile",
                        counting_profile)
    return computed


def test_profiles_are_kept_per_group(monkeypatch):
    # one V4 against two groups: each gets its own profile, computed once
    s4_ = s4()
    a4 = PermGroup(4, [cyc(4, [0, 1, 2]), cyc(4, [0, 1], [2, 3])])
    v4 = PermGroup(4, [cyc(4, [0, 1], [2, 3]), cyc(4, [0, 2], [1, 3])])
    computed = counting_profiles(monkeypatch)
    profiles = [group.class_intersection_profile(v4)
                for group in (s4_, a4, s4_, a4)]
    assert computed == [(s4_, v4), (a4, v4)]
    assert profiles[:2] == profiles[2:]
    for group, profile in zip((s4_, a4), profiles):
        classes = group.conjugacy_classes()
        assert profile == tuple(
            sum(1 for e in v4.elements() if classes.class_of(e) == c)
            for c in range(len(classes)))
    assert profiles[0] == (1, 3, 0, 0, 0) and profiles[1] == (1, 3, 0, 0)


def test_lattice_reuses_registered_profiles(monkeypatch):
    from qsikit import catalog

    built = []
    with_ = PermGroup._with

    def counting_with(self, *perms, _order_cap=None):
        result = with_(self, *perms, _order_cap=_order_cap)
        if _order_cap is not None:
            built.append(result.order)
        return result

    computed = counting_profiles(monkeypatch)
    monkeypatch.setattr(PermGroup, "_with", counting_with)
    for name in ("A5", "PSL27", "A7"):
        source = catalog.load(name)
        group = PermGroup(source.degree, source.generators)
        computed.clear()
        built.clear()
        group.subgroups_up_to_conjugacy()
        # one profile per cyclic seed (the identity's is the trivial
        # group) and per candidate built within the cap; the conjugacy
        # tests, the normalizers and the final sort read them back
        assert len(computed) == (len(group.conjugacy_classes())
                                 + len(built)), name


def test_normalizer_of_trivial_subgroup_is_the_group():
    group = a5()
    assert group.normalizer(PermGroup(group.degree, [])) is group


def test_class_profile_leaves_elements_uncached():
    group = a5()
    classes = group.conjugacy_classes()
    for sub in group.subgroups_up_to_conjugacy()[:-1]:
        fresh = PermGroup(sub.degree, sub.generators)
        profile = group.class_intersection_profile(fresh)
        assert "elements" not in fresh._cache
        assert profile == tuple(
            sum(1 for e in fresh.elements() if classes.class_of(e) == c)
            for c in range(len(classes)))


def test_s6_and_a7_subgroup_classes():
    from qsikit import catalog

    s6 = PermGroup.from_generators([cyc(6, list(range(6))), cyc(6, [0, 1])])
    assert len(s6.subgroups_up_to_conjugacy()) == 56
    assert len(catalog.load("A7").subgroups_up_to_conjugacy()) == 40


def reference_transporters(group, a, b):
    """The elements e of G with e^-1 a e <= b, by a scan over all of G."""
    b_elems = set(b.elements())
    return {e for e in group.elements()
            if all(_conjugate(g.images, e) in b_elems for g in a.generators)}


def test_transporters_match_a_scan_of_the_group():
    from qsikit import catalog

    rng = random.Random(20261019)
    for group in (a5(), catalog.load("PSL27"), *random_small_groups()):
        reps = group.subgroups_up_to_conjugacy()
        profiles = [group.class_intersection_profile(sub) for sub in reps]
        for i, a in enumerate(reps):
            g = group.random_element(rng)
            conjugate = PermGroup(a.degree, [s.conjugated_by(g)
                                             for s in a.generators])
            same_profile = [b for j, b in enumerate(reps)
                            if j != i and b.order == a.order
                            and profiles[j] == profiles[i]]
            for b in (a, conjugate, *same_profile):
                found = list(group._transporters(a, b))
                expected = reference_transporters(group, a, b)
                assert len(found) == len(set(found))
                assert set(found) == expected
                assert group._subgroups_conjugate(a, b) == bool(expected)
            assert group.normalizer(a).order == \
                len(reference_transporters(group, a, a))


def test_class_lookups_are_lazy_and_correct():
    from qsikit import catalog
    from qsikit.chartab import character_table

    def fresh(group_id):
        # the catalog's cached group may have built a lattice already
        source = catalog.load(group_id)
        return PermGroup(source.degree, source.generators)

    for group in (fresh("A5"), fresh("PSL27")):
        classes = group.conjugacy_classes()
        assert classes._conjugators is None and not classes._centralizers
        character_table(group)
        assert classes._conjugators is None and not classes._centralizers

    group = fresh("PSL27")
    classes = group.conjugacy_classes()
    for z in group.elements():
        rep = classes.representatives[classes.class_of(z)]
        assert _conjugate(rep.images, classes.conjugator(z)) == z
    for i, (rep, size) in enumerate(zip(classes.representatives,
                                        classes.sizes)):
        centralizer = classes.centralizer(i)
        assert len(centralizer) == group.order // size
        assert all(_conjugate(rep.images, s) == rep.images
                   for s in centralizer)


def test_subgroup_enumeration_capacity():
    with pytest.raises(CapacityError):
        a5().subgroups_up_to_conjugacy(max_order=30)


def test_point_stabilizer():
    group = m11()
    stab = group.point_stabilizer(0)
    assert stab.order == 720
    assert all(g(0) == 0 for g in stab.generators)


def random_short_permutation(rng, n):
    points = rng.sample(range(n), rng.randint(2, min(n, 4)))
    return cyc(n, points)


def random_group(rng):
    n = rng.randint(2, 8)
    return PermGroup(n, [random_short_permutation(rng, n)
                         for _ in range(rng.randint(1, 3))])


def random_small_groups(count=30, seed=20261017):
    """Seeded random groups of degree <= 6 and order <= 360, small enough
    for a brute-force lattice (S6 alone takes about 10 s there)."""
    import random

    rng = random.Random(seed)
    groups = []
    while len(groups) < count:
        n = rng.randint(2, 6)
        group = PermGroup(n, [random_short_permutation(rng, n)
                              for _ in range(rng.randint(1, 3))])
        if group.order <= 360:
            groups.append(group)
    return groups


def test_engine_against_closure_on_random_groups():
    import random

    rng = random.Random(20240611)
    for _ in range(60):
        group = random_group(rng)
        n = group.degree
        # growing the chain, building from scratch and brute closure
        x = random_short_permutation(rng, n)
        grown = group._with(x)
        assert grown.order == PermGroup(n, group.generators + (x,)).order
        assert grown.order == closure_order(group.generators + (x,), n)
        # normal closure of an element vs closure of all its conjugates
        y = group.random_element(rng)
        conjugates = {y.conjugated_by(Permutation(e))
                      for e in group.elements()}
        assert group.normal_closure([y]).order == \
            closure_order(conjugates, n)
        # orbit-stabilizer for every point
        for point in range(n):
            orbit = {e[point] for e in group.elements()}
            stabilizer = group.point_stabilizer(point)
            assert stabilizer.order * len(orbit) == group.order
            assert all(g(point) == point for g in stabilizer.generators)


# The base points and transversals of 400 seeded chains, recorded before
# the Schreier-Sims builder skipped the pairs it had already sifted. Any
# change to the order in which Schreier generators are sifted, or to which
# of them are, shows up here as a different transversal somewhere.
PINNED_CHAINS_SHA256 = ("aed948257268a76697f48716c6be2f2b"
                        "b1b94317a581cca4426c1e6f63f97212")


def random_transposition_product(rng, n):
    images = list(range(n))
    for _ in range(rng.randint(1, 3)):
        a, b = rng.randrange(n), rng.randrange(n)
        images[a], images[b] = images[b], images[a]
    return Permutation(images)


def test_bsgs_chains_are_pinned():
    rng = random.Random(20261020)
    chains = []
    for _ in range(200):
        n = rng.randint(2, 14)
        group = PermGroup(n, [random_transposition_product(rng, n)
                              for _ in range(rng.randint(1, 3))])
        # a chain continued from a built one, as the lattice grows them
        grown = group._with(random_transposition_product(rng, n))
        for g in (group, grown):
            chains.append([
                (level.beta, sorted((a, _invert(inverse))
                                    for a, inverse in level.inverses.items()))
                for level in g._levels])
    digest = hashlib.sha256(repr(chains).encode()).hexdigest()
    assert digest == PINNED_CHAINS_SHA256


def burnside_orbit_count(group):
    """Number of orbits on points, by averaging fixed points over classes."""
    classes = group.conjugacy_classes()
    total = sum(size * rep.fixed_point_count()
                for rep, size in zip(classes.representatives, classes.sizes))
    value = Fraction(total, group.order)
    assert value.denominator == 1
    return int(value)


def test_burnside_orbit_count():
    assert burnside_orbit_count(a5()) == 1
    two_orbits = PermGroup.from_generators([cyc(5, [0, 1, 2])])
    assert burnside_orbit_count(two_orbits) == 3  # {0,1,2}, {3}, {4}


def test_is_simple():
    assert a5().is_simple()
    assert not s4().is_simple()
    # prime order
    assert PermGroup.from_generators([cyc(3, [0, 1, 2])]).is_simple()
    assert not PermGroup.trivial(2).is_simple()
