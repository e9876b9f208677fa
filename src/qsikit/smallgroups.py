"""Constructions of every group of order at most 24, up to isomorphism.

Abelian groups come from elementary divisor partitions. Non-abelian
groups are built from a handful of constructors (dihedral, dicyclic,
split metacyclic, direct products) plus a few explicit one-off
presentations realized as permutations or regular representations.
The completeness of the list (counts per order, pairwise
non-isomorphism) is asserted by the test suite.
"""

from __future__ import annotations

from .errors import DomainError
from .perm import PermGroup, Permutation
from .primes import prime_factors


def cyclic(n):
    if n == 1:
        return PermGroup.trivial(1)
    return PermGroup(n, [Permutation.from_cycles(n, [list(range(n))])])


def abelian(invariants):
    """Direct product of cyclic groups, one disjoint cycle per factor."""
    degree = sum(invariants)
    gens = []
    offset = 0
    for m in invariants:
        if m > 1:
            gens.append(Permutation.from_cycles(
                degree, [list(range(offset, offset + m))]))
        offset += m
    return PermGroup(max(degree, 1), gens)


def dihedral(n):
    """Dihedral group of order 2n, n >= 3."""
    if n < 3:
        raise DomainError("dihedral(n) needs n >= 3")
    rotation = Permutation.from_cycles(n, [list(range(n))])
    reflection = Permutation([(n - i) % n for i in range(n)])
    return PermGroup(n, [rotation, reflection])


def dicyclic(n):
    """Dicyclic group of order 4n (n >= 2), via its regular representation.

    Elements a^i b^e with a of order 2n, b^2 = a^n, b a b^-1 = a^-1.
    """
    if n < 2:
        raise DomainError("dicyclic(n) needs n >= 2")
    m = 2 * n
    elements = [(i, e) for e in range(2) for i in range(m)]

    def mult(x, y):
        i, e = x
        j, f = y
        if e == 0:
            return ((i + j) % m, f)
        if f == 0:
            return ((i - j) % m, 1)
        return ((i - j + n) % m, 0)

    return _regular(elements, mult, [(1, 0), (0, 1)])


def semidirect_cyclic(m, n, k):
    """Split metacyclic group C_m : C_n, with the C_n generator acting on
    C_m as multiplication by k (k^n = 1 mod m)."""
    if pow(k, n, m) != 1:
        raise DomainError(f"k={k} has no order dividing {n} modulo {m}")
    degree = m + n
    a = Permutation.from_cycles(degree, [list(range(m))])
    images = [(k * i) % m for i in range(m)]
    images += [m + ((i + 1) % n) for i in range(n)]
    b = Permutation(images)
    return PermGroup(degree, [a, b])


def direct_product(g, h):
    degree = g.degree + h.degree
    gens = [Permutation(tuple(p.images) + tuple(range(g.degree, degree)))
            for p in g.generators]
    gens += [Permutation(tuple(range(g.degree))
                         + tuple(i + g.degree for i in p.images))
             for p in h.generators]
    return PermGroup(degree, gens)


def _regular(elements, mult, generator_labels):
    """Right regular representation of (elements, mult)."""
    index = {e: i for i, e in enumerate(elements)}
    gens = [Permutation([index[mult(x, g)] for x in elements])
            for g in generator_labels]
    return PermGroup(len(elements), gens)


def alternating(n):
    cycle = list(range(n)) if n % 2 == 1 else list(range(1, n))
    return PermGroup(n, [Permutation.from_cycles(n, [[0, 1, 2]]),
                         Permutation.from_cycles(n, [cycle])])


def symmetric(n):
    return PermGroup(n, [Permutation.from_cycles(n, [list(range(n))]),
                         Permutation.from_cycles(n, [[0, 1]])])


def sl23():
    """SL(2,3) as Q8 : C3, the order-3 symmetry cycling i -> j -> k
    adjoined to the regular representation of the quaternions."""
    q8 = dicyclic(2)
    # labels in dicyclic order: (0,0)..(3,0),(0,1)..(3,1)
    sigma = Permutation([0, 4, 2, 6, 5, 1, 7, 3])
    return PermGroup(8, list(q8.generators) + [sigma])


def c4_semi_c4():
    """C4 : C4, the generator of one factor inverting the other."""
    a = Permutation.from_cycles(8, [[0, 1, 2, 3]])
    b = Permutation.from_cycles(8, [[1, 3], [4, 5, 6, 7]])
    return PermGroup(8, [a, b])


def c4xc2_semi_c2():
    """(C4 x C2) : C2 with the action a -> a*b, b -> b."""
    elements = [(i, j, k) for i in range(4) for j in range(2)
                for k in range(2)]

    def mult(x, y):
        i, j, k = x
        ii, jj, kk = y
        return ((i + ii) % 4, (j + jj + k * ii) % 2, (k + kk) % 2)

    return _regular(elements, mult, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def pauli16():
    """Central product C4 . (C2 x C2): two commuting-up-to-center
    involutions x, z with (xz)^2 generating the central C4's square."""
    elements = [(i, j, k) for i in range(2) for j in range(2)
                for k in range(4)]

    def mult(x, y):
        i, j, k = x
        ii, jj, kk = y
        return ((i + ii) % 2, (j + jj) % 2, (k + kk + 2 * j * ii) % 4)

    return _regular(elements, mult, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def generalized_dihedral_c3c3():
    """(C3 x C3) : C2 with inversion."""
    a = Permutation.from_cycles(6, [[0, 1, 2]])
    b = Permutation.from_cycles(6, [[3, 4, 5]])
    t = Permutation.from_cycles(6, [[1, 2], [4, 5]])
    return PermGroup(6, [a, b, t])


def c3_semi_d8():
    """C3 : D8 where the rotation inverts and the reflection centralizes."""
    a = Permutation.from_cycles(7, [[0, 1, 2]])
    r = Permutation.from_cycles(7, [[1, 2], [3, 4, 5, 6]])
    s = Permutation.from_cycles(7, [[4, 6]])
    return PermGroup(7, [a, r, s])


def _abelian_types(n):
    """Elementary divisor lists for every abelian group of order n."""

    def partitions(k):
        if k == 0:
            yield []
            return
        for first in range(k, 0, -1):
            for rest in partitions(k - first):
                if not rest or rest[0] <= first:
                    yield [first] + rest

    types = [[]]
    for p in prime_factors(n):
        exponent = next(e for e in range(1, n) if n % p ** (e + 1))
        types = [existing + [p ** part for part in partition]
                 for existing in types
                 for partition in partitions(exponent)]
    return [sorted(t, reverse=True) for t in types]


def _abelian_name(divisors):
    return "x".join(f"C{d}" for d in divisors)


_NONABELIAN = {
    6: [("S3", lambda: dihedral(3))],
    8: [("D8", lambda: dihedral(4)), ("Q8", lambda: dicyclic(2))],
    10: [("D10", lambda: dihedral(5))],
    12: [("D12", lambda: dihedral(6)),
         ("A4", lambda: alternating(4)),
         ("Dic3", lambda: dicyclic(3))],
    14: [("D14", lambda: dihedral(7))],
    16: [("D16", lambda: dihedral(8)),
         ("SD16", lambda: semidirect_cyclic(8, 2, 3)),
         ("M16", lambda: semidirect_cyclic(8, 2, 5)),
         ("Q16", lambda: dicyclic(4)),
         ("D8xC2", lambda: direct_product(dihedral(4), cyclic(2))),
         ("Q8xC2", lambda: direct_product(dicyclic(2), cyclic(2))),
         ("C4:C4", c4_semi_c4),
         ("(C4xC2):C2", c4xc2_semi_c2),
         ("C4.C2^2", pauli16)],
    18: [("D18", lambda: dihedral(9)),
         ("C3xS3", lambda: direct_product(cyclic(3), dihedral(3))),
         ("(C3xC3):C2", generalized_dihedral_c3c3)],
    20: [("D20", lambda: dihedral(10)),
         ("Dic5", lambda: dicyclic(5)),
         ("F20", lambda: semidirect_cyclic(5, 4, 2))],
    21: [("C7:C3", lambda: semidirect_cyclic(7, 3, 2))],
    22: [("D22", lambda: dihedral(11))],
    24: [("S4", lambda: symmetric(4)),
         ("SL(2,3)", sl23),
         ("A4xC2", lambda: direct_product(alternating(4), cyclic(2))),
         ("D24", lambda: dihedral(12)),
         ("Dic6", lambda: dicyclic(6)),
         ("C3:C8", lambda: semidirect_cyclic(3, 8, 2)),
         ("C4xS3", lambda: direct_product(cyclic(4), dihedral(3))),
         ("C2xC2xS3", lambda: direct_product(abelian([2, 2]), dihedral(3))),
         ("C2xDic3", lambda: direct_product(cyclic(2), dicyclic(3))),
         ("C3xD8", lambda: direct_product(cyclic(3), dihedral(4))),
         ("C3xQ8", lambda: direct_product(cyclic(3), dicyclic(2))),
         ("C3:D8", c3_semi_d8)],
}

# groups of each order 1..24, from the standard classification
GROUP_COUNTS = (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14,
                1, 5, 1, 5, 2, 2, 1, 15)


def all_groups(max_order=24):
    """Every group of order <= max_order (<= 24), as (name, group) pairs."""
    if max_order > 24:
        raise DomainError("the construction table stops at order 24")
    result = []
    for n in range(1, max_order + 1):
        for divisors in _abelian_types(n):
            result.append((_abelian_name(divisors), abelian(divisors)))
        for name, builder in _NONABELIAN.get(n, []):
            result.append((name, builder()))
    return result
