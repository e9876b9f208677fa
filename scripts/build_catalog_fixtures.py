#!/usr/bin/env python3
"""Regenerate the generator-file fixtures shipped in qsikit/fixtures/.

Most entries are standard generators written down directly. The linear
groups are derived from small matrix actions, and the unitary group on
27 points is derived from scratch: unitary transvections acting on the
totally isotropic lines of a Hermitian form on F4^4, reduced to a
2-element generating set. That pair, and the pair generating the
order-160 witness subgroup inside the stabilizer of the first point,
are pinned by their indices into sorted element lists, which do not
depend on the stabilizer chain. The witness subgroup's distinguished
linear character is found by search and recorded by index.

Deterministic: sorted constructions, no random draws. Run from the repo
root; rewrites src/qsikit/fixtures/*.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qsikit.chartab import character_table, induce, kernel
from qsikit.perm import PermGroup, Permutation, format_generator_file
from qsikit.smallgroups import alternating, symmetric

FIXTURES = Path(__file__).resolve().parent.parent / "src/qsikit/fixtures"

# positions in the sorted elements() of the transvection-built PSU(4,2)
PSU42_GENERATOR_INDICES = (1629, 6744)
# positions in the sorted elements() of its first point stabilizer
U160_GENERATOR_INDICES = (338, 759)


def m11():
    return PermGroup(11, [
        Permutation.from_cycles(11, [list(range(11))]),
        Permutation.from_cycles(11, [[2, 6, 10, 7], [3, 9, 4, 5]])])


def sl23():
    """SL(2,3) on the 8 nonzero vectors of F3^2."""
    vectors = [(a, b) for a in range(3) for b in range(3)][1:]
    index = {v: i for i, v in enumerate(vectors)}

    def perm_of(matrix):
        (a, b), (c, d) = matrix
        return Permutation([index[((a * x + b * y) % 3, (c * x + d * y) % 3)]
                            for x, y in vectors])

    return PermGroup(8, [perm_of(((1, 1), (0, 1))),
                         perm_of(((0, 2), (1, 0)))])


def psl32():
    """PSL(3,2) = GL(3,2) on the 7 nonzero vectors of F2^3."""
    vectors = [(a, b, c) for a in range(2) for b in range(2)
               for c in range(2)][1:]
    index = {v: i for i, v in enumerate(vectors)}

    def apply(matrix, v):
        return tuple(sum(matrix[i][j] * v[j] for j in range(3)) % 2
                     for i in range(3))

    def perm_of(matrix):
        return Permutation([index[apply(matrix, v)] for v in vectors])

    transvection = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    cycle = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    return PermGroup(7, [perm_of(transvection), perm_of(cycle)])


def psl211():
    """PSL(2,11) on the projective line over F11 (12 points; infinity last).

    Generated by x -> x + 1 and x -> -1/x.
    """
    infinity = 11

    def translation(x):
        return (x + 1) % 11 if x != infinity else infinity

    def inversion(x):
        if x == infinity:
            return 0
        if x == 0:
            return infinity
        return (-pow(x, -1, 11)) % 11

    return PermGroup(12, [Permutation([translation(x) for x in range(12)]),
                          Permutation([inversion(x) for x in range(12)])])


# F4 arithmetic tables; elements 0, 1, w, w^2 encoded as 0..3 with w^2 = w+1
_ADD = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
_CONJ = (0, 1, 3, 2)
_INV = (0, 1, 3, 2)


def psu42():
    """PSU(4,2) on the 27 totally isotropic lines of a Hermitian form."""

    def vadd(u, v):
        return tuple(_ADD[a][b] for a, b in zip(u, v))

    def vscale(c, v):
        return tuple(_MUL[c][a] for a in v)

    def herm(u, v):
        s = 0
        for a, b in zip(u, v):
            s = _ADD[s][_MUL[a][_CONJ[b]]]
        return s

    def normalize(v):
        lead = next(x for x in v if x)
        return vscale(_INV[lead], v)

    vectors = [(a, b, c, d) for a in range(4) for b in range(4)
               for c in range(4) for d in range(4)][1:]
    iso_points = sorted({normalize(v) for v in vectors if herm(v, v) == 0})
    assert len(iso_points) == 45

    lines = set()
    for i, u in enumerate(iso_points):
        for v in iso_points[i + 1:]:
            if herm(u, v) == 0:
                span = {normalize(vadd(vscale(a, u), vscale(b, v)))
                        for a in range(4) for b in range(4)
                        if any(vadd(vscale(a, u), vscale(b, v)))}
                lines.add(frozenset(span))
    assert len(lines) == 27
    lines = sorted(lines, key=lambda line: sorted(line))
    line_index = {line: i for i, line in enumerate(lines)}

    def transvection(w):
        def image(x):
            return vadd(x, vscale(herm(x, w), w))

        return Permutation([line_index[frozenset(normalize(image(p))
                                                 for p in line)]
                            for line in lines])

    full = PermGroup.from_generators([transvection(w) for w in iso_points])
    assert full.order == 25920
    elements = full.elements()
    return PermGroup(27, [Permutation(elements[i])
                          for i in PSU42_GENERATOR_INDICES])


def psu42_u160(group):
    """Order-160 subgroup of the first point stabilizer whose nontrivial
    linear character induces to twice the degree-81 irreducible."""
    stabilizer = group.point_stabilizer(0)
    assert stabilizer.order == 960
    elements = stabilizer.elements()
    candidate = PermGroup.from_generators(
        [Permutation(elements[i]) for i in U160_GENERATOR_INDICES])
    assert candidate.order == 160
    steinberg = character_table(group).unique_by_degree(81)
    for index, phi in enumerate(character_table(candidate).irreducibles):
        if phi.degree == 1 and induce(phi, group) == 2 * steinberg:
            assert kernel(phi).order % 3 != 0
            return candidate, index
    raise AssertionError("no linear character induces to 2 St")


def write_fixture(name, description, group):
    (FIXTURES / name).write_text(format_generator_file(group, description))


def main():
    FIXTURES.mkdir(parents=True, exist_ok=True)
    manifest = {"groups": {}, "subgroups": {}}

    entries = [
        ("A5", "a5.gens", "alternating group on 5 points", alternating(5),
         60),
        ("A6", "a6.gens", "alternating group on 6 points", alternating(6),
         360),
        ("A7", "a7.gens", "alternating group on 7 points", alternating(7),
         2520),
        ("A8", "a8.gens", "alternating group on 8 points", alternating(8),
         20160),
        ("A9", "a9.gens", "alternating group on 9 points", alternating(9),
         181440),
        ("S4", "s4.gens", "symmetric group on 4 points", symmetric(4), 24),
        ("SL23", "sl23.gens",
         "SL(2,3) acting on the 8 nonzero vectors of F3^2", sl23(), 24),
        ("PSL27", "psl27.gens",
         "PSL(3,2) = PSL(2,7) on the 7 nonzero vectors of F2^3",
         psl32(), 168),
        ("PSL211", "psl211.gens",
         "PSL(2,11) on the projective line over F11", psl211(), 660),
        ("M11", "m11.gens", "Mathieu group on 11 points", m11(), 7920),
    ]

    psu = psu42()
    entries.append(
        ("PSU42", "psu42.gens",
         "PSU(4,2) = PSp(4,3) on the 27 totally isotropic lines of a "
         "Hermitian form on F4^4", psu, 25920))

    for entry_id, filename, description, group, order in entries:
        write_fixture(filename, description, group)
        assert group.order == order, (entry_id, group.order, order)
        manifest["groups"][entry_id] = {
            "file": filename,
            "degree": group.degree,
            "order": order,
            "description": description,
        }
        print(f"{entry_id:8s} order {order}")

    witness_sub, char_index = psu42_u160(psu)
    write_fixture(
        "psu42_u160.gens",
        "order-160 subgroup of the first point stabilizer of PSU42; its "
        "irreducible at witness_linear_char_index (linear) induces to "
        "twice the degree-81 irreducible of the parent",
        witness_sub)
    manifest["subgroups"]["PSU42_U160"] = {
        "parent": "PSU42",
        "file": "psu42_u160.gens",
        "order": 160,
        "witness_linear_char_index": char_index,
    }
    print(f"U160     order 160, witness linear character index {char_index}")

    with open(FIXTURES / "manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("manifest written")


if __name__ == "__main__":
    main()
