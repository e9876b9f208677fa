"""Permutation groups on finite point sets.

Groups are given by generator permutations on {0..n-1}. One
deterministic Schreier-Sims builder provides a base and strong generating
set, which backs order and membership queries. It continues from any
valid partial chain, so a point stabilizer keeps the lower levels of a
chain based at its point, and a subgroup grown from a known one (normal
closures, lattice candidates) continues its parent's chain. Everything
here is exact and, for a fixed input, reproducible: no randomized
algorithms are used anywhere on the query paths.

Composition convention: ``(p * q)(i) == q(p(i))``, i.e. p acts first.
Points are 0-based internally; the text file format uses 1-based cycles.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd, prod

from .errors import (
    CapacityError,
    DomainError,
    IntegrityError,
    MalformedInputError,
)

ELEMENT_ENUMERATION_BOUND = 10**6
SUBGROUP_ENUMERATION_BOUND = 30000


# ---------------------------------------------------------------------------
# permutations


def _compose(p, q):
    """Image tuple of "p then q" for image tuples p, q."""
    return tuple(q[i] for i in p)


def _invert(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _conjugate(t, g):
    """Image tuple of g^-1 * t * g."""
    out = [0] * len(t)
    for i, ti in enumerate(t):
        out[g[i]] = g[ti]
    return tuple(out)


class Permutation:
    """A bijection of {0..n-1}, stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise MalformedInputError("permutation degree must be >= 1")
        seen = [False] * n
        for j in images:
            if not isinstance(j, int) or not 0 <= j < n or seen[j]:
                raise MalformedInputError(
                    f"not a permutation of 0..{n - 1}: {images!r}")
            seen[j] = True
        self.images = images

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n, cycles):
        """Build from 0-based disjoint-or-not cycles, applied left to right."""
        images = list(range(n))
        for cycle in cycles:
            prev = list(images)
            mapping = {}
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if not 0 <= a < n:
                    raise MalformedInputError(f"cycle point {a} out of range")
                mapping[a] = b
            for i in range(n):
                images[i] = mapping.get(prev[i], prev[i])
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def __mul__(self, other):
        return Permutation(_compose(self.images, other.images))

    def inverse(self):
        return Permutation(_invert(self.images))

    __invert__ = inverse

    def __pow__(self, k):
        n = len(self.images)
        if k < 0:
            return self.inverse() ** (-k)
        result = tuple(range(n))
        base = self.images
        while k:
            if k & 1:
                result = _compose(result, base)
            base = _compose(base, base)
            k >>= 1
        return Permutation(result)

    def conjugated_by(self, g):
        """g^-1 * self * g."""
        return Permutation(_conjugate(self.images, g.images))

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def order(self):
        result = 1
        for cycle in self.cycles():
            result = result * len(cycle) // gcd(result, len(cycle))
        return result

    def cycles(self):
        """Nontrivial cycles, each starting at its smallest point."""
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i] or self.images[i] == i:
                continue
            cycle = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cycle.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(cycle)
        return out

    def cycle_string(self):
        """1-based disjoint cycle notation, e.g. ``(1,2,3)(4,5)``."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join(
            "(" + ",".join(str(p + 1) for p in cycle) + ")" for cycle in cycles)

    def fixed_point_count(self):
        return sum(1 for i, j in enumerate(self.images) if i == j)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"


_CYCLE_RE = re.compile(r"\(\s*([0-9]+(?:\s*,\s*[0-9]+)*)?\s*\)")


def parse_cycle_string(text, degree):
    """Parse 1-based disjoint-cycle notation into a Permutation."""
    text = text.strip()
    pos = 0
    cycles = []
    while pos < len(text):
        m = _CYCLE_RE.match(text, pos)
        if m is None:
            raise MalformedInputError(f"cannot parse cycle notation: {text!r}")
        if m.group(1):
            points = [int(tok) - 1 for tok in m.group(1).split(",")]
            if len(set(points)) != len(points):
                raise MalformedInputError(f"repeated point in cycle: {text!r}")
            for p in points:
                if not 0 <= p < degree:
                    raise MalformedInputError(
                        f"point {p + 1} outside degree {degree}: {text!r}")
            if len(points) > 1:
                cycles.append(points)
        pos = m.end()
    return Permutation.from_cycles(degree, cycles)


def parse_generator_file(text):
    """Parse the generator file format.

    First meaningful line is ``degree n``; every further line is one
    permutation in 1-based cycle notation. Blank lines and ``#`` comments
    are ignored. Returns ``(degree, [Permutation, ...])``.
    """
    degree = None
    perms = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            m = re.fullmatch(r"degree\s+([0-9]+)", line)
            if m is None:
                raise MalformedInputError(
                    f"expected 'degree n' as first line, got {line!r}")
            degree = int(m.group(1))
            if degree < 1:
                raise MalformedInputError("degree must be >= 1")
            continue
        perms.append(parse_cycle_string(line, degree))
    if degree is None:
        raise MalformedInputError("generator file has no 'degree' line")
    return degree, perms


def format_generator_file(group, header=None):
    """Serialize a group's generators in the generator file format."""
    lines = []
    if header:
        for h in header.splitlines():
            lines.append(f"# {h}")
    lines.append(f"degree {group.degree}")
    for g in group.generators:
        lines.append(g.cycle_string())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# base and strong generating set


class _OrderCapExceeded(Exception):
    """Internal: the partial BSGS already certifies order > cap."""


class _Level:
    """One level of a BSGS chain: the strong generators that fix the
    earlier base points, and the orbit of beta under them, holding one
    transversal element and its inverse per orbit point."""

    __slots__ = ("beta", "gens", "transversal", "inverses")

    def __init__(self, beta, identity):
        self.beta = beta
        self.gens = []
        self.transversal = {beta: identity}
        self.inverses = {beta: identity}

    def copy(self):
        level = _Level.__new__(_Level)
        level.beta = self.beta
        level.gens = list(self.gens)
        level.transversal = dict(self.transversal)
        level.inverses = dict(self.inverses)
        return level

    def add_generator(self, g):
        """Adjoin g and extend the orbit from the points it already has.

        The old orbit is closed under the old generators, so only g leads
        out of it; every point found after that takes all generators.
        """
        self.gens.append(g)
        transversal = self.transversal
        inverses = self.inverses
        frontier = list(transversal)
        moves = (g,)
        while frontier:
            found = []
            for a in frontier:
                ta = transversal[a]
                for h in moves:
                    b = h[a]
                    if b not in transversal:
                        tb = _compose(ta, h)
                        transversal[b] = tb
                        inverses[b] = _invert(tb)
                        found.append(b)
            frontier = found
            moves = self.gens


def _sift(levels, t, start=0):
    """Strip t through levels[start:].

    Returns the residue and the index of the first level whose orbit
    misses the image of its base point (len(levels) if there is none).
    """
    for i in range(start, len(levels)):
        level = levels[i]
        inverse = level.inverses.get(t[level.beta])
        if inverse is None:
            return t, i
        t = _compose(t, inverse)
    return t, len(levels)


def _build_bsgs(degree, gens, levels, order_cap=None):
    """Deterministic Schreier-Sims, continued from a valid partial chain.

    levels is a complete chain for the group its strong generators
    generate: empty, bare base points, or a built group's chain. It is
    extended in place for the group generated by those and gens, and
    returned. With order_cap set, raises _OrderCapExceeded as soon as
    the partial chain (always a subgroup of the target) certifies
    order > cap.
    """
    identity = tuple(range(degree))
    # levels above k are complete; only levels a new strong generator
    # joined need their Schreier generators sifted
    k = -1

    def add_strong_generator(t, level_index):
        # t fixes the base points before level_index
        if level_index == len(levels):
            beta = next(i for i, j in enumerate(t) if i != j)
            levels.append(_Level(beta, identity))
        for level in levels[:level_index + 1]:
            level.add_generator(t)
        if order_cap is not None and prod(
                len(level.transversal) for level in levels) > order_cap:
            raise _OrderCapExceeded()

    for t in gens:
        residue, i = _sift(levels, t)
        if residue != identity:
            add_strong_generator(residue, i)
            k = max(k, i)

    # close the chain bottom-up by sifting Schreier generators
    while k >= 0:
        level = levels[k]
        for a, g in itertools.product(sorted(level.transversal), level.gens):
            schreier = _compose(_compose(level.transversal[a], g),
                                level.inverses[g[a]])
            residue, i = _sift(levels, schreier, k + 1)
            if residue != identity:
                add_strong_generator(residue, i)
                k = i
                break
        else:
            k -= 1
    return levels


# ---------------------------------------------------------------------------
# groups


class ConjugacyClassSet:
    """Conjugacy classes of a fully enumerated group.

    Classes are sorted by (element order, class size, lexicographic
    representative); the identity class is therefore always first.
    """

    __slots__ = ("group", "representatives", "sizes", "element_to_class",
                 "class_elements", "rep_orders")

    def __init__(self, group, representatives, sizes, element_to_class,
                 class_elements):
        self.group = group
        self.representatives = representatives
        self.sizes = sizes
        self.element_to_class = element_to_class
        self.class_elements = class_elements
        self.rep_orders = tuple(r.order() for r in representatives)

    def __len__(self):
        return len(self.representatives)

    def class_of(self, perm):
        key = perm.images if isinstance(perm, Permutation) else tuple(perm)
        return self.element_to_class[key]


class PermGroup:
    """A permutation group with BSGS-backed order and membership.

    Instances are immutable after construction; lazily computed data
    (element lists, classes, subgroup lattices) is cached internally and
    never mutates the group itself.
    """

    def __init__(self, degree, generators, _chain=None, _order_cap=None):
        # private: the build continues from _chain, a complete chain of a
        # subgroup of the result, and takes it over; past _order_cap it
        # raises _OrderCapExceeded
        if degree < 1:
            raise MalformedInputError("degree must be >= 1")
        gens = []
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise MalformedInputError(
                    f"generator degree {g.degree} != group degree {degree}")
            if not g.is_identity():
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._levels = _build_bsgs(degree, [g.images for g in gens],
                                   [] if _chain is None else _chain,
                                   _order_cap)
        self.order = prod(len(level.transversal) for level in self._levels)
        self._cache = {}

    # -- construction helpers

    @classmethod
    def trivial(cls, degree=1):
        return cls(degree, [])

    @classmethod
    def from_generators_bounded(cls, generators, degree, order_cap):
        """The generated group, or None once its order exceeds order_cap.

        The early exit is exact: a partial stabilizer chain is a subgroup
        of the target, so its order is a lower bound.
        """
        try:
            return cls(degree, generators, _order_cap=order_cap)
        except _OrderCapExceeded:
            return None

    @classmethod
    def from_generators(cls, generators, degree=None):
        gens = [g if isinstance(g, Permutation) else Permutation(g)
                for g in generators]
        degrees = {g.degree for g in gens}
        if len(degrees) > 1:
            raise MalformedInputError(
                f"generators have inconsistent degrees: {sorted(degrees)}")
        if degree is None:
            if not degrees:
                raise MalformedInputError(
                    "degree is required for an empty generator list")
            degree = degrees.pop()
        elif degrees and degrees.pop() != degree:
            raise MalformedInputError("generator degree does not match")
        return cls(degree, gens)

    def _with(self, *perms, _order_cap=None):
        """The group generated by self and perms, continuing self's chain.

        Past _order_cap the build raises _OrderCapExceeded.
        """
        return PermGroup(self.degree, self.generators + perms,
                         _chain=[level.copy() for level in self._levels],
                         _order_cap=_order_cap)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"

    # -- membership

    def contains_tuple(self, t):
        if len(t) != self.degree:
            return False
        residue, _ = _sift(self._levels, t)
        return tuple(residue) == tuple(range(self.degree))

    def __contains__(self, perm):
        if isinstance(perm, Permutation):
            return self.contains_tuple(perm.images)
        return self.contains_tuple(tuple(perm))

    def is_subgroup_of(self, other):
        return (self.degree == other.degree
                and all(g in other for g in self.generators))

    # -- elements

    def elements(self, bound=ELEMENT_ENUMERATION_BOUND):
        """All elements as a sorted tuple of image tuples."""
        if "elements" in self._cache:
            return self._cache["elements"]
        if self.order > bound:
            raise CapacityError(
                f"group order {self.order} exceeds the element enumeration "
                f"bound {bound}", bound=bound)
        transversals = [sorted(level.transversal.values())
                        for level in reversed(self._levels)]
        identity = tuple(range(self.degree))
        elems = [identity]
        for transversal in transversals:
            if len(transversal) == 1:
                continue
            elems = [_compose(h, u) for h in elems for u in transversal]
        elems.sort()
        result = tuple(elems)
        if len(result) != self.order:
            raise IntegrityError("element enumeration does not match order")
        self._cache["elements"] = result
        return result

    def random_element(self, rng):
        """Uniformly random element via the BSGS coset decomposition."""
        t = tuple(range(self.degree))
        for level in reversed(self._levels):
            points = sorted(level.transversal)
            u = level.transversal[rng.choice(points)]
            t = _compose(t, u)
        return Permutation(t)

    # -- conjugacy classes

    def conjugacy_classes(self, bound=ELEMENT_ENUMERATION_BOUND):
        if "classes" in self._cache:
            return self._cache["classes"]
        if self.order > bound:
            raise CapacityError(
                f"group order {self.order} exceeds the element enumeration "
                f"bound {bound} for conjugacy classes", bound=bound)
        elems = self.elements(bound)
        gen_images = [g.images for g in self.generators]
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
        # elems is sorted, so the first member found is the lex-min rep
        def sort_key(members):
            rep = members[0]
            return (Permutation(rep).order(), len(members), rep)

        raw_classes.sort(key=sort_key)
        element_to_class = {}
        class_elements = []
        reps = []
        sizes = []
        for index, members in enumerate(raw_classes):
            reps.append(Permutation(members[0]))
            sizes.append(len(members))
            class_elements.append(tuple(sorted(members)))
            for e in members:
                element_to_class[e] = index
        result = ConjugacyClassSet(self, tuple(reps), tuple(sizes),
                                   element_to_class, tuple(class_elements))
        if sum(sizes) != self.order:
            raise IntegrityError("class sizes do not sum to the group order")
        self._cache["classes"] = result
        return result

    def element_orders_present(self, bound=ELEMENT_ENUMERATION_BOUND):
        """Exact set of element orders."""
        classes = self.conjugacy_classes(bound)
        return set(classes.rep_orders)

    # -- structure

    def is_abelian(self):
        if "abelian" not in self._cache:
            self._cache["abelian"] = all(
                (a * b).images == (b * a).images
                for a, b in itertools.combinations(self.generators, 2))
        return self._cache["abelian"]

    def derived_subgroup(self):
        if "derived" not in self._cache:
            self._cache["derived"] = self.normal_closure(
                a.inverse() * b.inverse() * a * b
                for a, b in itertools.combinations(self.generators, 2))
        return self._cache["derived"]

    def derived_series(self):
        series = [self]
        while True:
            nxt = series[-1].derived_subgroup()
            if nxt.order == series[-1].order:
                break
            series.append(nxt)
            if nxt.order == 1:
                break
        return series

    def is_solvable(self):
        if "solvable" not in self._cache:
            self._cache["solvable"] = self.derived_series()[-1].order == 1
        return self._cache["solvable"]

    def is_simple(self):
        """True for simple groups, including abelian ones of prime order."""
        if "simple" in self._cache:
            return self._cache["simple"]
        if self.order == 1:
            result = False
        else:
            result = True
            classes = self.conjugacy_classes()
            for rep in classes.representatives:
                if rep.is_identity():
                    continue
                if self.normal_closure([rep]).order != self.order:
                    result = False
                    break
        self._cache["simple"] = result
        return result

    def normal_closure(self, perms):
        """The smallest subgroup containing perms that self normalizes.

        Worklist: for each generator taken into the closure, its
        conjugates by self's generators that the closure lacks extend the
        closure's chain in one step and join the worklist.
        """
        sub = PermGroup(self.degree, perms)
        queue = list(sub.generators)
        while queue:
            s = queue.pop()
            new = tuple(c for c in (s.conjugated_by(g)
                                    for g in self.generators)
                        if c not in sub)
            if new:
                sub = sub._with(*new)
                queue.extend(new)
        return sub

    def is_normal(self, sub):
        if not sub.is_subgroup_of(self):
            return False
        return all(s.conjugated_by(g) in sub
                   for s in sub.generators for g in self.generators)

    def centre_order(self):
        elems = self.elements()
        gens = [g.images for g in self.generators]
        return sum(1 for e in elems
                   if all(_compose(e, g) == _compose(g, e) for g in gens))

    def point_stabilizer(self, point):
        """The stabilizer of a point, read off a BSGS based at that point."""
        levels = _build_bsgs(self.degree, [g.images for g in self.generators],
                             [_Level(point, tuple(range(self.degree)))])
        # strong generators below the top level are exactly those fixing it
        chain = levels[1:]
        gens = [Permutation(t) for t in chain[0].gens] if chain else []
        return PermGroup(self.degree, gens, _chain=chain)

    def conjugate_subgroup(self, g):
        return PermGroup(self.degree, [s.conjugated_by(g)
                                       for s in self.generators])

    def normalizer(self, sub, bound=ELEMENT_ENUMERATION_BOUND):
        """Normalizer of a subgroup: its transporters into itself, adjoined
        only while the group grown so far lacks them."""
        norm = PermGroup(self.degree, [])
        for e in self._transporters(sub, sub, bound):
            if not norm.contains_tuple(e):
                norm = norm._with(Permutation(e))
        return norm

    # -- quotients

    def quotient(self, sub):
        """Faithful permutation action of self on the cosets of a normal
        subgroup, of order [self : sub]."""
        if not sub.is_subgroup_of(self):
            raise DomainError("quotient requires a subgroup")
        if not self.is_normal(sub):
            raise DomainError("quotient requires a normal subgroup")
        if sub.order == self.order:
            return PermGroup.trivial(1)
        sub_elems = sub.elements()
        gens = [g.images for g in self.generators]

        def coset_key(t):
            return min(_compose(n, t) for n in sub_elems)

        identity = tuple(range(self.degree))
        start = coset_key(identity)
        index_of = {start: 0}
        reps = [identity]
        queue = [identity]
        while queue:
            x = queue.pop(0)
            for g in gens:
                y = _compose(x, g)
                key = coset_key(y)
                if key not in index_of:
                    index_of[key] = len(reps)
                    reps.append(y)
                    queue.append(y)
        n_cosets = len(reps)
        images = []
        for g in gens:
            img = [index_of[coset_key(_compose(x, g))] for x in reps]
            images.append(Permutation(img))
        result = PermGroup(max(n_cosets, 1), images)
        if result.order * sub.order != self.order:
            raise IntegrityError("quotient order check failed")
        return result

    # -- subgroup enumeration

    def class_intersection_profile(self, sub):
        """Per-class element counts |C intersect sub| for a subgroup."""
        classes = self.conjugacy_classes()
        counts = [0] * len(classes)
        for e in sub.elements():
            counts[classes.element_to_class[e]] += 1
        return tuple(counts)

    def _transporters(self, a, b, bound=ELEMENT_ENUMERATION_BOUND):
        """The elements e of self with e^-1 a e <= b, in sorted order."""
        b_elems = set(b.elements())
        a_gens = [g.images for g in a.generators]
        return (e for e in self.elements(bound)
                if all(_conjugate(g, e) in b_elems for g in a_gens))

    def _subgroups_conjugate(self, a, b):
        return (a.order == b.order
                and next(self._transporters(a, b), None) is not None)

    def subgroups_up_to_conjugacy(self, max_order=SUBGROUP_ENUMERATION_BOUND):
        """One representative per conjugacy class of subgroups.

        Cyclic extension: seed with the cyclic subgroups generated by
        class representatives, then adjoin single elements e to known
        representatives U until nothing new appears. Since
        <U, e> = <U, u e v> for all u, v in U, one e per double coset
        UeU is adjoined: the first in sorted order, the rest of UeU is
        marked seen by closing {e} under U's generators on both sides.
        A proper subgroup has order at most |G|/2, so each candidate is
        grown from U's chain with that cap and dropped as soon as its
        partial chain exceeds it. Deduplication is by class-intersection
        profile first; only on profile ties does a transporter search
        scan G, testing each conjugate of the generators against a hash
        set of the other subgroup's elements.
        """
        if "subgroup_classes" in self._cache:
            return self._cache["subgroup_classes"]
        if self.order > max_order:
            raise CapacityError(
                f"group order {self.order} exceeds the subgroup enumeration "
                f"bound {max_order}", bound=max_order)
        classes = self.conjugacy_classes()
        elems = self.elements()

        found = []
        by_profile = {}

        def register(sub):
            if sub.order == self.order:
                return None
            profile = self.class_intersection_profile(sub)
            for idx in by_profile.get(profile, ()):
                if self._subgroups_conjugate(found[idx], sub):
                    return None
            index = len(found)
            found.append(sub)
            by_profile.setdefault(profile, []).append(index)
            return index

        queue = []
        trivial_index = register(PermGroup(self.degree, []))
        if trivial_index is not None:
            queue.append(trivial_index)
        for rep in classes.representatives:
            idx = register(PermGroup(self.degree, [rep]))
            if idx is not None:
                queue.append(idx)

        # a proper subgroup has order at most |G|/2
        cap = self.order // 2
        while queue:
            base = found[queue.pop(0)]
            base_gens = [g.images for g in base.generators]
            seen = set(base.elements())
            for e in elems:
                if e in seen:
                    continue
                # <U, e> = <U, ueu'>: mark the double coset UeU
                seen.add(e)
                frontier = [e]
                while frontier:
                    x = frontier.pop()
                    for g in base_gens:
                        for y in (_compose(g, x), _compose(x, g)):
                            if y not in seen:
                                seen.add(y)
                                frontier.append(y)
                try:
                    candidate = base._with(Permutation(e), _order_cap=cap)
                except _OrderCapExceeded:
                    continue
                idx = register(candidate)
                if idx is not None:
                    queue.append(idx)

        result = found + [self]
        result.sort(key=lambda sub: (sub.order,
                                     self.class_intersection_profile(sub)
                                     if sub.order < self.order
                                     else (0,)))
        self._cache["subgroup_classes"] = result
        return result


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


def burnside_orbit_count(group):
    """Number of orbits on points, by averaging fixed points over classes."""
    classes = group.conjugacy_classes()
    total = sum(size * rep.fixed_point_count()
                for rep, size in zip(classes.representatives, classes.sizes))
    value = Fraction(total, group.order)
    if value.denominator != 1:
        raise IntegrityError("orbit count is not an integer")
    return int(value)
