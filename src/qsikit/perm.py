"""Permutation groups on finite point sets.

Groups are given by generator permutations on {0..n-1}. One
deterministic Schreier-Sims builder provides a base and strong generating
set, which backs order and membership queries. It continues from any
valid partial chain, so a point stabilizer keeps the lower levels of a
chain based at its point, and a subgroup grown from a known one (normal
closures, lattice candidates) continues its parent's chain. A level
stores one element per orbit point, the inverse of its transversal
element, since that is what sifting reads; Schreier generators, element
enumeration and random elements invert it back. Everything
here is exact and, for a fixed input, reproducible. The one randomized
algorithm, a random Schreier-Sims chain of the same levels drawing from a
private fixed-seed generator, only gives a lower bound b on an order. A
b above a cap shows that a group is too large for
``from_generators_bounded``; a b equal to the order of a subgroup that
``DistinctSubgroups`` built before, into which the generators sift,
shows that the group is that subgroup. Every group that is built comes
from the deterministic Schreier-Sims.

Composition convention: ``(p * q)(i) == q(p(i))``, i.e. p acts first.
Points are 0-based internally; the text file format uses 1-based cycles.
Sifting, orbits and element lists hold a permutation as its image tuple,
and "p then q" is ``operator.itemgetter(*p)(q)``: one C-level call that
indexes q at every image of p. Where a whole group is walked (classes,
their conjugators and centralisers, profiles, class matrices, the
subgroup lattice), an element is named by a key that one owner,
``_element_form``, chooses from the degree: ``bytes(images)`` on at most
256 points, one byte per point, with "p then q" as
``p.translate(table of q)``, and the image tuple above that. Bytes
compare as the equal-length tuples of their values, so every sort and
least element is the same in either form.
"""

from __future__ import annotations

import collections
import itertools
import random
import re
from math import gcd, prod
from operator import itemgetter, methodcaller

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
    if len(p) == 1:  # itemgetter of one index returns a bare item
        return (q[p[0]],)
    return itemgetter(*p)(q)


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


def _least_in_coset(x, sub_elements):
    """The least element of the coset xU, given the elements of U."""
    return min(map(_compose, itertools.repeat(x), sub_elements))


def _least_coset_transversal(group, sub_elements):
    """The least element of each left coset tU of a subgroup U, given
    its elements, in the order of a walk of the group's generators
    acting on the cosets from the left. It keeps |T| tuples and never a
    set the size of the group, and starts at the identity, the least
    element of U; |T| |U| = |G| is checked."""
    transversal = [tuple(range(group.degree))]
    found = set(transversal)
    for t in transversal:  # reaches what it appends
        for g in group.generators:
            least = _least_in_coset(_compose(g.images, t), sub_elements)
            if least not in found:
                found.add(least)
                transversal.append(least)
    if len(transversal) * len(sub_elements) != group.order:
        raise IntegrityError("coset transversal size check failed")
    return transversal


# ---------------------------------------------------------------------------
# element keys


def _element_form(degree):
    """The keys that name the elements of a group of this degree wherever
    the whole group is walked, and composition with them: bytes on at
    most 256 points, the most ``bytes.translate`` indexes, else image
    tuples."""
    return _PackedForm(degree) if degree <= 256 else _TupleForm()


class _PackedForm:
    """Elements on n <= 256 points, each named by bytes(images). "x then
    u" is ``x.translate(table)``, where the table of u is bytes(u) padded
    to 256 bytes with the fixed points n..255: one C call per product."""

    __slots__ = ("pad",)

    key = bytes  # images -> key
    images = tuple  # key -> images

    def __init__(self, degree):
        self.pad = bytes(range(degree, 256))

    def table(self, images):
        """The right operand of a product with the element of these
        images."""
        return bytes(images) + self.pad

    @staticmethod
    def after(x):
        """The map from the table of u to the key of x then u."""
        return x.translate

    def times(self, t):
        """A C-level map from the key of x to the key of an element in the
        class of x then t: here x then t itself."""
        return methodcaller("translate", self.table(t))

    def moves(self, perms):
        """What ``orbit`` and ``conjugates`` conjugate by: the key of g^-1
        and the table of g, per g in perms."""
        return [(bytes(_invert(g.images)), self.table(g.images))
                for g in perms]

    def conjugates(self, x, moves):
        """The keys of x^g = g^-1 x g, one per move, in the moves' order."""
        table = x + self.pad
        return [g_inv.translate(table).translate(g_table)
                for g_inv, g_table in moves]

    def orbit(self, e, moves, marks, mark):
        """The conjugates of e by the moves' elements, breadth first from
        e, which marks holds: each one that marks lacks is listed and
        given mark, and the pass goes on from it."""
        pad = self.pad
        members = [e]
        for x in members:  # reaches what it appends
            table = x + pad
            for g_inv, g_table in moves:
                y = g_inv.translate(table).translate(g_table)  # g^-1 x g
                if y not in marks:
                    marks[y] = mark
                    members.append(y)
        return members


class _TupleForm:
    """Elements named by their image tuples, on any degree, with "x then
    u" as ``itemgetter(*x)(u)``; the methods are those of
    ``_PackedForm``."""

    __slots__ = ()

    key = images = table = tuple

    @staticmethod
    def after(x):
        return itemgetter(*x)

    @staticmethod
    def times(t):
        # t then x, the conjugate of x then t by x
        return itemgetter(*t)

    @staticmethod
    def moves(perms):
        # x^g = g^-1 x g is back(itemgetter(*x)(g)), back the getter of g^-1
        return [(g.images, itemgetter(*_invert(g.images))) for g in perms]

    @staticmethod
    def conjugates(x, moves):
        then = itemgetter(*x)
        return [back(then(g)) for g, back in moves]

    @staticmethod
    def orbit(e, moves, marks, mark):
        members = [e]
        for x in members:  # reaches what it appends
            then = itemgetter(*x)
            for g, back in moves:
                y = back(then(g))
                if y not in marks:
                    marks[y] = mark
                    members.append(y)
        return members


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
    def _unchecked(cls, images):
        """Wrap an image tuple that is a permutation by construction, such
        as a product of the group's own elements, without the check."""
        perm = object.__new__(cls)
        perm.images = images
        return perm

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
    """One level of a BSGS chain: the base point beta, the generators
    that grow its orbit, as pairs (g, g^-1), and one stored element per
    orbit point a, the inverse of the transversal element t_a that takes
    beta to a. That inverse is what ``_sift`` reads; t_a itself is
    inverted back where it is needed."""

    __slots__ = ("beta", "moves", "inverses")

    def __init__(self, beta, identity):
        self.beta = beta
        self.moves = []
        self.inverses = {beta: identity}

    def copy(self):
        level = _Level.__new__(_Level)
        level.beta = self.beta
        level.moves = list(self.moves)
        level.inverses = dict(self.inverses)
        return level

    def add_generator(self, g, g_inv):
        """Adjoin g, with its inverse g_inv, and extend the orbit from the
        points it already has.

        The old orbit is closed under the old generators, so only g leads
        out of it; every point found after that takes all generators. A
        new point's inverse is composed, (ta h)^-1 = h^-1 ta^-1, from the
        inverses already held.
        """
        self.moves.append((g, g_inv))
        inverses = self.inverses
        frontier = list(inverses)
        moves = ((g, g_inv),)
        while frontier:
            found = []
            for a in frontier:
                a_inv = inverses[a]
                for h, h_inv in moves:
                    b = h[a]
                    if b not in inverses:
                        inverses[b] = _compose(h_inv, a_inv)
                        found.append(b)
            frontier = found
            moves = self.moves

    def transversal(self):
        """The transversal elements t_a, in the order of sorted points a."""
        inverses = self.inverses
        return [_invert(inverses[a]) for a in sorted(inverses)]


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

    Level k is closed by sifting the Schreier generator of every pair
    (a, j) of an orbit point a and a generator index j, in the order of
    sorted points and then generators, through levels k + 1 onwards. The
    first non-trivial residue becomes a new strong generator and the
    loop drops to the level it sifted to. Each pair is sifted at most
    once per build: the inverses of transversal elements are only ever
    added, never replaced, so a pair's Schreier generator
    t_a g t_(a^g)^-1 and its sift path stay what they were, and a pair
    that sifted to the identity still does (the pair whose residue was
    just adjoined now does too, since the residue's inverse is the new
    entry of the point it reached). Skipping done pairs therefore finds
    the same residues in the same order as re-sifting each level from
    its first pair, and leaves every level's inverses as they were. For
    the same reason t_a, inverted from its stored inverse when the first
    pair of point a is sifted, is kept for the rest of the build, and the
    pairs of the chain the build starts from, which sifted to the
    identity when that chain was completed, start out done.
    """
    identity = tuple(range(degree))
    # levels above k are complete; only levels a new strong generator
    # joined need their Schreier generators sifted
    k = -1
    # sifted[k][a]: (count, t_a), where the pairs (a, j) with j below
    # count are done
    sifted = {k: dict.fromkeys(level.inverses, (len(level.moves), None))
              for k, level in enumerate(levels)}

    def schreier_generators(level, done):
        inverses, moves = level.inverses, level.moves
        for a in sorted(inverses):
            start, ta = done.get(a, (0, None))
            if start < len(moves):
                if ta is None:
                    ta = _invert(inverses[a])
                for j in range(start, len(moves)):
                    done[a] = (j + 1, ta)
                    g = moves[j][0]
                    yield _compose(_compose(ta, g), inverses[g[a]])

    def add_strong_generator(t, level_index):
        # t fixes the base points before level_index
        if level_index == len(levels):
            beta = next(i for i, j in enumerate(t) if i != j)
            levels.append(_Level(beta, identity))
        t_inv = _invert(t)
        for level in levels[:level_index + 1]:
            level.add_generator(t, t_inv)
        if order_cap is not None and prod(
                len(level.inverses) for level in levels) > order_cap:
            raise _OrderCapExceeded()

    for t in gens:
        residue, i = _sift(levels, t)
        if residue != identity:
            add_strong_generator(residue, i)
            k = max(k, i)

    # close the chain bottom-up by sifting Schreier generators
    while k >= 0:
        level = levels[k]
        for schreier in schreier_generators(level, sifted.setdefault(k, {})):
            residue, i = _sift(levels, schreier, k + 1)
            if residue != identity:
                add_strong_generator(residue, i)
                k = i
                break
        else:
            k -= 1
    return levels


# the order certificate's private generator seed, and the run of
# consecutive sifts to the identity after which it gives up
_CERTIFICATE_SEED = 20261018
_CERTIFICATE_SIFTS = 10


# what ``_sift`` reads of a level
_SiftLevel = collections.namedtuple("_SiftLevel", ("beta", "inverses"))


def _product_replacement(gens, rng):
    """An endless stream of elements of the group generated by gens (a
    non-empty list of image tuples): product replacement on 10 or more
    slots, where a random slot becomes its product with another slot,
    on a random side, and an accumulator is multiplied by that slot."""
    state = list(gens) * -(-10 // len(gens))
    size = len(state)
    accumulator = tuple(range(len(gens[0])))
    while True:
        i = rng.randrange(size)
        j = (i + 1 + rng.randrange(size - 1)) % size
        if rng.getrandbits(1):
            state[i] = _compose(state[i], state[j])
        else:
            state[i] = _compose(state[j], state[i])
        accumulator = _compose(accumulator, state[i])
        yield accumulator


def _order_lower_bound(degree, gens, order_cap):
    """A lower bound b on the order of the group generated by gens
    (non-identity image tuples), from a random Schreier-Sims chain that
    stops growing once b exceeds order_cap.

    The generators are sifted first, then product replacement elements
    drawn from a private fixed-seed generator. A residue that is not the
    identity becomes a generator of the level it sifted to, and of no
    other: the lower bound needs no more, and the random elements that
    sift to an earlier level grow that level's orbit themselves. Each
    level's generators are words in gens that fix the earlier base
    points, so each partial orbit lies inside the group's basic orbit,
    and b, the product of the orbit lengths, never exceeds the order.
    The chain gives up after _CERTIFICATE_SIFTS consecutive sifts to the
    identity, and b is then usually, not always, the order itself.
    """
    bound = 1  # the empty chain
    if not gens or bound > order_cap:
        return bound
    identity = tuple(range(degree))
    levels = []
    misses = 0
    rng = random.Random(_CERTIFICATE_SEED)
    for t in itertools.chain(gens, _product_replacement(gens, rng)):
        residue, i = _sift(levels, t)
        if residue == identity:
            misses += 1
            if misses == _CERTIFICATE_SIFTS:
                return bound
            continue
        misses = 0
        # the residue fixes the base points before level i
        if i == len(levels):
            beta = next(a for a, b in enumerate(residue) if a != b)
            levels.append(_Level(beta, identity))
        levels[i].add_generator(residue, _invert(residue))
        bound = prod(len(level.inverses) for level in levels)
        if bound > order_cap:
            return bound


# ---------------------------------------------------------------------------
# groups


class ConjugacyClassSet:
    """Conjugacy classes of a fully enumerated group.

    ``class_elements`` holds each class's members sorted, named by the
    keys of the group's element ``form`` (see ``_element_form``): bytes
    on at most 256 points, image tuples above. The first member, the
    representative, is therefore lex-min. Classes are sorted by (element
    order, class size, representative); the identity class is therefore
    always first. ``class_of`` finds an element's class from its image
    tuple, and ``classes_of`` maps keys to classes in C.

    Three maps are built on first use only: ``power_map``, the classes
    of the powers of each representative, for character tables; and for
    conjugacy tests ``conjugator(z)``, the key of an element taking its
    class representative to the element of key z, and ``centralizer(i)``,
    the centraliser of representative i as sorted image tuples.
    """

    __slots__ = ("group", "form", "class_elements", "representatives",
                 "sizes", "rep_orders", "_key_to_class", "_power_map",
                 "_conjugators", "_centralizers")

    def __init__(self, group, form, class_elements, key_to_class):
        self.group = group
        self.form = form
        self.class_elements = class_elements
        self.representatives = tuple(
            Permutation._unchecked(form.images(members[0]))
            for members in class_elements)
        self.sizes = tuple(map(len, class_elements))
        self.rep_orders = tuple(r.order() for r in self.representatives)
        self._key_to_class = key_to_class
        self._power_map = None
        self._conjugators = None
        self._centralizers = {}

    def __len__(self):
        return len(self.representatives)

    def class_of(self, images):
        """The index of the class of the element with these images, or
        None if the group lacks it."""
        return self._key_to_class.get(self.form.key(images))

    def classes_of(self, keys):
        """The class index of each of the form's keys, as they come."""
        return map(self._key_to_class.__getitem__, keys)

    @property
    def power_map(self):
        """Row j: the classes of rep_j^s for s < rep_orders[j], each power
        one product from the last; it ends with j's inverse class."""
        if self._power_map is None:
            rows = []
            for rep, m in zip(self.representatives, self.rep_orders):
                keys = [self.form.key(range(self.group.degree))]
                times = self.form.times(rep.images)
                while len(keys) < m:
                    keys.append(times(keys[-1]))
                rows.append(tuple(self.classes_of(keys)))
            self._power_map = tuple(rows)
        return self._power_map

    def conjugator(self, z):
        """The key of an element t with rep^t == z, for the key z of an
        element and rep the representative of its class.

        The first call fills the table for every element, by one
        breadth-first pass per class over the group's generators from
        the representative, using t_(y^g) = t_y g.
        """
        if self._conjugators is None:
            form, gens = self.form, self.group.generators
            moves = form.moves(gens)
            tables = [form.table(g.images) for g in gens]
            identity = form.key(range(self.group.degree))
            table = {}
            for members in self.class_elements:
                table[members[0]] = identity
                walk = [members[0]]
                for y in walk:  # reaches what it appends: breadth first
                    then = form.after(table[y])
                    for w, g in zip(form.conjugates(y, moves), tables):
                        if w not in table:
                            table[w] = then(g)
                            walk.append(w)
            self._conjugators = table
        return self._conjugators[z]

    def centralizer(self, i):
        """The elements e of the centraliser of representative r_i, where
        e^r_i == e, as sorted image tuples, from one scan of the class
        map's keys on first use."""
        if i not in self._centralizers:
            form = self.form
            moves = form.moves([self.representatives[i]])
            self._centralizers[i] = tuple(map(form.images, sorted(
                e for e in self._key_to_class
                if form.conjugates(e, moves) == [e])))
        return self._centralizers[i]


def _validated_generators(degree, generators):
    """The non-identity generators as Permutations of the given degree;
    raises MalformedInputError on a bad degree or generator."""
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
    return tuple(gens)


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
        gens = _validated_generators(degree, generators)
        self.degree = degree
        self.generators = gens
        self._levels = _build_bsgs(degree, [g.images for g in gens],
                                   [] if _chain is None else _chain,
                                   _order_cap)
        self.order = prod(len(level.inverses) for level in self._levels)
        self._cache = {}

    # -- construction helpers

    @classmethod
    def trivial(cls, degree=1):
        return cls(degree, [])

    @classmethod
    def from_generators_bounded(cls, generators, degree, order_cap):
        """The generated group, or None exactly when its order exceeds
        order_cap.

        The generators are validated first, as by the constructor. Then
        two stages run, each exact:

        1. A random Schreier-Sims chain (``_order_lower_bound``) sifts
           the generators and a fixed-seed stream of product replacement
           elements. Its strong generators are words in the inputs, so
           each partial orbit lies inside the true basic orbit and the
           product of orbit lengths is a lower bound b on the order:
           b > order_cap means None, and a false None cannot occur. The
           chain gives up after a fixed run of sifts to the identity.
        2. Otherwise the deterministic capped build runs, and returns
           None once its partial chain (a chain of a subgroup of the
           target) exceeds order_cap. So every group returned is the
           deterministic build's, whatever the random chain did.
        """
        # nothing is remembered yet, so the answer is never False
        return DistinctSubgroups(degree, order_cap).generated(generators)

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

    def elements(self):
        """All elements as a sorted tuple of image tuples."""
        if "elements" in self._cache:
            return self._cache["elements"]
        if self.order > ELEMENT_ENUMERATION_BOUND:
            raise CapacityError(
                f"group order {self.order} exceeds the element enumeration "
                f"bound {ELEMENT_ENUMERATION_BOUND}",
                bound=ELEMENT_ENUMERATION_BOUND)
        result = tuple(sorted(self._transversal_product(_TupleForm())))
        if len(result) != self.order:
            raise IntegrityError("element enumeration does not match order")
        self._cache["elements"] = result
        return result

    def _transversal_product(self, form):
        """A walk of all elements, unsorted, named by the keys of form, as
        products of one transversal element per level, the bottom
        level's first. Each transversal is taken in the order of sorted
        points, so the walk's order does not depend on the order in which
        the orbit points were found, nor on the form.

        Only the heads, the products over every level but the top one,
        are listed; the walk sends each head through the top transversal
        with one C-level ``map``, so G itself is never held."""
        heads = [form.key(range(self.degree))]
        levels = [level for level in self._levels if len(level.inverses) > 1]
        if not levels:
            return iter(heads)
        # a level with a nontrivial orbit means degree > 1, so itemgetter
        # returns tuples
        for level in reversed(levels[1:]):
            tables = list(map(form.table, level.transversal()))
            heads = [then(u) for then in map(form.after, heads)
                     for u in tables]
        return itertools.chain.from_iterable(map(
            map, map(form.after, heads),
            itertools.repeat(list(map(form.table,
                                      levels[0].transversal())))))

    def random_element(self, rng):
        """Uniformly random element via the BSGS coset decomposition: one
        transversal element per level, the bottom level's first, each
        chosen by ``rng.choice`` over the level's sorted orbit points."""
        if "random_transversals" not in self._cache:
            self._cache["random_transversals"] = [
                level.transversal() for level in reversed(self._levels)]
        t = tuple(range(self.degree))
        for transversal in self._cache["random_transversals"]:
            t = _compose(t, rng.choice(transversal))
        return Permutation._unchecked(t)

    # -- conjugacy classes

    def conjugacy_classes(self, bound=ELEMENT_ENUMERATION_BOUND):
        """Orbits of conjugation by the generators, found along the
        unsorted ``_transversal_product`` walk in the keys of the group's
        ``_element_form``, so G is held once, as the keys of the class
        map: on at most 256 points a conjugate costs two
        ``bytes.translate`` calls and a key one byte per point.

        The class map is the visited set. A walked element with no mark
        starts a class: it gets the class's raw index k, and each
        conjugate its breadth-first pass finds gets ~k until the walk
        reaches it. So a walked element that already holds k was walked
        before, and a ~k left when the walk ends marks an element the
        walk missed; both raise IntegrityError, as does a class-size sum
        off the order. The classes are then sorted and the raw indices
        remapped in place."""
        if "classes" in self._cache:
            return self._cache["classes"]
        if self.order > bound:
            raise CapacityError(
                f"group order {self.order} exceeds the element enumeration "
                f"bound {bound} for conjugacy classes", bound=bound)
        form = _element_form(self.degree)
        moves = form.moves(self.generators)
        key_to_class = {}
        raw_classes = []
        for walked, e in enumerate(self._transversal_product(form), 1):
            mark = key_to_class.get(e)
            if mark is None:
                k = len(raw_classes)
                key_to_class[e] = k
                members = form.orbit(e, moves, key_to_class, ~k)
                members.sort()
                raw_classes.append(tuple(members))
            elif mark < 0:
                key_to_class[e] = ~mark
            else:
                raise IntegrityError("element enumeration repeats an element")
        if walked != len(key_to_class):
            raise IntegrityError("element enumeration misses an element")
        raw_classes.sort(key=lambda members: (
            Permutation._unchecked(form.images(members[0])).order(),
            len(members), members[0]))
        for index, members in enumerate(raw_classes):
            # a class's own members hold its raw index until this update
            if key_to_class[members[0]] != index:
                key_to_class.update(zip(members, itertools.repeat(index)))
        result = ConjugacyClassSet(self, form, tuple(raw_classes),
                                   key_to_class)
        if sum(result.sizes) != self.order:
            raise IntegrityError("class sizes do not sum to the group order")
        self._cache["classes"] = result
        return result

    def element_orders_present(self):
        """Exact set of element orders."""
        return set(self.conjugacy_classes().rep_orders)

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

    def point_stabilizer(self, point):
        """The stabilizer of a point, read off a BSGS based at that point."""
        levels = _build_bsgs(self.degree, [g.images for g in self.generators],
                             [_Level(point, tuple(range(self.degree)))])
        # strong generators below the top level are exactly those fixing it
        chain = levels[1:]
        gens = [Permutation(g) for g, _ in chain[0].moves] if chain else []
        return PermGroup(self.degree, gens, _chain=chain)

    def normalizer(self, sub):
        """Normalizer of a subgroup: sub grown by its transporters into
        itself, each adjoined only while the group grown so far lacks it,
        so its generators are sub's and then those transporters. The
        normalizer of the trivial subgroup is self."""
        if not sub.generators:
            return self
        norm = sub
        for e in self._transporters(sub, sub):
            if not norm.contains_tuple(e):
                norm = norm._with(Permutation(e))
        return norm

    # -- quotients

    def quotient(self, sub):
        """Faithful permutation action of self on the cosets of a normal
        subgroup, of order [self : sub]: g takes tU to tgU, a coset
        because U is normal. Each coset is named by its least element."""
        if not sub.is_subgroup_of(self):
            raise DomainError("quotient requires a subgroup")
        if not self.is_normal(sub):
            raise DomainError("quotient requires a normal subgroup")
        if sub.order == self.order:
            return PermGroup.trivial(1)
        sub_elems = sub.elements()
        transversal = _least_coset_transversal(self, sub_elems)
        index_of = {t: i for i, t in enumerate(transversal)}
        images = [Permutation([
            index_of[_least_in_coset(_compose(t, g.images), sub_elems)]
            for t in transversal]) for g in self.generators]
        result = PermGroup(len(transversal), images)
        if result.order * sub.order != self.order:
            raise IntegrityError("quotient order check failed")
        return result

    # -- subgroup enumeration

    def class_intersection_profile(self, sub):
        """Per-class element counts |C intersect sub| for a subgroup, read
        off the walk of its elements in the classes' keys as it comes,
        so they are neither listed nor cached.

        It is kept in sub's cache, keyed by this group object (not its
        id, which a later group can reuse), so each pair counts once."""
        key = ("profile", self)
        if key not in sub._cache:
            classes = self.conjugacy_classes()
            counts = [0] * len(classes)
            for c in classes.classes_of(sub._transversal_product(
                    classes.form)):
                counts[c] += 1
            sub._cache[key] = tuple(counts)
        return sub._cache[key]

    def _transporters(self, a, b):
        """The elements e of self with e^-1 a e <= b, each once.

        Such an e takes a generator x of a to some y in b with the class
        of x, so e lies in t_x^-1 C t_y, where C centralises the class
        representative r and r^(t_x) = x, r^(t_y) = y. Only these cosets
        are enumerated, for the x that minimises |b cap class(x)| |C|,
        and an e is kept when it conjugates every generator of a into
        the hash set of b's elements. A trivial a yields all of self.
        The cost reads b's class-intersection profile, which b keeps.
        """
        if not a.generators:
            return iter(self.elements())
        classes = self.conjugacy_classes()
        form = classes.form
        b_keys = sorted(b._transversal_product(form))
        b_profile = self.class_intersection_profile(b)
        a_gens = [g.images for g in a.generators]

        def cost(x):
            c = classes.class_of(x)
            return b_profile[c] * (self.order // classes.sizes[c])

        x = min(a_gens, key=cost)
        c = classes.class_of(x)
        targets = [y for y, cy in zip(b_keys, classes.classes_of(b_keys))
                   if cy == c]
        if not targets:
            return iter(())
        b_set = set(b_keys)
        others = [g for g in a_gens if g != x]
        t_x_inv = _invert(form.images(classes.conjugator(form.key(x))))
        # t_x^-1 s for s in C, shared by every coset
        heads = [_compose(t_x_inv, s) for s in classes.centralizer(c)]

        def scan():
            for y in targets:
                t_y = form.images(classes.conjugator(y))
                for head in heads:
                    e = _compose(head, t_y)
                    if all(form.key(_conjugate(g, e)) in b_set
                           for g in others):
                        yield e

        return scan()

    def _subgroups_conjugate(self, a, b):
        return (a.order == b.order
                and next(self._transporters(a, b), None) is not None)

    def subgroups_up_to_conjugacy(self, max_order=SUBGROUP_ENUMERATION_BOUND):
        """One representative per conjugacy class of subgroups.

        Cyclic extension: seed with the cyclic subgroups generated by
        class representatives, then adjoin single elements e to known
        representatives U until nothing new appears. For n in
        N = N_G(U) and u, v in U, <U, u e^n v> = <U, e^n> = <U, e>^n, so
        the orbit of e, the union of the double cosets U e^n U, gives one
        candidate up to conjugacy. Only its first element in sorted order
        is adjoined, and the rest of the orbit is marked seen. Adjoining
        one e per double coset instead registers the same
        representatives in the same order: each other double coset of
        the orbit is visited after e and gives a conjugate of <U, e>:
        capped if <U, e> was, and otherwise conjugate to a class
        registered by then.
        The orbit is closed under left multiplication by U, so it is a
        union of right cosets U y, and it is marked one coset at a time:
        all of U y at once, through one product per element of U, then
        the cosets (U y)^n = U y^n for the generators n of N, U's own
        among them (U y^u = U y u for u in U). So a base costs
        [G:U] - 1 coset walks. G is walked in the keys of the class map
        (see ``_element_form``), sorted, so no other copy of G is held.
        The trivial group is registered but is never a base: its
        candidates <e> are each conjugate to a cyclic seed, so they
        would register nothing.
        A proper subgroup has order at most |G|/2, so each candidate is
        grown from U's chain with that cap and dropped as soon as its
        partial chain exceeds it. Deduplication is by class-intersection
        profile first; only on profile ties does a transporter search
        run, over the centraliser cosets that can take one generator into
        the other subgroup (see ``_transporters``).
        """
        if "subgroup_classes" in self._cache:
            return self._cache["subgroup_classes"]
        if self.order > max_order:
            raise CapacityError(
                f"group order {self.order} exceeds the subgroup enumeration "
                f"bound {max_order}", bound=max_order)
        classes = self.conjugacy_classes()
        form = classes.form

        found = []
        by_profile = {}

        def register(sub):
            if sub.order == self.order:
                return None
            profile = self.class_intersection_profile(sub)
            for idx in by_profile.get(profile, ()):
                if self._subgroups_conjugate(found[idx], sub):
                    return None
            by_profile.setdefault(profile, []).append(len(found))
            found.append(sub)
            return len(found) - 1

        queue = []
        for rep in classes.representatives:
            # the identity class comes first, so the trivial group is
            # registered first, and it is no base
            idx = register(PermGroup(self.degree, [rep]))
            if idx is not None and found[idx].order > 1:
                queue.append(idx)

        # a proper subgroup has order at most |G|/2
        cap = self.order // 2
        keys = sorted(classes._key_to_class)
        while queue:
            base = found[queue.pop(0)]
            base_keys = list(base._transversal_product(form))
            # u y for u in U, as a map from the table of y
            lefts = list(map(form.after, base_keys))
            moves = form.moves(self.normalizer(base).generators)
            seen = set(base_keys)
            for e in keys:
                if e in seen:
                    continue
                # <U, u e^n u'> = <U, e>^n: mark e's orbit coset by coset
                frontier = [e]
                while frontier:
                    y = frontier.pop()
                    if y not in seen:  # else U y is marked
                        table = form.table(y)
                        seen.update([left(table) for left in lefts])
                        frontier.extend(form.conjugates(y, moves))
                try:
                    candidate = base._with(
                        Permutation._unchecked(form.images(e)),
                        _order_cap=cap)
                except _OrderCapExceeded:
                    continue
                idx = register(candidate)
                if idx is not None:
                    queue.append(idx)

        # every registered subgroup is proper, so self comes last
        result = sorted(found, key=lambda sub: (
            sub.order, self.class_intersection_profile(sub))) + [self]
        self._cache["subgroup_classes"] = result
        return result


class DistinctSubgroups:
    """Subgroups generated by a stream of generator sets, each distinct
    one built once.

    If the generators sift to the identity through a remembered subgroup
    K whose order is the random chain's lower bound b, the group they
    generate lies in K and has order at least b = |K|, so it is K. Only
    what ``_sift`` reads is remembered: base points and inverse
    transversals, as bytes where the degree allows.
    """

    __slots__ = ("degree", "order_cap", "_chains")

    def __init__(self, degree, order_cap):
        self.degree = degree
        self.order_cap = order_cap
        self._chains = {}  # order -> chains of the subgroups of it built

    def generated(self, generators):
        """As ``from_generators_bounded``, but False for a subgroup that
        an earlier call returned."""
        gens = _validated_generators(self.degree, generators)
        images = [g.images for g in gens]
        bound = _order_lower_bound(self.degree, images, self.order_cap)
        if bound > self.order_cap:
            return None
        if self._known(bound, images):
            return False
        try:
            group = PermGroup(self.degree, gens, _order_cap=self.order_cap)
        except _OrderCapExceeded:
            return None
        # a bound below the order may hide a subgroup built before
        if group.order != bound and self._known(group.order, images):
            return False
        # bytes hold a point below 256 in one byte, a tuple in eight
        pack = _element_form(self.degree).key
        self._chains.setdefault(group.order, []).append(
            [_SiftLevel(level.beta, {a: pack(inverse) for a, inverse
                                     in level.inverses.items()})
             for level in group._levels])
        return group

    def _known(self, order, images):
        """Whether the images all sift to the identity through one
        remembered subgroup of this order."""
        identity = tuple(range(self.degree))
        return any(all(_sift(chain, t)[0] == identity for t in images)
                   for chain in self._chains.get(order, ()))

