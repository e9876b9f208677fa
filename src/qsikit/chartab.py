"""Exact character tables of finite permutation groups.

Tables are computed by Dixon's method: the class multiplication
coefficients give commuting integer matrices whose common eigenvectors
over a prime field F_l (l = 1 mod exp(G), l > 2*sqrt(|G|)) are the
normalized irreducible characters; eigenvalue multiplicities of powers
lift each character value back to an exact cyclotomic integer.

Following Schneider's restriction of the method, no class matrix is
ever built in full. Over an echelonized basis of a still-unsplit space
the pivot rows give the coordinates of every image, and by the identity
a_ijl |C_l| = a_i'lj |C_j| (i' the inverse class) row j of class matrix
i is column j of class matrix i', rescaled. So each split reads one
column per unsplit dimension, and a class that acts as a scalar on a
space leaves it whole. The split never forms full images, so the final
rows are checked against the first orthogonality relation mod p.

All downstream operations (inner products, induction, restriction,
kernels) are exact; nothing here ever touches floating point.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import isqrt, lcm

from .cyclotomic import Cyclotomic, ONE, ZERO
from .errors import DomainError, IntegrityError
from .perm import _compose, _invert, _least_coset_transversal
from .primes import is_prime, primitive_root


class Character:
    """A class function with one cyclotomic value per conjugacy class."""

    __slots__ = ("group", "values", "_norms")

    def __init__(self, group, values):
        classes = group.conjugacy_classes()
        values = tuple(v if isinstance(v, Cyclotomic)
                       else Cyclotomic.from_rational(v) for v in values)
        if len(values) != len(classes):
            raise DomainError("one value per conjugacy class is required")
        self.group = group
        self.values = values
        self._norms = None

    @property
    def degree(self):
        return self.values[0].integer_value()

    @property
    def norms(self):
        """|chi(g)|^2 per class, worked out the first time it is asked for."""
        if self._norms is None:
            self._norms = tuple(v.abs_squared() for v in self.values)
        return self._norms

    def __add__(self, other):
        if isinstance(other, Character):
            if other.group is not self.group:
                raise DomainError("characters live on different groups")
            return Character(self.group,
                             [a + b for a, b in zip(self.values, other.values)])
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Character):
            if other.group is not self.group:
                raise DomainError("characters live on different groups")
            return Character(self.group,
                             [a - b for a, b in zip(self.values, other.values)])
        return NotImplemented

    def __mul__(self, k):
        if isinstance(k, int):
            return Character(self.group, [v * k for v in self.values])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Character) and self.group is other.group
                and self.values == other.values)

    def __hash__(self):
        return hash(self.values)

    def sort_key(self):
        return (self.degree, tuple(v.sort_key() for v in self.values))

    def __repr__(self):
        return f"Character(degree={self.degree}, values={list(map(str, self.values))})"


class CharacterTable:
    """The irreducible characters of a group, sorted by degree then values."""

    __slots__ = ("group", "classes", "irreducibles")

    def __init__(self, group, irreducibles):
        self.group = group
        self.classes = group.conjugacy_classes()
        self.irreducibles = tuple(
            sorted(irreducibles, key=lambda c: c.sort_key()))
        self._validate()

    def _validate(self):
        classes = self.classes
        if len(self.irreducibles) != len(classes):
            raise IntegrityError("number of irreducibles != number of classes")
        degree_square_sum = sum(chi.degree ** 2 for chi in self.irreducibles)
        if degree_square_sum != self.group.order:
            raise IntegrityError(
                f"sum of squared degrees {degree_square_sum} != group order "
                f"{self.group.order}")
        for chi in self.irreducibles:
            norm = inner_product(chi, chi)
            if norm != ONE:
                raise IntegrityError("irreducible has norm != 1")

    @property
    def degrees(self):
        return tuple(chi.degree for chi in self.irreducibles)

    def by_degree(self, degree):
        return [chi for chi in self.irreducibles if chi.degree == degree]

    def unique_by_degree(self, degree):
        matches = self.by_degree(degree)
        if len(matches) != 1:
            raise DomainError(
                f"{len(matches)} irreducibles of degree {degree}, not unique")
        return matches[0]

    def to_json(self):
        classes = self.classes
        return {
            "group_order": self.group.order,
            "degree": self.group.degree,
            "classes": [
                {
                    "representative": rep.cycle_string(),
                    "size": size,
                    "element_order": order,
                }
                for rep, size, order in zip(classes.representatives,
                                            classes.sizes, classes.rep_orders)
            ],
            "irreducibles": [
                {
                    "degree": chi.degree,
                    "values": [v.to_json() for v in chi.values],
                }
                for chi in self.irreducibles
            ],
        }


# ---------------------------------------------------------------------------
# modular linear algebra helpers


def _echelonize(vectors, p):
    """Fully reduced row echelon form; each pivot column is zero in every
    other row. Vectors are coordinate tuples mod p."""
    basis = []
    pivots = []
    for vec in vectors:
        vec = list(vec)
        for row, col in zip(basis, pivots):
            factor = vec[col]
            if factor:
                vec = [(a - factor * b) % p for a, b in zip(vec, row)]
        pivot = next((i for i, a in enumerate(vec) if a), None)
        if pivot is None:
            continue
        inv = pow(vec[pivot], -1, p)
        vec = [(a * inv) % p for a in vec]
        for i, row in enumerate(basis):
            factor = row[pivot]
            if factor:
                basis[i] = [(a - factor * b) % p for a, b in zip(row, vec)]
        basis.append(vec)
        pivots.append(pivot)
    return basis, pivots


def _charpoly(matrix, p):
    """Characteristic polynomial mod p by Faddeev-LeVerrier.

    Needs p > dimension, which holds for every modulus chosen here.
    """
    n = len(matrix)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # m <- matrix @ m
        m = [[sum(matrix[i][t] * m[t][j] for t in range(n)) % p
              for j in range(n)] for i in range(n)]
        trace = sum(m[i][i] for i in range(n)) % p
        c = (-trace * pow(k, -1, p)) % p
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] = (m[i][i] + c) % p
    return coeffs


def _poly_roots(coeffs, p):
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def _kernel(matrix, p):
    """Basis of the kernel of a square matrix mod p."""
    n = len(matrix)
    rows, pivots = _echelonize([tuple(r) for r in matrix], p)
    free_cols = [j for j in range(n) if j not in pivots]
    basis = []
    for free in free_cols:
        vec = [0] * n
        vec[free] = 1
        # rows are fully reduced, so each pivot depends on free columns only
        for row, col in zip(rows, pivots):
            vec[col] = (-sum(row[j] * vec[j] for j in free_cols)) % p
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# Dixon's method


def _modulus_for(group, exponent, class_count):
    # p > 2*sqrt(|G|) pins degrees and value multiplicities uniquely;
    # p > class count keeps Faddeev-LeVerrier division safe
    lower = max(2 * isqrt(group.order) + 1, class_count + 1)
    candidate = exponent + 1
    while True:
        if candidate >= lower and is_prime(candidate):
            return candidate
        candidate += exponent


def _class_column(classes, i, l, inverse_class):
    """Column l of class matrix i, as {j: #{x in C_i : x^-1 z_l in C_j}}.

    x^-1 z_l is the inverse of z_l^-1 x, which is conjugate to x z_l^-1,
    so its class is the inverse class of x z_l^-1: one product with
    z_l^-1 per member of C_i, mapped over the class's keys in C.
    """
    times = classes.form.times(_invert(classes.representatives[l].images))
    counts = Counter(classes.classes_of(
        map(times, classes.class_elements[i])))
    return {inverse_class[j]: count for j, count in counts.items()}


def character_table(group):
    """Compute the exact table of irreducible characters."""
    if "character_table" in group._cache:
        return group._cache["character_table"]
    classes = group.conjugacy_classes()
    k = len(classes)

    if k == 1:
        table = CharacterTable(group, [Character(group, [ONE])])
        group._cache["character_table"] = table
        return table

    p = _modulus_for(group, lcm(*classes.rep_orders), k)
    inverse_class = [classes.class_of(_invert(rep.images))
                     for rep in classes.representatives]

    # split the common eigenspaces by the class matrices, smallest class
    # first (its columns are the cheapest to read), until every space is
    # one-dimensional
    spaces = [([tuple(1 if i == j else 0 for j in range(k))
                for i in range(k)], list(range(k)))]
    for i in sorted(range(1, k), key=lambda i: (classes.sizes[i], i)):
        if all(len(basis) == 1 for basis, _ in spaces):
            break
        spaces = _split(classes, i, spaces, inverse_class, p)
    table = _table_from_spaces(group, spaces, p, inverse_class)
    group._cache["character_table"] = table
    return table


def _split(classes, i, spaces, inverse_class, p):
    """Split every unsplit space by the eigenspaces of class matrix i.

    The spaces are invariant because the class matrices commute, so the
    matrix restricted to a space is read off its pivot rows, one column
    of matrix i' each (see the module docstring). A space stays whole
    where the restriction is a scalar.
    """
    sizes = classes.sizes
    result = []
    for basis, pivots in spaces:
        dim = len(basis)
        if dim == 1:
            result.append((basis, pivots))
            continue
        restricted = []
        for j in pivots:
            row = _class_column(classes, inverse_class[i], j, inverse_class)
            restricted.append([sum(count * sizes[j] // sizes[l] * vec[l]
                                   for l, count in row.items()) % p
                               for vec in basis])
        scalar = restricted[0][0]
        if all(restricted[a][b] == (scalar if a == b else 0)
               for a in range(dim) for b in range(dim)):
            result.append((basis, pivots))
            continue
        pieces = []
        for lam in sorted(_poly_roots(_charpoly(restricted, p), p)):
            shifted = [[(restricted[a][b] - (lam if a == b else 0)) % p
                        for b in range(dim)] for a in range(dim)]
            pieces.append(_echelonize(
                [tuple(sum(c * vec[t] for c, vec in zip(coords, basis)) % p
                       for t in range(len(basis[0])))
                 for coords in _kernel(shifted, p)], p))
        # a commuting family of class matrices is diagonalizable over F_p;
        # eigenspaces that fall short of the space mean a wrong restriction
        if sum(len(sub_basis) for sub_basis, _ in pieces) != dim:
            raise IntegrityError(
                f"class matrix {i} is not diagonalizable on a common "
                "eigenspace")
        result += pieces
    return result


def _table_from_spaces(group, spaces, p, inverse_class):
    """The table whose irreducibles are the one-dimensional common
    eigenspaces, each lifted to exact cyclotomic values.

    The rows mod p must satisfy the first orthogonality relation,
    sum_j |C_j| chi(z_j) psi(z_j^-1) = |G| [chi = psi], over every pair:
    the split reads no full images, so this is what checks its vectors.
    """
    classes = group.conjugacy_classes()
    k = len(classes)
    order = group.order
    sizes = classes.sizes
    if not all(len(basis) == 1 for basis, _ in spaces):
        raise IntegrityError("class matrices failed to separate characters")

    rows = []
    sqrt_bound = isqrt(order)
    for basis, _ in spaces:
        vec = basis[0]
        if vec[0] == 0:
            raise IntegrityError("eigenvector vanishes on the identity class")
        scale = pow(vec[0], -1, p)
        omega = [(a * scale) % p for a in vec]
        total = 0
        for j in range(k):
            total = (total + omega[j] * omega[inverse_class[j]]
                     * pow(sizes[j], -1, p)) % p
        d_squared = (order * pow(total, -1, p)) % p
        degree = None
        for d in range(1, sqrt_bound + 1):
            if (d * d) % p == d_squared:
                degree = d
                break
        if degree is None:
            raise IntegrityError("no integer degree matches the eigenvector")
        rows.append((degree, [(omega[j] * degree * pow(sizes[j], -1, p)) % p
                              for j in range(k)]))
    for a, (_, row_a) in enumerate(rows):
        for b, (_, row_b) in enumerate(rows[a:], a):
            total = sum(size * x * row_b[j_inv] for size, x, j_inv
                        in zip(sizes, row_a, inverse_class))
            if total % p != (order % p if a == b else 0):
                raise IntegrityError(
                    "table rows fail the first orthogonality relation mod p")

    # per class of order m: the classes of rep^s for s < m, and the
    # powers theta^r (r < m) of theta = z^((p-1)/m), which has order m;
    # both serve every irreducible
    z = primitive_root(p)
    roots = {}
    for m in set(classes.rep_orders):
        theta = pow(z, (p - 1) // m, p)
        roots[m] = [pow(theta, r, p) for r in range(m)]
    lifts = [([classes.class_of((rep ** s).images) for s in range(m)],
              roots[m], pow(m, -1, p))
             for rep, m in zip(classes.representatives, classes.rep_orders)]
    irreducibles = []
    for degree, values_mod_p in rows:
        values = []
        for power_classes, powers, m_inv in lifts:
            m = len(power_classes)
            point = [values_mod_p[c] for c in power_classes]
            multiplicities = []
            for t in range(m):
                c = sum(v * powers[-t * s % m] for s, v in enumerate(point))
                multiplicities.append((c * m_inv) % p)
            if sum(multiplicities) != degree:
                raise IntegrityError(
                    "lifted eigenvalue multiplicities do not sum to the degree")
            values.append(Cyclotomic.from_exponent_map(
                m, dict(enumerate(multiplicities))))
        irreducibles.append(Character(group, values))
    return CharacterTable(group, irreducibles)


# ---------------------------------------------------------------------------
# class functions and operations


def trivial_character(group):
    classes = group.conjugacy_classes()
    return Character(group, [ONE] * len(classes))


def permutation_character(group):
    """Fixed-point counts of the natural action on points."""
    classes = group.conjugacy_classes()
    return Character(group, [rep.fixed_point_count()
                             for rep in classes.representatives])


def inner_product(a, b):
    """(1/|G|) sum over g of a(g) * conj(b(g)), computed classwise."""
    if a.group is not b.group:
        raise DomainError("inner product requires characters of one group")
    classes = a.group.conjugacy_classes()
    total = ZERO
    for size, va, vb in zip(classes.sizes, a.values, b.values):
        total = total + va * vb.conjugate() * size
    return total / a.group.order


def class_fusion(subgroup, group):
    """Map each class of the subgroup to the class of the group containing
    it, via the group's element-to-class table."""
    if not subgroup.is_subgroup_of(group):
        raise DomainError("fusion requires a subgroup")
    g_classes = group.conjugacy_classes()
    s_classes = subgroup.conjugacy_classes()
    fusion = []
    for rep, rep_order in zip(s_classes.representatives, s_classes.rep_orders):
        target = g_classes.class_of(rep.images)
        if g_classes.rep_orders[target] != rep_order:
            raise IntegrityError("fusion mismatched element orders")
        fusion.append(target)
    return tuple(fusion)


def induce(phi, group):
    """Induced character phi^G, computed classwise through the fusion."""
    subgroup = phi.group
    fusion = class_fusion(subgroup, group)
    if group.order % subgroup.order != 0:
        raise DomainError("subgroup order does not divide the group order")
    result = Character(group, _induced_values(phi, group, fusion))
    if result.degree != (group.order // subgroup.order) * phi.degree:
        raise IntegrityError("induced degree check failed")
    return result


def _induced_values(phi, group, fusion):
    """phi^G one class of G at a time, so a comparison can stop at the
    first class that differs: phi^G(g) = |C_G(g)|/|U| times the sum over
    the classes D of U fused into g's class of |D| phi(D)."""
    subgroup = phi.group
    s_sizes = subgroup.conjugacy_classes().sizes
    g_sizes = group.conjugacy_classes().sizes
    fused = [[] for _ in g_sizes]
    for s_index, g_index in enumerate(fusion):
        fused[g_index].append(s_index)
    for g_size, s_indices in zip(g_sizes, fused):
        total = ZERO
        for s_index in s_indices:
            total = total + phi.values[s_index] * s_sizes[s_index]
        yield total * Fraction(group.order, g_size * subgroup.order)


def induce_pointwise(phi, group):
    """Induced character by the transversal formula, an independent check
    of `induce`: it reads no fusion and no classwise formula.

    With T a left transversal of U in G (G is the disjoint union of the
    cosets tU) and phi° equal to phi on U and 0 off it, phi^G(x) is the
    sum of phi°(x^t) over t in T (Isaacs, Character Theory, (5.1)-(5.2)):
    x^(tu) = (x^t)^u lies in U exactly when x^t does, and in the same
    U-class. T holds the least element of each coset
    (`perm._least_coset_transversal`, which checks |T| |U| = |G|).
    Each x^t is looked up among U's classes, which hold every element of
    U: a miss means x^t is not in U.
    """
    subgroup = phi.group
    if not subgroup.is_subgroup_of(group):
        raise DomainError("induction requires a subgroup")
    g_classes = group.conjugacy_classes()
    class_of = subgroup.conjugacy_classes().class_of
    moves = [(t, _invert(t))
             for t in _least_coset_transversal(group, subgroup.elements())]
    values = []
    for rep in g_classes.representatives:
        x = rep.images
        hits = Counter(class_of(_compose(_compose(t_inv, x), t))
                       for t, t_inv in moves)
        hits.pop(None, None)  # the x^t outside U
        total = ZERO
        for index, count in sorted(hits.items()):
            total = total + phi.values[index] * count
        values.append(total)
    return Character(group, values)


def restrict(chi, subgroup):
    """Restriction of a character to a subgroup along the fusion."""
    fusion = class_fusion(subgroup, chi.group)
    return Character(subgroup, [chi.values[g_index] for g_index in fusion])


def kernel(chi):
    """The subgroup where chi takes the value chi(1); always normal.

    Built as the normal closure of those classes' representatives, which
    is the subgroup the classes generate. Its order exceeds the classes'
    total size exactly when they do not form a subgroup, which means the
    class function is not a character.
    """
    group = chi.group
    classes = group.conjugacy_classes()
    degree_value = chi.values[0]
    member_classes = [i for i, v in enumerate(chi.values)
                      if v == degree_value]
    expected = sum(classes.sizes[i] for i in member_classes)
    result = group.normal_closure(
        classes.representatives[i] for i in member_classes)
    if result.order != expected:
        raise IntegrityError(
            "kernel classes do not close into a subgroup; the class function "
            "is not a character")
    return result
