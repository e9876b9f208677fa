"""Exact character tables of finite permutation groups.

Tables are computed by Dixon's method: the class multiplication
coefficients give commuting integer matrices whose common eigenvectors
over a prime field F_l (l = 1 mod exp(G), l > 2*sqrt(|G|)) are the
normalized irreducible characters; eigenvalue multiplicities of powers
lift each character value back to an exact cyclotomic integer.

All downstream operations (inner products, induction, restriction,
kernels) are exact; nothing here ever touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .cyclotomic import Cyclotomic, ONE, ZERO
from .errors import DomainError, IntegrityError
from .perm import _compose, _invert
from .primes import is_prime, primitive_root


class Character:
    """A class function with one cyclotomic value per conjugacy class."""

    __slots__ = ("group", "values")

    def __init__(self, group, values):
        classes = group.conjugacy_classes()
        values = tuple(v if isinstance(v, Cyclotomic)
                       else Cyclotomic.from_rational(v) for v in values)
        if len(values) != len(classes):
            raise DomainError("one value per conjugacy class is required")
        self.group = group
        self.values = values

    @property
    def degree(self):
        return self.values[0].integer_value()

    def value_at(self, perm):
        classes = self.group.conjugacy_classes()
        return self.values[classes.class_of(perm)]

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

    def index_of(self, chi):
        return self.irreducibles.index(chi)

    def trivial_character(self):
        return next(chi for chi in self.irreducibles
                    if all(v == ONE for v in chi.values))

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


def _mat_vec(matrix, vector, p):
    return tuple(sum(row[j] * vector[j] for j in range(len(vector))) % p
                 for row in matrix)


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


def _coordinates(basis, pivots, vector, p):
    """Coordinates of a vector over an echelonized basis."""
    vec = list(vector)
    coords = []
    for row, col in zip(basis, pivots):
        c = vec[col]
        coords.append(c)
        if c:
            vec = [(a - c * b) % p for a, b in zip(vec, row)]
    if any(vec):
        raise IntegrityError("vector is outside the invariant subspace")
    return coords


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


def _class_matrix(classes, i):
    """Matrix A with A[j][l] = #{x in C_i : x^-1 z_l in C_j}, mod nothing."""
    k = len(classes)
    matrix = [[0] * k for _ in range(k)]
    lookup = classes.element_to_class
    inverses = [_invert(x) for x in classes.class_elements[i]]
    for l in range(k):
        z = classes.representatives[l].images
        for xi in inverses:
            j = lookup[_compose(xi, z)]
            matrix[j][l] += 1
    return matrix


def character_table(group):
    """Compute the exact table of irreducible characters."""
    if "character_table" in group._cache:
        return group._cache["character_table"]
    classes = group.conjugacy_classes()
    k = len(classes)
    order = group.order

    if k == 1:
        table = CharacterTable(group, [Character(group, [ONE])])
        group._cache["character_table"] = table
        return table

    exponent = 1
    for m in classes.rep_orders:
        exponent = exponent * m // gcd(exponent, m)
    p = _modulus_for(group, exponent, k)

    # split the common eigenspaces of the class matrices, smallest class
    # first (its matrix is cheapest to build)
    spaces = [([tuple(1 if i == j else 0 for j in range(k))
                for i in range(k)], list(range(k)))]
    class_order = sorted(range(1, k), key=lambda i: (classes.sizes[i], i))
    for i in class_order:
        if all(len(basis) == 1 for basis, _ in spaces):
            break
        matrix = [[a % p for a in row]
                  for row in _class_matrix(classes, i)]
        spaces = _split_by_eigenspaces(spaces, matrix, p)
    if not all(len(basis) == 1 for basis, _ in spaces):
        raise IntegrityError("class matrices failed to separate characters")

    omegas = []
    for basis, _ in spaces:
        vec = basis[0]
        if vec[0] == 0:
            raise IntegrityError("eigenvector vanishes on the identity class")
        scale = pow(vec[0], -1, p)
        omegas.append(tuple((a * scale) % p for a in vec))

    inverse_class = [classes.element_to_class[_invert(rep.images)]
                     for rep in classes.representatives]

    irreducibles = []
    z = primitive_root(p)
    sqrt_bound = isqrt(order)
    for omega in omegas:
        total = 0
        for j in range(k):
            total = (total + omega[j] * omega[inverse_class[j]]
                     * pow(classes.sizes[j], -1, p)) % p
        d_squared = (order * pow(total, -1, p)) % p
        degree = None
        for d in range(1, sqrt_bound + 1):
            if (d * d) % p == d_squared:
                degree = d
                break
        if degree is None:
            raise IntegrityError("no integer degree matches the eigenvector")
        values_mod_p = [(omega[j] * degree * pow(classes.sizes[j], -1, p)) % p
                        for j in range(k)]
        values = []
        for j in range(k):
            rep = classes.representatives[j]
            m = classes.rep_orders[j]
            power_classes = [classes.element_to_class[(rep ** s).images]
                             for s in range(m)]
            theta = pow(z, (p - 1) // m, p)
            m_inv = pow(m, -1, p)
            multiplicities = []
            for t in range(m):
                c = 0
                for s in range(m):
                    c = (c + values_mod_p[power_classes[s]]
                         * pow(theta, (-t * s) % (p - 1), p)) % p
                multiplicities.append((c * m_inv) % p)
            if sum(multiplicities) != degree:
                raise IntegrityError(
                    "lifted eigenvalue multiplicities do not sum to the degree")
            values.append(Cyclotomic.from_exponent_map(
                m, dict(enumerate(multiplicities))))
        irreducibles.append(Character(group, values))

    table = CharacterTable(group, irreducibles)
    group._cache["character_table"] = table
    return table


def _split_by_eigenspaces(spaces, matrix, p):
    """Split every subspace by the eigenspaces of one class matrix.

    Each subspace is invariant because the class matrices commute, so the
    restriction of the matrix to the subspace is well defined.
    """
    result = []
    for basis, pivots in spaces:
        if len(basis) == 1:
            result.append((basis, pivots))
            continue
        images = [_mat_vec(matrix, vec, p) for vec in basis]
        dim = len(basis)
        restricted = [[0] * dim for _ in range(dim)]
        for col, img in enumerate(images):
            for row, c in enumerate(_coordinates(basis, pivots, img, p)):
                restricted[row][col] = c
        for lam in sorted(_poly_roots(_charpoly(restricted, p), p)):
            shifted = [[(restricted[a][b] - (lam if a == b else 0)) % p
                        for b in range(dim)] for a in range(dim)]
            kernel_vectors = []
            for coords in _kernel(shifted, p):
                vec = [0] * len(basis[0])
                for c, bvec in zip(coords, basis):
                    if c:
                        for t in range(len(vec)):
                            vec[t] = (vec[t] + c * bvec[t]) % p
                kernel_vectors.append(tuple(vec))
            if kernel_vectors:
                sub_basis, sub_pivots = _echelonize(kernel_vectors, p)
                if sub_basis:
                    result.append((sub_basis, sub_pivots))
    return result


# ---------------------------------------------------------------------------
# class functions and operations


def trivial_character(group):
    classes = group.conjugacy_classes()
    return Character(group, [ONE] * len(classes))


def regular_character(group):
    classes = group.conjugacy_classes()
    values = [Cyclotomic.from_rational(group.order)]
    values += [ZERO] * (len(classes) - 1)
    return Character(group, values)


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
        target = g_classes.element_to_class[rep.images]
        if g_classes.rep_orders[target] != rep_order:
            raise IntegrityError("fusion mismatched element orders")
        fusion.append(target)
    return tuple(fusion)


def induce(phi, group, fusion=None):
    """Induced character phi^G, computed classwise through the fusion."""
    subgroup = phi.group
    if fusion is None:
        fusion = class_fusion(subgroup, group)
    s_classes = subgroup.conjugacy_classes()
    g_classes = group.conjugacy_classes()
    if len(fusion) != len(s_classes):
        raise IntegrityError("fusion length does not match subgroup classes")
    if group.order % subgroup.order != 0:
        raise DomainError("subgroup order does not divide the group order")
    values = [ZERO] * len(g_classes)
    for s_index, g_index in enumerate(fusion):
        values[g_index] = (values[g_index]
                           + phi.values[s_index] * s_classes.sizes[s_index])
    # phi^G(g) = |C_G(g)|/|U| * sum over fused classes D of |D| phi(D)
    scaled = [values[g_index] * Fraction(group.order,
                                         g_classes.sizes[g_index]
                                         * subgroup.order)
              for g_index in range(len(g_classes))]
    result = Character(group, scaled)
    if result.degree != (group.order // subgroup.order) * phi.degree:
        raise IntegrityError("induced degree check failed")
    return result


def induce_pointwise(phi, group):
    """Induced character by the raw averaging formula, summing over every
    group element. Slow; used as an independent check of `induce`.

    For U = G the sum collapses exactly: phi(x^y) ranges over the class
    of x, each value hit |C_G(x)| times, so the average is phi(x).
    """
    subgroup = phi.group
    if not subgroup.is_subgroup_of(group):
        raise DomainError("induction requires a subgroup")
    g_classes = group.conjugacy_classes()
    if subgroup.order == group.order:
        fusion = class_fusion(subgroup, group)
        values = [None] * len(g_classes)
        for s_index, g_index in enumerate(fusion):
            values[g_index] = phi.values[s_index]
        return Character(group, values)
    s_classes = subgroup.conjugacy_classes()
    elements = group.elements()
    inverses = [_invert(y) for y in elements]
    membership = subgroup.contains_tuple
    lookup = s_classes.element_to_class
    values = []
    for rep in g_classes.representatives:
        x = rep.images
        hits = {}
        for y, y_inv in zip(elements, inverses):
            conj = _compose(_compose(y_inv, x), y)
            if membership(conj):
                index = lookup[conj]
                hits[index] = hits.get(index, 0) + 1
        total = ZERO
        for index, count in sorted(hits.items()):
            total = total + phi.values[index] * count
        values.append(total / subgroup.order)
    return Character(group, values)


def restrict(chi, subgroup, fusion=None):
    """Restriction of a character to a subgroup along the fusion."""
    group = chi.group
    if fusion is None:
        fusion = class_fusion(subgroup, group)
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
