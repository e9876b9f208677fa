"""Exact arithmetic in cyclotomic fields.

A value sum(c_k * zeta_e^k) is stored over the power basis
{1, zeta_e, ..., zeta_e^(phi(e)-1)} of Q(zeta_e), reduced modulo the
e-th cyclotomic polynomial, and always at its minimal conductor. Two
equal values therefore have identical (conductor, coefficients) data,
so equality and hashing are syntactic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd

import mpmath

from .errors import DomainError, IntegrityError
from .primes import prime_factors

_SIGN_PRECISION_DIGITS = 60


@cache
def _phi(n):
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


_cyclotomic_poly_cache = {1: (Fraction(-1), Fraction(1))}


def cyclotomic_polynomial(n):
    """Coefficient tuple (low degree first) of the n-th cyclotomic
    polynomial, computed by exact division of x^n - 1."""
    if n in _cyclotomic_poly_cache:
        return _cyclotomic_poly_cache[n]
    numerator = [Fraction(0)] * (n + 1)
    numerator[0] = Fraction(-1)
    numerator[n] = Fraction(1)
    for d in range(1, n):
        if n % d == 0:
            numerator = _poly_divide_exact(numerator, cyclotomic_polynomial(d))
    result = tuple(numerator)
    _cyclotomic_poly_cache[n] = result
    return result


def _poly_divide_exact(num, den):
    num = list(num)
    quotient = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        coeff = num[i + len(den) - 1] / den[-1]
        quotient[i] = coeff
        if coeff:
            for j, d in enumerate(den):
                num[i + j] -= coeff * d
    if any(num[: len(den) - 1]):
        raise IntegrityError("polynomial division left a remainder")
    return quotient


def _reduce_mod_cyclotomic(coeffs, n):
    """Reduce a length-n exponent vector to the power basis of Q(zeta_n)."""
    phi_n = _phi(n)
    poly = list(coeffs)
    modulus = cyclotomic_polynomial(n)
    for i in range(len(poly) - 1, phi_n - 1, -1):
        c = poly[i]
        if c:
            poly[i] = Fraction(0)
            for j in range(len(modulus) - 1):
                poly[i - len(modulus) + 1 + j] -= c * modulus[j]
    return poly[:phi_n]


class Cyclotomic:
    """An element of a cyclotomic field, in canonical form."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor, coeffs, _canonical=False):
        if _canonical:
            self.conductor = conductor
            self.coeffs = coeffs
            return
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) < conductor:
            coeffs += [Fraction(0)] * (conductor - len(coeffs))
        elif len(coeffs) > conductor:
            folded = [Fraction(0)] * conductor
            for k, c in enumerate(coeffs):
                folded[k % conductor] += c
            coeffs = folded
        reduced = _reduce_mod_cyclotomic(coeffs, conductor)
        n, reduced = _descend_to_minimal(conductor, reduced)
        self.conductor = n
        self.coeffs = tuple(reduced)

    # -- constructors

    @classmethod
    def from_rational(cls, value):
        value = Fraction(value)
        return cls(1, (value,), _canonical=True)

    @classmethod
    def zeta(cls, n, k=1):
        """The root of unity zeta_n^k."""
        if n < 1:
            raise DomainError("conductor must be >= 1")
        coeffs = [Fraction(0)] * n
        coeffs[k % n] = Fraction(1)
        return cls(n, coeffs)

    @classmethod
    def from_exponent_map(cls, n, mapping):
        coeffs = [Fraction(0)] * n
        for k, c in mapping.items():
            coeffs[k % n] += Fraction(c)
        return cls(n, coeffs)

    @staticmethod
    def _coerce(value):
        if isinstance(value, Cyclotomic):
            return value
        if isinstance(value, (int, Fraction)):
            return Cyclotomic.from_rational(value)
        return NotImplemented

    # -- full exponent form at a given conductor

    def _full_vector(self, n):
        """Exponent vector of length n (a multiple of the conductor)."""
        step = n // self.conductor
        out = [Fraction(0)] * n
        for k, c in enumerate(self.coeffs):
            out[k * step] = c
        return out

    # -- ring operations

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = self.conductor * other.conductor // gcd(self.conductor,
                                                    other.conductor)
        a = self._full_vector(n)
        for k, c in enumerate(other._full_vector(n)):
            a[k] += c
        return Cyclotomic(n, a)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, tuple(-c for c in self.coeffs),
                          _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # scaling by a nonzero rational preserves the minimal conductor
        if other.conductor == 1:
            q = other.coeffs[0]
            if q == 0:
                return Cyclotomic.from_rational(0)
            return Cyclotomic(self.conductor,
                              tuple(c * q for c in self.coeffs),
                              _canonical=True)
        if self.conductor == 1:
            q = self.coeffs[0]
            if q == 0:
                return Cyclotomic.from_rational(0)
            return Cyclotomic(other.conductor,
                              tuple(c * q for c in other.coeffs),
                              _canonical=True)
        n = self.conductor * other.conductor // gcd(self.conductor,
                                                    other.conductor)
        a = self._full_vector(n)
        b = other._full_vector(n)
        prod = [Fraction(0)] * n
        for i, ci in enumerate(a):
            if not ci:
                continue
            for j, cj in enumerate(b):
                if cj:
                    prod[(i + j) % n] += ci * cj
        return Cyclotomic(n, prod)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Cyclotomic(self.conductor,
                              tuple(c / q for c in self.coeffs),
                              _canonical=True)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def galois(self, k):
        """Apply the field automorphism zeta -> zeta^k, gcd(k, e) = 1."""
        n = self.conductor
        if gcd(k, n) != 1:
            raise DomainError(f"exponent {k} is not coprime to {n}")
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[(i * k) % n] += c
        return Cyclotomic(n, out)

    def conjugate(self):
        """Complex conjugation, zeta^k -> zeta^(e-k)."""
        if self.conductor == 1:
            return self
        return self.galois(self.conductor - 1)

    def abs_squared(self):
        """The value times its complex conjugate (a real cyclotomic)."""
        return self * self.conjugate()

    # -- predicates and conversions

    def is_zero(self):
        return self.conductor == 1 and self.coeffs[0] == 0

    def is_real(self):
        return self == self.conjugate()

    def rational_value(self):
        if self.conductor != 1:
            raise DomainError(f"value is irrational: {self!r}")
        return self.coeffs[0]

    def integer_value(self):
        value = self.rational_value()
        if value.denominator != 1:
            raise DomainError(f"value is not an integer: {self!r}")
        return int(value)

    def is_integer(self):
        return self.conductor == 1 and self.coeffs[0].denominator == 1

    def real_sign(self):
        """Exact sign of a real cyclotomic value.

        Rational values are handled exactly. Otherwise the value is
        evaluated at high precision; the result must clear an error
        bound derived from the coefficient sizes, and an ambiguous
        evaluation raises rather than guessing.
        """
        if not self.is_real():
            raise DomainError("sign of a non-real value")
        if self.conductor == 1:
            v = self.coeffs[0]
            return (v > 0) - (v < 0)
        with mpmath.workdps(_SIGN_PRECISION_DIGITS):
            z = mpmath.exp(2j * mpmath.pi / self.conductor)
            total = mpmath.mpc(0)
            magnitude = mpmath.mpf(0)
            for k, c in enumerate(self.coeffs):
                if c:
                    coeff = mpmath.mpf(c.numerator) / c.denominator
                    total += coeff * z**k
                    magnitude += abs(coeff)
            value = total.real
            error = magnitude * mpmath.mpf(10) ** (8 - _SIGN_PRECISION_DIGITS)
            if abs(value) <= error:
                raise IntegrityError(
                    "numeric sign evaluation too close to zero; "
                    "raise the working precision")
            return 1 if value > 0 else -1

    def __le__(self, other):
        other = self._coerce(other)
        diff = other - self
        if diff.is_zero():
            return True
        return diff.real_sign() > 0

    def __lt__(self, other):
        other = self._coerce(other)
        diff = other - self
        if diff.is_zero():
            return False
        return diff.real_sign() > 0

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.conductor == other.conductor
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.conductor, self.coeffs))

    def sort_key(self):
        return (self.conductor, self.coeffs)

    def __repr__(self):
        return f"Cyclotomic({self})"

    def __str__(self):
        if self.conductor == 1:
            return str(self.coeffs[0])
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"E({self.conductor})^{k}" if k > 1
                             else f"E({self.conductor})")
            else:
                power = f"E({self.conductor})^{k}" if k > 1 \
                    else f"E({self.conductor})"
                parts.append(f"{c}*{power}")
        return " + ".join(parts) if parts else "0"

    def to_json(self):
        """Conductor plus coefficient list, each coefficient [num, den]."""
        return {
            "conductor": self.conductor,
            "coefficients": [[c.numerator, c.denominator]
                             for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data):
        coeffs = [Fraction(num, den) for num, den in data["coefficients"]]
        return cls(data["conductor"], coeffs)


def _descend_to_minimal(n, coeffs):
    """Rewrite power-basis coordinates at the minimal conductor."""
    changed = True
    while changed and n > 1:
        changed = False
        for p in prime_factors(n):
            m = n // p
            down = _try_descend(n, coeffs, m)
            if down is not None:
                n, coeffs = m, down
                changed = True
                break
    return n, list(coeffs)


def _try_descend(n, coeffs, m):
    """Coordinates of the value over Q(zeta_m) if it lies there, else None.

    Solves for the value as a rational combination of the reduced images
    of zeta_m^j inside Q(zeta_n); solvability of the linear system is
    exactly membership in the subfield.
    """
    phi_n = _phi(n)
    phi_m = _phi(m)
    step = n // m
    basis_images = []
    for j in range(phi_m):
        vec = [Fraction(0)] * n
        vec[(j * step) % n] = Fraction(1)
        basis_images.append(_reduce_mod_cyclotomic(vec, n))
    # augmented system: phi_n equations, phi_m unknowns
    rows = [[basis_images[j][i] for j in range(phi_m)] + [coeffs[i]]
            for i in range(phi_n)]
    solution = _solve_exact(rows, phi_m)
    return solution


def _solve_exact(rows, n_unknowns):
    rows = [list(r) for r in rows]
    n_rows = len(rows)
    pivot_cols = []
    r = 0
    for col in range(n_unknowns):
        pivot = next((i for i in range(r, n_rows) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        factor = rows[r][col]
        rows[r] = [v / factor for v in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(col)
        r += 1
    # inconsistent -> no solution
    for i in range(r, n_rows):
        if rows[i][-1]:
            return None
    solution = [Fraction(0)] * n_unknowns
    for i, col in enumerate(pivot_cols):
        solution[col] = rows[i][-1]
    return solution


ZERO = Cyclotomic.from_rational(0)
ONE = Cyclotomic.from_rational(1)
