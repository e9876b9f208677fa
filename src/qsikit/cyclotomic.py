"""Exact arithmetic in cyclotomic fields.

A value sum(c_k * zeta_e^k) is stored over the power basis
{1, zeta_e, ..., zeta_e^(phi(e)-1)} of Q(zeta_e), reduced modulo the
e-th cyclotomic polynomial, and always at its minimal conductor. Two
equal values therefore have identical (conductor, coefficients) data,
so equality and hashing are syntactic.

The minimal conductor is found one prime p of e at a time, by testing
whether the value lies in Q(zeta_(e/p)): a scan of the coordinates when
p^2 | e, and otherwise a comparison with its relative trace over p - 1,
the projection onto Q(zeta_(e/p)). Neither needs linear algebra.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .errors import DomainError, IntegrityError
from .primes import prime_factors


@cache
def _phi(n):
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


@cache
def cyclotomic_polynomial(n):
    """Integer coefficient tuple (low degree first) of the n-th
    cyclotomic polynomial: x^n - 1 divided by Phi_d for every proper
    divisor d of n. Each Phi_d is monic, so the division is exact in
    integers."""
    numerator = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            numerator = _poly_divide_exact(numerator, cyclotomic_polynomial(d))
    return tuple(numerator)


def _poly_divide_exact(num, den):
    """Quotient of integer polynomials by a monic divisor, which must
    leave no remainder."""
    num = list(num)
    top = len(den) - 1
    quotient = [0] * (len(num) - top)
    for i in range(len(quotient) - 1, -1, -1):
        coeff = quotient[i] = num[i + top]
        if coeff:
            for j, d in enumerate(den):
                num[i + j] -= coeff * d
    if any(num[:top]):
        raise IntegrityError("polynomial division left a remainder")
    return quotient


def _reduce_mod_cyclotomic(coeffs, n):
    """Reduce a length-n exponent vector to the power basis of Q(zeta_n)."""
    phi_n = _phi(n)
    poly = list(coeffs)
    # x^phi(n) = -(the lower terms of Phi_n), which is monic
    lower = [(j, a) for j, a in enumerate(cyclotomic_polynomial(n)[:-1])
             if a]
    for i in range(len(poly) - 1, phi_n - 1, -1):
        c = poly[i]
        if c:
            for j, a in lower:
                poly[i - phi_n + j] -= c * a
    return poly[:phi_n]


class Cyclotomic:
    """An element of a cyclotomic field, in canonical form."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor, coeffs, _canonical=False):
        if _canonical:
            self.conductor = conductor
            self.coeffs = coeffs
            return
        coeffs = [c if isinstance(c, Fraction) else Fraction(c)
                  for c in coeffs]
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
        if self.conductor == 1:
            self, other = other, self
        # scaling by a nonzero rational preserves the minimal conductor
        if other.conductor == 1:
            q = other.coeffs[0]
            if q == 0:
                return Cyclotomic.from_rational(0)
            return Cyclotomic(self.conductor,
                              tuple(c * q for c in self.coeffs),
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

    def real_sign(self):
        """Exact sign of a real cyclotomic value, in integer arithmetic.

        Rational values are compared directly. Otherwise the value is
        irrational, hence nonzero, and D times it is the algebraic
        integer y = sum a_k zeta_n^k, where D is the lcm of the
        coefficient denominators. Each of the phi(n) Galois conjugates
        of y has absolute value at most B = sum |a_k|, and their product
        is a nonzero integer, so |y| >= B^-(phi(n)-1). The sign is that
        of sum a_k T_k, where T_k is 2^P cos(2 pi k / n) to within one
        unit (see ``_cosines``). The sum is then less than B units from
        2^P y, and B <= 2^P |y| / 2 once 2^P >= 2 B^phi(n), which any
        P > phi(n) * bitlength(B) ensures. P is rounded up to a multiple
        of 64 so that the cosine tables are shared.
        """
        if not self.is_real():
            raise DomainError("sign of a non-real value")
        if self.conductor == 1:
            v = self.coeffs[0]
            return (v > 0) - (v < 0)
        n = self.conductor
        scale = lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (scale // c.denominator) for c in self.coeffs]
        bound = sum(map(abs, ints))
        # phi(n) * bitlength(B) + 1 bits, rounded up to a multiple of 64
        precision = (_phi(n) * bound.bit_length() // 64 + 1) * 64
        total = sum(a * t for a, t in zip(ints, _cosines(n, precision)))
        return 1 if total > 0 else -1

    def __le__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        diff = other - self
        if diff.is_zero():
            return True
        return diff.real_sign() > 0

    def __lt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        diff = other - self
        if diff.is_zero():
            return False
        return diff.real_sign() > 0

    def __ge__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other <= self

    def __gt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other < self

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


@cache
def _cosines(n, precision):
    """The integers T_k, k < phi(n), each within one unit of
    2^precision cos(2 pi k / n).

    pi comes from Machin's formula 16 arctan(1/5) - 4 arctan(1/239) and
    each cosine from its Taylor series at an angle in [0, pi/2], by the
    symmetries cos(t) = cos(2 pi - t) = -cos(pi - t). Both run in fixed
    point with G = bitlength(precision) + 8 guard bits, W = precision +
    G bits in all. Every term is truncated once or twice and stays
    within two units of 2^-W, and the series have fewer than W/4 terms
    each, so pi is off by less than 9 W units, an angle by less than
    5 W and a cosine by less than 6 W. Since W <= 2 precision, that is
    under a tenth of a unit of 2^-precision once shifted down by G
    bits, and rounding to nearest adds at most a half.
    """
    guard = precision.bit_length() + 8
    one = 1 << (precision + guard)
    pi = 4 * (4 * _arctan_inverse(5, one) - _arctan_inverse(239, one))
    half = 1 << (guard - 1)
    table = []
    for k in range(_phi(n)):
        m = min(k, n - k)  # the angle 2 pi m / n lies in [0, pi]
        if 4 * m <= n:
            value = _cos_fixed(pi * 2 * m // n, one)
        else:
            value = -_cos_fixed(pi * (n - 2 * m) // n, one)
        table.append((value + half) >> guard)
    return tuple(table)


def _arctan_inverse(m, one):
    """one * arctan(1/m) by its alternating series, terms truncated."""
    total = 0
    power = one // m
    square = m * m
    k = 1
    while power:
        term = power // k
        total += term if k % 4 == 1 else -term
        power //= square
        k += 2
    return total


def _cos_fixed(x, one):
    """one * cos(x / one) by its Taylor series, for 0 <= x / one <= pi/2."""
    x2 = x * x // one
    term = total = one
    j = 0
    while term:
        j += 2
        term = term * x2 // (one * (j - 1) * j)
        total += -term if j % 4 == 2 else term
    return total


def _descend_to_minimal(n, coeffs):
    """Rewrite power-basis coordinates at the minimal conductor.

    One pass over the primes of n is enough: a value outside
    Q(zeta_(n/p)) lies in no Q(zeta_(d/p)) for d | n, so once the
    descent by p fails it fails at every smaller conductor too.
    """
    for p in prime_factors(n):
        while n % p == 0:
            down = _descend(n, coeffs, p)
            if down is None:
                break
            n, coeffs = n // p, down
    return n, coeffs


def _descend(n, coeffs, p):
    """Coordinates of the value over Q(zeta_m), m = n/p, if it lies
    there, else None (Washington, Introduction to Cyclotomic Fields,
    ch. 2).

    If p^2 | n, the power basis of Q(zeta_n) is {zeta_n^(i + p j) =
    zeta_n^i zeta_m^j : i < p, j < phi(m)}, with 1, ..., zeta_n^(p-1) a
    basis over Q(zeta_m). The value lies in Q(zeta_m) exactly when its
    coordinates off the multiples of p are zero. If p || n, Q(zeta_n)
    has degree p - 1 over Q(zeta_m), and the relative trace over p - 1
    projects onto Q(zeta_m): it keeps zeta_n^k = zeta_m^(k/p) for p | k
    and sends any other zeta_n^k to -zeta_m^(k p^-1 mod m) / (p - 1).
    The value lies in Q(zeta_m) exactly when the projection keeps it.
    """
    m = n // p
    if m % p == 0:
        if any(c for k, c in enumerate(coeffs) if k % p):
            return None
        return coeffs[::p]
    inverse = pow(p, -1, m)
    down = [Fraction(0)] * m
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k % p == 0:
            down[k // p] += c
        else:
            down[k * inverse % m] -= c / (p - 1)
    down = _reduce_mod_cyclotomic(down, m)
    up = [Fraction(0)] * n
    up[:p * len(down):p] = down  # zeta_m^j = zeta_n^(p j)
    if _reduce_mod_cyclotomic(up, n) != coeffs:
        return None
    return down


ZERO = Cyclotomic.from_rational(0)
ONE = Cyclotomic.from_rational(1)
