"""Order arithmetic for finite groups of Lie type.

Covers Zsigmondy primitive prime divisors, simply-connected and simple
group orders, Steinberg character degrees, the distinguished maximal
torus and Singer element orders used in the overgroup analysis, and the
prime-divisor elimination reports for candidate maximal overgroups.

Everything is exact integer arithmetic; every claim a report emits can
be re-verified by plain divisibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, isqrt

from .errors import DomainError, UnsupportedCaseError
from .primes import is_prime, prime_factors

# fast scan tries this many candidate divisors before factoring
_SCAN_LIMIT = 60000


# ---------------------------------------------------------------------------
# Zsigmondy primitive prime divisors


def is_zsigmondy_exception(d, n):
    """The pairs for which d^n - 1 has no primitive prime divisor:
    (2, 6), and n = 2 with d + 1 a power of two (d a Mersenne number)."""
    if d == 2 and n == 6:
        return True
    return n == 2 and (d + 1) & d == 0


def primitive_part(d, n):
    """d^n - 1 with every factor shared with some d^k - 1 (k < n) removed.

    Every prime factor of the result is a primitive prime divisor, and
    the result is 1 exactly when no primitive prime divisor exists.
    """
    r = d**n - 1
    for k in range(1, n):
        lower = d**k - 1
        g = gcd(r, lower)
        while g > 1:
            r //= g
            g = gcd(r, lower)
    return r


def zsigmondy(d, n):
    """Smallest primitive prime divisor of d^n - 1, or None in the
    exception cases (hard-coded; the test oracle re-derives them)."""
    if d < 2 or n < 2:
        raise DomainError("zsigmondy requires d >= 2 and n >= 2")
    if is_zsigmondy_exception(d, n):
        return None
    r = primitive_part(d, n)
    # every divisor of r is 1 mod n, so scan that progression; the first
    # divisor found is the smallest prime factor
    candidate = n + 1
    steps = 0
    while candidate * candidate <= r and steps < _SCAN_LIMIT:
        if r % candidate == 0:
            return candidate
        candidate += n
        steps += 1
    if candidate * candidate > r:
        return r
    # rare large cases (within the test grid only d^19 - 1 for a few d)
    return prime_factors(r)[0]


@dataclass(frozen=True)
class PpdProperties:
    d: int
    n: int
    prime: int
    congruence_ok: bool

    def divisibility_rule(self, m):
        """True iff 'prime | d^m - 1 implies n | m' holds for this m."""
        if pow(self.d, m, self.prime) != 1:
            return True
        return m % self.n == 0


def ppd_properties(d, n, p):
    """Check p = 1 mod n and expose the order-divisibility rule for a
    primitive prime divisor p of d^n - 1."""
    if pow(d, n, p) != 1 or any(pow(d, k, p) == 1 for k in range(1, n)):
        raise DomainError(f"{p} is not a primitive prime divisor of "
                          f"{d}^{n} - 1")
    return PpdProperties(d, n, p, p % n == 1)


# ---------------------------------------------------------------------------
# families and order formulas


def _prime_power(q):
    primes = prime_factors(q) if q >= 2 else ()
    if len(primes) != 1:
        raise DomainError(f"q = {q} is not a prime power")
    p, r = primes[0], 0
    while q > 1:
        q, r = q // p, r + 1
    return p, r


def _gl_order(m, q):
    result = q ** (m * (m - 1) // 2)
    for i in range(1, m + 1):
        result *= q**i - 1
    return result


def _gu_order(m, q):
    result = q ** (m * (m - 1) // 2)
    for i in range(1, m + 1):
        result *= q**i - (-1) ** i
    return result


def _sp_order(m, q):
    result = q ** (m * m)
    for i in range(1, m + 1):
        result *= q ** (2 * i) - 1
    return result


def _omega_minus_sc(m, q):
    result = q ** (m * (m - 1)) * (q**m + 1)
    for i in range(1, m):
        result *= q ** (2 * i) - 1
    return result


@dataclass(frozen=True)
class LieFamily:
    tag: str
    parametric: bool
    min_n: int = 0
    # exceptional-family constraint on q as (characteristic, odd exponent)
    twisted_char: int | None = None


FAMILIES = {
    "PSL": LieFamily("PSL", True, 2),
    "PSp": LieFamily("PSp", True, 2),
    "PSU": LieFamily("PSU", True, 3),
    "Omega": LieFamily("Omega", True, 2),
    "OmegaMinus": LieFamily("OmegaMinus", True, 2),
    "OmegaPlus": LieFamily("OmegaPlus", True, 2),
    "2B2": LieFamily("2B2", False, twisted_char=2),
    "2G2": LieFamily("2G2", False, twisted_char=3),
    "2F4": LieFamily("2F4", False, twisted_char=2),
    "G2": LieFamily("G2", False),
    "3D4": LieFamily("3D4", False),
    "F4": LieFamily("F4", False),
    "E6": LieFamily("E6", False),
    "2E6": LieFamily("2E6", False),
    "E7": LieFamily("E7", False),
    "E8": LieFamily("E8", False),
}

# evaluation points that are not simple (solvable, or with a proper
# simple derived subgroup); formulas stay meaningful, callers decide
NON_SIMPLE_POINTS = {
    ("PSL", 2, 2), ("PSL", 2, 3),
    ("PSU", 3, 2),
    ("PSp", 2, 2),
    ("Omega", 2, 2),
    ("G2", 0, 2),
    ("2B2", 0, 2), ("2G2", 0, 3), ("2F4", 0, 2),
}

_P_POWER_EXPONENT = {
    "PSL": lambda n: n * (n - 1) // 2,
    "PSp": lambda n: n * n,
    "PSU": lambda n: n * (n - 1) // 2,
    "Omega": lambda n: n * n,
    "OmegaMinus": lambda n: n * (n - 1),
    "OmegaPlus": lambda n: n * (n - 1),
    "2B2": lambda n: 2,
    "2G2": lambda n: 3,
    "2F4": lambda n: 12,
    "G2": lambda n: 6,
    "3D4": lambda n: 12,
    "F4": lambda n: 24,
    "E6": lambda n: 36,
    "2E6": lambda n: 36,
    "E7": lambda n: 63,
    "E8": lambda n: 120,
}


def _validate(tag, n, q):
    if tag not in FAMILIES:
        raise DomainError(f"unknown family {tag!r}; known: "
                          f"{', '.join(sorted(FAMILIES))}")
    family = FAMILIES[tag]
    p, r = _prime_power(q)
    if family.parametric:
        if n < family.min_n:
            raise DomainError(f"{tag} requires n >= {family.min_n}")
    elif n not in (0, None):
        raise DomainError(f"{tag} takes no rank parameter")
    if family.twisted_char is not None:
        if p != family.twisted_char or r % 2 == 0:
            raise DomainError(
                f"{tag} requires q an odd power of {family.twisted_char}")
    return family, p, r


def _sc_and_center(tag, n, q):
    if tag == "PSL":
        sc = q ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            sc *= q**i - 1
        return sc, gcd(n, q - 1)
    if tag in ("PSp", "Omega"):
        return _sp_order(n, q), gcd(2, q - 1)
    if tag == "PSU":
        sc = q ** (n * (n - 1) // 2)
        for i in range(2, n + 1):
            sc *= q**i - (-1) ** i
        return sc, gcd(n, q + 1)
    if tag == "OmegaMinus":
        return _omega_minus_sc(n, q), gcd(4, q**n + 1)
    if tag == "OmegaPlus":
        sc = q ** (n * (n - 1)) * (q**n - 1)
        for i in range(1, n):
            sc *= q ** (2 * i) - 1
        return sc, gcd(4, q**n - 1)
    if tag == "2B2":
        return q**2 * (q**2 + 1) * (q - 1), 1
    if tag == "2G2":
        return q**3 * (q**3 + 1) * (q - 1), 1
    if tag == "2F4":
        return (q**12 * (q**6 + 1) * (q**4 - 1) * (q**3 + 1) * (q - 1)), 1
    if tag == "G2":
        return q**6 * (q**6 - 1) * (q**2 - 1), 1
    if tag == "3D4":
        return (q**12 * (q**8 + q**4 + 1) * (q**6 - 1) * (q**2 - 1)), 1
    if tag == "F4":
        return (q**24 * (q**12 - 1) * (q**8 - 1) * (q**6 - 1)
                * (q**2 - 1)), 1
    if tag == "E6":
        return (q**36 * (q**12 - 1) * (q**9 - 1) * (q**8 - 1) * (q**6 - 1)
                * (q**5 - 1) * (q**2 - 1)), gcd(3, q - 1)
    if tag == "2E6":
        return (q**36 * (q**12 - 1) * (q**9 + 1) * (q**8 - 1) * (q**6 - 1)
                * (q**5 + 1) * (q**2 - 1)), gcd(3, q + 1)
    if tag == "E7":
        sc = q**63
        for i in (18, 14, 12, 10, 8, 6, 2):
            sc *= q**i - 1
        return sc, gcd(2, q - 1)
    if tag == "E8":
        sc = q**120
        for i in (30, 24, 20, 18, 14, 12, 8, 2):
            sc *= q**i - 1
        return sc, 1
    raise DomainError(f"no order formula for {tag}")


@dataclass(frozen=True)
class GroupOrder:
    family: str
    n: int
    q: int
    simply_connected: int
    center: int
    simple: int
    non_simple: bool

    def to_json(self):
        return {
            "family": self.family,
            "n": self.n,
            "q": self.q,
            "simply_connected": self.simply_connected,
            "center": self.center,
            "simple": self.simple,
            "non_simple_point": self.non_simple,
        }


def group_order(tag, n, q):
    """Simply-connected order, center order, and the quotient."""
    family, _, _ = _validate(tag, n, q)
    if not family.parametric:
        n = 0
    sc, center = _sc_and_center(tag, n, q)
    if sc % center != 0:
        raise DomainError("center does not divide the group order")
    non_simple = (tag, n, q) in NON_SIMPLE_POINTS or \
        (tag == "OmegaPlus" and n == 2)
    return GroupOrder(tag, n, q, sc, center, sc // center, non_simple)


def steinberg_degree(tag, n, q):
    """Degree of the Steinberg character: the full p-part of the simple
    group order, q raised to the number of positive roots."""
    family, _, _ = _validate(tag, n, q)
    exponent = _P_POWER_EXPONENT[tag](n if family.parametric else 0)
    return q**exponent


# ---------------------------------------------------------------------------
# distinguished torus and Singer element orders


@dataclass(frozen=True)
class TorusSpec:
    family: str
    n: int
    q: int
    element_order: int
    torus_order: int

    def to_json(self):
        return {
            "family": self.family,
            "n": self.n,
            "q": self.q,
            "element_order": self.element_order,
            "torus_order": self.torus_order,
        }


def _exact_sqrt(value):
    root = isqrt(value)
    if root * root != value:
        raise DomainError(f"{value} is not a perfect square")
    return root


def singer_torus_order(tag, n, q):
    """Order of the distinguished (Singer-type) element and of the
    containing maximal torus in the simply-connected group."""
    family, _, _ = _validate(tag, n, q)
    if tag == "PSL":
        ord_x = (q**n - 1) // (q - 1)
        return TorusSpec(tag, n, q, ord_x, ord_x)
    if tag == "PSp":
        ord_x = q**n + 1
        return TorusSpec(tag, n, q, ord_x, ord_x)
    if tag == "PSU":
        if n % 2 == 1:
            ord_x = (q**n + 1) // (q + 1)
            return TorusSpec(tag, n, q, ord_x, ord_x)
        ord_x = (q ** (n - 1) + 1) // (q + 1)
        return TorusSpec(tag, n, q, ord_x, ord_x * (q + 1))
    if tag == "Omega":
        if q % 2 == 0:
            raise DomainError("odd-dimensional orthogonal torus data "
                              "requires odd q")
        ord_x = (q**n + 1) // 2
        return TorusSpec(tag, n, q, ord_x, ord_x)
    if tag == "OmegaMinus":
        ord_x = (q**n + 1) // gcd(2, q - 1)
        return TorusSpec(tag, n, q, ord_x, ord_x)
    if tag == "OmegaPlus":
        ord_x = (q ** (n - 1) + 1) // gcd(2, q - 1)
        return TorusSpec(tag, n, q, ord_x, ord_x * (q + 1))
    if not family.parametric:
        n = 0
        ord_x = _exceptional_element_order(tag, q)
        return TorusSpec(tag, n, q, ord_x, ord_x)
    raise DomainError(f"no torus data for {tag}")


def _exceptional_element_order(tag, q):
    if tag == "2B2":
        return q + _exact_sqrt(2 * q) + 1
    if tag == "2G2":
        return q + _exact_sqrt(3 * q) + 1
    if tag == "2F4":
        return q**2 + _exact_sqrt(2 * q**3) + q + _exact_sqrt(2 * q) + 1
    if tag == "G2":
        return q**2 - q + 1
    if tag in ("3D4", "F4"):
        return q**4 - q**2 + 1
    if tag == "E6":
        return q**6 + q**3 + 1
    if tag == "2E6":
        return q**6 - q**3 + 1
    if tag == "E7":
        return (q + 1) * (q**6 - q**3 + 1)
    if tag == "E8":
        return q**8 + q**7 - q**5 - q**4 - q**3 + q + 1
    raise DomainError(f"no torus row for {tag}")


# ---------------------------------------------------------------------------
# elimination reports


@dataclass(frozen=True)
class CandidateOvergroup:
    label: str
    order_bound: int
    missing_primes: tuple  # of (d, prime) pairs

    def to_json(self):
        return {
            "label": self.label,
            "order_bound": self.order_bound,
            "missing_primes": [{"d": d, "prime": p}
                               for d, p in self.missing_primes],
        }


@dataclass
class EliminationReport:
    family: str
    n: int
    q: int
    simple_order: int
    steinberg_degree: int
    element_order: int
    candidates: list
    zsigmondy_exceptions_hit: list = field(default_factory=list)
    flags: list = field(default_factory=list)

    def to_json(self):
        return {
            "family": self.family,
            "n": self.n,
            "q": self.q,
            "simple_order": self.simple_order,
            "steinberg_degree": self.steinberg_degree,
            "element_order": self.element_order,
            "candidates": [c.to_json() for c in self.candidates],
            "zsigmondy_exceptions_hit": [{"d": d, "n": e}
                                         for d, e in
                                         self.zsigmondy_exceptions_hit],
            "flags": self.flags,
        }

    def text_table(self):
        lines = [
            f"{self.family}({self.n},{self.q})" if self.n
            else f"{self.family}({self.q})",
            f"  |S| = {self.simple_order}",
            f"  Steinberg degree |S|_p = {self.steinberg_degree}",
            f"  torus element order = {self.element_order}",
        ]
        if self.flags:
            lines.append(f"  flags: {', '.join(self.flags)}")
        for d, e in self.zsigmondy_exceptions_hit:
            lines.append(f"  zsigmondy exception hit: {d}^{e} - 1")
        for candidate in self.candidates:
            lines.append(f"  overgroup {candidate.label}: order bound "
                         f"{candidate.order_bound}")
            if candidate.missing_primes:
                for d, p in candidate.missing_primes:
                    lines.append(f"    misses {p} (divides q^{d} - 1 "
                                 f"and |S|)")
            else:
                lines.append("    no missing primes found by the scan")
        return "\n".join(lines)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


_D_MAX = {
    "PSL": lambda n: n,
    "PSp": lambda n: 2 * n,
    "PSU": lambda n: 2 * n,
    "Omega": lambda n: 2 * n,
    "OmegaMinus": lambda n: 2 * n,
    "OmegaPlus": lambda n: 2 * n,
    "2B2": lambda n: 4,
    "2G2": lambda n: 6,
    "2F4": lambda n: 12,
    "G2": lambda n: 6,
    "3D4": lambda n: 12,
    "F4": lambda n: 12,
    "E6": lambda n: 12,
    "2E6": lambda n: 18,
    "E7": lambda n: 18,
    "E8": lambda n: 30,
}


def _candidate_overgroups(tag, n, q, flags):
    """Order bounds for the maximal overgroups of the distinguished
    element, with small structural multipliers included."""
    if tag == "PSL":
        return [(f"GL{n // r}(q^{r}).{r}", _gl_order(n // r, q**r) * r)
                for r in _divisors(n)[1:]]
    if tag == "PSp":
        if n == 2 or (n, q) == (4, 2):
            flags.append("zsigmondy-exception-territory")
        out = [(f"Sp{2 * n // r}(q^{r}).{r}", _sp_order(n // r, q**r) * r)
               for r in _divisors(n)[1:] if is_prime(r)]
        if n % 2 == 1:
            out.append((f"GU{n}(q).2", _gu_order(n, q) * 2))
        out.append((f"O-{2 * n}(q).2", 2 * _omega_minus_sc(n, q)))
        return out
    if tag == "PSU":
        if n % 2 == 1:
            if (n, q) == (5, 2):
                flags.append("zsigmondy-exception-territory")
            if n == 3 and (q + 1) & q == 0:
                flags.append("mersenne-q-special-case")
            return [(f"GU{n // r}(q^{r}).{r}", _gu_order(n // r, q**r) * r)
                    for r in _divisors(n)[1:] if is_prime(r) and r % 2 == 1]
        return [(f"GU1(q)xGU{n - 1}(q)",
                 _gu_order(1, q) * _gu_order(n - 1, q) * 2)]
    if tag == "Omega":
        return [(f"O1(q)xO-{2 * n}(q)", 2 * 2 * _omega_minus_sc(n, q))]
    if tag == "OmegaMinus":
        if (n, q) == (4, 2):
            flags.append("zsigmondy-exception-territory")
        out = [(f"O-{2 * n // r}(q^{r}).{r}",
                2 * _omega_minus_sc(n // r, q**r) * r)
               for r in _divisors(n)[1:] if is_prime(r)]
        out.append((f"GU{n}(q).2", _gu_order(n, q) * 2))
        return out
    if tag == "OmegaPlus":
        out = [(f"GU{n}(q).2", _gu_order(n, q) * 2)] if n % 2 == 0 else []
        if n % 2 == 1:
            if (n, q) == (5, 2):
                flags.append("zsigmondy-exception-territory")
            out.append((f"O{n}(q^2).2", 2 * 2 * _sp_order((n - 1) // 2,
                                                          q**2)))
        out.append((f"O1(q)xO{2 * n - 1}(q)", 2 * 2 * _sp_order(n - 1, q)))
        out.append((f"O2-(q)xO-{2 * n - 2}(q)",
                    2 * (q + 1) * 2 * _omega_minus_sc(n - 1, q)))
        return out
    # exceptional families: the unique overgroup is the torus normalizer
    # or a fixed subfield-type subgroup
    element = _exceptional_element_order(tag, q)
    if tag in ("2B2", "3D4"):
        return [("N(T) = T.4", 4 * element)]
    if tag == "2G2":
        return [("N(T) = T.6", 6 * element)]
    if tag == "2F4":
        return [("N(T) = T.12", 12 * element)]
    if tag == "G2":
        if q <= 4:
            raise UnsupportedCaseError(
                "G2 with q <= 4 needs the direct subgroup check, which is "
                "not encoded here")
        return [("SU3(q).2", _gu_order(3, q) // (q + 1) * (q + 1) * 2)]
    if tag == "F4":
        if q == 2:
            raise UnsupportedCaseError(
                "F4(2) uses a different element class; not encoded here")
        return [("3D4(q).3", group_order("3D4", 0, q).simply_connected * 3)]
    if tag == "E6":
        return [("SL3(q^3).3", _gl_order(3, q**3) // (q**3 - 1)
                 * (q**3 - 1) * 3 // gcd(3, q - 1))]
    if tag == "2E6":
        return [("SU3(q^3).3", _gu_order(3, q**3) * 3 // gcd(3, q + 1))]
    if tag == "E7":
        if q == 2:
            raise UnsupportedCaseError(
                "E7(2) uses a different element class; not encoded here")
        sub = group_order("2E6", 0, q).simply_connected
        return [("(Z(q+1) x 2E6(q)).2", (q + 1) * sub * 2 // gcd(2, q - 1))]
    if tag == "E8":
        return [("N(T) = T.30", 30 * element)]
    raise UnsupportedCaseError(f"no overgroup table for {tag}")


def eliminate(tag, n, q):
    """Which primitive prime divisors of the simple group order each
    candidate overgroup misses; Zsigmondy exception cases are flagged
    for manual handling rather than silently skipped."""
    family, _, _ = _validate(tag, n, q)
    if not family.parametric:
        n = 0
    orders = group_order(tag, n, q)
    if orders.non_simple:
        raise UnsupportedCaseError(
            f"{tag}({n},{q}) is not simple; elimination applies to simple "
            f"groups only")
    flags = []
    raw_candidates = _candidate_overgroups(tag, n, q, flags)
    simple = orders.simple
    d_max = _D_MAX[tag](n)
    exceptions_hit = []
    primes_by_d = []
    for d in range(1, d_max + 1):
        if d == 1:
            primes_by_d.append((1, prime_factors(q - 1)))
            continue
        p = zsigmondy(q, d)
        if p is None:
            exceptions_hit.append((q, d))
            primes_by_d.append((d, []))
        else:
            primes_by_d.append((d, [p] if simple % p == 0 else []))
    candidates = []
    for label, bound in raw_candidates:
        missing = []
        for d, primes in primes_by_d:
            for p in primes:
                if bound % p != 0:
                    missing.append((d, p))
        candidates.append(CandidateOvergroup(label, bound, tuple(missing)))
    return EliminationReport(tag, n, q, simple,
                             steinberg_degree(tag, n, q),
                             singer_torus_order(tag, n, q).element_order,
                             candidates, exceptions_hit, flags)

