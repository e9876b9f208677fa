import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from qsikit.cyclotomic import (
    Cyclotomic, ONE, ZERO, _phi, _reduce_mod_cyclotomic, cyclotomic_polynomial)
from qsikit.errors import DomainError

# (sqrt 5 - 1)/2 = zeta_5 + zeta_5^-1
GOLDEN = Cyclotomic.zeta(5) + Cyclotomic.zeta(5, 4)


def golden_sign(p, q):
    """Exact sign of (sqrt 5 - 1)/2 - p/q for q > 0 and 2p + q > 0:
    that of sqrt 5 q - (2p + q), hence of 5 q^2 - (2p + q)^2."""
    d = 5 * q * q - (2 * p + q) ** 2
    return (d > 0) - (d < 0)


def fibonacci_convergents(count):
    """F(k-1)/F(k), k = 2, 3, ...: the convergents of (sqrt 5 - 1)/2."""
    p, q = 1, 1
    for _ in range(count):
        p, q = q, p + q
        yield p, q


def mpmath_value(value, digits=200):
    """sum c_k cos(2 pi k / n) at the given working precision."""
    with mpmath.workdps(digits):
        return mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator
            * mpmath.cospi(mpmath.mpf(2 * k) / value.conductor)
            for k, c in enumerate(value.coeffs))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # Phi_105 is the first with a coefficient other than 0 and +-1
    phi105 = cyclotomic_polynomial(105)
    assert len(phi105) == 49 and phi105[7] == -2
    assert all(type(c) is int for c in phi105)


def test_roots_of_unity_sum_to_zero():
    for n in (2, 3, 4, 5, 6, 8, 9, 12):
        total = ZERO
        for k in range(n):
            total = total + Cyclotomic.zeta(n, k)
        assert total.is_zero(), n


def test_canonical_equality_across_conductors():
    # zeta_6 = 1 + zeta_3 lives in the conductor-3 field
    z6 = Cyclotomic.zeta(6)
    assert z6.conductor == 3
    assert z6 == Cyclotomic.from_exponent_map(3, {0: 1, 1: 1})
    # even-over-odd conductors always collapse
    assert Cyclotomic.zeta(10).conductor == 5
    assert Cyclotomic.zeta(4).conductor == 4


def test_rational_collapse():
    z5 = Cyclotomic.zeta(5)
    value = z5 + z5**2 + z5**3 + z5**4
    assert value == Cyclotomic.from_rational(-1)
    assert value.conductor == 1 and value.integer_value() == -1
    with pytest.raises(DomainError):
        z5.rational_value()


def test_ring_axioms_randomized():
    rng = random.Random(5)

    def random_value():
        n = rng.choice([1, 3, 4, 5, 8, 12])
        return Cyclotomic.from_exponent_map(
            n, {rng.randrange(n): Fraction(rng.randint(-3, 3),
                                           rng.randint(1, 3))
                for _ in range(2)})

    for _ in range(60):
        a, b, c = random_value(), random_value(), random_value()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert (a - a).is_zero()


def test_conjugation():
    z7 = Cyclotomic.zeta(7)
    assert z7.conjugate() == Cyclotomic.zeta(7, 6)
    assert z7.abs_squared() == ONE
    value = 2 * z7 + 3 * z7**2
    assert value.conjugate().conjugate() == value
    # conjugation is a ring homomorphism
    other = z7**3 - 1
    assert (value * other).conjugate() == value.conjugate() * other.conjugate()


def test_golden_ratio_arithmetic():
    # zeta_5 + zeta_5^-1 = (-1 + sqrt 5)/2 satisfies x^2 + x - 1 = 0
    g = Cyclotomic.zeta(5) + Cyclotomic.zeta(5, 4)
    assert g.is_real()
    assert (g * g + g - 1).is_zero()
    assert g.real_sign() == 1
    assert (g - 1).real_sign() == -1


def test_real_comparisons():
    g = Cyclotomic.zeta(5) + Cyclotomic.zeta(5, 4)  # about 0.618
    assert g <= ONE
    assert not (ONE <= g)
    assert g <= g
    half = Cyclotomic.from_rational(Fraction(1, 2))
    assert half <= g


def test_reflected_comparisons_with_rationals():
    # >= and > reflect onto <= and <, so a rational works on either side
    assert GOLDEN >= 0
    assert GOLDEN > 0
    assert 0 < GOLDEN
    assert Fraction(1, 2) <= GOLDEN
    assert not GOLDEN >= 1
    assert not GOLDEN > GOLDEN


def test_comparison_with_an_unsupported_type_raises_type_error():
    one = Cyclotomic.from_rational(1)
    for compare in (lambda: one <= 0.5, lambda: one < 0.5,
                    lambda: one >= 0.5, lambda: one > 0.5,
                    lambda: 0.5 <= one):
        with pytest.raises(TypeError, match="not supported between instances"):
            compare()


def test_ordering_a_non_real_value_raises_domain_error():
    with pytest.raises(DomainError):
        Cyclotomic.zeta(3) >= 0
    with pytest.raises(DomainError):
        Cyclotomic.zeta(3) > 0


real_terms = st.dictionaries(
    st.integers(min_value=0, max_value=59),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    min_size=1, max_size=6)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=3, max_value=60), real_terms,
       st.integers(min_value=1, max_value=12))
def test_real_sign_matches_mpmath(n, terms, digits):
    value = Cyclotomic.from_exponent_map(n, terms)
    value = value + value.conjugate()
    numeric = mpmath_value(value)
    # a rational within 10^-digits of the value leaves a nearly
    # cancelling difference, still far from the 200-digit oracle's error
    approx = Fraction(str(mpmath.nstr(numeric, digits + 5, min_fixed=-1,
                                      max_fixed=1)))
    approx = approx.limit_denominator(10**digits)
    for x in (value, value - approx):
        expected = mpmath_value(x)
        if x.is_zero():
            assert x.real_sign() == 0
            continue
        assert abs(expected) > mpmath.mpf(10) ** -150
        assert x.real_sign() == (1 if expected > 0 else -1)


def test_golden_ratio_convergent_differences_are_exact():
    for p, q in fibonacci_convergents(90):
        for r in (p - 1, p, p + 1):
            diff = GOLDEN - Fraction(r, q)
            assert diff.real_sign() == golden_sign(r, q), (r, q)
            assert (GOLDEN < Fraction(r, q)) == (golden_sign(r, q) < 0)
    # 832040/1346269 = F(30)/F(31) is within 3e-13 of (sqrt 5 - 1)/2
    assert (GOLDEN - Fraction(832040, 1346269)).real_sign() == 1
    sqrt5 = 2 * GOLDEN + 1
    assert (sqrt5 - Fraction(2207, 987)).real_sign() == golden_sign(610, 987)


def test_sign_of_a_value_near_zero_does_not_raise():
    # F(150)/F(151) is within 10^-62 of (sqrt 5 - 1)/2, below what a
    # 60-digit evaluation can tell from zero
    *_, (p, q) = fibonacci_convergents(149)
    diff = GOLDEN - Fraction(p, q)
    assert abs(mpmath_value(diff, 400)) < mpmath.mpf(10) ** -62
    assert diff.real_sign() == golden_sign(p, q) == 1


def test_sign_of_non_real_raises():
    with pytest.raises(DomainError):
        Cyclotomic.zeta(3).real_sign()


def test_galois_orbit():
    z9 = Cyclotomic.zeta(9)
    with pytest.raises(DomainError):
        z9.galois(3)
    assert z9.galois(2).galois(5) == z9.galois(10 % 9)


def test_json_round_trip():
    import json

    values = [ONE, ZERO, Cyclotomic.zeta(12) * 3 - 2,
              Cyclotomic.from_rational(Fraction(-7, 3))]
    for v in values:
        data = json.loads(json.dumps(v.to_json()))
        coeffs = [Fraction(num, den) for num, den in data["coefficients"]]
        assert Cyclotomic(data["conductor"], coeffs) == v


def test_hash_consistency():
    a = Cyclotomic.zeta(6)
    b = Cyclotomic.from_exponent_map(3, {0: 1, 1: 1})
    assert a == b and hash(a) == hash(b)


# -- descent to the minimal conductor, against a linear solve


def reference_descend_to_minimal(n, coeffs):
    """The minimal conductor by linear algebra: the value lies in
    Q(zeta_m) exactly when it is a rational combination of the reduced
    images of zeta_m^j in Q(zeta_n). Restarts after every descent."""
    changed = True
    while changed and n > 1:
        changed = False
        for p in sorted({p for p in range(2, n + 1)
                         if n % p == 0 and all(p % q for q in range(2, p))}):
            down = reference_try_descend(n, coeffs, n // p)
            if down is not None:
                n, coeffs = n // p, down
                changed = True
                break
    return n, tuple(coeffs)


def reference_try_descend(n, coeffs, m):
    phi_n, phi_m = _phi(n), _phi(m)
    images = []
    for j in range(phi_m):
        vec = [Fraction(0)] * n
        vec[j * (n // m)] = Fraction(1)
        images.append(_reduce_mod_cyclotomic(vec, n))
    rows = [[images[j][i] for j in range(phi_m)] + [coeffs[i]]
            for i in range(phi_n)]
    return reference_solve_exact(rows, phi_m)


def reference_solve_exact(rows, n_unknowns):
    """Gauss-Jordan elimination; None if the system is inconsistent."""
    rows = [list(r) for r in rows]
    pivot_cols = []
    r = 0
    for col in range(n_unknowns):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(col)
        r += 1
    if any(row[-1] for row in rows[r:]):
        return None
    solution = [Fraction(0)] * n_unknowns
    for i, col in enumerate(pivot_cols):
        solution[col] = rows[i][-1]
    return solution


def assert_matches_reference(n, terms):
    """Cyclotomic(n, ...) of sum c zeta_n^k over terms {k: c} has the
    solver's minimal conductor and coordinates, all of them Fractions."""
    vec = [Fraction(0)] * n
    for k, c in terms.items():
        vec[k % n] += Fraction(c)
    value = Cyclotomic(n, vec)
    expected = reference_descend_to_minimal(
        n, _reduce_mod_cyclotomic(vec, n))
    assert (value.conductor, value.coeffs) == expected, (n, terms)
    assert all(type(c) is Fraction for c in value.coeffs), (n, terms)
    return value


def test_descent_matches_the_linear_solve():
    # p^2 | n (8, 9, 12, 25, 72), p || n (15, 21, 105), n = 2m with m
    # odd (6, 14, 30, 66) and prime n (2, 7, 11), up to conductor 120
    rng = random.Random(17)
    conductors = [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 14, 15, 16, 18, 20,
                  21, 24, 25, 27, 28, 30, 36, 45, 60, 66, 72, 84, 90, 105,
                  120]
    descended = 0
    for _ in range(400):
        n = rng.choice(conductors)
        # a value of a random subfield Q(zeta_d), written at conductor n
        d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        terms = {}
        for _ in range(rng.randint(1, 4)):
            k = rng.randrange(d) * (n // d)
            terms[k] = terms.get(k, 0) + Fraction(rng.randint(-4, 4),
                                                  rng.randint(1, 3))
        if rng.random() < 0.3:
            terms[rng.randrange(n)] = Fraction(rng.randint(-2, 2))
        value = assert_matches_reference(n, terms)
        descended += value.conductor < n
    assert descended > 200


def test_values_outside_every_subfield_stay():
    # zeta_7 + zeta_7^-1 generates the real subfield of Q(zeta_7)
    value = assert_matches_reference(7, {1: 1, 6: 1})
    assert value.conductor == 7
    # sqrt 2 = zeta_8 + zeta_8^-1 lies in no Q(zeta_4)
    sqrt2 = assert_matches_reference(8, {1: 1, 7: 1})
    assert sqrt2.conductor == 8 and (sqrt2 * sqrt2).integer_value() == 2
    # i sqrt 3 = zeta_3 - zeta_3^2 written at 12 goes down to 3 only
    assert assert_matches_reference(12, {4: 1, 8: -1}).conductor == 3
    # zeta_5 written at 10 as -zeta_10^7, and zeta_9^3 = zeta_3
    assert assert_matches_reference(10, {7: -1}) == Cyclotomic.zeta(5)
    assert assert_matches_reference(9, {3: 1}) == Cyclotomic.zeta(3)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=1, max_value=120),
       st.integers(min_value=1, max_value=6),
       st.dictionaries(st.integers(min_value=0, max_value=119),
                       st.fractions(min_value=-5, max_value=5,
                                    max_denominator=6),
                       min_size=1, max_size=5))
def test_descent_property(n, lift, terms):
    value = assert_matches_reference(n, terms)
    # written at a multiple of its conductor, a value comes back down
    up = Cyclotomic.from_exponent_map(
        value.conductor * lift,
        {k * lift: c for k, c in enumerate(value.coeffs)})
    assert up == value
