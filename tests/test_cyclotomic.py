import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from qsikit.cyclotomic import Cyclotomic, ONE, ZERO, cyclotomic_polynomial
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
