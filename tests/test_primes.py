import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint, isprime, nextprime
from sympy import primitive_root as sympy_primitive_root

import qsikit
from qsikit.errors import CapacityError
from qsikit.primes import (
    _PRIME_TEST_BITS,
    _pollard_pm1,
    is_prime,
    prime_factors,
    primitive_root,
)

# is_prime switches from Miller-Rabin to strong BPSW at this bound
MR_EXACT_BELOW = 3317044064679887385961981

budget = settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)

CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841,
              29341, 41041, 46657, 52633, 62745, 63973, 75361, 101101,
              115921, 126217, 162401, 172081, 188461, 252601, 278545,
              294409, 314821, 334153, 340561, 399001, 410041, 449065,
              488881, 512461)

# the smallest strong pseudoprime to all of the first k prime bases,
# for k = 1, 2, ..., 13 (the last one is the Miller-Rabin bound itself)
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1
                                   for r in range(1, s))


def test_small_range_matches_sympy():
    primes = [n for n in range(-3, 20000) if is_prime(n)]
    assert primes == [n for n in range(-3, 20000) if isprime(n)]
    for p in primes[:700]:
        assert primitive_root(p) == sympy_primitive_root(p)


@budget
@given(st.integers(min_value=2, max_value=MR_EXACT_BELOW - 1))
def test_is_prime_below_the_bound(n):
    assert is_prime(n) == isprime(n)


@budget
@given(st.integers(min_value=MR_EXACT_BELOW, max_value=2**200))
def test_is_prime_at_and_above_the_bound(n):
    assert is_prime(n) == isprime(n)


@settings(budget, max_examples=60)
@given(st.integers(min_value=MR_EXACT_BELOW, max_value=2**160))
def test_bpsw_on_primes_and_their_products(n):
    p = nextprime(n)
    assert is_prime(p)
    assert not is_prime(p * nextprime(p))
    assert not is_prime(p * p)


def test_carmichael_numbers_are_composite():
    for n in CARMICHAEL:
        factors = factorint(n)
        # Korselt: squarefree with p - 1 | n - 1 for every prime p | n
        assert len(factors) >= 3 and set(factors.values()) == {1}
        assert all((n - 1) % (p - 1) == 0 for p in factors)
        assert not is_prime(n)


def test_strong_pseudoprimes_are_composite():
    for k, n in enumerate(STRONG_PSEUDOPRIMES, start=1):
        assert all(strong_probable_prime(n, a) for a in PRIME_BASES[:k])
        assert not isprime(n)
        assert not is_prime(n)
    # the bound itself is a strong pseudoprime to every base below 43,
    # so only the BPSW branch can reject it
    assert STRONG_PSEUDOPRIMES[-1] == MR_EXACT_BELOW


def test_is_prime_refuses_numbers_above_its_bit_bound():
    assert _PRIME_TEST_BITS == 4096
    # the 4096-bit safe prime of RFC 3526's MODP group 16
    with mpmath.workprec(4200):
        pi_bits = int(mpmath.floor(mpmath.ldexp(mpmath.pi, 3966)))
    p = 2**4096 - 2**4032 - 1 + 2**64 * (pi_bits + 240904)
    assert p.bit_length() == 4096
    assert is_prime(p)
    # the Fermat number 2^4096 + 1 (4097 bits) has no prime factor below
    # 1000, so only the bound stops the test
    with pytest.raises(CapacityError, match="bound of 4096 bits") as exc:
        is_prime(2**4096 + 1)
    assert exc.value.bound == _PRIME_TEST_BITS
    # trial division still answers above the bound
    assert not is_prime(3 * 2**5000)


@budget
@given(st.integers(min_value=1, max_value=2**60))
def test_prime_factors_match_factorint(n):
    assert prime_factors(n) == sorted(factorint(n))


@settings(budget, max_examples=40)
@given(st.integers(min_value=2**16, max_value=2**32),
       st.integers(min_value=2**16, max_value=2**32),
       st.integers(min_value=1, max_value=3))
def test_prime_factors_of_products_of_large_primes(a, b, e):
    p, q = nextprime(a), nextprime(b)
    assert prime_factors(p**e * q) == sorted({p, q})


def test_pollard_pm1_splits_the_primitive_part_of_50_19():
    # zsigmondy(50, 19) factors this 102-bit number; its smaller prime p
    # has a smooth p - 1, the larger one does not
    n = (50**19 - 1) // 49
    p = 41958116255687
    assert factorint(p - 1) == {2: 1, 19: 1, 53: 1, 499: 1, 1907: 1,
                                21893: 1}
    assert _pollard_pm1(n) == p
    expected = sorted(factorint(n))
    assert prime_factors(n) == expected
    # every prime of 1009 * p has a smooth p - 1, so the p - 1 stage
    # gets all of it back and leaves the split to rho
    assert factorint(1008) == {2: 4, 3: 2, 7: 1}
    assert _pollard_pm1(1009 * p) is None
    assert prime_factors(1009 * n) == [1009] + expected


@budget
@given(st.integers(min_value=1, max_value=10**7))
def test_primitive_root_is_sympys(n):
    p = nextprime(n)
    assert primitive_root(p) == sympy_primitive_root(p)


def loaded_modules(statement, env):
    """Top-level names in sys.modules of a fresh interpreter after it
    runs the statement."""
    code = (f"import sys; {statement}; "
            "print(*(name.partition('.')[0] for name in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_import_leaves_sympy_out():
    src = Path(qsikit.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    loaded = loaded_modules("import qsikit.cli", env)
    assert "sympy" not in loaded
    # compared with a bare start, which may already load site hooks:
    # nothing beyond the standard library and qsikit itself
    added = loaded - loaded_modules("pass", env)
    assert added - set(sys.stdlib_module_names) == {"qsikit"}
