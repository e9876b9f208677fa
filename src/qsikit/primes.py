"""Primality, factorisation and primitive roots in the standard library.

`is_prime` is exact below 3 317 044 064 679 887 385 961 981: there
Miller-Rabin to the thirteen prime bases 2, ..., 41 has no strong
pseudoprime (Sorenson and Webster, 2015). At or above that bound it is
the strong BPSW test (Baillie and Wagstaff, 1980): a base-2 strong
probable-prime test and a strong Lucas test with Selfridge's parameters.
No composite is known to pass it, but none is proven not to. A number
of more than _PRIME_TEST_BITS bits with no prime factor below 1000 is
not tested: `is_prime` raises `CapacityError` instead of spending
seconds in BPSW (a 4096-bit prime takes about 0.9 s on a Xeon core).

`prime_factors` gives up with `CapacityError` when its Pollard rho runs
would pass _RHO_WORK, counted as iterations times the bit length of the
number iterated on, since that is roughly what an iteration costs. It is
reached within about a second, and lets rho find a prime factor of up to
about 38 bits in a 100-bit number, or of about 32 bits in an 800-bit one.
"""

from functools import cache
from itertools import compress, count
from math import gcd, isqrt

from .errors import CapacityError

_SMALL_PRIMES = tuple(p for p in range(2, 1000)
                      if all(p % d for d in range(2, isqrt(p) + 1)))
_MR_BASES = _SMALL_PRIMES[:13]  # 2, 3, ..., 41
_MR_EXACT_BELOW = 3317044064679887385961981
_PRIME_TEST_BITS = 4096  # the longest number is_prime tests after division
_PM1_BOUND = 30000  # smoothness bound B of the p - 1 stage
_RHO_WORK = 2**27  # bit-iterations of x -> x^2 + c in one factorisation


def _strong_probable_prime(n, a):
    """Miller-Rabin to base a, for odd n > a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    a, result = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n):
    """Strong Lucas test with P = 1 and Selfridge's D, for odd n that is
    not a perfect square and has no prime factor below 1000."""
    D = 5  # the first of 5, -7, 9, -11, ... with (D/n) = -1
    while _jacobi(D, n) != -1:
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d * 2^s, d odd
    d = (n + 1) >> s
    # U_k, V_k and Q^k for k = 1, then doubling and stepping along d's bits
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n
            U = (U + n if U % 2 else U) // 2
            V = (V + n if V % 2 else V) // 2
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n):
    """Whether n is prime; see the module docstring for the proven range."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    if n < _MR_EXACT_BELOW:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    if n.bit_length() > _PRIME_TEST_BITS:
        raise CapacityError(
            f"a {n.bit_length()}-bit number is above the primality test "
            f"bound of {_PRIME_TEST_BITS} bits", bound=_PRIME_TEST_BITS)
    return (isqrt(n) ** 2 != n and _strong_probable_prime(n, 2)
            and _strong_lucas_probable_prime(n))


def _brent_rho(n, c, left):
    """A divisor of the composite n by Pollard rho in Brent's variant,
    iterating x -> x^2 + c; n itself when this c fails.

    left is a one-item list of the work the factorisation may still
    spend. A window of length r is charged 2r iterations, its most, times
    the bit length of n, and CapacityError is raised before a window that
    left cannot pay for."""
    y, r, q, g = 2, 1, 1, 1
    while g == 1:
        cost = 2 * r * n.bit_length()
        if cost > left[0]:
            raise CapacityError(
                f"no factor of a {n.bit_length()}-bit number within the "
                f"Pollard rho bound of {_RHO_WORK} bit-iterations",
                bound=_RHO_WORK)
        left[0] -= cost
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            k += 128
        r *= 2
    if g == n:  # the batch overshot: step through it one value at a time
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
    return g


@cache
def _pm1_exponent():
    """The product, over the primes up to B, of each one's largest power
    that is at most B: every p - 1 whose prime powers are all at most B
    divides it. Built on first use, so importing the module stays
    cheap."""
    sieve = bytearray([1]) * (_PM1_BOUND + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(_PM1_BOUND) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, _PM1_BOUND + 1, p)))
    exponent = 1
    for p in compress(range(_PM1_BOUND + 1), sieve):
        power = p
        while power * p <= _PM1_BOUND:
            power *= p
        exponent *= power
    return exponent


def _pollard_pm1(n):
    """A proper divisor of the odd composite n by Pollard's p - 1 method
    (one stage, bound B), or None. The gcd it takes holds every prime p
    of n whose p - 1 divides the exponent (and any other p where the
    order of 2 does); None when that is no prime of n or all of them."""
    g = gcd(pow(2, _pm1_exponent(), n) - 1, n)
    return g if 1 < g < n else None


def prime_factors(n):
    """The distinct prime factors of n >= 1, in increasing order.

    Trial division by the primes below 1000 comes first. Each composite
    left after it goes to Pollard's p - 1 method, which splits off the
    primes with a smooth p - 1 at the cost of one modular power, and, if
    that fails, to Pollard rho in Brent's variant, which raises
    CapacityError past its work bound _RHO_WORK.
    """
    found = set()
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            found.add(p)
            while n % p == 0:
                n //= p
    stack = [n] if n > 1 else []
    left = [_RHO_WORK]
    while stack:
        m = stack.pop()
        if is_prime(m):
            found.add(m)
            continue
        d = _pollard_pm1(m) or next(
            d for d in (_brent_rho(m, c, left) for c in count(1)) if d != m)
        stack += [d, m // d]
    return sorted(found)


def primitive_root(p):
    """The smallest primitive root modulo the prime p."""
    if p == 2:
        return 1
    cofactors = [(p - 1) // q for q in prime_factors(p - 1)]
    return next(g for g in count(2)
                if all(pow(g, e, p) != 1 for e in cofactors))
