from math import gcd

import pytest

from qsikit import catalog
from qsikit.errors import DomainError, UnsupportedCaseError
from qsikit.lietype import (
    FAMILIES,
    eliminate,
    group_order,
    is_zsigmondy_exception,
    ppd_properties,
    primitive_part,
    singer_torus_order,
    steinberg_degree,
    zsigmondy,
)


# -- zsigmondy oracle: plain trial division of d^n - 1 against all d^k - 1


def oracle_primitive_part(d, n):
    remainder = d**n - 1
    for k in range(1, n):
        lower = d**k - 1
        g = gcd(remainder, lower)
        while g > 1:
            remainder //= g
            g = gcd(remainder, lower)
    return remainder


def oracle_check(d, n, claimed, scan_cap=10**6):
    """Verify a claimed smallest ppd (or exception) by direct division.

    Exceptions, existence, and primitivity are checked fully. Minimality
    is confirmed by scanning every candidate divisor of the primitive
    part below scan_cap; the rare grid pairs whose smallest ppd exceeds
    the cap get existence, primitivity, and primality checks plus the
    scan certificate that no ppd below the cap exists.
    """
    from sympy import isprime

    remainder = oracle_primitive_part(d, n)
    if claimed is None:
        return remainder == 1
    if remainder == 1 or remainder % claimed != 0:
        return False
    # primitivity by direct divisibility
    if (d**n - 1) % claimed != 0:
        return False
    if any((d**k - 1) % claimed == 0 for k in range(1, n)):
        return False
    if not isprime(claimed):
        return False
    # minimality: every divisor of the primitive part is 1 mod n, so the
    # progression below covers all possible smaller prime factors
    candidate = n + 1
    while candidate < claimed and candidate <= scan_cap:
        if remainder % candidate == 0:
            return False
        candidate += n
    return True


def test_zsigmondy_examples():
    assert zsigmondy(2, 6) is None
    assert zsigmondy(7, 2) is None
    assert zsigmondy(2, 4) == 5
    assert zsigmondy(3, 5) == 11
    assert zsigmondy(2, 11) == 23


def test_zsigmondy_mersenne_numbers_not_just_primes():
    # 15 = 2^4 - 1 is composite, yet 15^2 - 1 = 224 = 2^5 * 7 has no
    # primitive prime divisor (2 and 7 both divide 15 - 1 = 14)
    assert zsigmondy(15, 2) is None
    assert oracle_primitive_part(15, 2) == 1


def test_zsigmondy_domain():
    with pytest.raises(DomainError):
        zsigmondy(1, 5)
    with pytest.raises(DomainError):
        zsigmondy(3, 1)


def test_zsigmondy_grid_against_oracle():
    exceptions = set()
    for d in range(2, 51):
        for n in range(2, 21):
            value = zsigmondy(d, n)
            assert oracle_check(d, n, value), (d, n, value)
            if value is None:
                exceptions.add((d, n))
    expected = {(2, 6)} | {(d, 2) for d in range(2, 51)
                           if (d + 1) & d == 0}
    assert exceptions == expected == {(2, 6), (3, 2), (7, 2), (15, 2),
                                      (31, 2)}


def test_primitive_part_structure():
    # every prime factor of the primitive part is a ppd
    from sympy import factorint

    for d, n in ((2, 10), (3, 8), (5, 6), (10, 4)):
        part = primitive_part(d, n)
        for p in factorint(part):
            assert (d**n - 1) % p == 0
            assert all((d**k - 1) % p != 0 for k in range(1, n))


def test_ppd_properties():
    props = ppd_properties(2, 4, 5)
    assert props.congruence_ok  # 5 = 1 mod 4
    props2 = ppd_properties(3, 5, 11)
    assert props2.congruence_ok
    with pytest.raises(DomainError):
        ppd_properties(2, 4, 3)  # 3 | 2^2 - 1, not primitive


def test_congruence_for_all_grid_ppds():
    for d in range(2, 15):
        for n in range(2, 11):
            p = zsigmondy(d, n)
            if p is not None:
                assert ppd_properties(d, n, p).congruence_ok


# -- order formulas


@pytest.mark.parametrize("family,n,q,simple", [
    ("PSL", 2, 5, 60),
    ("PSL", 2, 7, 168),
    ("PSL", 3, 2, 168),
    ("PSL", 2, 9, 360),
    ("PSL", 2, 11, 660),
    ("PSU", 4, 2, 25920),
    ("PSp", 2, 3, 25920),
    ("PSL", 4, 2, 20160),
    ("PSL", 2, 25, 7800),  # 5 and 13, Tits group element orders, divide it
])
def test_simple_orders(family, n, q, simple):
    assert group_order(family, n, q).simple == simple


def test_order_cross_check_against_catalog():
    pairs = [("A5", ("PSL", 2, 5)), ("A6", ("PSL", 2, 9)),
             ("PSL27", ("PSL", 3, 2)), ("PSU42", ("PSU", 4, 2))]
    for group_id, (family, n, q) in pairs:
        assert catalog.load(group_id).order == \
            group_order(family, n, q).simple


def test_non_simple_points_flagged():
    for family, n, q in (("PSL", 2, 2), ("PSL", 2, 3), ("2B2", 0, 2),
                         ("2G2", 0, 3), ("G2", 0, 2)):
        orders = group_order(family, n, q)
        assert orders.non_simple
    assert group_order("PSL", 2, 2).simple == 6
    assert not group_order("PSL", 2, 4).non_simple


def test_invalid_parameters():
    with pytest.raises(DomainError):
        group_order("PSL", 2, 6)  # not a prime power
    with pytest.raises(DomainError):
        group_order("2B2", 0, 4)  # even power of 2
    with pytest.raises(DomainError):
        group_order("2G2", 0, 27 * 3)  # even power of 3
    with pytest.raises(DomainError):
        group_order("PSU", 2, 3)  # n below the family minimum
    with pytest.raises(DomainError):
        group_order("XYZ", 2, 3)


def test_large_prime_powers_recognised():
    # q is never factored, so large primes and their powers are cheap
    p = 2**61 - 1
    for r in (1, 2, 3, 6):
        assert steinberg_degree("PSL", 2, p**r) == p**r
    # 4270 bits, past the prime test's bound, and p^70 is found by roots
    assert steinberg_degree("PSL", 2, p**70) == p**70
    assert steinberg_degree("2B2", 0, 2**201) == 2**402
    for q in (p * (2**89 - 1), 3 * p**2, p**2 * (p + 2), 36):
        with pytest.raises(DomainError, match="is not a prime power"):
            group_order("PSL", 2, q)
    with pytest.raises(DomainError):
        group_order("2B2", 0, 2**200)  # even power of 2


def test_center_divides():
    for family in FAMILIES:
        spec = FAMILIES[family]
        for q in (2, 3, 4, 5, 7, 8, 9, 27):
            try:
                orders = group_order(family, max(spec.min_n, 3), q)
            except DomainError:
                continue
            assert orders.simply_connected % orders.center == 0


# -- steinberg degrees


# q raised to the number of positive roots, counted independently of the
# order formulas the degree is read off
@pytest.mark.parametrize("family,n,q,degree", [
    ("PSL", 2, 7, 7),
    ("PSp", 2, 3, 81),
    ("PSL", 3, 2, 8),
    ("PSU", 4, 2, 64),
    ("2B2", 0, 8, 64),
    ("PSU", 3, 3, 3**3),
    ("Omega", 3, 3, 3**9),
    ("OmegaPlus", 4, 3, 3**12),
    ("G2", 0, 3, 3**6),
    ("2G2", 0, 27, 27**3),
    ("2F4", 0, 2, 2**12),
    ("E7", 0, 2, 2**63),
    ("E8", 0, 2, 2**120),
])
def test_steinberg_degrees(family, n, q, degree):
    assert steinberg_degree(family, n, q) == degree


def test_steinberg_degree_is_exact_p_part():
    from sympy import factorint

    # the degree against q to the number of positive roots, counted apart
    # from the order formulas (A_(n-1): n(n-1)/2, C_2: 4, D_4: 12, G_2: 6,
    # E_6: 36; for 2B2(q) it is sqrt(q) to the 4 of B_2), then |S| against
    # that degree: its p-part must be exactly the degree
    cases = [("PSL", 2, 7, 7**1), ("PSL", 3, 2, 2**3), ("PSp", 2, 3, 3**4),
             ("PSU", 4, 2, 2**6), ("PSL", 4, 3, 3**6),
             ("OmegaMinus", 4, 2, 2**12), ("G2", 0, 3, 3**6),
             ("2B2", 0, 8, 8**2), ("3D4", 0, 2, 2**12),
             ("E6", 0, 2, 2**36)]
    for family, n, q, expected in cases:
        degree = steinberg_degree(family, n, q)
        assert degree == expected
        orders = group_order(family, n, q)
        assert orders.simple % degree == 0
        (p,) = factorint(q).keys()
        assert orders.simple // degree % p != 0


# -- torus and singer orders


@pytest.mark.parametrize("family,n,q,expected", [
    ("PSL", 2, 4, 5),
    ("PSL", 2, 7, 8),
    ("PSp", 2, 3, 10),
    ("2B2", 0, 8, 13),
    ("2G2", 0, 27, 37),
    ("3D4", 0, 2, 13),
    ("E8", 0, 2, 331),
])
def test_singer_element_orders(family, n, q, expected):
    assert singer_torus_order(family, n, q).element_order == expected


def test_psu_even_torus_is_larger():
    spec = singer_torus_order("PSU", 4, 2)
    assert spec.element_order == 3
    assert spec.torus_order == 9


def test_torus_divides_simple_order():
    for family in ("PSL", "PSp", "PSU", "Omega", "OmegaMinus", "OmegaPlus"):
        min_n = FAMILIES[family].min_n
        for n in range(min_n, 7):
            for q in (2, 3, 4, 5, 7, 8, 9):
                try:
                    spec = singer_torus_order(family, n, q)
                except DomainError:
                    continue
                simple = group_order(family, n, q).simple
                assert simple % spec.torus_order == 0, (family, n, q)
    for family in ("2B2", "2G2", "2F4", "G2", "3D4", "F4", "E6", "2E6",
                   "E7", "E8"):
        for q in (2, 3, 4, 5, 8, 9, 27):
            try:
                spec = singer_torus_order(family, 0, q)
            except DomainError:
                continue
            simple = group_order(family, 0, q).simple
            assert simple % spec.element_order == 0, (family, q)


# -- elimination reports


def test_eliminate_psl42():
    report = eliminate("PSL", 4, 2)
    gl2 = next(c for c in report.candidates if c.label.startswith("GL2"))
    assert gl2.order_bound == 360
    assert (3, 7) in gl2.missing_primes


def test_eliminate_psl_grid_missing_claims_verify():
    for n in (4, 5, 6):
        for q in (2, 3, 4, 5):
            report = eliminate("PSL", n, q)
            simple = report.simple_order
            for candidate in report.candidates:
                for d, p in candidate.missing_primes:
                    assert simple % p == 0
                    assert candidate.order_bound % p != 0
                    assert (q**d - 1) % p == 0


def test_eliminate_psl_loses_top_ppd():
    # each field-extension candidate misses the ppd of q^(n-1) - 1, or
    # for the full-degree extension the ppd of q^(n-2) - 1
    for n in (4, 5, 6):
        for q in (2, 3, 4, 5):
            report = eliminate("PSL", n, q)
            for candidate in report.candidates:
                missing_ds = {d for d, _ in candidate.missing_primes}
                assert (n - 1) in missing_ds or (n - 2) in missing_ds, \
                    (n, q, candidate.label)


def test_eliminate_2b2():
    report = eliminate("2B2", 0, 8)
    (candidate,) = report.candidates
    assert candidate.order_bound == 4 * 13
    assert (1, 7) in candidate.missing_primes


def test_eliminate_2g2():
    report = eliminate("2G2", 0, 27)
    (candidate,) = report.candidates
    assert candidate.order_bound == 6 * 37
    # 13 is an odd divisor of q - 1 = 26
    assert (1, 13) in candidate.missing_primes


def test_eliminate_3d4():
    report = eliminate("3D4", 0, 2)
    (candidate,) = report.candidates
    assert candidate.order_bound == 4 * 13
    missing = set(candidate.missing_primes)
    assert (2, 3) in missing and (3, 7) in missing
    assert (2, 6) in report.zsigmondy_exceptions_hit


def test_eliminate_psp_flags_exception_territory():
    report = eliminate("PSp", 2, 5)
    assert "zsigmondy-exception-territory" in report.flags


def test_eliminate_unsupported_cases():
    with pytest.raises(UnsupportedCaseError):
        eliminate("G2", 0, 3)
    with pytest.raises(UnsupportedCaseError):
        eliminate("F4", 0, 2)
    with pytest.raises(UnsupportedCaseError):
        eliminate("2B2", 0, 2)  # not simple


def test_eliminate_report_reverifies():
    for args in (("PSL", 5, 3), ("2B2", 0, 32), ("2G2", 0, 27),
                 ("3D4", 0, 3), ("E8", 0, 2)):
        report = eliminate(*args)
        for candidate in report.candidates:
            for d, p in candidate.missing_primes:
                assert report.simple_order % p == 0
                assert candidate.order_bound % p != 0
                assert (args[2] ** d - 1) % p == 0


def test_exception_detection_matches_oracle():
    for d in range(2, 40):
        for n in range(2, 15):
            assert is_zsigmondy_exception(d, n) == \
                (oracle_primitive_part(d, n) == 1)
