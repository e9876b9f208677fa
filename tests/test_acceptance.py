"""Acceptance suite: one test per criterion, each timed against its
stated budget and printing one PASS/FAIL line (visible with pytest -s).
"""

import time
from math import gcd

from qsikit import catalog, paper
from qsikit.chartab import (
    character_table,
    induce,
    inner_product,
    kernel,
)
from qsikit.cyclotomic import Cyclotomic, ONE, ZERO
from qsikit.lietype import eliminate, group_order, zsigmondy
from qsikit.perm import PermGroup, Permutation
from qsikit.qsi import (
    SearchBounds,
    decide_qsi_group,
    group_is_qsi,
    steinberg_kernel_constraint,
    verify_qsi_witness,
)
from qsikit.smallgroups import all_groups

from test_lietype import oracle_check


class Criterion:
    def __init__(self, number, limit_seconds, label):
        self.number = number
        self.limit = limit_seconds
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.number} ({elapsed:.1f}s / "
              f"limit {self.limit:.0f}s): {self.label}")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its "
                f"{self.limit:.0f}s budget: {elapsed:.1f}s")
        return False


def test_criterion_01_zsigmondy_oracle_equivalence():
    with Criterion(1, 5, "zsigmondy oracle equivalence on the full grid"):
        exceptions = set()
        for d in range(2, 51):
            for n in range(2, 21):
                value = zsigmondy(d, n)
                assert oracle_check(d, n, value), (d, n, value)
                if value is None:
                    exceptions.add((d, n))
        # the n = 2 exceptions are the Mersenne numbers d = 2^s - 1
        # (the composite 15 included), plus the classical (2, 6)
        mersenne_numbers = {d for d in range(2, 51) if (d + 1) & d == 0}
        assert exceptions == {(2, 6)} | {(d, 2) for d in mersenne_numbers}
        assert exceptions == {(2, 6), (3, 2), (7, 2), (15, 2), (31, 2)}


def test_criterion_02_order_formulas_match_permutation_orders():
    with Criterion(2, 10, "order formulas match the permutation engine"):
        cases = [
            (("PSL", 2, 5), "A5", 60),
            (("PSL", 2, 7), "PSL27", 168),
            (("PSL", 3, 2), "PSL27", 168),
            (("PSL", 2, 9), "A6", 360),
            (("PSU", 4, 2), "PSU42", 25920),
            (("PSp", 2, 3), "PSU42", 25920),
        ]
        for (family, n, q), group_id, expected in cases:
            assert group_order(family, n, q).simple == expected
            assert catalog.load(group_id).order == expected


def test_criterion_03_character_table_exactness():
    with Criterion(3, 60, "exact character tables for the six core groups"):
        expected_degrees = {
            "S4": (1, 1, 2, 3, 3),
            "SL23": (1, 1, 1, 2, 2, 2, 3),
            "A5": (1, 3, 3, 4, 5),
            "A6": (1, 5, 5, 8, 8, 9, 10),
            "PSL27": (1, 3, 3, 6, 7, 8),
            "PSL211": (1, 5, 5, 10, 10, 11, 12, 12),
        }
        for group_id, degrees in expected_degrees.items():
            group = catalog.load(group_id)
            table = character_table(group)
            assert table.degrees == degrees, group_id
            assert sum(d * d for d in degrees) == group.order
            k = len(table.irreducibles)
            for i in range(k):
                for j in range(k):
                    ip = inner_product(table.irreducibles[i],
                                       table.irreducibles[j])
                    assert ip == (ONE if i == j else ZERO)
            sizes = table.classes.sizes
            for a in range(k):
                for b in range(k):
                    total = ZERO
                    for chi in table.irreducibles:
                        total = total + (chi.values[a]
                                         * chi.values[b].conjugate())
                    expected = Cyclotomic.from_rational(
                        group.order // sizes[a]) if a == b else ZERO
                    assert total == expected


def test_criterion_04_a5_refutation():
    with Criterion(4, 30, "A5 degree-4 character refuted over all "
                          "9 subgroup classes"):
        ok, details, _ = paper.a5_not_qsi()
        verdicts = details["verdicts"]
        chi4_verdict = next(v for v in verdicts
                            if v["character_degree"] == 4)
        assert chi4_verdict["status"] == "refuted-exhaustive"
        assert len(chi4_verdict["pruning_log"]) == 9
        assert len(catalog.load("A5").subgroups_up_to_conjugacy()) == 9
        # group_is_qsi: every verdict carries a witness
        assert not all(v["witness"] for v in verdicts)
        assert ok


def test_criterion_05_psl27_steinberg_monomial_degree6_refuted():
    with Criterion(5, 300, "PSL(2,7) Steinberg characters monomial, "
                           "degree 6 refuted"):
        group, verdicts = paper.psl27_verdicts()
        table = character_table(group)
        for degree in (7, 8):
            verdict = verdicts[degree]
            assert verdict.status == "monomial-with-witness"
            witness = verdict.witness
            assert witness.phi.degree == 1 and witness.multiplier == 1
            assert verify_qsi_witness(group, table.unique_by_degree(degree),
                                      witness)
        verdict6 = verdicts[6]
        assert verdict6.character == table.unique_by_degree(6)
        assert verdict6.status == "refuted-exhaustive"
        assert len(verdict6.pruning_log) == \
            len(group.subgroups_up_to_conjugacy())


def test_criterion_06_psp43_witness_and_prefilter_sweep():
    with Criterion(6, 300, "PSp4(3) 2*St witness verified and sweep "
                           "rejects all sampled classes"):
        group, steinberg, witness = paper.psp43_witness()
        subgroup, phi = witness.subgroup, witness.phi
        assert group.order // subgroup.order == 162
        table = character_table(group)
        assert steinberg == table.unique_by_degree(81)
        assert len(table.by_degree(81)) == 1
        assert phi.degree == 1
        assert induce(phi, group) == 2 * steinberg
        phi_kernel = kernel(phi)
        assert phi_kernel.order % 3 != 0
        assert steinberg_kernel_constraint(subgroup, phi, 3)
        quotient = subgroup.quotient(phi_kernel)
        assert quotient.is_solvable()
        assert witness.multiplier == 2
        assert witness.solvable_quotient_order == quotient.order
        assert verify_qsi_witness(group, steinberg, witness)
        report = paper.steinberg_sweep(group, steinberg, samples=10000)
        assert report.verdict.status == "refuted-by-prefilter"
        assert not report.unrejected
        assert report.distinct_classes >= 10


def test_criterion_07_restriction_identity():
    with Criterion(7, 120, "restriction identity for n = 7, 8, 9"):
        for n in (7, 8, 9):
            assert paper.restriction_identity(n)


def test_criterion_08_m11_generation_sampling():
    with Criterion(8, 120, "200 random (order 8, order 11) pairs "
                           "generate M11"):
        group, pairs = paper.m11_pairs()
        assert len(pairs) == 200
        for x, y in pairs:
            assert Permutation(x).order() == 8
            assert Permutation(y).order() == 11
            assert PermGroup(group.degree, [x, y]).order == 7920


def test_criterion_09_prefilter_soundness():
    with Criterion(9, 300, "prefilters never change verdicts (catalog "
                           "<= 100 plus all groups of order <= 24)"):
        targets = [("S4", catalog.load("S4")),
                   ("SL23", catalog.load("SL23")),
                   ("A5", catalog.load("A5"))]
        targets += all_groups(24)
        for name, group in targets:
            with_filters = decide_qsi_group(
                group, SearchBounds(prefilters=True))
            without = decide_qsi_group(
                group, SearchBounds(prefilters=False))
            for a, b in zip(with_filters, without):
                assert a.status == b.status, (name, a.character.degree)
                if a.witness is not None:
                    assert b.witness is not None
                    assert a.witness.subgroup.order == \
                        b.witness.subgroup.order
                    assert a.witness.multiplier == b.witness.multiplier


def test_criterion_10_solvability_consistency_sweep():
    with Criterion(10, 120, "QSI certificates match solvability across "
                            "the catalog"):
        bounds = SearchBounds(subgroup_order=200)
        for group_id in catalog.group_ids():
            group = catalog.load(group_id)
            verdicts = decide_qsi_group(group, bounds)
            certified = group_is_qsi(verdicts)
            if certified:
                assert group.is_solvable(), group_id
            if group.is_solvable():
                assert certified, group_id
                for verdict in verdicts:
                    witness = verdict.witness
                    assert witness.subgroup.order == group.order
                    assert witness.multiplier == 1


def test_criterion_11_elimination_reports():
    with Criterion(11, 10, "elimination reports re-verify and match the "
                           "prose patterns"):
        for n in (4, 5, 6):
            for q in (2, 3, 4, 5):
                report = eliminate("PSL", n, q)
                assert report.candidates
                for candidate in report.candidates:
                    assert candidate.missing_primes, (n, q, candidate.label)
                    for d, p in candidate.missing_primes:
                        assert report.simple_order % p == 0
                        assert candidate.order_bound % p != 0
                        assert (q**d - 1) % p == 0
                    missing_ds = {d for d, _ in candidate.missing_primes}
                    assert (n - 1) in missing_ds or (n - 2) in missing_ds
        # exceptional families: the torus normalizer misses small primes
        report = eliminate("2B2", 0, 8)
        (candidate,) = report.candidates
        assert candidate.order_bound == 4 * report.element_order == 52
        for p in (7,):  # every prime divisor of q - 1
            assert (1, p) in candidate.missing_primes
        report = eliminate("2G2", 0, 27)
        (candidate,) = report.candidates
        assert candidate.order_bound == 6 * report.element_order
        assert (1, 13) in candidate.missing_primes  # odd divisor of q - 1
        report = eliminate("3D4", 0, 2)
        (candidate,) = report.candidates
        assert candidate.order_bound == 4 * report.element_order
        # odd prime divisors of q^6 - 1 = 63 are 3 and 7
        assert (2, 3) in candidate.missing_primes
        assert (3, 7) in candidate.missing_primes
        for report_args in ((("PSL", 4, 2)), (("2B2", 0, 8)),
                            (("2G2", 0, 27)), (("3D4", 0, 2))):
            report = eliminate(*report_args)
            q = report_args[2]
            for candidate in report.candidates:
                for d, p in candidate.missing_primes:
                    assert gcd(p, candidate.order_bound) == 1 or \
                        candidate.order_bound % p != 0
