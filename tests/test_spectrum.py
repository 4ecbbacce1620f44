import math
import random
from fractions import Fraction

import pytest

from polyosc.exactalg import PolynomialHamiltonian, SpectrumTarget, dial
from polyosc.spectrum import (
    LevelRecord,
    classical_cross_section,
    evaluate_polynomial,
    evaluate_spectrum,
    ordering_report,
)

QUADRATIC = PolynomialHamiltonian.from_dense([Fraction(-13, 2), Fraction(1)])


def test_evaluate_polynomial_exact():
    assert evaluate_polynomial(QUADRATIC, Fraction(1, 2)) == Fraction(-3)
    assert evaluate_polynomial(QUADRATIC, Fraction(7, 2)) == Fraction(-21, 2)
    assert evaluate_polynomial(QUADRATIC, Fraction(0)) == 0  # no constant term


def test_evaluate_polynomial_sparse_and_zero():
    sparse = PolynomialHamiltonian(((2, Fraction(3)), (5, Fraction(-1, 2))))
    xi = Fraction(4, 3)
    expected = 3 * xi**2 - Fraction(1, 2) * xi**5
    assert evaluate_polynomial(sparse, xi) == expected
    zero = PolynomialHamiltonian.from_dense([Fraction(0)])
    assert evaluate_polynomial(zero, Fraction(17, 5)) == 0


def test_evaluate_polynomial_against_power_sum_randomized():
    rng = random.Random(2024)
    for _ in range(40):
        deg = rng.randrange(1, 6)
        coeffs = [Fraction(rng.randrange(-20, 21), rng.randrange(1, 9)) for _ in range(deg)]
        ham = PolynomialHamiltonian.from_dense(coeffs)
        xi = Fraction(rng.randrange(-30, 31), rng.randrange(1, 12))
        direct = sum((a * xi**p for p, a in ham.terms), Fraction(0))
        assert evaluate_polynomial(ham, xi) == direct


def test_evaluate_spectrum_nine_levels():
    records = evaluate_spectrum(QUADRATIC, 9)
    energies = [rec.energy for rec in records]
    assert energies == [
        Fraction(-3),
        Fraction(-15, 2),
        Fraction(-10),
        Fraction(-21, 2),
        Fraction(-9),
        Fraction(-11, 2),
        Fraction(0),
        Fraction(15, 2),
        Fraction(17),
    ]
    assert all(rec.level == i for i, rec in enumerate(records))


def test_evaluate_spectrum_matches_per_level_evaluation_randomized():
    # shared integer coefficients vs per-level Horner vs a Fraction power sum
    rng = random.Random(5150)
    hams = [PolynomialHamiltonian(()), PolynomialHamiltonian.from_dense([Fraction(0)] * 3)]
    for _ in range(30):
        powers = sorted(rng.sample(range(1, 12), rng.randrange(1, 6)))  # sparse
        hams.append(PolynomialHamiltonian(tuple(
            (p, Fraction(rng.randrange(-99, 100), rng.randrange(1, 60))) for p in powers
        )))
    for ham in hams:
        records = evaluate_spectrum(ham, 25)
        assert [r.level for r in records] == list(range(25))
        for n, record in enumerate(records):
            h = Fraction(2 * n + 1, 2)
            assert record.energy == evaluate_polynomial(ham, h)
            assert record.energy == sum((a * h**p for p, a in ham.terms), start=Fraction(0))


def test_evaluate_spectrum_count_validation():
    with pytest.raises(ValueError):
        evaluate_spectrum(QUADRATIC, 0)


def test_ordering_report_quadratic():
    report = ordering_report(evaluate_spectrum(QUADRATIC, 9))
    assert report.ascending_permutation == (3, 2, 4, 1, 5, 0, 6, 7, 8)
    assert report.violations == ((0, 1), (1, 2), (2, 3))
    assert not report.is_sturm_liouville_ordered


def test_ordering_report_identity_is_ordered():
    identity = PolynomialHamiltonian.from_dense([Fraction(1)])
    report = ordering_report(evaluate_spectrum(identity, 6))
    assert report.ascending_permutation == (0, 1, 2, 3, 4, 5)
    assert report.violations == ()
    assert report.is_sturm_liouville_ordered


def test_ordering_report_degenerate_counts_as_violation():
    # equal neighbours break strict Sturm-Liouville ordering
    ham = dial(SpectrumTarget.from_energies([Fraction(1), Fraction(1), Fraction(5)]))
    report = ordering_report(evaluate_spectrum(ham, 3))
    assert (0, 1) in report.violations
    assert not report.is_sturm_liouville_ordered


def test_ordering_report_stable_for_ties():
    records = (
        LevelRecord(0, Fraction(2)),
        LevelRecord(1, Fraction(2)),
        LevelRecord(2, Fraction(1)),
    )
    report = ordering_report(records)
    assert report.ascending_permutation == (2, 0, 1)


def test_ordering_report_matches_a_fraction_sort_on_unrelated_records():
    # Records that come from no one polynomial: unrelated denominators, negatives, zero
    # and exact ties, against the Fraction sort the integer keys replace.
    rng = random.Random(2718)
    pool = [Fraction(0), Fraction(-1, 3), Fraction(1, 3), Fraction(7, 10**12 + 39)]
    for _ in range(200):
        energies = []
        for _ in range(rng.randrange(1, 13)):
            if energies and rng.random() < 0.3:
                energies.append(rng.choice(energies))
            elif rng.random() < 0.2:
                energies.append(rng.choice(pool))
            else:
                energies.append(Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6)))
        records = tuple(LevelRecord(n, e) for n, e in enumerate(energies))
        order = sorted(range(len(energies)), key=lambda i: (energies[i], i))
        violations = tuple(
            (i, i + 1) for i in range(len(energies) - 1) if energies[i] >= energies[i + 1]
        )
        report = ordering_report(records)
        assert report.ascending_permutation == tuple(order)
        assert report.violations == violations
        assert report.is_sturm_liouville_ordered == (not violations)


def test_ordering_report_input_validation():
    with pytest.raises(ValueError):
        ordering_report(())
    bad = (LevelRecord(1, Fraction(0)),)
    with pytest.raises(ValueError):
        ordering_report(bad)


def test_cross_section_even_and_exact_on_grid_values():
    assert classical_cross_section(QUADRATIC, 0.0) == 0.0
    for x in (0.5, 1.25, 3.0, 4.75):
        left = classical_cross_section(QUADRATIC, -x)
        right = classical_cross_section(QUADRATIC, x)
        assert left == right  # exact: same rational squared
    # at x = sqrt(13): xi = 6.5 exactly representable? use x = 3.0 -> xi = 4.5
    assert classical_cross_section(QUADRATIC, 3.0) == pytest.approx(4.5**2 - 6.5 * 4.5, abs=0)


def test_cross_section_minimum_at_well_bottom():
    # P(xi) = xi^2 - 13 xi/2 has its minimum at xi = 13/4, i.e. x = sqrt(13/2)
    x_min = math.sqrt(6.5)
    val = classical_cross_section(QUADRATIC, x_min)
    assert val == pytest.approx(-(6.5 / 2) ** 2, rel=1e-12)
    assert classical_cross_section(QUADRATIC, x_min + 0.2) > val
    assert classical_cross_section(QUADRATIC, x_min - 0.2) > val
