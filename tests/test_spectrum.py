import math
import random
from fractions import Fraction

import pytest

from polyosc.exactalg import PolynomialHamiltonian, SpectrumTarget, _common_denominator, dial
from polyosc.spectrum import (
    LevelRecord,
    _positive_from,
    _root_ceiling,
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


# ------------------------------------------------------------- exact root tool

def _lifted(dense, floor):
    """Integer coefficients, constant term first, of a positive multiple of P - floor."""
    return _common_denominator([-Fraction(floor), *[Fraction(c) for c in dense]])[0]


def _sturm_positive_from(q):
    """The test Q(h) > 0 for every h >= a point, by a Sturm count in Fractions."""
    chain = [[Fraction(c) for c in q], [Fraction(j * c) for j, c in enumerate(q)][1:]]
    while len(chain[-1]) > 1:  # the chain stops at a constant, or at gcd(Q, Q')
        rest, divisor = chain[-2][:], chain[-1]
        while len(rest) >= len(divisor):
            f = rest[-1] / divisor[-1]
            for i, c in enumerate(divisor):
                rest[len(rest) - len(divisor) + i] -= f * c
            rest.pop()
        while rest and not rest[-1]:
            rest.pop()
        if not rest:
            break
        chain.append([-c for c in rest])

    chain = [_common_denominator(p)[0] for p in chain]  # positive multiples, in integers

    def changes(values):
        signs = [v > 0 for v in values if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def value(p, n, d):  # d^deg p(n / d), of the sign of p(n / d)
        return sum(c * n**i * d ** (len(p) - 1 - i) for i, c in enumerate(p))

    at_infinity = changes([p[-1] for p in chain])

    def test(point):  # where Q(x) > 0, x is no root: the lost changes count roots above
        n, d = Fraction(point).as_integer_ratio()
        values = [value(p, n, d) for p in chain]
        return values[0] > 0 and changes(values) == at_infinity

    return test


@pytest.mark.parametrize(
    ("dense", "floor", "points"),
    [([10800, -180, 1], 0.0, {0.0: False, 0.5: True, 60.0: True}),
     # (h - 5)^2 - 25 touches -25 at h = 5 only
     ([-10, 1], -25.0, {0.0: False, 5.0: False, 5.5: True}),
     ([-10, 1], -24.0, {4.5: False, 6.0: False, 6.000001: True}),
     # (h^2 - 1)^2 - 1 touches -1 at h = 1, a double root of Q
     ([0, -2, 0, 1], -1.0, {0.5: False, 1.0: False, 1.5: True}),
     ([0, -2, 0, 1], -1.5, {0.0: True}),
     # (3h - 1)^2 - 1 touches -1 at h = 1/3, a double root no float reaches
     ([-6, 9], -1.0, {0: False, 1 / 3: False, 0.3334: True, 0.5: True})],
    ids=["inflection", "touch", "two-roots", "double-root", "above", "third"],
)
def test_positive_from_decides_exactly(dense, floor, points):
    # whether P(h) > floor for every h >= the point, where Descartes' rule on P' alone
    # leaves the inflection and the double roots open
    q = _lifted(dense, floor)
    assert {point: _positive_from(q, point) for point in points} == points
    assert {point: _sturm_positive_from(q)(point) for point in points} == points


@pytest.mark.parametrize(
    ("q", "ceiling"),
    [([1, 2, 1], 0), ([1, -6, 9], 1), ([4, -4, 1], 3), ([0, 0, 0, 1], 1),
     ([-3, 0, 1], 2), ([1, 0, 1], None), ([7], None), ([7, -10, 3], 3), ([-1, 0, 0, 0, 16], 1),
     ([1, -(1 << 32), (1 << 61) - 1], 1)],
    ids=["double-minus-1", "double-third", "double-2", "triple-0", "sqrt3", "none",
         "constant", "two-roots", "quartic", "lead-of-the-prime"],
)
def test_root_ceiling_is_the_least_integer_above_the_largest_root(q, ceiling):
    # (x + 1)^2, (3x - 1)^2, (x - 2)^2, x^3, x^2 - 3, x^2 + 1, 7, (3x - 7)(x - 1),
    # 16 x^4 - 1, whose largest root is 1/2, and a quadratic with two roots in (0, 1)
    # whose lead the square-free screen's prime 2^61 - 1 divides
    assert _root_ceiling(q) == ceiling


def test_root_tool_agrees_with_a_sturm_count():
    # 1500 integer polynomials of degree 1-9, a third of them with a double root and a
    # sixth with a triple one, where P touches or crosses flat through its floor, at a
    # dyadic point or not; each is tested at random dyadic points, at its repeated
    # root where a float holds it, and at the integers either side of its ceiling
    rng = random.Random(16)
    touched = 0
    for trial in range(1500):
        repeats = (2, 2, 3, 0, 0, 0)[trial % 6]
        q = [rng.randint(-9, 9) for _ in range(rng.randint(1, 9 - repeats))]
        q.append(rng.randint(1, 9))
        points = [rng.randint(-64, 64) / 8 for _ in range(4)] + [float(rng.randint(-9, 9))]
        if repeats:
            num, den = rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 5, 8))
            for _ in range(repeats):  # times (den x - num)
                q = [den * b - num * a for a, b in zip(q + [0], [0] + q)]
            root = Fraction(num, den)
            if root.denominator & (root.denominator - 1) == 0:
                points.append(float(root))
                touched += 1
        sturm = _sturm_positive_from(q)
        for point in points:
            assert _positive_from(q, point) == sturm(point), (q, point)
        ceiling = _root_ceiling(q)
        if ceiling is None:  # Cauchy's bound: no root at or below -(1 + max |q_j|)
            assert sturm(-(1 + max(abs(c) for c in q)))
        else:
            assert sturm(ceiling) and not sturm(ceiling - 1), (q, ceiling)
    assert touched > 200
