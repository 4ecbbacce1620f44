"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they land.
Every criterion asserts, so a FAIL line always comes with a failing test.
"""

import random
import time
from fractions import Fraction

import numpy as np
import scipy.linalg

from polyosc.exactalg import (
    SpectrumTarget,
    build_energy_matrix,
    determinant,
    determinant_closed_form,
    dial,
)
from polyosc.gridverify import (
    GridSpec,
    build_oscillator_grid,
    count_nodes,
    diagonalize,
    verify_dialled,
)
from polyosc.oscillator import eigenfunction_samples, oscillator_energy
from polyosc.spectrum import evaluate_polynomial, evaluate_spectrum, ordering_report

QUADRATIC_TARGETS = [Fraction(-3), Fraction(-15, 2)]


def _report(number: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {label}: {verdict} ({detail})")


def test_acceptance_1_dial_two_levels():
    start = time.perf_counter()
    ham = dial(SpectrumTarget.from_energies(QUADRATIC_TARGETS))
    records = evaluate_spectrum(ham, 9)
    permutation = ordering_report(records).ascending_permutation
    elapsed = time.perf_counter() - start

    ok = (
        ham.dense_coefficients() == (Fraction(-13, 2), Fraction(1))
        and records[3].energy == Fraction(-21, 2)
        and permutation == (3, 2, 4, 1, 5, 0, 6, 7, 8)
        and elapsed < 0.1
    )
    _report(
        1,
        "two-level dial",
        ok,
        f"coeffs {ham.dense_coefficients()}, E_3 = {records[3].energy}, "
        f"permutation {permutation}, {elapsed * 1e3:.1f} ms",
    )
    assert ok


def test_acceptance_2_determinant_closed_form():
    start = time.perf_counter()
    mismatches = []
    for n in range(1, 9):
        matrix = build_energy_matrix(range(n), range(1, n + 1))
        if determinant(matrix) != determinant_closed_form(n):
            mismatches.append(n)
    five = determinant(build_energy_matrix(range(5), range(1, 6)))
    elapsed = time.perf_counter() - start

    ok = not mismatches and five == 8505 and elapsed < 0.1
    _report(
        2,
        "determinant closed form",
        ok,
        f"N = 1..8 agree, det at N = 5 is {five}, {elapsed * 1e3:.1f} ms",
    )
    assert ok


def test_acceptance_3_random_round_trips():
    start = time.perf_counter()
    rng = random.Random(181181)
    worst_n = 0
    for trial in range(200):
        n = rng.randrange(1, 13)
        worst_n = max(worst_n, n)
        energies = [
            Fraction(rng.randrange(-(10**6), 10**6 + 1), rng.randrange(1, 10**3 + 1))
            for _ in range(n)
        ]
        ham = dial(SpectrumTarget.from_energies(energies))
        for level, energy in enumerate(energies):
            got = evaluate_polynomial(ham, oscillator_energy(level))
            assert got == energy, (trial, level, got, energy)
    elapsed = time.perf_counter() - start

    ok = elapsed < 5.0
    _report(
        3,
        "200 exact round-trips",
        ok,
        f"sizes up to {worst_n}, every residual exactly zero, {elapsed:.2f} s",
    )
    assert ok


def test_acceptance_4_grid_confirms_dialled_spectrum():
    start = time.perf_counter()
    ham = dial(SpectrumTarget.from_energies(QUADRATIC_TARGETS))
    spec = GridSpec(half_width=10.0, points=1001)

    # independent route: raw operator, dense P(A), bottom of its dense spectrum
    band = build_oscillator_grid(spec).band
    a = sum(np.diag(band[d, : band.shape[1] - d], -d) for d in range(3))
    a += np.tril(a, -1).T
    poly = np.zeros_like(a)
    for c in reversed(ham.dense_coefficients()):
        poly = a @ (poly + float(c) * np.eye(len(a)))
    values, vectors = scipy.linalg.eigh(poly, subset_by_index=[0, 8])
    expected_sorted = [-10.5, -10.0, -9.0, -7.5, -5.5, -3.0, 0.0, 7.5, 17.0]
    worst_rel = 0.0
    ok_values = True
    for got, want in zip(values, expected_sorted):
        if want == 0.0:
            ok_values &= abs(got) <= 1e-3
        else:
            rel = abs(got - want) / abs(want)
            worst_rel = max(worst_rel, rel)
            ok_values &= rel <= 1e-3
    nodes = tuple(count_nodes(vectors[:, k]) for k in range(9))

    report = verify_dialled(ham, spec, levels_to_check=9, tolerance=1e-3)
    elapsed = time.perf_counter() - start

    ok = (
        ok_values
        and nodes == (3, 2, 4, 1, 5, 0, 6, 7, 8)
        and report.passed
        and report.sequence_matches
        and elapsed < 30.0
    )
    _report(
        4,
        "grid verification of the dialled quadratic",
        ok,
        f"worst relative error {worst_rel:.3e}, node sequence {nodes}, "
        f"report passed = {report.passed}, {elapsed:.2f} s",
    )
    assert ok


def test_acceptance_5_identity_polynomial_control():
    start = time.perf_counter()
    ham = dial(SpectrumTarget.from_energies([Fraction(2 * n + 1, 2) for n in range(9)]))
    report = verify_dialled(ham, GridSpec(half_width=10.0, points=1001), levels_to_check=9)
    worst_abs = 0.0
    worst_rel = 0.0
    for n, check in enumerate(report.checks):
        want = n + 0.5
        worst_abs = max(worst_abs, abs(check.grid_eigenvalue - want))
        worst_rel = max(worst_rel, abs(check.grid_eigenvalue - want) / want)
    elapsed = time.perf_counter() - start

    ok = (
        ham.dense_coefficients()[0] == 1
        and all(c == 0 for c in ham.dense_coefficients()[1:])
        and report.node_sequence == tuple(range(9))
        and worst_abs <= 1e-3
        and worst_rel <= 1e-3
        and report.passed
    )
    _report(
        5,
        "identity control keeps textbook order",
        ok,
        f"nodes {report.node_sequence}, worst abs {worst_abs:.3e}, "
        f"worst rel {worst_rel:.3e}, {elapsed:.2f} s",
    )
    assert ok


def test_acceptance_6_grid_refinement_converges():
    start = time.perf_counter()
    errors = {}
    for points in (501, 1001):
        op = build_oscillator_grid(GridSpec(half_width=10.0, points=points))
        solution = diagonalize(op, 1)
        errors[points] = abs(solution.eigenvalues[0] - 0.5)
    ratio = errors[501] / errors[1001]
    elapsed = time.perf_counter() - start

    ok = ratio >= 3.5
    _report(
        6,
        "refinement shrinks ground-state error",
        ok,
        f"error {errors[501]:.3e} at 501 points vs {errors[1001]:.3e} at 1001, "
        f"ratio {ratio:.1f}, {elapsed:.2f} s",
    )
    assert ok


def test_acceptance_7_node_counts_match_level():
    start = time.perf_counter()
    xs = np.linspace(-10.0, 10.0, 4001)
    counted = [count_nodes(eigenfunction_samples(n, xs)) for n in range(21)]
    elapsed = time.perf_counter() - start

    ok = counted == list(range(21)) and elapsed < 1.0
    _report(
        7,
        "eigenfunction node counts",
        ok,
        f"n = 0..20 all counted exactly, {elapsed * 1e3:.0f} ms",
    )
    assert ok
