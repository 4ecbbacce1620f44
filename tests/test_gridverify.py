import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from polyosc import gridverify
from polyosc.exactalg import PolynomialHamiltonian, SpectrumTarget, dial
from polyosc.gridverify import (
    EigensolverError,
    GridOperator,
    GridSpec,
    build_oscillator_grid,
    count_nodes,
    diagonalize,
    matrix_polynomial,
    verify_dialled,
)
from polyosc.spectrum import evaluate_polynomial

QUADRATIC = PolynomialHamiltonian.from_dense([Fraction(-13, 2), Fraction(1)])
IDENTITY = PolynomialHamiltonian.from_dense([Fraction(1)])

EPS = np.finfo(np.float64).eps


# -------------------------------------------------------------------- GridSpec

def test_grid_spec_geometry():
    spec = GridSpec(half_width=10.0, points=1001)
    assert spec.spacing == pytest.approx(0.02, rel=0, abs=0)
    xs = spec.positions()
    assert xs[0] == -10.0 and xs[-1] == 10.0
    assert len(xs) == 1001
    assert np.diff(xs) == pytest.approx(np.full(1000, 0.02), rel=1e-12)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(half_width=0.0, points=11)
    with pytest.raises(ValueError):
        GridSpec(half_width=5.0, points=2)
    with pytest.raises(ValueError):
        GridSpec(half_width=math.inf, points=11)


def test_grid_size_limit_fits_the_byte_budget():
    # arithmetic only: a grid near the limit is never built here
    k = gridverify.MAX_GRID_POINTS
    assert 6 * 8 * k * k <= gridverify.GRID_BYTE_BUDGET < 6 * 8 * (k + 1) ** 2
    assert k == 6688  # six float64 copies in 2 GiB


# -------------------------------------------------------------- grid operator

def test_oscillator_grid_diagonal_entries():
    spec = GridSpec(half_width=10.0, points=1001)
    op = build_oscillator_grid(spec)
    dx = spec.spacing
    # kinetic center of the five-point stencil plus the potential x^2/2
    assert op.entries[500, 500] == pytest.approx(1.25 / dx**2, rel=1e-15)  # x = 0
    assert op.entries[0, 0] == pytest.approx(1.25 / dx**2 + 50.0, rel=1e-15)  # x = -10
    assert op.entries[500, 501] == pytest.approx(-16.0 / (24.0 * dx**2), rel=1e-15)
    assert op.entries[500, 502] == pytest.approx(1.0 / (24.0 * dx**2), rel=1e-15)
    assert op.entries[500, 503] == 0.0


@pytest.mark.parametrize("points", [3, 4, 5, 11, 51, 401])
def test_oscillator_grid_equals_its_banded_sum(points):
    # reference: the operator as the sum of its five diagonals
    spec = GridSpec(half_width=10.0, points=points)
    dx, x = spec.spacing, spec.positions()
    c = 1.0 / (24.0 * dx * dx)
    expected = np.diag(30.0 * c + 0.5 * x * x)
    for offset, value in ((1, -16.0 * c), (2, c)):
        band = np.full(points - offset, value)
        expected = expected + np.diag(band, offset) + np.diag(band, -offset)
    assert np.array_equal(build_oscillator_grid(spec).entries, expected)


def test_oscillator_grid_is_exactly_symmetric():
    op = build_oscillator_grid(GridSpec(half_width=6.0, points=301))
    assert np.array_equal(op.entries, op.entries.T)


def test_grid_operator_rejects_asymmetry():
    spec = GridSpec(half_width=1.0, points=3)
    bad = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        GridOperator(spec, bad)


def test_grid_eigenvalues_match_oscillator_ladder():
    op = build_oscillator_grid(GridSpec(half_width=10.0, points=1001))
    sol = diagonalize(op, 9)
    for n in range(9):
        assert sol.eigenvalues[n] == pytest.approx(n + 0.5, abs=2e-6)


# ---------------------------------------------------------- matrix polynomial

def test_matrix_polynomial_identity_returns_operator():
    op = build_oscillator_grid(GridSpec(half_width=4.0, points=101))
    poly = matrix_polynomial(op, IDENTITY)
    assert np.array_equal(poly.entries, op.entries)


def test_matrix_polynomial_zero():
    op = build_oscillator_grid(GridSpec(half_width=4.0, points=51))
    zero = PolynomialHamiltonian.from_dense([Fraction(0)])
    assert np.array_equal(matrix_polynomial(op, zero).entries, np.zeros((51, 51)))


@pytest.mark.parametrize("degree", range(6))
def test_matrix_polynomial_equals_identity_matrix_horner(degree):
    # reference: Horner from a_d I with a_j I added after each product
    op = build_oscillator_grid(GridSpec(half_width=6.0, points=101))
    coeffs = [Fraction(3 * j - 7, j + 1) for j in range(1, degree + 1)]
    ham = PolynomialHamiltonian.from_dense(coeffs or [Fraction(0)])
    a, eye = op.entries, np.eye(101)
    expected = np.zeros_like(a)
    if coeffs:
        dense = [float(c) for c in coeffs]
        expected = dense[-1] * eye
        for coeff in reversed(dense[:-1]):
            expected = expected @ a + coeff * eye
        expected = expected @ a
        expected = 0.5 * (expected + expected.T)
    assert np.array_equal(matrix_polynomial(op, ham).entries, expected)


def test_matrix_polynomial_trace_identity():
    # tr P(A) must equal sum of P over the eigenvalues of A
    op = build_oscillator_grid(GridSpec(half_width=5.0, points=201))
    poly = matrix_polynomial(op, QUADRATIC)
    lam = scipy.linalg.eigvalsh(op.entries)
    expected = np.sum(lam**2 - 6.5 * lam)
    assert np.trace(poly.entries) == pytest.approx(expected, rel=1e-12)


def _mapping_check(ham, tail_scale):
    """Full-spectrum spectral-mapping comparison on the default grid.

    tail_scale multiplies the machine-precision floor 8 u ||B||_2, which is what
    float matrix products leave behind once P amplifies the operator norm.
    """
    op = build_oscillator_grid(GridSpec(half_width=10.0, points=1001))
    poly = matrix_polynomial(op, ham)
    lam_a = scipy.linalg.eigvalsh(op.entries)
    lam_b = scipy.linalg.eigvalsh(poly.entries)
    coeffs = [float(c) for c in ham.dense_coefficients()]
    mapped = np.zeros_like(lam_a)
    for c in reversed(coeffs):
        mapped = mapped * lam_a + c
    mapped *= lam_a
    mapped.sort()
    floor = tail_scale * EPS * np.max(np.abs(lam_b))
    for got, want in zip(lam_b, mapped):
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)) + floor


def test_spectral_mapping_quadratic():
    _mapping_check(QUADRATIC, tail_scale=8.0)


def test_spectral_mapping_cubic():
    ham = PolynomialHamiltonian.from_dense([Fraction(-4), Fraction(0), Fraction(1)])
    _mapping_check(ham, tail_scale=8.0)


def test_spectral_mapping_quartic_at_coefficient_cap():
    ham = PolynomialHamiltonian.from_dense([Fraction(10)] * 4)
    _mapping_check(ham, tail_scale=8.0)


# ---------------------------------------------------------------- diagonalize

def test_diagonalize_orders_and_normalizes():
    op = build_oscillator_grid(GridSpec(half_width=8.0, points=401))
    sol = diagonalize(op, 6)
    assert np.all(np.diff(sol.eigenvalues) > 0)
    for k in range(6):
        vec = sol.eigenvectors[:, k]
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        residual = op.entries @ vec - sol.eigenvalues[k] * vec
        assert np.linalg.norm(residual, np.inf) <= 1e-8 * np.linalg.norm(op.entries, np.inf)


def test_diagonalize_count_validation():
    op = build_oscillator_grid(GridSpec(half_width=2.0, points=11))
    with pytest.raises(ValueError):
        diagonalize(op, 0)
    with pytest.raises(ValueError):
        diagonalize(op, 12)


def test_diagonalize_wraps_lapack_failure(monkeypatch):
    op = build_oscillator_grid(GridSpec(half_width=2.0, points=11))

    def boom(*args, **kwargs):
        raise scipy.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh", boom)
    with pytest.raises(EigensolverError, match="converge"):
        diagonalize(op, 3)


@pytest.mark.parametrize("half_width", [2.0, 1e-150, 2.9853826189179203e-153])
def test_diagonalize_rejects_a_perturbed_eigenvector(monkeypatch, half_width):
    # A unit vector rotated 1e-3 off its eigenvector has a residual ~1e-3 ||A||; the
    # check must see it at any scale, also where ||A|| is ~2e303 and its square
    # overflows, and where ||A||inf itself overflows while every entry is finite.
    op = build_oscillator_grid(GridSpec(half_width=half_width, points=51))
    eigh = scipy.linalg.eigh

    def rotated(*args, **kwargs):
        values, vectors = eigh(*args, **kwargs)
        vectors = vectors.copy()
        t = 1e-3
        vectors[:, 0] = math.cos(t) * vectors[:, 0] + math.sin(t) * vectors[:, 1]
        return values, vectors

    monkeypatch.setattr(scipy.linalg, "eigh", rotated)
    with pytest.raises(EigensolverError, match="eigenpair residual"):
        diagonalize(op, 3)


# ----------------------------------------------------------------- node count

def test_count_nodes_basic():
    assert count_nodes(np.array([1.0, -1.0])) == 1
    assert count_nodes(np.array([1.0, 2.0, 3.0])) == 0
    assert count_nodes(np.array([1.0, -2.0, 3.0, -4.0])) == 3


def test_count_nodes_ignores_numerical_dust():
    # a near-zero sample between two true sign changes is not its own crossing
    assert count_nodes(np.array([1.0, 1e-12, -1.0])) == 1
    assert count_nodes(np.array([1.0, -1e-12, 1.0])) == 0


def test_count_nodes_threshold_is_relative():
    assert count_nodes(np.array([1e-300, -1e-300])) == 1


def test_count_nodes_oscillator_states():
    xs = np.linspace(-10.0, 10.0, 4001)
    from polyosc.oscillator import eigenfunction_samples

    for n in (0, 1, 5, 12, 20):
        assert count_nodes(eigenfunction_samples(n, xs)) == n


def test_count_nodes_validation():
    with pytest.raises(ValueError):
        count_nodes(np.zeros(5))
    with pytest.raises(ValueError):
        count_nodes(np.array([1.0, math.nan]))
    with pytest.raises(ValueError):
        count_nodes(np.array([[1.0, -1.0]]))


# -------------------------------------------------------------- verify_dialled

def test_verify_quadratic_defaults():
    report = verify_dialled(QUADRATIC)
    assert report.passed
    assert report.node_sequence == (3, 2, 4, 1, 5, 0, 6, 7, 8)
    assert report.expected_sequence == (3, 2, 4, 1, 5, 0, 6, 7, 8)
    assert report.sequence_matches
    assert not report.degenerate
    assert report.warning is None
    assert len(report.checks) == 9
    for check in report.checks:
        assert check.within_tolerance
        if check.analytic_energy != 0:
            assert check.rel_error is not None and check.rel_error <= 1e-3
        else:
            assert check.abs_error <= 1e-3


def test_verify_quadratic_eigenvalues_close():
    report = verify_dialled(QUADRATIC)
    by_level = {c.matched_level: c for c in report.checks}
    for level, energy in ((3, -10.5), (6, 0.0), (8, 17.0)):
        assert by_level[level].grid_eigenvalue == pytest.approx(energy, abs=2e-5)


def test_verify_identity_oscillator():
    report = verify_dialled(IDENTITY, levels_to_check=5)
    assert report.passed
    assert report.node_sequence == (0, 1, 2, 3, 4)
    for n, check in enumerate(report.checks):
        assert check.analytic_energy == Fraction(2 * n + 1, 2)
        assert check.abs_error < 1e-5


def test_verify_cubic_reordering():
    ham = PolynomialHamiltonian.from_dense([Fraction(-4), Fraction(0), Fraction(1)])
    report = verify_dialled(ham)
    assert report.passed
    assert report.node_sequence[:3] == (1, 0, 2)
    # the a-priori budget is deliberately conservative: it may warn on a run
    # whose measured errors still clear the tolerance comfortably
    assert report.warning is not None
    assert max(c.abs_error for c in report.checks) < 1e-3


def test_verify_degenerate_pair_passes():
    ham = dial(SpectrumTarget.from_energies([Fraction(1), Fraction(1), Fraction(5)]))
    assert ham.dense_coefficients() == (Fraction(11, 3), Fraction(-4), Fraction(4, 3))
    report = verify_dialled(ham)
    assert report.degenerate
    assert report.passed


def test_verify_zero_polynomial_trivially_degenerate():
    zero = PolynomialHamiltonian.from_dense([Fraction(0)])
    report = verify_dialled(zero, GridSpec(half_width=6.0, points=201), levels_to_check=4)
    assert report.degenerate
    assert report.passed
    for check in report.checks:
        assert check.analytic_energy == 0


def test_verify_coarse_grid_fails_without_raising():
    report = verify_dialled(QUADRATIC, GridSpec(half_width=10.0, points=5))
    assert not report.passed
    assert len(report.checks) == 5  # clamped to the grid size


def test_verify_quartic_at_cap_warns_and_fails():
    # degree 4 with every coefficient at 10 pushes ||P(A)|| to ~2e16, so float64
    # eigenvalues carry O(1) absolute noise and the 1e-3 check cannot succeed;
    # the budget warning must flag exactly this before anyone trusts the failure
    ham = PolynomialHamiltonian.from_dense([Fraction(10)] * 4)
    report = verify_dialled(ham)
    assert report.warning is not None
    assert "roundoff" in report.warning
    assert not report.passed


def test_verify_matches_exact_spectrum():
    ham = PolynomialHamiltonian.from_dense([Fraction(3), Fraction(-1)])
    report = verify_dialled(ham, levels_to_check=6)
    for check in report.checks:
        if check.matched_level < 6:
            exact = evaluate_polynomial(ham, Fraction(2 * check.matched_level + 1, 2))
            assert check.analytic_energy == exact


def test_verify_levels_validation():
    with pytest.raises(ValueError):
        verify_dialled(QUADRATIC, levels_to_check=0)
    with pytest.raises(ValueError):
        verify_dialled(QUADRATIC, tolerance=0.0)
