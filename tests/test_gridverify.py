import json
import math
import random
import runpy
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from polyosc import gridverify, spectrum
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


@pytest.fixture(autouse=True)
def cold_memo():
    """Start each test with diagonalize's memo empty.

    A solution memoised by an earlier test would be returned without running the
    solver, so a test that patches _lanczos or dpbtrs, or traces the solve's
    allocations, would see none of it.
    """
    gridverify._solve.cache_clear()


def dense(op):
    """The full k x k matrix of a grid operator or lower band, rebuilt from the band."""
    band = op.band if isinstance(op, GridOperator) else op
    k = band.shape[1]
    matrix = np.diag(band[0])
    for d in range(1, band.shape[0]):
        matrix += np.diag(band[d, : k - d], -d) + np.diag(band[d, : k - d], d)
    return matrix


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


NOT_REAL = [True, False, "10", None, 1j, np.bool_(True)]


@pytest.mark.parametrize("value", NOT_REAL, ids=repr)
def test_grid_float_arguments_refuse_bools_and_non_reals(value):
    # a bool is not read as 1.0 or 0.0, and a string or None is named, not handed to
    # numpy's isfinite
    with pytest.raises(ValueError) as err:
        GridSpec(half_width=value, points=11)
    assert str(err.value) == f"half width {value!r} must be a real number"
    with pytest.raises(ValueError) as err:
        verify_dialled(IDENTITY, GridSpec(half_width=2.0, points=11), tolerance=value)
    assert str(err.value) == f"tolerance {value!r} must be a real number"


@pytest.mark.parametrize("value", [Fraction(1, 3), 3, np.float32(0.25), np.float64(0.5)],
                         ids=repr)
def test_grid_float_arguments_store_any_real_as_float(value):
    spec = GridSpec(half_width=value, points=11)
    assert type(spec.half_width) is float and spec.half_width == float(value)
    assert spec.spacing == 2.0 * float(value) / 10
    report = verify_dialled(IDENTITY, GridSpec(half_width=2.0, points=11), tolerance=value)
    assert type(report.tolerance) is float and report.tolerance == float(value)


@pytest.mark.parametrize(
    ("value", "message"),
    [(math.nan, "half width must be positive and finite, got nan"),
     (-math.inf, "half width must be positive and finite, got -inf"),
     (0, "half width must be positive and finite, got 0.0")],
)
def test_grid_half_width_range_messages(value, message):
    with pytest.raises(ValueError) as err:
        GridSpec(half_width=value, points=11)
    assert str(err.value) == message


def test_grid_size_limit_is_pinned():
    # the limit stays where band reduction's O(k^2) time once set it; Lanczos, O(k)
    # per step on the whole band of k samples, solves a grid this large in under a
    # second, and building the operator at the limit allocates only its three
    # diagonals
    assert gridverify.MAX_GRID_POINTS == 6688
    assert build_oscillator_grid(GridSpec(half_width=10.0, points=6688)).band.shape == (3, 6688)
    with pytest.raises(ValueError, match="exceed the grid limit of 6688"):
        build_oscillator_grid(GridSpec(half_width=10.0, points=6689))


# -------------------------------------------------------------- grid operator

def test_oscillator_grid_diagonal_entries():
    spec = GridSpec(half_width=10.0, points=1001)
    op = dense(build_oscillator_grid(spec))
    dx = spec.spacing
    # kinetic center of the five-point stencil plus the potential x^2/2
    assert op[500, 500] == pytest.approx(1.25 / dx**2, rel=1e-15)  # x = 0
    assert op[0, 0] == pytest.approx(1.25 / dx**2 + 50.0, rel=1e-15)  # x = -10
    assert op[500, 501] == pytest.approx(-16.0 / (24.0 * dx**2), rel=1e-15)
    assert op[500, 502] == pytest.approx(1.0 / (24.0 * dx**2), rel=1e-15)
    assert op[500, 503] == 0.0


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
    assert np.array_equal(dense(build_oscillator_grid(spec)), expected)


def test_oscillator_grid_is_exactly_symmetric():
    op = dense(build_oscillator_grid(GridSpec(half_width=6.0, points=301)))
    assert np.array_equal(op, op.T)


def test_grid_operator_rejects_asymmetry():
    # The operator holds only its lower band, so the one way to state an entry with
    # no mirror image is a value outside the matrix: this array read as a band puts
    # a 1 at (4, 2).  A band of the wrong shape is refused too.
    bad = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="outside the matrix"):
        GridOperator(bad)
    with pytest.raises(ValueError, match="band shape"):
        GridOperator(np.ones((4, 3)))


def test_grid_eigenvalues_match_oscillator_ladder():
    op = build_oscillator_grid(GridSpec(half_width=10.0, points=1001))
    sol = diagonalize(op, 9)
    for n in range(9):
        assert sol.eigenvalues[n] == pytest.approx(n + 0.5, abs=2e-6)


# ---------------------------------------------------------- matrix polynomial

def p_of_a(op, ham):
    """P(A) by dense Horner on the rebuilt A, read back as its band: width w deg P < k."""
    a, k = dense(op), op.band.shape[1]
    coeffs = [float(c) for c in ham.dense_coefficients()]
    matrix = np.zeros_like(a)
    for c in reversed(coeffs):
        matrix = a @ (matrix + c * np.eye(k))
    band = np.zeros((min((op.band.shape[0] - 1) * len(coeffs), k - 1) + 1, k))
    for d, row in enumerate(band):
        row[: k - d] = np.diagonal(matrix, -d)
    return GridOperator(band)


def _lowest_modes(points):
    """A's lowest 11 eigenvalues (all of them on fewer points), half width 6."""
    op = build_oscillator_grid(GridSpec(half_width=6.0, points=points))
    return diagonalize(op, min(11, points)).eigenvalues


def test_matrix_polynomial_identity_returns_operator():
    # P = h: P(A) is A itself, whose eigenvalues come back bit for bit
    mu = _lowest_modes(101)
    assert np.array_equal(matrix_polynomial(mu, IDENTITY), mu)


def test_matrix_polynomial_zero():
    mu = _lowest_modes(51)
    zero = PolynomialHamiltonian.from_dense([Fraction(0)])
    assert np.array_equal(matrix_polynomial(mu, zero), np.zeros(11))


def test_matrix_polynomial_ignores_stored_zeros_above_the_degree():
    mu = _lowest_modes(41)
    padded = PolynomialHamiltonian.from_dense([Fraction(-13, 2), 1, 0, 0])
    assert np.array_equal(matrix_polynomial(mu, padded), matrix_polynomial(mu, QUADRATIC))


def test_matrix_polynomial_refuses_overflow():
    with pytest.raises(ValueError, match=r"^P\(mu\) is not finite in float64 \(overflow\)$"):
        matrix_polynomial(np.array([0.5, 1e200]), PolynomialHamiltonian.from_dense([0, 1]))


# The 401-point cases keep their degree alone as id and map A's lowest 11 modes; on
# 3, 5 and 7 points every mode is mapped.
@pytest.mark.parametrize(
    ("coeffs", "points"),
    [pytest.param([Fraction(3 * j - 7, j + 1) for j in range(1, d + 1)], k,
                  id=str(d) if k == 401 else f"{d}-{k}pts")
     for k in (3, 5, 7, 401) for d in range(6)]
    + [pytest.param([Fraction(-13, 2), 1, 0, 0], 401, id="padded")],
)
def test_matrix_polynomial_equals_identity_matrix_horner(coeffs, points):
    # Reference: P(A) = A (a_1 I + A (a_2 I + ...)) in A's eigenbasis, A = diag(mu) and
    # I = diag(1), in exact rationals on the float64 coefficients; the docstring's
    # bound gamma_{2d} sum_j |a_j| |mu|^j is 0 for the zero polynomial
    mu = _lowest_modes(points)
    ham = PolynomialHamiltonian.from_dense(coeffs or [Fraction(0)])
    floats = [Fraction(float(c)) for c in ham.dense_coefficients()]
    rounded = PolynomialHamiltonian.from_dense(floats or [Fraction(0)])
    n_u = Fraction(2 * len(floats), 2**53)
    gamma = n_u / (1 - n_u)
    for got, m in zip(matrix_polynomial(mu, ham).tolist(), map(Fraction, mu.tolist())):
        bound = gamma * sum(abs(c) * abs(m) ** j for j, c in enumerate(floats, 1))
        assert abs(Fraction(got) - evaluate_polynomial(rounded, m)) <= bound, m


def test_matrix_polynomial_trace_identity():
    # tr P(A) must equal the sum of P over the eigenvalues of A
    op = build_oscillator_grid(GridSpec(half_width=5.0, points=201))
    lam = scipy.linalg.eigvalsh(dense(op))
    expected = np.trace(dense(p_of_a(op, QUADRATIC)))
    assert np.sum(matrix_polynomial(lam, QUADRATIC)) == pytest.approx(expected, rel=1e-12)


def _mapping_check(ham):
    """Every eigenvalue of the dense P(A) on the default grid against P over A's, to 1e-6
    and the floor 8 u ||P(A)||_2 that float matrix products leave once P amplifies ||A||."""
    op = build_oscillator_grid(GridSpec(half_width=10.0, points=1001))
    lam_b = scipy.linalg.eigvalsh(dense(p_of_a(op, ham)))
    mapped = np.sort(matrix_polynomial(scipy.linalg.eigvalsh(dense(op)), ham))
    floor = 8.0 * EPS * np.max(np.abs(lam_b))
    for got, want in zip(lam_b, mapped):
        assert abs(got - want) <= 1e-6 * max(1.0, abs(want)) + floor


def test_spectral_mapping_quadratic():
    _mapping_check(QUADRATIC)


def test_spectral_mapping_cubic():
    ham = PolynomialHamiltonian.from_dense([Fraction(-4), Fraction(0), Fraction(1)])
    _mapping_check(ham)


def test_spectral_mapping_quartic_at_coefficient_cap():
    ham = PolynomialHamiltonian.from_dense([Fraction(10)] * 4)
    _mapping_check(ham)


# ---------------------------------------------------------------- diagonalize

def test_diagonalize_orders_and_normalizes():
    op = build_oscillator_grid(GridSpec(half_width=8.0, points=401))
    sol = diagonalize(op, 6)
    assert np.all(np.diff(sol.eigenvalues) > 0)
    for k in range(6):
        vec = sol.eigenvectors[:, k]
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        residual = dense(op) @ vec - sol.eigenvalues[k] * vec
        assert np.linalg.norm(residual, np.inf) <= 1e-8 * np.linalg.norm(dense(op), np.inf)


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

    monkeypatch.setattr(scipy.linalg.lapack, "dpbtrs", boom)
    with pytest.raises(EigensolverError, match="converge"):
        diagonalize(op, 3)


@pytest.mark.parametrize("half_width", [2.0, 1e-150, 2.9853826189179203e-153])
def test_diagonalize_rejects_a_perturbed_eigenvector(monkeypatch, half_width):
    # Eigenvectors 0 and 1 rotated 1e-3 within their plane stay orthonormal but have
    # residuals ~1e-3 (lambda_1 - lambda_0); the check must see them at any scale,
    # also where ||A|| is ~2e303 and its square overflows, and where ||A||inf itself
    # overflows while every entry is finite.
    op = build_oscillator_grid(GridSpec(half_width=half_width, points=51))
    lanczos = gridverify._lanczos

    def rotated(*args, **kwargs):
        values, vectors = lanczos(*args, **kwargs)
        c, s = math.cos(1e-3), math.sin(1e-3)
        v0, v1 = vectors[:, 0].copy(), vectors[:, 1].copy()
        vectors[:, 0], vectors[:, 1] = c * v0 + s * v1, c * v1 - s * v0
        return values, vectors

    monkeypatch.setattr(gridverify, "_lanczos", rotated)
    with pytest.raises(EigensolverError, match="eigenpair residual"):
        diagonalize(op, 3)


def test_diagonalize_scales_without_rounding(monkeypatch):
    # the band that Lanczos runs on is P(A) divided by a power of two, exactly:
    # scaling by the largest entry itself would add a rounding to every entry
    op = build_oscillator_grid(GridSpec(half_width=6.0, points=51))
    poly = p_of_a(op, PolynomialHamiltonian.from_dense([Fraction(1, 3)] * 3))
    lanczos = gridverify._lanczos
    seen = []

    def spy(band, *args, **kwargs):
        seen.append(band.copy())
        return lanczos(band, *args, **kwargs)

    monkeypatch.setattr(gridverify, "_lanczos", spy)
    diagonalize(poly, 3)
    (scaled,) = seen
    ratio = np.abs(poly.band).max() / np.abs(scaled).max()
    assert math.frexp(ratio)[0] == 0.5  # a power of two
    assert np.array_equal(scaled * ratio, poly.band)


def test_diagonalize_rejects_a_repeated_eigenvector(monkeypatch):
    # unit norms and small residuals, but not an orthonormal set
    op = build_oscillator_grid(GridSpec(half_width=4.0, points=51))
    lanczos = gridverify._lanczos

    def repeated(*args, **kwargs):
        values, vectors = lanczos(*args, **kwargs)
        vectors[:, 1] = vectors[:, 0]
        return values, vectors

    monkeypatch.setattr(gridverify, "_lanczos", repeated)
    with pytest.raises(EigensolverError, match="orthonormal"):
        diagonalize(op, 3)


@pytest.mark.parametrize("points", [51, 52, 200, 201, 401])
@pytest.mark.parametrize("degree", range(6))
def test_diagonalize_agrees_with_dense_eigh(degree, points):
    # control: the dense symmetric eigensolver on the rebuilt matrix; degrees 1 and 2
    # have a negative leading coefficient, so their lowest modes are the wall pairs,
    # one mode at each wall, whose eigenvalues agree to the last bits
    op = build_oscillator_grid(GridSpec(half_width=6.0, points=points))
    coeffs = [Fraction(3 * j - 7, j + 1) for j in range(1, degree + 1)]
    poly = p_of_a(op, PolynomialHamiltonian.from_dense(coeffs or [Fraction(0)]))
    matrix = dense(poly)
    expected = scipy.linalg.eigh(matrix, eigvals_only=True, subset_by_index=[0, 8])
    got = diagonalize(poly, 9).eigenvalues
    norm = np.linalg.norm(matrix, np.inf)
    assert np.max(np.abs(got - expected)) <= 1e-12 * norm


def _mirror_basis(points):
    """Columns (e_i +- e_{k-1-i})/sqrt(2), i < k // 2, and e_c for odd k: even, odd."""
    half = points // 2
    even, odd = np.zeros((points, points - half)), np.zeros((points, half))
    for i in range(half):
        even[i, i] = even[points - 1 - i, i] = odd[i, i] = math.sqrt(0.5)
        odd[points - 1 - i, i] = -math.sqrt(0.5)
    if points % 2:
        even[half, half] = 1.0
    return even, odd


@pytest.mark.parametrize("points", [3, 4, 5, 6, 11, 12, 52, 53])
@pytest.mark.parametrize("degree", range(6))
def test_mirror_blocks_are_the_compressions_onto_each_parity(degree, points):
    # P(A) commutes with the mirror J, so its spectrum is the union of those of the
    # mirror blocks Q^T M Q, for the orthonormal even and odd bases Q, formed densely
    # here; the one-band solve must return that union within 64 eps ||M||inf.  Each
    # returned vector v whose value lies apart from the rest of the spectrum by g must
    # lie in one parity within (||Mv - value v|| + 64 eps ||M||inf) / g, by the sin
    # theta bound for one vector with the rounding of Mv here, plus that of the parity
    # parts: the node counts of the paper's check rely on it.
    # The zero polynomial and the wall pairs of degrees 1 and 2 leave values that
    # coincide across the parities, where any mix of the two is an eigenvector.
    op = build_oscillator_grid(GridSpec(half_width=6.0, points=points))
    coeffs = [Fraction(3 * j - 7, j + 1) for j in range(1, degree + 1)]
    poly = p_of_a(op, PolynomialHamiltonian.from_dense(coeffs or [Fraction(0)]))
    matrix = dense(poly)
    norm = np.abs(matrix).sum(axis=1).max()
    blocks = [np.linalg.eigvalsh(basis.T @ matrix @ basis) for basis in _mirror_basis(points)]
    sol = diagonalize(poly, points)
    assert np.max(np.abs(sol.eigenvalues - np.sort(np.concatenate(blocks)))) <= 64 * EPS * norm
    spectrum = np.linalg.eigvalsh(matrix)
    for value, v in zip(sol.eigenvalues, sol.eigenvectors.T):
        rest = np.delete(spectrum, np.argmin(np.abs(spectrum - value)))
        gap = np.min(np.abs(rest - value), initial=np.inf)
        if gap > 1e-8 * norm:
            residual = np.linalg.norm(matrix @ v - value * v)
            off = min(np.linalg.norm(v - v[::-1]), np.linalg.norm(v + v[::-1])) / 2
            bound = (residual + 64 * EPS * norm) / gap + 64 * EPS * math.sqrt(points)
            assert off <= bound, (value, gap)


@pytest.mark.parametrize(
    ("points", "coeffs"),
    [pytest.param(points, coeffs, id=f"{points}-{'/'.join(coeffs)}")
     for points in (3, 4) for coeffs in (["1"], ["-13/2", "1"], ["1", "0", "-1"])]
    + [pytest.param(51, ["0"], id="51-zero"), pytest.param(401, ["1"], id="401-1")],
)
def test_diagonalize_returns_every_eigenpair(points, coeffs):
    # count = k takes every eigenpair, so the Lanczos basis grows until it spans the
    # band; the zero polynomial makes every shift exactly singular, so the run must
    # still give an orthonormal basis; at 401 points the basis runs to all 401
    # samples, each vector orthogonalised against the whole basis
    op = build_oscillator_grid(GridSpec(half_width=2.0, points=points))
    poly = p_of_a(op, PolynomialHamiltonian.from_dense([Fraction(c) for c in coeffs]))
    sol = diagonalize(poly, points)
    expected = scipy.linalg.eigvalsh(dense(poly))
    assert np.max(np.abs(sol.eigenvalues - expected)) <= 1e-13 * max(np.abs(expected).max(), 1)
    vectors = sol.eigenvectors
    assert np.max(np.abs(vectors.T @ vectors - np.eye(points))) <= 1e-12


def test_diagonalize_resolves_the_wall_pairs_of_minus_h():
    # P = -h: the lowest modes of P(A) are wall modes in left/right pairs whose
    # eigenvalues coincide to the last bits; the second of each pair must come out
    # orthogonal to the first, or diagonalize would raise
    op = build_oscillator_grid(GridSpec(half_width=10.0, points=401))
    sol = diagonalize(p_of_a(op, PolynomialHamiltonian.from_dense([-1])), 9)
    values = sol.eigenvalues
    assert values[0] == pytest.approx(values[1], rel=1e-14, abs=0)
    assert np.max(np.abs(sol.eigenvectors.T @ sol.eigenvectors - np.eye(9))) <= 1e-8


def _random_band(rng, k, kind, w, mirror):
    """A random symmetric operator of half width w on k samples, as a dense matrix.

    definite and indefinite: random band entries, the first shifted above its Gershgorin
    bound; zero; repeated: a diagonal drawn from a few values, so that each is held
    several times; pieces: copies of one symmetric piece of 1 to 3 samples along the
    diagonal, so that every eigenvalue repeats; clustered: a diagonal near three
    centres, spread and coupled by random scales from 1e-14 to 1e-9, so that some
    clusters are tighter than the solver's residuals.  With `mirror` the operator
    also commutes with the mirror J, as the oscillator's P(A) does: it is averaged
    with JMJ and its diagonals are drawn on one half and reflected, so that values
    repeat across the two parities as well.
    """
    near = np.abs(np.subtract.outer(np.arange(k), np.arange(k))) <= w
    drawn = k - k // 2 if mirror else k

    def symmetric(matrix):  # (M + JMJ) / 2 and (M + M^T) / 2 round the same both ways
        if mirror:
            matrix = (matrix + matrix[::-1, ::-1]) / 2
        return (matrix + matrix.T) / 2

    def diagonal(values):
        return np.diag(np.concatenate([values, values[: k // 2][::-1]]) if mirror else values)

    if kind == "zero":
        return np.zeros((k, k))
    if kind in ("definite", "indefinite"):
        matrix = symmetric(np.where(near, rng.standard_normal((k, k)), 0.0))
        matrix *= 10.0 ** rng.integers(-3, 4)
        if kind == "definite":
            matrix += (np.abs(matrix).sum(axis=1).max() + rng.random()) * np.eye(k)
        return matrix
    if kind == "repeated":
        pool = rng.standard_normal(max(1, k // 6))
        return diagonal(rng.choice(pool, size=drawn))
    if kind == "pieces":
        size = int(rng.choice([m for m in (1, 2, 3) if k % m == 0]))
        piece = symmetric(rng.standard_normal((size, size)))
        return np.kron(np.eye(k // size), piece)
    centres = rng.choice(rng.standard_normal(3), size=drawn)
    spread = centres + 10.0 ** rng.uniform(-14, -9) * rng.standard_normal(drawn)
    return symmetric(diagonal(spread) + np.where(
        near, 10.0 ** rng.uniform(-14, -9) * rng.standard_normal((k, k)), 0.0))


def _check_random_bands(mirror):
    """Compare diagonalize with numpy's dense solvers on 400 random operators.

    240 operators of half width 2, k from 3 to 120, each kind on 40 of them, then 160
    clustered ones of half width 4 or 10, where tight clusters need the Rayleigh-Ritz
    step on M, all with a random count from 1 to k.  Eigenvalues must match numpy's
    dense eigvalsh within 64 eps ||A||inf.  Where the next eigenvalue of eigh lies
    above the returned ones by more than that tolerance, by g beyond it, the span of
    the returned vectors must match eigh's lowest count by the sin theta theorem
    (Davis & Kahan, SIAM J. Numer. Anal. 7, 1970): ||sin Theta|| <= ||R||_F / g, R the
    residual of the returned pairs, plus the rounding of the products here.
    """
    rng = np.random.default_rng(26)
    kinds = ["definite", "indefinite", "zero", "repeated", "pieces", "clustered"]
    for trial in range(400):
        w = 2 if trial < 240 else 4 + 6 * (trial % 2)
        kind = kinds[trial % len(kinds)] if trial < 240 else "clustered"
        k = int(rng.integers(w + 1, 121))
        matrix = _random_band(rng, k, kind, w, mirror)
        count = int(rng.integers(1, k + 1))
        band = np.array([np.concatenate([np.diagonal(matrix, -d), np.zeros(d)])
                         for d in range(w + 1)])
        sol = diagonalize(GridOperator(band), count)
        norm = np.abs(matrix).sum(axis=1).max()
        expected = np.linalg.eigvalsh(matrix)[:count]
        assert np.max(np.abs(sol.eigenvalues - expected)) <= 64 * EPS * norm, (trial, kind, k)
        values, vectors = np.linalg.eigh(matrix)
        gap = values[min(count, k - 1)] - sol.eigenvalues[-1] - 64 * EPS * norm
        if count < k and gap > 0:
            residual = np.linalg.norm(matrix @ sol.eigenvectors
                                      - sol.eigenvectors * sol.eigenvalues)
            outside = vectors[:, count:].T @ sol.eigenvectors
            bound = residual / gap + 64 * EPS * math.sqrt(k)
            assert np.linalg.norm(outside) <= bound, (trial, kind, k)


def test_diagonalize_agrees_with_dense_solvers_on_random_symmetric_bands():
    # none is built mirror-symmetric
    _check_random_bands(mirror=False)


def test_diagonalize_agrees_with_dense_solvers_on_random_mirror_operators():
    # the oscillator's own symmetry: the one band must resolve the values that repeat
    # exactly across the two parities, with no parity split to keep them apart
    _check_random_bands(mirror=True)


def test_diagonalize_memory_stays_far_below_a_square_basis():
    # At the grid limit a k x k Lanczos basis alone would take 358 MB.  The basis grows
    # with the steps taken, 44 for the 11 modes asked, from 4 * 11 = 44 rows by
    # doubling: 44 rows of 6688 doubles are 2.4 MB.  With the 6688 x 11 eigenvectors
    # and their residuals, 0.6 MB each, the traced peak reads about 4.8 MB.
    op = build_oscillator_grid(GridSpec(half_width=10.0, points=6688))
    tracemalloc.start()
    try:
        diagonalize(op, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("points", [400, 401])
def test_oscillator_node_counts_at_odd_and_even_grids(points):
    report = verify_dialled(IDENTITY, GridSpec(half_width=10.0, points=points))
    assert report.node_sequence == tuple(range(9))
    assert report.passed


@pytest.mark.parametrize("relative", [1e-10, 1e-6, 1.0])
def test_diagonalize_solves_an_operator_that_is_not_mirror_symmetric(relative):
    # one end-diagonal entry moved by `relative` and the potential tilted by
    # relative * x, to (x + relative)^2 / 2 - relative^2 / 2: any symmetric band is
    # answered, and its lowest eigenvalues are eigvalsh's and the tilted ladder's
    spec = GridSpec(half_width=10.0, points=101)
    band = build_oscillator_grid(spec).band.copy()
    band[0, 0] *= 1.0 + relative
    band[0] += relative * spec.positions()
    skewed = GridOperator(band)
    values = diagonalize(skewed, 3).eigenvalues
    matrix = dense(skewed)
    expected = scipy.linalg.eigvalsh(matrix, subset_by_index=[0, 2])
    assert np.max(np.abs(values - expected)) <= 64 * EPS * np.abs(matrix).sum(axis=1).max()
    assert values == pytest.approx(np.arange(3) + 0.5 - relative**2 / 2, rel=0, abs=1e-3)


# ------------------------------------------------------------ diagonalize memo

def _solve_calls(monkeypatch):
    """The `ask` of every _lanczos call, that is the count of every solve not memoised."""
    lanczos = gridverify._lanczos
    calls = []

    def spy(band, ask, norm):
        calls.append(ask)
        return lanczos(band, ask, norm)

    monkeypatch.setattr(gridverify, "_lanczos", spy)
    return calls


def test_diagonalize_memo_hit_equals_a_cold_solve():
    # a hit is the stored solution, bit for bit what a cold solve returns, also for
    # another operator object built from the same grid
    spec = GridSpec(half_width=10.0, points=401)
    cold = diagonalize(build_oscillator_grid(spec), 11)
    gridverify._solve.cache_clear()
    stored = diagonalize(build_oscillator_grid(spec), 11)
    hit = diagonalize(build_oscillator_grid(spec), 11)
    assert hit is stored
    assert np.array_equal(hit.eigenvalues, cold.eigenvalues)
    assert np.array_equal(hit.eigenvectors, cold.eigenvectors)


def test_diagonalize_returns_read_only_arrays():
    op = build_oscillator_grid(GridSpec(half_width=10.0, points=51))
    for solution in (diagonalize(op, 3), diagonalize(op, 3)):  # cold, then a hit
        with pytest.raises(ValueError, match="read-only"):
            solution.eigenvalues[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            solution.eigenvectors[:, 0] *= -1.0


def test_diagonalize_memo_misses_on_another_count_or_entry(monkeypatch):
    # the key is the operator object, which holds a read-only copy of its band: the
    # band cannot be written, an operator built from a band nudged by one ulp at the
    # centre sample is another key, and writing the array an operator was built from
    # changes neither its band nor its solution
    calls = _solve_calls(monkeypatch)
    source = build_oscillator_grid(GridSpec(half_width=10.0, points=401)).band.copy()
    op = GridOperator(source)
    with pytest.raises(ValueError, match="read-only"):
        op.band[0, 200] = 0.0
    first = diagonalize(op, 11)
    diagonalize(op, 11)
    assert calls == [11]
    diagonalize(op, 13)
    assert calls == [11, 13]
    nudged = source.copy()
    nudged[0, 200] = np.nextafter(nudged[0, 200], np.inf)
    diagonalize(GridOperator(nudged), 11)
    assert calls == [11, 13, 11]
    band = op.band.copy()
    source[0, 200] = 0.0
    assert np.array_equal(op.band, band)
    assert diagonalize(op, 11) is first and calls == [11, 13, 11]
    gridverify._solve.cache_clear()
    again = diagonalize(op, 11)
    assert calls == [11, 13, 11, 11]
    assert np.array_equal(again.eigenvalues, first.eigenvalues)
    assert np.array_equal(again.eigenvectors, first.eigenvectors)


def test_build_oscillator_grid_gives_equal_specs_one_read_only_operator():
    # the operator depends on the spec alone: an equal spec, here one with an int half
    # width, gets the same object, the last MEMO_ENTRIES specs are kept, and no caller
    # can change the shared band
    op = build_oscillator_grid(GridSpec(half_width=10.0, points=401))
    assert build_oscillator_grid(GridSpec(half_width=10, points=401)) is op
    assert build_oscillator_grid(GridSpec(half_width=10.0, points=403)) is not op
    assert build_oscillator_grid.cache_info().maxsize == gridverify.MEMO_ENTRIES
    with pytest.raises(ValueError, match="read-only"):
        op.band[0, 200] = 0.0


def test_diagonalize_memo_keeps_the_eight_last_used(monkeypatch):
    calls = _solve_calls(monkeypatch)
    ops = [build_oscillator_grid(GridSpec(half_width=6.0, points=51 + i)) for i in range(9)]
    for op in ops[:8]:
        diagonalize(op, 3)
    diagonalize(ops[0], 3)  # a hit, which makes ops[0] the last used
    diagonalize(ops[8], 3)  # the ninth drops the least recently used, ops[1]
    assert len(calls) == 9
    assert gridverify._solve.cache_info().currsize == gridverify.MEMO_ENTRIES == 8
    diagonalize(ops[0], 3)
    assert len(calls) == 9
    diagonalize(ops[1], 3)
    assert len(calls) == 10 and gridverify._solve.cache_info().currsize == 8


@pytest.mark.parametrize(("count", "kept"), [(256, True), (257, False)])
def test_diagonalize_memo_keeps_no_solution_above_a_mebibyte(monkeypatch, count, kept):
    # 512 samples x 256 modes are exactly MEMO_BYTES of eigenvectors; one mode more
    # is returned but not kept, and solved again when asked again
    assert gridverify.MEMO_BYTES == 512 * 256 * 8
    calls = _solve_calls(monkeypatch)
    op = build_oscillator_grid(GridSpec(half_width=10.0, points=512))
    first = diagonalize(op, count)
    assert gridverify._solve.cache_info().currsize == kept
    second = diagonalize(op, count)
    assert calls == [count] * (2 - kept)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


def test_diagonalize_memo_is_safe_across_threads():
    # four threads over ten operators, more than the memo keeps, with a short switch
    # interval so that threads interleave inside diagonalize: every result must equal
    # its cold solve and the memo must never hold more than MEMO_ENTRIES
    ops = [build_oscillator_grid(GridSpec(half_width=6.0, points=31 + i)) for i in range(10)]
    reference = []
    for op in ops:
        gridverify._solve.cache_clear()
        reference.append(diagonalize(op, 5).eigenvalues)
    gridverify._solve.cache_clear()
    wrong, sizes = [], []

    def work(shift):
        for i in range(30):
            j = (i + shift) % len(ops)
            if not np.array_equal(diagonalize(ops[j], 5).eigenvalues, reference[j]):
                wrong.append(j)
            sizes.append(gridverify._solve.cache_info().currsize)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(shift,)) for shift in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(sizes) == 4 * 30 and not wrong and max(sizes) <= gridverify.MEMO_ENTRIES


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
    for vector, message in [
        (np.zeros(5), "a nonzero vector"),
        ([0.0, -0.0], "a nonzero vector"),
        ([1.0, math.nan], "finite samples"),
        ([0.0, math.nan, math.inf], "finite samples"),
        ([1.0, math.inf], "finite samples"),
        ([-math.inf, 0.0], "finite samples"),
        ([[1.0, -1.0]], "a non-empty 1-D sample vector"),
        ([], "a non-empty 1-D sample vector"),
    ]:
        with pytest.raises(ValueError, match=f"^node counting needs {message}$"):
            count_nodes(np.array(vector))


def _sign_count(vector):
    """The node count by the np.sign formula count_nodes first used, kept as a reference."""
    v = np.asarray(vector, dtype=np.float64)
    peak = np.max(np.abs(v))
    live = v[np.abs(v) > gridverify.SIGN_THRESHOLD_RATIO * peak]
    signs = np.sign(live)
    return int(np.sum(signs[:-1] != signs[1:]))


def test_count_nodes_matches_the_sign_formula():
    # Seeded vectors whose samples sit in the bulk, a few ulps either side of the
    # 1e-9 threshold or on it, or are exact zeros of either sign, under peaks from
    # 1e300 down to subnormal ones, where the threshold itself underflows to 0.
    rng = random.Random(30)
    peaks = [1.0, 3.7e-5, 1e300, 1.7e308, 2.0**-1022, 2.0**-1074, 3 * 2.0**-1074,
             2.0**-1060, 1e-310]
    counts = set()
    for _ in range(10_000):
        peak = rng.choice(peaks)
        edge = gridverify.SIGN_THRESHOLD_RATIO * peak
        samples = []
        for _ in range(rng.randint(0, 30)):
            kind = rng.random()
            if kind < 0.4:
                x = rng.uniform(-1.0, 1.0) * peak
            elif kind < 0.8:
                x = edge
                for _ in range(rng.randint(0, 3)):
                    x = math.nextafter(x, rng.choice((0.0, math.inf)))
            else:
                x = 0.0
            samples.append(rng.choice((1.0, -1.0)) * x)
        samples.insert(rng.randint(0, len(samples)), rng.choice((1.0, -1.0)) * peak)
        vector = np.array(samples)
        count = count_nodes(vector)
        assert count == _sign_count(vector), samples
        counts.add(count)
    assert len(counts) > 10


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
    by_level = dict(zip(report.node_sequence, report.checks))
    for level, energy in ((3, -10.5), (6, 0.0), (8, 17.0)):
        assert by_level[level].grid_eigenvalue == pytest.approx(energy, abs=2e-5)


def test_verify_identity_oscillator():
    report = verify_dialled(IDENTITY, levels_to_check=5)
    assert report.passed
    assert report.node_sequence == (0, 1, 2, 3, 4)
    for n, check in enumerate(report.checks):
        assert check.analytic_energy == Fraction(2 * n + 1, 2)
        assert check.abs_error < 1e-5


def test_verify_identity_dial_is_the_identity_report():
    # dial stores powers 1..9 with a_2..a_9 = 0; the grid check sees P = h alone.
    dialled = dial(SpectrumTarget.from_energies([Fraction(2 * n + 1, 2) for n in range(9)]))
    assert len(dialled.terms) == 9
    assert verify_dialled(dialled) == verify_dialled(IDENTITY)


def test_verify_cubic_reordering():
    ham = PolynomialHamiltonian.from_dense([Fraction(-4), Fraction(0), Fraction(1)])
    report = verify_dialled(ham)
    assert report.passed
    assert report.node_sequence[:3] == (1, 0, 2)
    assert report.warning is None
    assert max(c.abs_error for c in report.checks) < 1e-3


def test_verify_degenerate_pair_passes():
    ham = dial(SpectrumTarget.from_energies([Fraction(1), Fraction(1), Fraction(5)]))
    assert ham.dense_coefficients() == (Fraction(11, 3), Fraction(-4), Fraction(4, 3))
    report = verify_dialled(ham)
    assert report.degenerate
    assert report.passed


def test_verify_verdict_does_not_depend_on_the_scale_of_p():
    # Scaling P by 2^m scales every grid eigenvalue and exact energy exactly, so only
    # absolute errors may change.  With absolute thresholds, level 6's exact zero
    # failed at 2^10 (error 4.2e-3) and every gap was degenerate at 2^-10.
    def outcome(m):
        scale = Fraction(2) ** m
        ham = PolynomialHamiltonian.from_dense([a * scale for a in QUADRATIC.dense_coefficients()])
        report = verify_dialled(ham)
        return (report.degenerate, report.sequence_matches, report.passed,
                [(c.within_tolerance, c.rel_error) for c in report.checks])

    assert outcome(-10) == outcome(0) == outcome(10)
    degenerate, matches, passed, rows = outcome(0)
    assert (degenerate, matches, passed) == (False, True, True)
    assert rows[6] == (True, None)  # level 6, E = 0


@pytest.mark.parametrize(
    ("ham", "swap", "gap"),
    [(dial(SpectrumTarget.from_energies([Fraction(1), Fraction(201, 200), Fraction(5)])),
      (0, 1), 5e-3),
     (PolynomialHamiltonian.from_dense([-8, 1]), (7, 8), 8.0)],
    ids=["near-tie", "exact-pairs"],
)
def test_verify_checks_the_node_count_of_every_level(monkeypatch, ham, swap, gap):
    # dial(1, 201/200, 5) puts levels 0 and 1 5e-3 apart, a degenerate gap; h^2 - 8h
    # pairs levels n and 7 - n exactly and leaves level 8 alone at the top.  Every
    # eigenvalue of A is simple, so every mode is matched to the level of its node
    # count: with two counts swapped, each of the two modes meets the other level's
    # energy, off by their gap, and the report fails
    report = verify_dialled(ham)
    assert report.degenerate and report.passed
    count = gridverify.count_nodes
    a, b = swap
    monkeypatch.setattr(gridverify, "count_nodes", lambda v: {a: b, b: a}.get(count(v), count(v)))
    report = verify_dialled(ham)
    failed = {n: c.abs_error for n, c in zip(report.node_sequence, report.checks)
              if not c.within_tolerance}
    assert failed == {a: pytest.approx(gap, rel=1e-3), b: pytest.approx(gap, rel=1e-3)}
    assert not report.passed


def _degenerate_oracle(ham, report):
    """Two adjacent sorted exact energies within DEGENERACY_FACTOR * tolerance, in Fractions."""
    energies = [evaluate_polynomial(ham, Fraction(2 * n + 1, 2)) for n in report.expected_sequence]
    assert energies == sorted(energies)
    closeness = Fraction(gridverify.DEGENERACY_FACTOR * report.tolerance)
    return any(b - a <= closeness * max(abs(a), abs(b)) for a, b in zip(energies, energies[1:]))


def test_verify_degenerate_agrees_with_a_fraction_oracle():
    # Seeded dials, some with one adjacent pair of targets exactly on the degeneracy
    # bound or a hair either side of it, at several tolerances.
    rng = random.Random(30)
    spec = GridSpec(half_width=8.0, points=201)
    seen = []
    for _ in range(40):
        tolerance = rng.choice((1e-3, 2.5e-4, 1e-2, 0.05))
        closeness = Fraction(gridverify.DEGENERACY_FACTOR * tolerance)
        energies = [Fraction(rng.randint(-60, 60), rng.randint(1, 7)) for _ in range(rng.randint(2, 5))]
        if rng.random() < 0.6:
            i = rng.randrange(len(energies) - 1)
            a = energies[i] or Fraction(1)
            b = a / (1 - closeness) if a > 0 else a * (1 - closeness)  # b - a = c max(|a|, |b|)
            energies[i:i + 2] = [a, b + rng.choice((0, 1, -1)) * Fraction(1, 2**70)]
        ham = dial(SpectrumTarget.from_energies(energies))
        report = verify_dialled(ham, spec, levels_to_check=len(energies), tolerance=tolerance)
        assert report.degenerate == _degenerate_oracle(ham, report), energies
        seen.append(report.degenerate)
    assert True in seen and False in seen


@pytest.mark.parametrize(("beyond", "degenerate"), [(0, True), (1, False)], ids=["on", "beyond"])
def test_verify_degenerate_bound_is_inclusive_and_exact(beyond, degenerate):
    # Levels -1 and -1 + c apart by exactly c max(|a|, |b|) = c, c = Fraction(10 tol);
    # 2^-80 more is no longer degenerate, though it vanishes in float64.
    tolerance = 1e-3
    closeness = Fraction(gridverify.DEGENERACY_FACTOR * tolerance)
    energies = [Fraction(-1), -1 + closeness + beyond * Fraction(1, 2**80)]
    ham = dial(SpectrumTarget.from_energies(energies))
    report = verify_dialled(ham, GridSpec(half_width=8.0, points=201), levels_to_check=2,
                            tolerance=tolerance)
    assert report.expected_sequence == (0, 1)
    assert report.degenerate is degenerate
    assert _degenerate_oracle(ham, report) is degenerate


def test_verify_zero_polynomial_trivially_degenerate():
    zero = PolynomialHamiltonian.from_dense([Fraction(0)])
    report = verify_dialled(zero, GridSpec(half_width=6.0, points=201), levels_to_check=4)
    assert report.degenerate
    assert report.passed
    for check in report.checks:
        assert check.analytic_energy == 0


def test_verify_unbounded_below_fails_with_its_reason():
    # leading coefficient -17/8190: on 401 points the grid's spectrum stops before P
    # turns down, so its lowest modes do match levels 0..8, but those are not the
    # lowest levels of P and the report must not pass
    energies = [Fraction(41, 13), Fraction(-37, 6), Fraction(-11), Fraction(19)]
    ham = dial(SpectrumTarget.from_energies(energies))
    report = verify_dialled(ham, GridSpec(half_width=10.0, points=401))
    assert all(c.within_tolerance for c in report.checks) and report.sequence_matches
    assert not report.passed
    assert report.warning == (
        "P is unbounded below (leading coefficient -17/8190 < 0), so levels 0..8 "
        "are not its lowest"
    )


# In the three cases below the first 11 modes do not cover P's lowest, and the
# verifier asks once more for 11 + s modes, s the least integer from which P stays
# above the ninth lowest of the first 11 mapped modes.
# Dialled from -10, -11, -10/3, -57/13: bounded below, with its lowest levels near
# n = 18, and s = 26
FAR_QUARTIC = dial(SpectrumTarget.from_energies(
    [Fraction(-10), Fraction(-11), Fraction(-10, 3), Fraction(-57, 13)]))
# h^2 (h - 25)(h - 30) rises through levels 0..10 and then falls to its minimum near
# h = 27.7: the first 11 modes map in order, and P passes P(8.5) again at h ~ 32.96,
# so s = 33
HUMP = PolynomialHamiltonian.from_dense([0, 750, -55, 1])
# h^2 - 96/5 h is lowest at h = 9.6 and symmetric about it: the ninth lowest of the
# first 11 is P(2.5), which P passes again at h = 16.7, so s = 17
VALLEY = PolynomialHamiltonian.from_dense([Fraction(-96, 5), 1])


def _diagonalize_counts(monkeypatch):
    """The `count` of every diagonalize call verify_dialled makes, in order."""
    diagonalize_ = gridverify.diagonalize
    sizes = []
    monkeypatch.setattr(gridverify, "diagonalize", lambda op, count: (
        sizes.append(count) or diagonalize_(op, count)))
    return sizes


@pytest.mark.parametrize("points", [401, 1001])
@pytest.mark.parametrize(
    ("ham", "counts"),
    [(FAR_QUARTIC, [11, 37]), (HUMP, [11, 44]), (VALLEY, [11, 28]),
     (PolynomialHamiltonian.from_dense([3, 1, 4, 1, 5]), [11]), (QUADRATIC, [11]),
     (PolynomialHamiltonian.from_dense([-1]), [11]),
     (PolynomialHamiltonian.from_dense([0]), [11])],
    ids=["far-quartic", "hump", "valley", "quintic", "quadratic", "minus-h", "zero"],
)
def test_verify_keeps_the_lowest_of_p_over_the_whole_grid_spectrum(
    monkeypatch, ham, counts, points
):
    # Reference: every eigenvalue of A from one eigvals_banded call on the full band,
    # mapped through P by float Horner.  The verifier must keep the nine lowest, as
    # values and as modes, whose node count is their index.  P with a leading
    # coefficient <= 0 has no lowest; the verifier maps A's first 11 modes.
    # `counts` are the diagonalize calls, at most two.
    spec = GridSpec(half_width=10.0, points=points)
    mu = scipy.linalg.eigvals_banded(build_oscillator_grid(spec).band, lower=True)
    dense_coeffs = [float(c) for c in ham.dense_coefficients()]
    mapped = np.zeros_like(mu)
    for c in reversed(dense_coeffs):
        mapped = mu * (mapped + c)
    if not (dense_coeffs and dense_coeffs[-1] > 0):
        mapped = mapped[:11]
    modes = np.argsort(mapped, kind="stable")[:9]
    sizes = _diagonalize_counts(monkeypatch)
    report = verify_dialled(ham, spec)
    assert report.node_sequence == tuple(modes.tolist())
    got = np.array([check.grid_eigenvalue for check in report.checks])
    assert np.max(np.abs(got - mapped[modes])) <= 1e-9 * np.max(np.abs(mapped[modes]))
    assert sizes == counts


# bounded below, but with its lowest levels near n = 1891
FAR_QUINTIC = PolynomialHamiltonian.from_dense(
    [Fraction(-2888383, 411840), Fraction(-10427, 4680), Fraction(11377, 3960),
     Fraction(-5927, 12870), Fraction(1, 5148)])


@pytest.mark.parametrize(
    ("ham", "points", "reach"),
    [(PolynomialHamiltonian.from_dense([-200, 1]), 21, 1), (FAR_QUINTIC, 801, 50)],
    ids=["h2-200h", "far-quintic"],
)
def test_verify_fails_as_unresolved_when_p_falls_beyond_reach(monkeypatch, ham, points, reach):
    # h^2 - 200 h falls up to h = 100, and a 21-point grid of spacing 1 resolves only
    # h < ceil(1^2 / 2) = 1; the quintic's lowest levels lie far beyond the h < 50 that
    # the half-width-10 box resolves at 801 points.  No s lies within reach, so the
    # first solve is the last, its rows are kept and the report fails with the reason.
    spec = GridSpec(half_width=10.0, points=points)
    mu = scipy.linalg.eigvals_banded(build_oscillator_grid(spec).band, lower=True)[:11]
    mapped = np.zeros_like(mu)
    for c in reversed([float(c) for c in ham.dense_coefficients()]):
        mapped = mu * (mapped + c)
    lowest = np.sort(mapped)[:9]
    sizes = _diagonalize_counts(monkeypatch)
    report = verify_dialled(ham, spec)
    assert sizes == [11]
    got = np.array([check.grid_eigenvalue for check in report.checks])
    assert np.max(np.abs(got - lowest)) <= 1e-9 * np.max(np.abs(lowest))
    assert not report.passed
    assert report.warning == (
        f"P does not stay above the kept values beyond the 11 modes solved, and this grid "
        f"resolves only h < {reach}, so levels 0..8 may not be its lowest"
    )


def test_verify_fails_when_the_retry_does_not_cover(monkeypatch):
    # Where the grid barely resolves them, modes can lie below their index: at half
    # width 60 and 6688 points, mode s + 2 lies 2.6 below s = 1552 < reach = 1553, so a
    # retry for 1 + 2 + s modes need not cover.  Here the test is made to fail at every
    # mode, though not at the integers, so the valley's retry of 11 + 17 modes does not
    # cover; its rows are those of the unpatched run, which covers there.
    spec = GridSpec(half_width=10.0, points=401)
    expected = verify_dialled(VALLEY, spec)
    positive_from = gridverify._positive_from
    monkeypatch.setattr(gridverify, "_positive_from", lambda q, point: (
        isinstance(point, int) and positive_from(q, point)))
    sizes = _diagonalize_counts(monkeypatch)
    report = verify_dialled(VALLEY, spec)
    assert sizes == [11, 28]
    assert report.checks == expected.checks and expected.warning is None
    assert not report.passed
    assert report.warning == (
        "P does not stay above the kept values beyond the 28 modes solved, and this grid "
        "resolves only h < 50, so levels 0..8 may not be its lowest"
    )


def test_verify_passes_where_p_rises_through_a_flat_point(monkeypatch):
    # P = (h - 60)^3 + 216000 rises everywhere, with P' = 3 (h - 60)^2 zero at h = 60
    # beyond the grid's reach of 50: levels 0..8 are its lowest, the first solve
    # covers them and the report passes
    sizes = _diagonalize_counts(monkeypatch)
    report = verify_dialled(PolynomialHamiltonian.from_dense([10800, -180, 1]), GridSpec())
    assert sizes == [11]
    assert report.passed and report.warning is None


def test_verify_coarse_grid_fails_without_raising():
    report = verify_dialled(QUADRATIC, GridSpec(half_width=10.0, points=5))
    assert not report.passed
    assert len(report.checks) == 5  # clamped to the grid size


@pytest.mark.parametrize("coeffs", [[10] * 4, [3, 1, 4, 1, 5]],
                         ids=["quartic-at-cap", "quintic"])
def test_verify_high_degree_passes_without_a_warning(coeffs):
    # ||P(A)|| reaches ~2e16 for the all-10 quartic, so eigenvalues of P(A) itself
    # would carry O(1) absolute noise; mapping A's own eigenvalues through P keeps the
    # error at the grid's discretisation, and P is bounded below, so nothing is warned
    report = verify_dialled(PolynomialHamiltonian.from_dense(coeffs))
    assert report.warning is None
    assert report.passed
    assert report.node_sequence == tuple(range(9))
    assert max(check.rel_error for check in report.checks) < 1e-5


def test_verify_matches_exact_spectrum():
    # 3h - h^2 (degenerate) and -h are both matched by node count, up to A's mode
    # count + 1 = 7, above the window: every check carries P(h_n) of its level
    for coeffs in ([3, -1], [-1]):
        ham = PolynomialHamiltonian.from_dense(coeffs)
        report = verify_dialled(ham, levels_to_check=6)
        assert max(report.node_sequence) == 7
        for level, check in zip(report.node_sequence, report.checks):
            exact = evaluate_polynomial(ham, Fraction(2 * level + 1, 2))
            assert check.analytic_energy == exact


@pytest.mark.parametrize("ham", [QUADRATIC, PolynomialHamiltonian.from_dense([-1])],
                         ids=["quadratic", "unbounded"])
def test_verify_measures_the_grid_before_it_reads_the_exact_side(monkeypatch, ham):
    # every exact entry point raises until count_nodes has run once per checked level,
    # so the grid's eigenpairs and node counts are fixed before any exact energy exists
    expected = verify_dialled(ham)
    counted = []
    count_nodes = gridverify.count_nodes

    def counting(vector):
        counted.append(1)
        return count_nodes(vector)

    def after_the_grid(fn):
        def guarded(*args, **kwargs):
            if len(counted) < 9:
                raise AssertionError(f"{fn.__name__} ran before the grid's node counts")
            return fn(*args, **kwargs)
        return guarded

    monkeypatch.setattr(gridverify, "count_nodes", counting)
    for name in ("evaluate_spectrum", "ordering_report"):
        monkeypatch.setattr(gridverify, name, after_the_grid(getattr(gridverify, name)))
    assert verify_dialled(ham) == expected
    assert len(counted) == 9



@pytest.mark.parametrize(
    ("ham", "points"),
    [(QUADRATIC, 1001), (PolynomialHamiltonian.from_dense([-1]), 1001),
     (PolynomialHamiltonian.from_dense([0]), 1001), (HUMP, 401), (FAR_QUINTIC, 801),
     (PolynomialHamiltonian.from_dense([Fraction(-31741, 1092), Fraction(3649, 182),
                                        Fraction(-1063, 273), Fraction(34, 273)]), 601)],
    ids=["covered", "unbounded", "zero", "retried", "unresolved", "retry-cubic"],
)
def test_grid_side_reads_no_exact_energy(monkeypatch, ham, points):
    # With every exact evaluator made to raise, the grid side still returns the grid
    # values, node counts and warning of verify_dialled's report, on each of its
    # branches: the first solve covers, P is unbounded below, P is zero, a retry
    # covers, no retry lies within reach, and the retry of 11 then 37 modes
    spec = GridSpec(half_width=10.0, points=points)
    report = verify_dialled(ham, spec)

    def refuse(*args, **kwargs):
        raise AssertionError("the grid side asked for an exact energy")

    for name in ("evaluate_spectrum", "ordering_report", "evaluate_polynomial", "_horner",
                 "_scaled_numerators"):
        monkeypatch.setattr(spectrum, name, refuse)
    for name in ("evaluate_spectrum", "ordering_report"):
        monkeypatch.setattr(gridverify, name, refuse)
    assert gridverify._measure_grid(ham, spec, 9) == (
        [check.grid_eigenvalue for check in report.checks], report.node_sequence,
        report.warning)

def test_verify_passing_reports_order_the_exact_energies_within_the_checks():
    # Seeded dials of degree 1-4, each with a near tie of its first two targets that
    # the grid may order either way.  No rule orders the node sequence, yet in every
    # passing report the exact energies, taken in node order, fall by no more than the
    # two checks allow: the mapped values ascend and each lies within tolerance of
    # its energy, or within the zero floor of an energy that is 0.0.
    rng = random.Random(4)
    spec = GridSpec(half_width=10.0, points=401)
    passed = falls = 0
    for _ in range(30):
        energies = [Fraction(rng.randint(-60, 60), rng.randint(1, 20))
                    for _ in range(rng.randint(1, 4))]
        if len(energies) > 1:
            energies[1] = energies[0] + Fraction(rng.randint(-9, 9), 10**7)
        report = verify_dialled(dial(SpectrumTarget.from_energies(energies)), spec)
        if not report.passed:
            continue
        passed += 1
        exact = [float(check.analytic_energy) for check in report.checks]
        floor = report.tolerance * min((abs(e) for e in exact if e != 0.0), default=0.0)
        for a, b in zip(exact, exact[1:]):
            falls += a > b
            slack = report.tolerance * (abs(a) + abs(b)) + floor * ((a == 0.0) + (b == 0.0))
            assert a - b <= slack
    assert passed >= 10 and falls > 0


def test_verify_keeps_the_pinned_verdicts_of_the_seed_61_stream():
    # tests/grid_verdicts.py regenerates the benchmark's seed-61 grid-verify stream
    # and writes the discrete fields of every report; a change to any of them must
    # show as a diff of the committed file, made by rerunning that script
    script = runpy.run_path(str(Path(__file__).parent / "grid_verdicts.py"))
    text = script["GOLDEN"].read_text()
    got = script["verdicts"]()
    for pinned, record in zip(json.loads(text), got):
        changed = [field for field in pinned if record.get(field) != pinned[field]]
        assert not changed, f"job {pinned['id']} changed {changed}: {record}"
    assert script["render"](got) == text


def test_verify_keeps_the_pinned_verdicts_of_the_high_degree_stream():
    # the same fields for the script's own stream of dials of degree 6-32, which the
    # benchmark's degree 1-5 stream never reaches
    script = runpy.run_path(str(Path(__file__).parent / "grid_verdicts.py"))
    text = script["HIGH_GOLDEN"].read_text()
    got = script["high_degree_verdicts"]()
    for pinned, record in zip(json.loads(text), got):
        changed = [field for field in pinned if record.get(field) != pinned[field]]
        assert not changed, f"job {pinned['id']} changed {changed}: {record}"
    assert script["render"](got) == text


def test_verify_reports_do_not_depend_on_the_memo(monkeypatch):
    # three rounds of the seed-61 grid-verify stream, 84 jobs on four grids, run with
    # the memo kept between calls and with it cleared before each: equal reports,
    # floats included, and the warm pass solves each grid's first ask once, though
    # retry solves come between them
    script = runpy.run_path(str(Path(__file__).parent / "grid_verdicts.py"))
    source = script["jobs"].RoundSource("grid-verify", 61, "")
    jobs = [job for _ in range(3) for job in source.next_round()]
    runs = [script["worker"].prepare_verify(job)[0] for job in jobs]

    def cold(run):
        gridverify._solve.cache_clear()
        return run()

    expected = [cold(run) for run in runs]
    gridverify._solve.cache_clear()
    calls = _solve_calls(monkeypatch)
    assert [run() for run in runs] == expected
    assert len(jobs) == 84 and calls.count(11) == len({job["points"] for job in jobs}) == 4


def test_verify_levels_validation():
    with pytest.raises(ValueError):
        verify_dialled(QUADRATIC, levels_to_check=0)
    with pytest.raises(ValueError):
        verify_dialled(QUADRATIC, tolerance=0.0)
